"""Factor sets of binary words and their overlap structure.

A FactorSet is a set of length-n binary words stored as a 2^n-bit membership
table (bit code(x) set iff x is a member). On top of it live:

  * factor extraction from ordinary and circular words,
  * the directed (n-1)-overlap graph, successors by the de Bruijn rule, and
    its strong components,
  * structural representability tests: does some word have exactly this
    factor set? (the overlap graph unilaterally connected, or strongly
    connected for circular words, which needs equal prefix and suffix
    projections, checked first on the table's bits),
  * the walk-layer kernel over (covered-subset, current-vertex) states, a
    bit set per vertex: one step on fixed per-vertex moves adds the vertex's
    bit to masks whose sum a grow table (None: all) holds and keeps those a
    keep table holds (the census's unreached states, gaining only above the
    least member in its closed walks; the covering walks' masks over all
    vertices but 0, which every mask holds, and the open ones' masks holding
    the vertex; simple paths, which only gain),
    and a greedy walk read off layers stepped on the reversed graph
    (bounds, and the ordinary witness search below); and shortest (circular)
    witness search: not found from those tests before any search. The
    ordinary search of a set of at most 16 members that is one strong
    component runs on walk layers from every ({v}, v), stopped at the first
    layer in which a start covers the set: a bit set of 2^members bits per
    member and move, however much the set branches. Every other search is
    one breadth-first search over those states with a parent link per
    state, whose first goal state reached ends the lexicographically least
    shortest walk, pruned by the strong components, each covered before a
    covering walk leaves it; it keeps only the states it reaches, as bit
    sets over every covered mask would not fit for 32 members. It stays
    where it is cheaper: the circular search runs once, from the least
    member, so its frontier stays narrow, and the prune bounds the states
    of a set of several components.

All values are immutable; the searches keep only private state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from itertools import compress
from typing import Iterable, Iterator, Mapping

from .budget import Budget, BudgetMeter
from .words import InvalidLength, Word


class EmptySet(ValueError):
    """Representability questions are asked of non-empty sets only."""


# per byte value, the positions of its set bits
_BYTE_BITS = tuple(tuple(k for k in range(8) if b >> k & 1) for b in range(256))


def _table(bits: int) -> bytes:
    """``bits`` as little-endian bytes to its top set bit: bit i is bit i & 7 of byte i >> 3."""
    return bits.to_bytes((bits.bit_length() + 7) >> 3, "little")


def _set_bits(table: bytes) -> Iterator[int]:
    """The set bits of ``table``, ascending; compress finds its nonzero bytes at C speed."""
    for i in compress(range(len(table)), table):
        for k in _BYTE_BITS[table[i]]:
            yield i << 3 | k


@dataclass(frozen=True)
class FactorSet:
    """A subset of the 2^order binary words of a fixed length."""

    order: int
    members: int

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be positive")
        if self.members < 0 or self.members.bit_length() > 1 << self.order:
            raise ValueError("membership table wider than 2^order bits")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_codes(cls, order: int, codes: Iterable[int]) -> "FactorSet":
        members = 0
        top = 1 << order
        for c in codes:
            if not 0 <= c < top:
                raise ValueError(f"code {c} out of range for order {order}")
            members |= 1 << c
        return cls(order, members)

    @classmethod
    def from_words(cls, ws: Iterable[Word]) -> "FactorSet":
        ws = list(ws)
        if not ws:
            raise EmptySet("cannot infer the order of an empty collection")
        order = ws[0].length
        if any(w.length != order for w in ws):
            raise ValueError("mixed word lengths")
        return cls.from_codes(order, (w.code for w in ws))

    @classmethod
    def from_texts(cls, texts: Iterable[str]) -> "FactorSet":
        return cls.from_words(Word.from_text(t) for t in texts)

    @classmethod
    def full(cls, order: int) -> "FactorSet":
        if order < 1:  # before the shift, which a negative order cannot make
            raise ValueError("order must be positive")
        return cls(order, (1 << (1 << order)) - 1)

    @classmethod
    def parse(cls, text: str, order: int | None = None,
              hex_bitmap: bool = False) -> "FactorSet":
        """Parse either a comma-separated word list or a hex bitmap.

        The hex form is the membership table as one hexadecimal number of
        2^order bits and requires an explicit order.
        """
        text = text.strip()
        if hex_bitmap:
            if order is None:
                raise ValueError("hex bitmaps need an explicit order")
            return cls(order, int(text, 16))
        items = [t.strip() for t in text.split(",") if t.strip()]
        if not items:
            raise EmptySet("empty factor-set text")
        ws = [Word.from_text(t) for t in items]
        if order is not None and ws[0].length != order:  # before the table is built
            raise ValueError(f"words have length {ws[0].length}, expected {order}")
        return cls.from_words(ws)

    # -- views -------------------------------------------------------------

    def codes(self) -> Iterator[int]:
        """Member codes in ascending (= lexicographic) order."""
        return _set_bits(_table(self.members))

    def __iter__(self) -> Iterator[Word]:
        for c in self.codes():
            yield Word(self.order, c)

    def __len__(self) -> int:
        return self.members.bit_count()

    def __contains__(self, item: Word | int) -> bool:
        code = item.code if isinstance(item, Word) else item
        if isinstance(item, Word) and item.length != self.order:
            return False
        return bool((self.members >> code) & 1)

    def is_empty(self) -> bool:
        return self.members == 0

    def to_text(self) -> str:
        return ",".join(str(w) for w in self)

    def to_hex(self) -> str:
        width = -(-(1 << self.order) // 4)
        return format(self.members, f"0{width}x")


@dataclass(frozen=True)
class WitnessResult:
    """Outcome of a witness search: found flag, witness length and word."""

    found: bool
    length: int = 0
    witness: Word | None = None


# -- factor extraction -----------------------------------------------------

def factors(w: Word, n: int) -> FactorSet:
    """The set of length-n factors of w read as an ordinary word."""
    if n < 1:
        raise ValueError("factor length must be positive")
    if w.length < n:
        raise InvalidLength(
            f"a word of length {w.length} has no factors of length {n}")
    mask = (1 << n) - 1
    members = 0
    for i in range(w.length - n + 1):
        members |= 1 << ((w.code >> (w.length - n - i)) & mask)
    return FactorSet(n, members)


def circular_factors(w: Word, n: int) -> FactorSet:
    """The set of length-n factors of w read circularly.

    Words shorter than n wrap around repeatedly, so every word has exactly
    |w| cyclic factor occurrences regardless of n.
    """
    if n < 1:
        raise ValueError("factor length must be positive")
    return factors(w.repeated_to(w.length + n - 1), n)


def _sides(members: int, n: int) -> tuple[int, int, int, int]:
    """Bit tables, over the words x of n-1 letters, of the words 0x, 1x, x0
    and x1 of the order-n set ``members``: the table's low and high halves,
    and its even and odd bits, read with stride 2 from its binary string
    padded to even length (no longer than the table up to its top member)."""
    half = 1 << (n - 1)
    hi = members >> half
    bits = format(members, f"0{(members.bit_length() + 2) & ~1}b")
    return members ^ hi << half, hi, int(bits[1::2], 2), int(bits[::2], 2)


def _balanced(fs: FactorSet) -> bool:
    """Whether the members' last and first n-1 letters form one set, as on a
    closed covering walk, where each member's successor begins with its last
    n-1 letters and its predecessor ends with its first."""
    lo, hi, even, odd = _sides(fs.members, fs.order)
    return lo | hi == even | odd


# -- overlap graph ---------------------------------------------------------

def _successors(fs: FactorSet) -> dict[int, tuple[int, ...]]:
    """The overlap graph of fs: each member x mapped to its successors, the
    members y whose first n-1 letters are the last n-1 of x. By the de Bruijn
    rule they are among (x << 1) & wmask, which is even, and that plus 1, so
    their two flags share a byte of the table's little-endian bytes, which
    are made once: the map takes time linear in 2^n."""
    wmask = (1 << fs.order) - 1
    table = _table(fs.members)
    adj = {}
    for x in _set_bits(table):
        y = x << 1 & wmask
        i = y >> 3  # past the top member's byte, y and y + 1 are absent
        pair = table[i] >> (y & 7) & 3 if i < len(table) else 0
        adj[x] = ((), (y,), (y + 1,), (y, y + 1))[pair]
    return adj


def strong_components(adjacency: Mapping[int, Iterable[int]]) -> list[list[int]]:
    """The strongly connected components of the digraph mapping each vertex
    to its successors, in topological order, sources first, each from its
    last vertex reached back to its first (Tarjan's algorithm, iterative).

    A vertex's one entry in ``low`` is its low link, a stack position, while
    it is on the stack, and ``done``, above every position, once its
    component is out, so a finished component lowers no link."""
    done = len(adjacency)
    low: dict[int, int] = {}
    stack: list[int] = []
    comps: list[list[int]] = []
    for root in adjacency:
        if root in low:
            continue
        low[root] = 0
        stack.append(root)
        work = [(root, iter(adjacency[root]), 0)]
        while work:
            v, succs, pos = work[-1]
            for w in succs:
                if w not in low:
                    low[w] = len(stack)
                    work.append((w, iter(adjacency[w]), len(stack)))
                    stack.append(w)
                    break
                if low[w] < low[v]:
                    low[v] = low[w]
            else:
                work.pop()
                if low[v] == pos:
                    comp = stack[pos:]
                    del stack[pos:]
                    for x in comp:
                        low[x] = done
                    comp.reverse()
                    comps.append(comp)
                elif low[v] < low[work[-1][0]]:  # not the root, which roots at 0
                    low[work[-1][0]] = low[v]
    comps.reverse()  # Tarjan emits each component after all it reaches
    return comps


# -- representability ------------------------------------------------------

def is_circ_representable(fs: FactorSet) -> bool:
    """Whether some circular word has exactly this cyclic factor set.

    Decided structurally: a circular witness is a closed covering walk, so
    the set needs equal prefix and suffix projections, checked first, and a
    strongly connected overlap graph (a lone vertex with equal projections is
    a constant word, which has its self-loop).
    """
    if fs.is_empty():
        raise EmptySet("no word witnesses the empty set")
    return _balanced(fs) and len(strong_components(_successors(fs))) == 1


def _chained(adj: Mapping[int, Iterable[int]], comps: list[list[int]]) -> bool:
    """Whether each strong component in ``comps`` (topological order) moves into the next."""
    return all(any(y in nxt for x in comp for y in adj[x])
               for comp, nxt in zip(comps, map(set, comps[1:])))


def is_representable(fs: FactorSet) -> bool:
    """Whether some ordinary word has exactly this factor set.

    Decided structurally: the overlap graph must be unilaterally connected,
    its strong components chained, i.e. its condensation a directed path
    (Bang-Jensen & Gutin, *Digraphs*, section 2). A lone vertex counts. A
    witness is a walk visiting every vertex, which crosses the strong
    components in topological order; conversely such a walk can cover each
    component before taking an edge to the next one.
    """
    if fs.is_empty():
        raise EmptySet("no word witnesses the empty set")
    adj = _successors(fs)
    return _chained(adj, strong_components(adj))


# -- (covered subset, current vertex) states ------------------------------

# The walk-layer kernel: a layer holds a bit set per vertex v, bit c for the
# state (covered mask c, v), so one integer operation moves every mask.
@cache
def _containing(nv: int) -> tuple[int, ...]:
    """Per vertex x, the bit set of the nv-vertex masks holding x: 2^x 0s, 2^x 1s, doubled."""
    return tuple(reduce(lambda m, k: m | m << (1 << k), range(x + 1, nv),
                        ((1 << (1 << x)) - 1) << (1 << x)) for x in range(nv))


def _step_forward(moves: list, layer: list[int]) -> list[int]:
    """The states one move after ``layer``: per vertex x, with moves[x] =
    (preds, shift, keep, grow) and p the masks at the vertices of preds (with
    a move to x; given successor lists, it steps the reversed graph), the bit
    set (p | p << shift & grow) & keep. So a mask c becomes c + shift, x's
    bit in the masks, if grow holds that, and either stays if keep holds it:
    a keep of masks holding x drops the sums of masks that held x. A grow of
    None stands for every mask; a keep of 0, for gains only: p << shift & grow."""
    nxt = []
    for vs, shift, keep, grow in moves:
        p = 0
        for v in vs:
            p |= layer[v]
        if grow is None:
            nxt.append((p | p << shift) & keep)
        elif keep:
            nxt.append((p | p << shift & grow) & keep)
        else:
            nxt.append(p << shift & grow)
    return nxt


def _greedy_walk(moves: list, layers: Iterable[list[int]], v: int, states: int) -> list[int]:
    """The least walk from v down ``layers``, stepped forward on the reversed
    graph by ``moves`` (its preds being successors), given v's masks
    ``states`` in the layer above them: each move is to the first successor
    x holding a mask c or c - shift of v's masks, shift being v's bit."""
    walk = [v]
    for layer in layers:
        succs, shift, _, _ = moves[v]
        states |= states >> shift
        for v in succs:
            if states & layer[v]:
                break
        states &= layer[v]
        walk.append(v)
    return walk


# Bytes per state reached by the breadth-first witness search (its parent
# dict and frontier): tracemalloc's peak over the states reached on
# FactorSet.full(4) was 71.5 for the ordinary search and 104.6 to 105.2 for
# shortest_circular_witness, varying with what the process held before; the
# larger, rounded up, is charged, plus a byte per 8 members, which a state's
# covered mask grows with.
_STATE_BYTES = 106
# States' bytes charged per member for the component and move tables: their
# tracemalloc peak was at most 3.4 states' bytes per member over full, random
# and sparse sets of 8 or more members of orders 2..12.
_TABLE_STATES = 4


def _structure(fs: FactorSet) -> tuple[dict[int, tuple[int, ...]], list[list[int]]]:
    """The overlap graph of fs and its strong components."""
    adj = _successors(fs)
    return adj, strong_components(adj)


def _cover_word(fs: FactorSet, starts: int, end: int | None, budget: Budget | None,
                structure: tuple | None = None) -> Word | None:
    """The least word of a shortest walk over the overlap graph of fs that
    starts at a vertex of the bit set ``starts`` (members of fs), covers
    every member and, unless ``end`` is None, ends at ``end``; None, decided
    before any search, when there is none.

    A walk crosses the strong components in topological order and can cover
    a chain of them one by one: one exists iff they are chained, a start is
    in the source one and ``end``, if given, in the sink one. Then one
    breadth-first search over states (covered << n) | v, covered having the
    bit 1 << r of each vertex passed, r its rank among the members listed
    component by component, starts in the source component and drops a move
    into a later one unless all earlier ones are covered: it keeps every
    covering walk. A state thus takes about |fs| + n bits, however wide the
    set's table. Each layer is expanded in the
    order its states were first reached and each state's moves by ascending
    next vertex, so every state is first reached by its least shortest walk,
    and the first goal state reached ends the least shortest walk. The word
    is that walk's first vertex, then the last letter of each next one.
    ``structure``, when given, is ``_structure(fs)``, made by the caller:
    shortest_witness, which makes it to pick the search for a set of at most
    16 members, passes it on. Over the ordinary queries of perfbench's seeds
    1, 41 and 57 (batches 0..2, about 1950 breadth-first searches each)
    that took 103, 104 and 107 ms against 127, 122 and 133 ms with the
    structure made again here (process time, median of 11 interleaved runs
    on a 2-core Xeon).
    """
    n = fs.order
    wmask = (1 << n) - 1
    # the goal states (every member covered, v), v == end if given, lie in [lo, hi]
    covered = (1 << len(fs)) - 1
    lo = covered << n | (end or 0)
    hi = covered << n | (wmask if end is None else end)
    size = _STATE_BYTES + len(fs) // 8

    def word(st: int, d: int) -> Word:
        # d parent links back from a state of depth d; a state's low bit is
        # its vertex's last letter
        code = 0
        for k in range(d):
            code |= (st & 1) << k
            st = parent[st]
        return Word(n + d, (st & wmask) << d | code)

    meter = BudgetMeter(budget) if budget is not None else None
    if meter is not None:
        count = starts.bit_count()
        meter.note(depth=0, states=count, frontier=count)
        meter.charge_memory(count * size, "witness search start")
        meter.charge_memory(len(fs) * _TABLE_STATES * size, "witness search tables")
    adj, comps = structure or _structure(fs)
    # members ranked in component order: per member, its covered bit and
    # the covered bits of every member of the earlier components
    bit, earlier = {}, {}
    for comp in comps:
        below = (1 << len(bit) << n) - (1 << n)
        for x in comp:
            bit[x], earlier[x] = 1 << len(bit) << n, below
    frontier = [bit[u] | u for u in sorted(comps[0]) if starts >> u & 1]
    if not (frontier and _chained(adj, comps) and end in (None, *comps[-1])):
        return None  # the one not-found verdict
    # per vertex, its moves: the bits a move adds to a state, and the covered
    # bits it needs (0 for a move within the component)
    moves = {}
    for v, xs in adj.items():
        moves[v] = out = []
        for x in xs:
            need = earlier[x]
            out.append((bit[x] | x, need if need != earlier[v] else 0))
    if meter is not None:
        meter.release_memory((count - len(frontier)) * size)
    parent: dict[int, int | None] = dict.fromkeys(frontier)
    for st in frontier:
        if lo <= st <= hi:
            return word(st, 0)
    d = 0
    while frontier:  # never runs dry: a covering walk exists
        d += 1
        if meter is not None:
            # a layer has at most two successors per state: charge that
            # before building it and release what it did not take
            worst = 2 * len(frontier) * size
            meter.charge_memory(worst, f"witness search depth {d}")
        nxt = []
        for st in frontier:
            v = st & wmask
            base = st ^ v
            for add, need in moves[v]:
                if need and base & need != need:
                    continue
                nst = base | add
                if nst not in parent:
                    parent[nst] = st
                    if lo <= nst <= hi:
                        return word(nst, d)
                    nxt.append(nst)
        frontier = nxt
        if meter is not None:
            meter.release_memory(worst - len(nxt) * size)
            meter.note(depth=d, states=len(parent), frontier=len(nxt))
            meter.check_time(f"witness search depth {d}")
    raise AssertionError("the witness search ran dry on a chained overlap graph")


# The ordinary search takes the walk layers only on sets of at most this many
# members: a layer then holds at most 2^16 bits per vertex, the census's width
_LAYER_MAX_MEMBERS = 16


def _layer_cover(fs: FactorSet, adj: Mapping[int, tuple[int, ...]],
                 budget: Budget | None) -> Word:
    """The least word of a shortest walk covering every member of fs, whose
    overlap graph ``adj`` is strongly connected, read off walk layers.

    Members are ranked by code. Layer d holds, per member v, the masks that
    walks of d moves from v cover: layer 0 holds ({v}, v), and each next
    layer is ``_step_forward`` on the successor ranks, v's bit, the masks
    holding v and every mask grown. The first layer in which some start
    holds every member gives the length; the least such start, then
    ``_greedy_walk`` down the layers, gives the least walk, as successors
    are listed by ascending code, i.e. next letter. With a budget, the
    tables and step temporaries, then each layer, are charged before they
    are built, each layer's depth and the states held are noted, and the
    time is checked after each layer.
    """
    codes = list(adj)  # ascending
    m = len(codes)
    full = (1 << m) - 1
    rank = {x: r for r, x in enumerate(codes)}
    # a bit set over the masks, a Python int of 2^m bits (4 bytes per 30 bits
    # and a header), with its list slot; a layer holds one per member
    bits = (1 << m) // 7 + 40
    size = m * bits
    meter = BudgetMeter(budget) if budget is not None else None
    if meter is not None:
        # the move tables, four states per member as in the breadth-first
        # search, the masks holding each member, layer 0 and a step's temporaries
        meter.charge_memory(m * _TABLE_STATES * _STATE_BYTES + 2 * size + 8 * bits,
                            "witness layer tables")
    moves = [([rank[y] for y in adj[x]], 1 << r, keep, None)
             for r, (x, keep) in enumerate(zip(codes, _containing(m)))]
    layers = [[1 << (1 << r) for r in range(m)]]
    states = m
    while not any(masks >> full for masks in layers[-1]):
        if meter is not None:
            meter.charge_memory(size, f"witness layer {len(layers)}")
        layers.append(_step_forward(moves, layers[-1]))
        if meter is not None:
            states += sum(map(int.bit_count, layers[-1]))
            meter.note(depth=len(layers) - 1, states=states)
            meter.check_time(f"witness layer {len(layers) - 1}")
    start = next(r for r, masks in enumerate(layers[-1]) if masks >> full)
    walk = _greedy_walk(moves, layers[-2::-1], start, 1 << full)
    code = codes[start]
    for r in walk[1:]:
        code = code << 1 | codes[r] & 1
    return Word(fs.order + len(walk) - 1, code)


def shortest_witness(fs: FactorSet, budget: Budget | None = None) -> WitnessResult:
    """Shortest ordinary witness, lexicographically least among minimal.

    Not found as in is_representable, before any search. Else the overlap
    graph and its components, made once, pick the search: walk layers
    (``_layer_cover``) for a set of at most 16 members that is one strong
    component, and otherwise one breadth-first search (``_cover_word``)
    over (covered, vertex) states from each single-member state of the
    source strong component, ascending, ended at the first covering the
    set. Both give the same word; a walk of d edges gives a witness of
    length order + d.

    A layer costs m 2^m bits for m members, whatever the set; the
    breadth-first states grow with the branching and the starts. So the
    layers take a set branching within one component (FactorSet.full(4):
    1.5 ms on layers, 6.6 ms breadth-first) and leave the search a set of
    several components, whose states the prune bounds (0xbedf of order 4,
    components of 1, 1, 9, 1 and 1 members: 86 us, 301 us on layers). A
    sparse one-component set can run slower on layers, when its walk takes
    many more moves than it has members (0x365c7ab0 of order 5, 16 members,
    21 moves: 1.0 ms, 2.8 ms on layers), but the sparse ones the witness
    queries draw take less on layers in total: the 333, 345 and 328
    one-component sets of at most 16 members, fewer than half of them
    branching, among the ordinary queries of perfbench's seeds 1, 41 and 57
    (batches 0..2) took 14.3, 25.5 and 13.6 ms on layers against 15.4, 29.6
    and 14.5 ms breadth-first (process time, median of 7 interleaved runs).
    Timed on a 2-core Xeon.

    With a budget, each search charges what it holds before building it,
    at its largest possible size, so the charge never passes the limit, and
    checks the time after each layer: the breadth-first search its start
    layer, component and move tables and each later layer; the walk layers
    their tables and step temporaries and each layer, all kept for the walk
    read back.
    """
    if fs.is_empty():
        raise EmptySet("no word witnesses the empty set")
    structure = _structure(fs) if len(fs) <= _LAYER_MAX_MEMBERS else None
    if structure and len(structure[1]) == 1:
        w = _layer_cover(fs, structure[0], budget)
    else:
        w = _cover_word(fs, fs.members, None, budget, structure)
    return WitnessResult(False) if w is None else WitnessResult(True, w.length, w)


def shortest_circular_witness(fs: FactorSet,
                              budget: Budget | None = None) -> WitnessResult:
    """Shortest circular witness, lexicographically least among minimal.

    The witness of length d is a closed covering walk of d edges in the
    overlap graph. Such a walk passes through every member, so d is the same
    from every start, and one breadth-first search from the least member u0,
    stopped at the first state (whole set, u0), finds it. The witness is the
    first d letters of that walk's word; as every circular witness read from
    its start vertex begins with that vertex, starting from the least member
    gives the lex-least one.
    Reported length is that of the circular word itself. ``budget`` is used
    as in shortest_witness. A set whose prefix and suffix projections differ
    or whose overlap graph is not strongly connected has none: no search.
    """
    if fs.is_empty():
        raise EmptySet("no word witnesses the empty set")
    if not _balanced(fs):
        return WitnessResult(False)
    n = fs.order
    u0 = next(fs.codes())
    if len(fs) == 1:  # with equal projections, a constant word: 0 or 1 circularly
        return WitnessResult(True, 1, Word(1, u0 & 1))
    w = _cover_word(fs, 1 << u0, u0, budget)
    if w is None:
        return WitnessResult(False)
    d = w.length - n
    return WitnessResult(True, d, w.segment(1, d))
