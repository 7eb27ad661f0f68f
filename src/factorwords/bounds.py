"""Counting bounds and the walk-length machinery behind them.

Three independent pieces:

  * a constructive lower bound: starting from a de Bruijn word b of order n,
    splice any absent length-(n+1) word y into b b b b to get a circular
    witness t_y whose cyclic factor set is exactly {y} plus the factors of
    b; concatenating the t_y realizes every subset of the absent words, so
    at least 2^(2^n) sets of order n+1 are circularly representable;

  * an upper-bound audit: counting candidate sets net by net shows there
    are at most 10^(2^(n-1)) of them; the audit reproduces the full
    L[k][i] = C(m,i) C(m-i,k-2i) 2^(k-2i) table (m = 2^(n-1)) and checks
    the telescoped identity sum_k sum_i L[k][i] 7^i = 10^m exactly; a net
    audit checks the argument itself on the enumerated sets of orders up
    to 4, from four bit tables of each set: each circularly representable
    set of order n+1 has equal prefix and suffix projections T, and at most
    7^sigma(T) sets share a T;

  * covering closed walks in strongly connected digraphs: every such graph
    on n vertices has one of length at most floor((n+1)^2/4), a chain-fan
    family attains the bound, and 2^(2n-2) + 2^(n-1) therefore caps the
    extremal witness lengths. Past one strong-connectivity test, the exact
    optimum and the longest simple path behind the walk built step
    factorsets' walk layers forward on the reversed graph, then walk
    greedily: the optimum over masks of the vertices but 0, which all its
    walks end at, the simple path by moves that only gain a vertex.

All arithmetic in this module is exact integer arithmetic.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import reduce
from itertools import accumulate, repeat, zip_longest
from operator import add, mul

from .budget import Budget
from .enumeration import enumerate_representable
from .factorsets import _containing, _greedy_walk, _sides, _step_forward, circular_factors
from .words import Word


class AlreadyPresent(ValueError):
    """The word to splice in is already a cyclic factor of the scaffold."""


class NotStronglyConnected(ValueError):
    """Walk construction requires a strongly connected digraph."""


WALK_MAX_VERTICES = 15


# -- constructive lower bound -------------------------------------------------

def _check_debruijn(b: Word) -> int:
    n = (len(b)).bit_length() - 1
    if len(b) != 1 << n or len(circular_factors(b, n)) != 1 << n:
        raise ValueError(f"{b!r} is not a de Bruijn word")
    return n


def construct_ty(b: Word, y: Word) -> Word:
    """Splice y into the 4-fold repeat of b, keeping b as prefix and suffix.

    With t = bbbb (1-based), i1 the first occurrence of y minus its last
    letter and i2 the last occurrence of y minus its first letter, the
    returned circular word is

        b b t[1..i1-1] t[i1..i1+n-1] t[i2+n-1] t[i2+n..] b b

    whose cyclic factor set of order n+1 is {y} plus that of b. The two
    occurrences never overlap, which the construction asserts.
    """
    n = _check_debruijn(b)
    if y.length != n + 1:
        raise ValueError(f"expected a word of length {n + 1}, got {y.length}")
    if y in circular_factors(b, n + 1):
        raise AlreadyPresent(f"{y!r} is already a cyclic factor of the scaffold")
    bs = str(b)
    t = bs * 4
    y1 = str(y)[:n]
    y2 = str(y)[1:]
    i1 = t.index(y1) + 1
    i2 = t.rindex(y2) + 1
    if not i1 + n - 1 < i2:
        raise AssertionError("splice occurrences overlap; scaffold too short")
    text = (bs + bs + t[0:i1 - 1] + t[i1 - 1:i1 + n - 1]
            + t[i2 + n - 2] + t[i2 + n - 1:] + bs + bs)
    return Word.from_text(text)


def construct_ts(b: Word, absent: list[Word]) -> Word:
    """Concatenate the splices for each absent word.

    Every piece starts and ends with b, so junctions contribute no new
    factors: the cyclic factor set of the result is the input set united
    with the factors of b. An empty input yields b b.
    """
    return reduce(add, (construct_ty(b, y) for y in absent)) if absent else b + b


def lower_bound(n: int) -> int:
    """Certified count of distinct circularly representable sets of order
    n+1 produced by the splice construction: 2^(2^n)."""
    if n < 1:
        raise ValueError("order must be positive")
    return 1 << (1 << n)


# -- upper bound ---------------------------------------------------------------

def upper_bound(n: int) -> int:
    """Upper bound 10^(2^(n-1)) on the number of circularly representable
    sets of order n+1."""
    if n < 1:
        raise ValueError("order must be positive")
    return 10 ** (1 << (n - 1))


@dataclass(frozen=True)
class UpperBoundAudit:
    """Exact-arithmetic audit of the counting argument behind the bound."""

    n: int
    bound: int
    table: list[list[int]]       # table[k][i] = L[k][i]
    weighted_sum: int            # sum_k sum_i L[k][i] * 7^i
    telescoped: int              # sum_i C(m,i) 7^i 3^(m-i)
    binomial_identity_ok: bool   # sum_k L[k][i] = C(m,i) 3^(m-i) for each i

    @property
    def consistent(self) -> bool:
        return self.weighted_sum == self.telescoped == self.bound

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "bound": str(self.bound),
            "L": [[str(v) for v in row] for row in self.table],
            "weighted_sum": str(self.weighted_sum),
            "telescoped": str(self.telescoped),
            "binomial_identity_ok": self.binomial_identity_ok,
            "consistent": self.consistent,
        }


def upper_bound_audit(n: int) -> UpperBoundAudit:
    """Rebuild the L[k][i] table and verify its telescoping exactly.

    L[k][i] counts the k-element sets of order-n words containing exactly i
    complete pairs {0x, 1x}: choose the i pairs, then k-2i loose elements
    from distinct remaining pairs.
    """
    if n < 1:
        raise ValueError("order must be positive")
    m = 1 << (n - 1)
    # loose[r][j] = C(r, j) 2^j, the ways to take j loose elements, one of
    # two per pair, from r pairs, by Pascal's rule: row r - 1 plus twice it
    # shifted one place
    loose = [[1]]
    for _ in range(m):
        loose.append(list(map(add, loose[-1] + [0], [0, *(2 * v for v in loose[-1])])))
    pairs = [math.comb(m, i) for i in range(m + 1)]
    # past k - i = m, the k - 2i loose elements outnumber the m - i pairs left
    table = [[pairs[i] * loose[m - i][k - 2 * i] if k - i <= m else 0
              for i in range(k // 2 + 1)] for k in range(2 * m + 1)]
    columns = [sum(col) for col in zip_longest(*table, fillvalue=0)]
    sevens = list(accumulate(repeat(7, m), mul, initial=1))
    # column i sums to C(m, i) 3^(m-i) iff its inner sum over k is 3^(m-i)
    collapsed = [c * 3 ** (m - i) for i, c in enumerate(pairs)]
    return UpperBoundAudit(n, upper_bound(n), table, sum(map(mul, columns, sevens)),
                           sum(map(mul, collapsed, sevens)), columns == collapsed)


@dataclass(frozen=True)
class NetAudit:
    """Exact audit of the net argument on the enumerated sets of order n+1.

    Every S in C_(n+1) has equal prefix and suffix projections T, a set of
    C_n. For each x of n-1 letters S then meets the net {axb} in an edge
    cover of {a : ax in T} x {b : xb in T}: one of 7 when x is a skeleton of
    T (0x, 1x, x0 and x1 all in T), the one forced subset otherwise. So at
    most 7^sigma(T) sets project to T, sigma(T) counting its skeletons.
    """

    n: int
    circ_count: int                 # |C_(n+1)|
    unbalanced: int                 # sets of C_(n+1) whose two projections differ
    class_sizes: dict[int, int]     # projection T -> sets of C_(n+1) projecting to it
    caps: dict[int, int]            # T in C_n -> 7^sigma(T)

    @property
    def data_bound(self) -> int:
        return sum(self.caps.values())

    @property
    def consistent(self) -> bool:
        return (self.unbalanced == 0
                and all(size <= self.caps.get(t, 0) for t, size in self.class_sizes.items())
                and self.circ_count <= self.data_bound <= upper_bound(self.n))


def net_audit(n: int, budget: Budget | None = None) -> NetAudit:
    """Check the net argument on C_n and C_(n+1) as enumerated, n = 1..3."""
    if not 1 <= n <= 3:
        raise ValueError("the net audit needs orders n and n+1 enumerated: n in 1..3")
    down, up = (enumerate_representable(k, budget, collect_sets=True).circ_sets
                for k in (n, n + 1))
    caps = {}
    for t in down:
        lo, hi, even, odd = _sides(t, n)
        caps[t] = 7 ** (lo & hi & even & odd).bit_count()
    class_sizes = Counter()
    unbalanced = 0
    for s in up:
        lo, hi, even, odd = _sides(s, n + 1)
        unbalanced += lo | hi != even | odd
        class_sizes[lo | hi | even | odd] += 1
    return NetAudit(n, len(up), unbalanced, dict(class_sizes), caps)


# -- covering walks -------------------------------------------------------------

def _closure(adjacency: list[int]) -> int:
    """The bit set of the vertices reached from vertex 0; successors as bit sets."""
    reached = frontier = 1
    while frontier:
        step = 0
        while frontier:
            v = frontier.bit_length() - 1
            step |= adjacency[v]
            frontier ^= 1 << v
        frontier = step & ~reached
        reached |= frontier
    return reached


@dataclass
class Digraph:
    """Directed graph as adjacency sets; self-loops allowed, no parallels."""

    vertex_count: int
    edges: list[set[int]] = field(default_factory=list)

    def __post_init__(self):
        if self.vertex_count < 1:
            raise ValueError("need at least one vertex")
        if not self.edges:
            self.edges = [set() for _ in range(self.vertex_count)]
        if len(self.edges) != self.vertex_count:
            raise ValueError("adjacency size mismatch")

    def add_edge(self, u: int, v: int) -> None:
        if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
            raise ValueError(f"edge ({u},{v}) out of range")
        self.edges[u].add(v)

    def strongly_connected(self) -> bool:
        """Vertex 0 reaches every vertex and every vertex reaches it."""
        succ, pred = [0] * self.vertex_count, [0] * self.vertex_count
        for u, e in enumerate(self.edges):
            for v in e:
                succ[u] |= 1 << v
                pred[v] |= 1 << u
        everyone = (1 << self.vertex_count) - 1
        return _closure(succ) == everyone and _closure(pred) == everyone

    def to_text(self) -> str:
        lines = [str(self.vertex_count)]
        for u in range(self.vertex_count):
            for v in sorted(self.edges[u]):
                lines.append(f"{u} -> {v}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Digraph":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty digraph text")
        g = cls(int(lines[0]))
        for ln in lines[1:]:
            u, arrow, v = ln.split()
            if arrow != "->":
                raise ValueError(f"bad edge line: {ln!r}")
            g.add_edge(int(u), int(v))
        return g


@dataclass(frozen=True)
class WalkReport:
    """A constructed covering closed walk next to the exact optimum.

    Both walks are vertex sequences with first == last; length counts
    edges. The bound floor((n+1)^2/4) is guaranteed for the optimum.
    """

    walk: tuple[int, ...]
    length: int
    covers_all: bool
    bound: int
    optimal_walk: tuple[int, ...]
    optimal_length: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def _shortest_path(g: Digraph, s: int, t: int) -> list[int]:
    prev: dict[int, int | None] = {s: None}
    queue = [s]
    for v in queue:  # g is strongly connected: t is reached
        if v == t:
            break
        for w in g.edges[v]:
            if w not in prev:
                prev[w] = v
                queue.append(w)
    path = [t]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    return path[::-1]


def _longest_simple_path(g: Digraph) -> list[int]:
    """The least longest simple path, compared by start vertex, then by each
    step's position in ``g.edges`` iteration order. Layer j holds the states
    (c, v) of the simple paths of j moves from v, stepped by gains only."""
    nv = g.vertex_count
    moves = [(list(e), 1 << v, 0, has) for v, (e, has) in enumerate(zip(g.edges, _containing(nv)))]
    layers = [[1 << (1 << v) for v in range(nv)]]
    # a simple path makes at most nv - 1 moves: no step past that layer holds any
    while len(layers) < nv and any(nxt := _step_forward(moves, layers[-1])):
        layers.append(nxt)
    start, states = next((v, states) for v, states in enumerate(layers[-1]) if states)
    return _greedy_walk(moves, layers[-2::-1], start, states)


def _optimal_closed_cover(g: Digraph) -> list[int]:
    """Exact shortest closed covering walk, the least vertex sequence among
    them. One exists iff g is strongly connected, which is decided first.
    It can be rotated to start at 0: layer j holds the states (c, v) of the
    walks of j moves from v to 0 covering c; the first holding (all, 0)
    gives the length. Every mask holds 0, so it is indexed over vertices
    1..nv - 1, x's bit 2^(x - 1), and a move to 0 keeps every mask."""
    if not g.strongly_connected():
        raise NotStronglyConnected("graph is not strongly connected")
    nv = g.vertex_count
    if nv == 1:
        return [0, 0] if 0 in g.edges[0] else [0]
    full = (1 << nv - 1) - 1
    keeps = ((2 << full) - 1, *_containing(nv - 1))
    moves = [(sorted(e), 1 << x >> 1, keep, None)
             for x, (e, keep) in enumerate(zip(g.edges, keeps))]
    layers = [[1] + [0] * (nv - 1)]  # ({0}, 0): mask 0
    while not layers[-1][0] >> full & 1:  # (all, 0)
        layers.append(_step_forward(moves, layers[-1]))
    return _greedy_walk(moves, layers[-2::-1], 0, 1 << full)


def hamiltonian_walk(g: Digraph) -> WalkReport:
    """Closed covering walk built from a longest simple path, plus the
    exact optimum for comparison.

    The construction starts at the last vertex of a longest simple path L,
    visits the leftover vertices (ascending) through shortest paths, returns
    to the head of L and traverses it. The floor((n+1)^2/4) bound is
    guaranteed for the optimal walk.
    """
    nv = g.vertex_count
    if nv > WALK_MAX_VERTICES:
        raise ValueError(f"exact search limited to {WALK_MAX_VERTICES} vertices")
    bound = (nv + 1) ** 2 // 4
    optimal = _optimal_closed_cover(g)
    walk = optimal
    if nv > 1:
        path = _longest_simple_path(g)
        leftover = sorted(set(range(nv)) - set(path))
        stops = [path[-1]] + leftover + [path[0]]
        walk = [path[-1]]
        for a, b in zip(stops, stops[1:]):
            walk.extend(_shortest_path(g, a, b)[1:])
        walk.extend(path[1:])
    return WalkReport(
        walk=tuple(walk),
        length=len(walk) - 1,
        covers_all=set(walk) == set(range(nv)),
        bound=bound,
        optimal_walk=tuple(optimal),
        optimal_length=len(optimal) - 1,
    )


def chain_fan(n: int) -> Digraph:
    """The family attaining the walk bound: a directed chain of floor(n/2)
    vertices whose tail fans out to ceil(n/2) leaves, each wired back to the
    chain head. Its optimal covering closed walk has exactly
    floor((n+1)^2/4) edges."""
    if n < 2:
        raise ValueError("the family needs at least two vertices")
    chain = n // 2
    g = Digraph(n)
    for i in range(chain - 1):
        g.add_edge(i, i + 1)
    for leaf in range(chain, n):
        g.add_edge(chain - 1, leaf)
        g.add_edge(leaf, 0)
    return g


def random_strongly_connected(rng: random.Random, max_vertices: int = 12) -> Digraph:
    """A random strongly connected digraph, by rejection sampling sparse
    random digraphs (single vertices get a self-loop so walks are real)."""
    nv = rng.randint(1, max_vertices)
    p = min(1.0, 1.8 / max(nv - 1, 1))
    while True:
        g = Digraph(nv)
        if nv == 1:
            g.add_edge(0, 0)
            return g
        for u in range(nv):
            for v in range(nv):
                if u != v and rng.random() < p:
                    g.add_edge(u, v)
        if g.strongly_connected():
            return g


def witness_length_bound(n: int) -> int:
    """Cap on the extremal shortest-witness lengths for order n:
    2^(2n-2) + 2^(n-1), the walk bound on a 2^n-vertex graph."""
    if n < 1:
        raise ValueError("order must be positive")
    return (1 << (2 * n - 2)) + (1 << (n - 1))


def growth_ratio(n: int, count: int) -> float:
    """count^(1/2^n): the per-order growth rate of the set counts."""
    return count ** (1.0 / (1 << n))
