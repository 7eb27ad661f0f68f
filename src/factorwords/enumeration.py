"""Exhaustive enumeration of representable and circularly representable sets.

The search runs over states (S, v): a set S of length-n words and a vertex
v, such that some word ending in v has factor set exactly S. Appending one
letter maps (S, v) to (S + {x}, x), where x drops the first letter of v and
appends the new one. Breadth-first search from the single-word states
({u}, u) reaches exactly these states, and the depth of a state is the
length of the shortest such word minus n.

The census shards by the least member u of S. A walk covering S only
visits members of S, so shard u searches the (S, v) states whose vertices
are all at least u, indexed densely by ((S >> u) << n) | v: shard u is 2^u
times smaller than shard 0. One multi-source layered search from every
({w}, w), w >= u, gives the first depth of each set whose least member is
u; one search from ({u}, u) gives its shortest closed covering walk, whose
length is the same from every vertex the walk passes through. Shard u
writes its first depths straight into the census's one depth array, at the
sets whose least member is u. These slices are disjoint, so there is no
merge, and the shards run one after another in one process, in any order,
with the same result. One pair of scratch arrays, sized for shard 0 at
5 bytes per state, 2^(2^n + n) states, serves every shard, so the census
covers orders 1..4; order 5 is refused.

A set S is representable iff some walk covers exactly S, with shortest
witness n + (first depth). It is circularly representable iff some closed
walk of length d >= 1 returns to its start vertex having covered exactly S;
the shortest circular witness is the least such d (a lone vertex needs a
self-loop, covered by a singleton rule). The extremal witnesses are the least
of the per-set searches' witnesses over the sets of extremal depth.

The brute-force oracle shares no search with the census: the package's one
word scan, ``words.word_scan``, lists the factor sets of every word and
circular word up to a length, reading each long word as a prefix key ORed
with a suffix key from a table built once per call. Both turn their per-set
shortest witness lengths into a result through one builder, ``_result``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .budget import Budget, BudgetMeter
from .factorsets import FactorSet, shortest_circular_witness, shortest_witness
from .words import Word, word_scan, word_scan_nbytes

ARRAY_MAX_ORDER = 4      # the census and the oracle cover orders 1..4
UNSEEN = 255             # depth sentinel in uint8 arrays


@dataclass(frozen=True)
class EnumerationResult:
    """Per-order summary of the enumeration.

    ``sw_histogram`` maps shortest-witness length to the number of sets
    attaining it; ``scw_histogram`` is the circular analogue. ``rep_sets``
    and ``circ_sets`` (membership bitmaps, ascending) are filled on request.
    """

    n: int
    circ_count: int
    rep_count: int
    nu: int
    mu: int
    longest_circ_witness: Word
    longest_witness: Word
    sw_histogram: dict[int, int]
    scw_histogram: dict[int, int]
    rep_sets: tuple[int, ...] | None = None
    circ_sets: tuple[int, ...] | None = None

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "circ_count": self.circ_count,
            "rep_count": self.rep_count,
            "nu": self.nu,
            "mu": self.mu,
            "longest_circ_witness": str(self.longest_circ_witness),
            "longest_witness": str(self.longest_witness),
            "sw_histogram": {str(k): v for k, v in sorted(self.sw_histogram.items())},
            "scw_histogram": {str(k): v for k, v in sorted(self.scw_histogram.items())},
        }


# -- per-shard scans ---------------------------------------------------------

def _layers(n: int, u: int, starts: np.ndarray, depth: np.ndarray,
            owner: np.ndarray) -> None:
    """Layered search over shard u from the start states.

    Fills depth[((S >> u) << n) | v] with the first depth of each state
    (UNSEEN where none); only vertices >= u are entered. Each layer drops
    the states already seen and keeps one copy of each new one: the position
    stamped last into ``owner``.
    """
    wmask = (1 << n) - 1
    depth.fill(UNSEEN)
    depth[starts] = 0
    frontier = starts
    d = 0
    while frontier.size:
        d += 1
        v = frontier & wmask
        cov = frontier >> n
        nxt = []
        for b in (0, 1):
            s = ((v << 1) & wmask) | b
            c = cov
            if u:
                keep = s >= u
                s, c = s[keep], c[keep]
            nxt.append(((c | (np.int64(1) << (s - u))) << n) | s)
        ns = np.concatenate(nxt)
        ns = ns[depth[ns] == UNSEEN]
        pos = np.arange(ns.size, dtype=np.int32)
        owner[ns] = pos
        ns = ns[owner[ns] == pos]
        depth[ns] = d
        frontier = ns


def _scan_shard(n: int, u: int, out: np.ndarray, depth: np.ndarray,
                owner: np.ndarray) -> None:
    """Search shard u and write the first depths of the sets whose least
    member is u into ``out``, leaving its other entries as they are.

    out[0, S] is the first depth at which S is covered, out[1, S] the first
    depth >= 1 of a closed walk covering S. ``depth`` and ``owner`` are
    scratch arrays of at least shard u's size; their first entries hold
    its states.
    """
    width = 1 << n
    space = (1 << (width - u)) << n
    depth, owner = depth[:space], owner[:space]
    # ours[k] views the states of S = (2k + 1) << u, the sets with least
    # member u, which out[:, 1 << u::2 << u] lists in the same order
    ours = depth.reshape(-1, 2, width)[:, 1]
    w = np.arange(u, width, dtype=np.int64)
    _layers(n, u, ((np.int64(1) << (w - u)) << n) | w, depth, owner)
    out[0, 1 << u::2 << u] = ours.min(axis=1)
    _layers(n, u, np.array([(1 << n) | u], np.int64), depth, owner)
    out[1, 1 << u::2 << u] = ours[:, u]
    # the start itself closes a walk only by a self-loop: a one-letter
    # circular word, 0 or 1
    out[1, 1 << u] = 1 if u in (0, width - 1) else UNSEEN


# -- full enumeration --------------------------------------------------------

def check_order(n: int) -> None:
    if not 1 <= n <= ARRAY_MAX_ORDER:
        raise ValueError(f"the census covers orders 1..{ARRAY_MAX_ORDER}, not {n}")


def _result(n: int, first: np.ndarray, least_code,
            collect_sets: bool) -> EnumerationResult:
    """The per-order summary from each set's shortest witness lengths.

    ``first[0]`` and ``first[1]`` map each set bitmap to its shortest
    ordinary and circular witness lengths (0: none); ``least_code(circ,
    sets)`` gives the least code among the shortest ordinary (circ = 0) or
    circular (circ = 1) witnesses of ``sets``, which all have one length.
    """
    found = first != 0
    mu, nu = (int(f.max()) for f in first)
    hist = [{int(ell): int(c) for ell, c in zip(*np.unique(f[k], return_counts=True))}
            for f, k in zip(first, found)]
    sets = [tuple(np.flatnonzero(k).tolist()) if collect_sets else None for k in found]
    return EnumerationResult(
        n=n, circ_count=int(found[1].sum()), rep_count=int(found[0].sum()),
        nu=nu, mu=mu,
        longest_circ_witness=Word(nu, least_code(1, np.flatnonzero(first[1] == nu))),
        longest_witness=Word(mu, least_code(0, np.flatnonzero(first[0] == mu))),
        sw_histogram=hist[0], scw_histogram=hist[1],
        rep_sets=sets[0], circ_sets=sets[1],
    )


def enumerate_representable(n: int, budget: Budget | None = None,
                            collect_sets: bool = False) -> EnumerationResult:
    """Enumerate all non-empty (circularly) representable sets of order n.

    Aggregates the sharded search: counts, the maxima mu/nu of the shortest
    (circular) witness lengths, histograms, and one extremal witness per
    flavor (the lexicographically least among the minimal-length witnesses
    of maximally-hard sets).
    """
    check_order(n)
    meter = BudgetMeter(budget or Budget.default())
    width = 1 << n
    space = (1 << width) << n    # shard 0's states; shard u uses the first 1/2^u
    meter.charge_memory(5 * space + 2 * (1 << width), "shard arrays")
    scratch = np.empty(space, np.uint8), np.empty(space, np.int32)

    # per set, ordinary then circular: its first depth, from the shard of
    # its least member
    depth = np.full((2, 1 << width), UNSEEN, np.uint8)
    for u in range(width):
        _scan_shard(n, u, depth, *scratch)
        meter.note(completed_shards=u + 1)
        meter.check_time(f"shard {u}")
    # a set first covered at depth d has shortest witness length n + d (at
    # most 24, well inside uint8); a closed walk's depth is its circular
    # witness length; 0 marks no witness (a product: np.where is slower)
    first = (depth != UNSEEN) * (depth + np.array([[n], [0]], np.uint8))

    # the least of the extremal sets' lex-least witnesses
    searches = (shortest_witness, shortest_circular_witness)
    return _result(n, first, lambda circ, sets: min(
        searches[circ](FactorSet(n, int(s))).witness.code for s in sets), collect_sets)


# -- brute-force oracle -------------------------------------------------------

def brute_force_nbytes(n: int, max_len: int) -> int:
    """The bytes ``brute_force_enumerate`` charges up front: its per-set
    arrays and the larger of its two word scans' buffers. Each scan charges
    its suffix table on top while it holds it."""
    return (32 << (1 << n)) + max(word_scan_nbytes(n, max_len, circ) for circ in (False, True))


def brute_force_enumerate(n: int, max_len: int, budget: Budget | None = None,
                          collect_sets: bool = False) -> EnumerationResult:
    """Independent oracle: scan every word and circular word up to max_len.

    Exact only when max_len is at least the true mu/nu for the order; the
    caller picks max_len. ``words.word_scan`` lists, length by length in
    code order, the distinct factor sets of the words (ordinary, then
    circular) with the least code giving each; the first length to list a
    set is its shortest witness length.
    """
    check_order(n)
    if max_len < n:
        raise ValueError("max_len must be at least the order")
    budget = budget or Budget.default()
    meter = BudgetMeter(budget)
    meter.charge_memory(brute_force_nbytes(n, max_len), "scan buffers")

    # per set, ordinary then circular: the shortest witness length (0: none)
    # and the least code of that length giving the set
    first = np.zeros((2, 1 << (1 << n)), np.int64)
    least = np.zeros_like(first)
    for circ in (0, 1):
        # batches come in length then code order, so the first batch to
        # list a set has its least witness
        for ell, sets, codes in word_scan(n, max_len, bool(circ), meter=meter):
            fresh = first[circ, sets] == 0
            first[circ, sets[fresh]] = ell
            least[circ, sets[fresh]] = codes[fresh]
            meter.note(scanned=f"length {ell}")
            meter.check_time(f"length {ell}")
    return _result(n, first, lambda circ, sets: int(least[circ, sets].min()),
                   collect_sets)
