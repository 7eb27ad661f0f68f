"""Exhaustive enumeration of representable and circularly representable sets.

The census runs over states (S, v): a set S of length-n words and a vertex
v such that some word ending in v has factor set exactly S. Appending a
letter maps (S, v) to (S + {x}, x), x the next de Bruijn vertex. On
``factorsets``' walk-layer kernel, a layer holds per vertex v one bit set,
bit S for the state (S, v). S is representable iff the run from every
({w}, w) reaches it, and its shortest witness is n plus the first depth
holding it. S is circularly representable iff a closed walk of d >= 1 moves
covers exactly S, and the least such d is its shortest circular witness
length (a lone vertex needs a self-loop, a singleton rule). Such a walk
visits only members of S, so all sets take it from one run from every
({u}, u) in which a mask gains x only if it holds a member below x: no walk
gets a new least member, and S closes at the first depth holding (S, min S).
A layer takes 2^n bits per set, 16 GiB at order 5, so the census covers
orders 1..4; order 5 is refused. The extremal witnesses are the least of
the per-set searches' witnesses over the sets of extremal depth.

The brute-force oracle shares no search with the census: it folds the
batches of the package's one word scan, ``words.word_scan``, which lists
each factor set of the words and circular words up to a length once, at
the first length reaching it, reading each long word as a prefix key ORed
with a suffix key from a table built once per call. Both turn their per-set
shortest witness lengths into a result through one builder, ``_result``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, or_
from typing import Iterable, Iterator

import numpy as np

from .budget import Budget, BudgetMeter
from .factorsets import (FactorSet, _below, _step_forward, shortest_circular_witness,
                         shortest_witness)
from .words import Word, word_scan, word_scan_nbytes

ARRAY_MAX_ORDER = 4      # the census and the oracle cover orders 1..4
# per order, the least scan limit at which the oracle gives the whole row:
# one past the longer of its extremal witness lengths mu and nu
SAFE_SCAN_LEN = {1: 3, 2: 6, 3: 11, 4: 25}


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


# -- walk layers --------------------------------------------------------------

def _run(preds: list[list[int]], layer: list[int], meter: BudgetMeter, name: str,
         gain: tuple[int, ...] | None = None) -> Iterator[tuple[int, list[int]]]:
    """(d, the states first reached at depth d) for each d while there are
    any, from the start states ``layer`` on the graph with predecessor lists
    ``preds``, each step filtered by ``gain`` as ``_step_forward`` reads it;
    the run and depth are noted and the time checked per layer."""
    full = (1 << (1 << len(layer))) - 1
    unseen = [full ^ states for states in layer]
    d = 0
    while any(layer):
        yield d, layer
        d += 1
        layer = _step_forward(preds, layer, unseen, gain)
        unseen = [u ^ states for u, states in zip(unseen, layer)]
        meter.note(run=name, depth=d)
        meter.check_time(f"{name}, depth {d}")


def _depths(found: Iterable[tuple[int, int]], count: int) -> np.ndarray:
    """The uint8 array holding at each i < count the value of the first pair
    in ``found`` whose bit set holds bit i (0: none), kept as bit planes (plane
    k: the bits of the values with bit k set) so each is unpacked once."""
    planes = [0] * 8
    seen = 0
    for value, bits in found:
        bits &= ~seen
        seen |= bits
        for k in range(value.bit_length()):
            if value >> k & 1:
                planes[k] |= bits
    out = np.zeros(count, np.uint8)
    for k, plane in enumerate(planes):
        raw = np.frombuffer(plane.to_bytes(-(-count // 8), "little"), np.uint8)
        out |= np.unpackbits(raw, count=count, bitorder="little") << k
    return out


def _closed_walks(preds: list[list[int]], meter: BudgetMeter) -> np.ndarray:
    """Each set's shortest closed covering walk length (0: none), from one
    run from every ({u}, u) in which a mask gains x only if it holds a
    member below x. No walk gets a new least member, so the run is the
    disjoint union of the runs from each ({u}, u) alone, and S closes at the
    first depth d >= 1 holding (S, min S): per layer, the states at u whose
    masks hold no member below u."""
    width = len(preds)
    below = _below(width)
    full = (1 << (1 << width)) - 1
    least = [full ^ b for b in below]
    run = _run(preds, [1 << (1 << u) for u in range(width)], meter, "closed walks", below)
    out = _depths(((d, reduce(or_, map(and_, layer, least))) for d, layer in run if d),
                  1 << width)
    # ({u}, u) closes only by a self-loop: the one-letter circular word 0 or 1
    out[[1, 1 << (width - 1)]] = 1
    return out


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


def census_nbytes(n: int) -> int:
    """The bytes ``enumerate_representable`` charges up front: per set, a bit
    per vertex in each of six tables (the layer, the next, the unseen states,
    ``_containing``'s and ``_below``'s cached masks and the closed-walk run's
    least-member masks) and 16 bytes of uint8 arrays; then 64 KiB for the
    extremal sets' searches (24 KB at order 4) and the result."""
    width = 1 << n
    return ((3 * width // 4 + 16) << width) + (64 << 10)


def enumerate_representable(n: int, budget: Budget | None = None,
                            collect_sets: bool = False) -> EnumerationResult:
    """Enumerate all non-empty (circularly) representable sets of order n.

    Aggregates the walk-layer runs: counts, the maxima mu/nu of the shortest
    (circular) witness lengths, histograms, and one extremal witness per
    flavor (the lexicographically least among the minimal-length witnesses
    of maximally-hard sets).
    """
    check_order(n)
    meter = BudgetMeter(budget or Budget.default())
    width = 1 << n
    meter.charge_memory(census_nbytes(n), "census layers")
    preds = [[x >> 1, x >> 1 | width >> 1] for x in range(width)]
    first = np.zeros((2, 1 << width), np.uint8)
    # a set first covered at depth d has shortest witness length n + d
    run = _run(preds, [1 << (1 << w) for w in range(width)], meter, "ordinary")
    first[0] = _depths(((n + d, reduce(or_, layer)) for d, layer in run), 1 << width)
    first[1] = _closed_walks(preds, meter)

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
    caller picks max_len. ``words.word_scan`` lists each factor set of the
    words (ordinary, then circular) once, at its shortest witness length,
    with the least code of that length giving it.
    """
    check_order(n)
    if max_len < n:
        raise ValueError("max_len must be at least the order")
    meter = BudgetMeter(budget or Budget.default())
    meter.charge_memory(brute_force_nbytes(n, max_len), "scan buffers")

    # per set, ordinary then circular: the shortest witness length (0: none)
    # and the least code of that length giving the set
    first = np.zeros((2, 1 << (1 << n)), np.int64)
    least = np.zeros_like(first)
    for circ in (0, 1):
        for ell, sets, codes in word_scan(n, max_len, meter, bool(circ)):
            first[circ, sets] = ell
            least[circ, sets] = codes
            meter.note(scanned=f"length {ell}")
            meter.check_time(f"length {ell}")
    return _result(n, first, lambda circ, sets: int(least[circ, sets].min()),
                   collect_sets)
