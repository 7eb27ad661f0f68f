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
with a suffix key from a table built once per call (its rows from the
distinct pairs of suffix set and tail), and expanding only the least prefix
of each (key, table row) pair in a batch. Both hand one builder,
``_result``, per-length histograms, read from the bits each depth first
holds or from the batches, so neither keeps an array with an entry per set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, or_
from typing import Iterable, Iterator

import numpy as np

from .budget import Budget, BudgetMeter
from .factorsets import (FactorSet, _below, _set_bits, _step_forward, _table,
                         shortest_circular_witness, shortest_witness)
from .words import Word, word_scan, word_scan_nbytes

ARRAY_MAX_ORDER = 4      # the census and the oracle cover orders 1..4
# bytes charged per set listed on request (collect_sets): tracemalloc's peak
# listing the order-4 sets was 41.9 per set for the census (49.4 for the 973
# circular ones, with their 8 KiB table) and 47.9 for the oracle; both held 40
_LISTED_BYTES = 48
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
        for v, states in enumerate(layer):
            unseen[v] ^= states
        meter.note(run=name, depth=d)
        meter.check_time(f"{name}, depth {d}")


def _levels(found: Iterable[tuple[int, int]]) -> tuple[dict[int, int], int, int]:
    """From (length, bit set) pairs in ascending length, bit i standing for
    the set with bitmap i at the first length holding it: the histogram
    {length: sets}, the sets of the greatest length, and every set held."""
    hist, top, seen = {}, 0, 0
    for ell, bits in found:
        bits &= ~seen
        if bits:
            seen |= bits
            top = top | bits if ell in hist else bits
            hist[ell] = hist.get(ell, 0) + bits.bit_count()
    return hist, top, seen


def _closed_walks(preds: list[list[int]], meter: BudgetMeter) -> Iterator[tuple[int, int]]:
    """(d, the sets whose shortest closed covering walk has d >= 1 moves), by
    ascending d, from one run from every ({u}, u) in which a mask gains x
    only if it holds a member below x. No walk gets a new least member, so S
    closes at the first depth d >= 1 holding (S, min S): per layer, the
    states at u whose masks hold no member below u."""
    width = len(preds)
    full = (1 << (1 << width)) - 1
    least = [full ^ b for b in _below(width)]
    # ({u}, u) closes only by a self-loop: the one-letter circular word 0 or 1
    yield 1, 1 << 1 | 1 << (1 << (width - 1))
    for d, layer in _run(preds, [1 << (1 << u) for u in range(width)], meter,
                         "closed walks", _below(width)):
        if d:
            yield d, reduce(or_, map(and_, layer, least))


# -- full enumeration --------------------------------------------------------

def check_order(n: int) -> None:
    if not 1 <= n <= ARRAY_MAX_ORDER:
        raise ValueError(f"the census covers orders 1..{ARRAY_MAX_ORDER}, not {n}")


def _result(n: int, ordinary: tuple, circular: tuple) -> EnumerationResult:
    """The per-order summary from, per flavour, the histogram {shortest
    witness length: sets}, ascending, the least code among the shortest
    witnesses of the sets of greatest length, and the sets listed or None."""
    (sw, sw_code, rep), (scw, scw_code, circ) = ordinary, circular
    return EnumerationResult(
        n=n, circ_count=sum(scw.values()), rep_count=sum(sw.values()), nu=max(scw), mu=max(sw),
        longest_circ_witness=Word(max(scw), scw_code), longest_witness=Word(max(sw), sw_code),
        sw_histogram=sw, scw_histogram=scw, rep_sets=rep, circ_sets=circ)


def census_nbytes(n: int) -> int:
    """The bytes ``enumerate_representable`` charges up front: per set, a bit
    per vertex in each of seven tables (the layer, the next, the unseen
    states, the masks of ``_containing``, ``_below`` and least members, and
    a step's temporaries and Python's 30-bit int digits); then 64 KiB for the
    searches and the result (0.98 MB at order 4, tracemalloc's peak 0.93).
    Set listings (collect_sets) are charged on top, before each is built."""
    width = 1 << n
    return ((7 * width // 8) << width) + (64 << 10)


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
    # a set first covered at depth d has shortest witness length n + d
    run = _run(preds, [1 << (1 << w) for w in range(width)], meter, "ordinary")
    levels = [_levels((n + d, reduce(or_, layer)) for d, layer in run),
              _levels(_closed_walks(preds, meter))]
    # only now, with both runs' layers freed, are the sets searched and listed
    flavours = []
    for (hist, top, seen), search in zip(levels, (shortest_witness, shortest_circular_witness)):
        # the least of the extremal sets' lex-least witnesses
        code = min(search(FactorSet(n, s)).witness.code for s in _set_bits(_table(top)))
        if collect_sets:
            meter.charge_memory(seen.bit_count() * _LISTED_BYTES + (seen.bit_length() + 7) // 8,
                                "set listing")
        flavours.append((hist, code, tuple(_set_bits(_table(seen))) if collect_sets else None))
    return _result(n, *flavours)


# -- brute-force oracle -------------------------------------------------------

def brute_force_nbytes(n: int, max_len: int) -> int:
    """The bytes ``brute_force_enumerate`` charges up front: the larger of its
    two word scans' buffers (at order 4 and length 25, 2.2 MB; tracemalloc's
    peak was 0.69 MB, 0.92 MB with the listings). Each scan charges its
    suffix table on top while it holds it; set listings (collect_sets) are
    charged on top, each batch as it is kept and each sorted listing before
    it is built."""
    return max(word_scan_nbytes(n, max_len, circ) for circ in (False, True))


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
    flavours = []
    for circ in (False, True):
        hist, code, listed = {}, 0, []
        for ell, sets, codes in word_scan(n, max_len, meter, circ):
            if sets.size:
                # a length's batches run in code order: its first holds its least code
                code = code if ell in hist else int(codes.min())
                hist[ell] = hist.get(ell, 0) + sets.size
                if collect_sets:
                    meter.charge_memory(sets.nbytes, f"set listing, length {ell}")
                    listed.append(sets)
            meter.note(scanned=f"length {ell}")
            meter.check_time(f"length {ell}")
        if collect_sets:
            meter.charge_memory(sum(hist.values()) * _LISTED_BYTES, "set listing")
        flavours.append((hist, code, tuple(np.sort(np.concatenate(listed)).tolist())
                         if collect_sets else None))
    return _result(n, *flavours)
