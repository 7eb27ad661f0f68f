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
batches of the package's one word scan, ``scan.word_scan``, which lists
each factor set of the words and circular words once, at the first length
reaching it. Past the short circular words, one run lists both flavours:
it reads per length only the states (factor set, last and first n - 1
letters) no shorter word reached, each advanced by one letter from the last
length's new ones, and it ends when none is new, so the oracle needs no
scan length from the census it checks. Both hand one builder, ``_result``,
per-length histograms, read from the bits each depth first holds or from
the batches, so neither keeps an array with an entry per set. Only the
oracle reads numpy, which it imports, with the scan, when it runs: the
census, and ``bounds`` and ``factorsets`` beneath it, start without numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import and_, or_, xor
from typing import Iterable, Iterator

from .budget import Budget, BudgetMeter
from .factorsets import (FactorSet, _containing, _set_bits, _step_forward, _table,
                         shortest_circular_witness, shortest_witness)
from .words import Word

ARRAY_MAX_ORDER = 4      # the census and the oracle cover orders 1..4
# bytes charged per set listed on request (collect_sets): tracemalloc's peak
# listing the order-4 sets was 41.9 per set for the census (49.4 for the 973
# circular ones, with their 8 KiB table) and, for the oracle, 47.9 ordinary and
# 48.01 circular (the fixed headers of its arrays, list and tuple); both held 40
_LISTED_BYTES = 49


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
         gain: list[int] | None = None) -> Iterator[tuple[int, list[int]]]:
    """(d, the states first reached at depth d) for each d while there are
    any, from the start states ``layer`` on the graph with predecessor lists
    ``preds``: each vertex x keeps and grows into its unreached states, a
    mask c + 2^x only if the fixed gain[x], when given, holds it; a keep
    empties (0: gains only) only at order 1, where no gain follows."""
    unreached = map(xor, _containing(len(layer)), layer)
    moves = [[vs, 1 << x, keep, None if gain is None else gain[x]]
             for x, (vs, keep) in enumerate(zip(preds, unreached))]
    d = 0
    while any(layer):
        yield d, layer
        d += 1
        layer = _step_forward(moves, layer)
        for move, states in zip(moves, layer):
            move[2] ^= states
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
    ascending d, from one run from every ({u}, u) whose fixed gain table
    lets a mask gain x only if it holds a member below x. No walk gets a new
    least member, so S closes at the first depth d >= 1 holding (S, min S):
    per layer, the states at u whose masks hold no member below u."""
    width = len(preds)
    full = (1 << (1 << width)) - 1
    below = list(accumulate(_containing(width)[:-1], or_, initial=0))
    least = [full ^ b for b in below]
    # ({u}, u) closes only by a self-loop: the one-letter circular word 0 or 1
    yield 1, 1 << 1 | 1 << (1 << (width - 1))
    for d, layer in _run(preds, [1 << (1 << u) for u in range(width)], meter,
                         "closed walks", below):
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
    per vertex in each of seven tables (the layer, the next, the unreached
    states, the closed-walk run's gains, the masks of ``_containing`` and least
    members, and a step's temporaries and Python's 30-bit int digits); then
    64 KiB for the searches and the result (0.98 MB at order 4, tracemalloc's peak 0.91).
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

def brute_force_enumerate(n: int, max_len: int | None = None, budget: Budget | None = None,
                          collect_sets: bool = False) -> EnumerationResult:
    """Independent oracle: scan the words and circular words until no longer
    one lists a set, or up to max_len letters when given.

    ``scan.word_scan`` lists each factor set of the words and of the
    circular words once, at its shortest witness length, with the least code
    of that length giving it, both from one run. Uncapped, the result is
    exact by itself; a cap below the order's longest shortest witness
    truncates the row. ``scan.word_scan_nbytes`` is charged up front (at
    order 4, 1.65 MB; tracemalloc's peak, 1.48 MB with the listings), and
    each set listing kept (collect_sets) before it is built.
    """
    check_order(n)
    if max_len is not None and max_len < n:
        raise ValueError("max_len must be at least the order")
    import numpy as np  # with the scan, only once the arguments hold

    from .scan import word_scan, word_scan_nbytes
    meter = BudgetMeter(budget or Budget.default())
    meter.charge_memory(word_scan_nbytes(n, max_len), "scan buffers")
    hists, least, listed = ({}, {}), [0, 0], ([], [])  # ordinary, circular
    for ell, *batches in word_scan(n, max_len, meter):
        for f, (sets, codes) in enumerate(batches):
            if sets.size:  # the lengths ascend: the last code kept is the greatest length's
                hists[f][ell], least[f] = sets.size, int(codes.min())
                if collect_sets:
                    meter.charge_memory(sets.nbytes, f"set listing, length {ell}")
                    listed[f].append(sets)
        meter.note(scanned=f"length {ell}")
        meter.check_time(f"length {ell}")
    flavours = []
    for hist, code, sets in zip(hists, least, listed):
        if collect_sets:
            meter.charge_memory(sum(hist.values()) * _LISTED_BYTES, "set listing")
        flavours.append((hist, code, tuple(np.sort(np.concatenate(sets)).tolist())
                         if collect_sets else None))
    return _result(n, *flavours)
