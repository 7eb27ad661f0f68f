"""Counting distinct factor sets of fixed-length words.

T(t, n) is the number of distinct sets of length-n factors over all 2^t
binary words of length t. Brute force computes it by scanning every word;
for n <= t < 2n a closed form does the same job:

    T(t, n) = 2^t - sum_{i=1}^{t-n+1} (i - 1) * L(i)

with L(i) the number of binary Lyndon words of length i. The closed form
rests on a characterization of when two distinct equal-length words share
their factor set: for t = n + k with n >= k + 1 this happens exactly when
they have the same minimal period p <= k + 1 and conjugate roots, and then
exactly p words share the set. Both directions are checked exhaustively
here, as is the t = 2n boundary case, where equality of periods and root
conjugacy is conjectural and the pairs of large period are, empirically,
a word c v 01 v^R c or c v 10 v^R c (c one letter) and its reversal: the
shape u v 01 v^R u against u v 10 v^R u with u a palindrome, as a longer
u = c w c splits again with u = c.

Counts and checks read the package's one word scan, ``scan.factor_keys``.
Up to order 6 a count sorts each chunk's bitmap keys in place and counts
their runs; above, it is the count of ``scan.factor_classes``' scan,
which lists no class for it; the checks walk the classes of two or more
words it lists. That class scan hashes each word's factor set, one letter
at a time from its prefix's hash, and keys exactly only the words whose
hashes collide, checking the time budget after each chunk of its phases
and after its sort. Budgets are charged the scans' buffers
(``scan.scan_nbytes``, ``scan.class_scan_nbytes``) up front, the
colliding words' keys once counted, and the checks' members and pairs
before they are built. The checks compare minimal periods and root classes
as integers, from one ``scan.period_classes`` call over the shared classes'
members; Theorem 1's backward direction compares sets of classes.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from itertools import combinations, islice

import numpy as np

from .budget import Budget, BudgetMeter
from .scan import (_BITMAP_MAX_ORDER, SCAN_CHUNK_BITS, _class_runs, class_scan_nbytes,
                   factor_classes, factor_keys, period_classes, scan_nbytes)
from .words import Word, _duval, lyndon_count

BRUTE_MAX_T = 24


class OutOfValidityRegion(ValueError):
    """The closed form only covers n <= t < 2n."""


@dataclass(frozen=True)
class TCell:
    """One table entry: the count of distinct factor sets and how it was
    obtained ("brute", "closed", or "both" when the two agree)."""

    t: int
    n: int
    value: int
    method: str


@dataclass(frozen=True)
class EqualFactorPair:
    """Two distinct equal-length words with identical factor sets."""

    w: Word
    w2: Word
    n: int
    period_w: int
    period_w2: int
    root_conjugate: bool


# -- scanning all words of one length ---------------------------------------

def _scan_meter(t: int, n: int, budget: Budget | None, words: int,
                nbytes) -> BudgetMeter:
    """Validate a scan of length-t words, noting (t, n) in its progress;
    charge the buffers for ``words`` (``nbytes(n, t, words)``) at once."""
    if n < 1:
        raise ValueError("factor length must be positive")
    if t < n:
        raise ValueError(f"words of length {t} have no length-{n} factors")
    if t > BRUTE_MAX_T:
        raise ValueError(f"brute force scans words of length t <= {BRUTE_MAX_T}, got t={t}")
    meter = BudgetMeter(budget or Budget.default())
    meter.note(t=t, n=n)
    meter.charge_memory(nbytes(n, t, words), f"scan of length {t}")
    return meter


# Bytes per class member: tracemalloc's peak while building the member tuples (lists and
# period_classes' arrays included) was 163 per member at (t, n) = (18, 1), 161 at (16, 1).
_MEMBER_BYTES = 168


def _shared_classes(t: int, n: int, budget: Budget | None) -> tuple[list, BudgetMeter]:
    """In bitmap order, every class of two or more words of length t with one
    factor set: its codes ascending, each with its period and root class;
    and the meter charged the scan and the members."""
    meter = _scan_meter(t, n, budget, 1 << t, class_scan_nbytes)
    classes = factor_classes(n, t, meter)[1]
    meter.check_time(f"factor classes of length {t}")
    codes = np.concatenate([np.empty(0, np.int64), *classes])
    meter.charge_memory(codes.size * _MEMBER_BYTES, f"{codes.size} class members of length {t}")
    members = iter(zip(codes.tolist(), *(a.tolist() for a in period_classes(t, codes))))
    return [list(islice(members, len(cls))) for cls in classes], meter


def _odd_pairs(classes: list, bound: int):
    """Class by class, the pairs of members whose periods or root classes
    differ, or whose period exceeds ``bound``."""
    for cls in classes:
        for x, y in combinations(cls, 2):
            if x[1] != y[1] or x[2] != y[2] or x[1] > bound:
                yield x, y


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct bitmap keys, ascending, sorting ``keys`` in place."""
    keys.sort()
    return keys[np.append(True, keys[1:] != keys[:-1])]


def count_T_bruteforce(t: int, n: int, budget: Budget | None = None,
                       started: float | None = None) -> TCell:
    """T(t, n) by scanning all 2^t words in-process: above order 6 with
    ``scan.factor_classes``' scan, which lists no class and checks the time
    after its last phase, else in chunks. The budget's seconds run from
    ``started`` (a ``time.monotonic()`` reading), when given, so a scan that
    is part of a longer run gets what that run has left; else from the call."""
    hashed = n > _BITMAP_MAX_ORDER
    chunk = 1 << (t if hashed else min(t, SCAN_CHUNK_BITS))
    meter = _scan_meter(t, n, budget, chunk, class_scan_nbytes if hashed else scan_nbytes)
    if started is not None:
        meter.started = started
    if hashed:
        return TCell(t, n, _class_runs(n, t, meter)[0], "brute")
    parts: list[np.ndarray] = []
    for start in range(0, 1 << t, chunk):
        parts.append(_distinct(factor_keys(n, t, range(start, start + chunk))))
        meter.charge_memory(parts[-1].nbytes, f"T({t},{n}) chunk keys")
        meter.check_time(f"T({t},{n})")
    if len(parts) == 1:
        return TCell(t, n, len(parts[0]), "brute")
    meter.release_memory(scan_nbytes(n, t, chunk))
    merged = np.concatenate(parts)
    meter.charge_memory(scan_nbytes(n, t, len(merged)), f"T({t},{n}) merge")
    return TCell(t, n, len(_distinct(merged)), "brute")


def count_T_closed(t: int, n: int) -> TCell:
    """T(t, n) for n <= t < 2n via Lyndon-word counts, exactly."""
    if not n <= t < 2 * n:
        raise OutOfValidityRegion(f"closed form needs n <= t < 2n, got t={t} n={n}")
    value = (1 << t) - sum((i - 1) * lyndon_count(i) for i in range(1, t - n + 2))
    return TCell(t, n, value, "closed")


# -- equal-factor structure -----------------------------------------------------

# Bytes per EqualFactorPair in the result list: tracemalloc's peak while
# building the pairs was 137 per pair at (t, n) = (9, 1), (10, 1) and (11, 2),
# and the peak RSS grew by 152 per pair at (10, 1); the larger is charged.
_PAIR_BYTES = 152


def equal_factor_pairs(t: int, n: int,
                       budget: Budget | None = None) -> list[EqualFactorPair]:
    """All unordered pairs of distinct words sharing a factor set, annotated
    with periods and root conjugacy; class by class in factor-bitmap order,
    each class's pairs ordered by (first, second) code.

    The pairs are charged against the budget, beside the scan and its
    members, before any is built."""
    classes, meter = _shared_classes(t, n, budget)
    pairs = sum(len(cls) * (len(cls) - 1) // 2 for cls in classes)
    meter.charge_memory(pairs * _PAIR_BYTES, f"{pairs} equal-factor pairs of length {t}")
    return [EqualFactorPair(w=a, w2=b, n=n, period_w=pa, period_w2=pb,
                            root_conjugate=(pa, ra) == (pb, rb))
            for cls in classes for (a, pa, ra), (b, pb, rb)
            in combinations([(Word(t, c), p, r) for c, p, r in cls], 2)]


@dataclass(frozen=True)
class Theorem1Report:
    """Exhaustive two-directional check of the equal-factor-set
    characterization at one (t, n)."""

    t: int
    n: int
    k: int
    in_region: bool
    forward_ok: bool
    backward_ok: bool
    nontrivial_classes: int
    backward_classes: int
    counterexamples: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        return self.forward_ok and self.backward_ok

    def to_json_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


_COUNTEREXAMPLE_CAP = 20


def check_theorem1(t: int, n: int, allow_out_of_region: bool = False,
                   budget: Budget | None = None) -> Theorem1Report:
    """Verify both directions of the characterization at (t, n).

    Forward: every pair of distinct words with equal factor sets has equal
    minimal periods <= k+1 (k = t-n) and conjugate roots. Backward: the
    non-singleton classes are exactly the window classes of the Lyndon roots
    r of length p in 2..k+1, each the p length-t windows of r repeated. That
    equality is the whole statement: in the region t >= 2k+1 >= 2p-1, so by
    Fine and Wilf a shorter period q of a window would give the primitive r
    the period gcd(p, q), and each window has minimal period p, root class r.
    Roots whose class the scan lacks are reported in Lyndon order, then counts.

    Outside the region n >= k+1 the claim is not made; failures found there
    with allow_out_of_region are reported with in_region=False.
    """
    if n < 1 or t < n:
        raise ValueError("need 1 <= n <= t")
    k = t - n
    in_region = n >= k + 1
    if not in_region and not allow_out_of_region:
        raise OutOfValidityRegion(
            f"characterization needs n >= k+1 (t={t}, n={n}, k={k}); "
            "pass allow_out_of_region=True to scan anyway")

    nontrivial = _shared_classes(t, n, budget)[0]
    counterexamples = [
        {"direction": "forward", "words": [str(Word(t, a)), str(Word(t, b))],
         "periods": [pa, pb], "root_conjugate": (pa, ra) == (pb, rb)}
        for (a, pa, ra), (b, pb, rb) in islice(_odd_pairs(nontrivial, k + 1), _COUNTEREXAMPLE_CAP)]
    forward_ok = not counterexamples

    backward_ok = True
    if in_region:  # each Lyndon root of length 2..k+1, in Lyndon order, by its class
        spelled = ("".join(map(str, r)) for r in sorted(_duval(k + 1), key=len)[2:])
        roots = {tuple(sorted(int((r * t)[j:j + t], 2) for j in range(len(r)))): r for r in spelled}
        found = {tuple(c for c, _, _ in cls) for cls in nontrivial}
        if found != roots.keys():
            backward_ok = False
            missing = [(r, cls) for cls, r in roots.items() if cls not in found]
            counterexamples += [
                {"direction": "backward", "root": r, "class": [str(Word(t, c)) for c in cls]}
                for r, cls in missing[:max(0, _COUNTEREXAMPLE_CAP - len(counterexamples))]]
            counterexamples.append({
                "direction": "backward",
                "note": "period classes and equal-factor classes differ",
                "only_in_groups": len(found - roots.keys()),
                "only_in_classes": len(missing)})

    return Theorem1Report(
        t=t, n=n, k=k, in_region=in_region,
        forward_ok=forward_ok, backward_ok=backward_ok,
        nontrivial_classes=len(nontrivial),
        backward_classes=sum(lyndon_count(p) for p in range(2, k + 2)),
        counterexamples=tuple(counterexamples))


def counterexample_family(k: int) -> tuple[Word, Word, int, int]:
    """The boundary family showing the region constraint is needed:
    x = 0^k 1 0^(k-2) and y = 0^(k-1) 1 0^(k-1), of length t = 2k-1, share
    their length-(k-1) factor sets but have periods k+1 and k."""
    if k < 2:
        raise ValueError("the family needs k >= 2")
    x = Word.from_text("0" * k + "1" + "0" * (k - 2))
    y = Word.from_text("0" * (k - 1) + "1" + "0" * (k - 1))
    return x, y, k + 1, k


# -- the t = 2n boundary ---------------------------------------------------------

@dataclass(frozen=True)
class Conjecture2nReport:
    """Exhaustive scan of equal-factor pairs at word length t = 2n.

    The conjecture proper: equal periods and root conjugacy for every pair.
    Pairs with period above n+1 are tested for the observed shape, reported
    as findings, not failures: the pair is a word x = c v 01 v^R c or
    c v 10 v^R c (c one letter, v nonempty) and its reversal. That is the
    shape u v 01 v^R u against u v 10 v^R u with any nonempty palindrome u:
    a longer u is c w c with w a palindrome, and then the pair also splits
    with the one-letter u = c and v' = w c v.
    """

    n: int
    t: int
    pair_count: int
    nontrivial_classes: int
    period_violations: tuple[dict, ...]
    conjugacy_violations: tuple[dict, ...]
    high_period_pairs: tuple[dict, ...]
    shape_misses: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        return not self.period_violations and not self.conjugacy_violations

    def to_json_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def _mirrored(x: str, y: str, n: int) -> bool:
    """Whether distinct spelled words of length 2n are x = c v s v^R c and
    its reversal y, with s in {01, 10}, c one letter and v nonempty. If the
    middle letters of x were equal, x would be a palindrome, equal to y."""
    return n > 2 and y == x[::-1] and x[:n - 1] == x[n + 1:][::-1]


def check_conjecture_2n(n: int, budget: Budget | None = None) -> Conjecture2nReport:
    """Scan all words of length 2n and test the boundary conjecture."""
    if n < 1:
        raise ValueError("order must be positive")
    t = 2 * n
    classes = _shared_classes(t, n, budget)[0]
    odd = [({"words": [str(Word(t, x)), str(Word(t, y))], "periods": [px, py]}, (px, rx) == (py, ry))
           for (x, px, rx), (y, py, ry) in _odd_pairs(classes, n + 1)]
    high = [e for e, _ in odd if e["periods"][0] > n + 1]
    return Conjecture2nReport(
        n=n, t=t, pair_count=sum(len(c) * (len(c) - 1) // 2 for c in classes),
        nontrivial_classes=len(classes),
        period_violations=tuple(e for e, _ in odd if e["periods"][0] != e["periods"][1]),
        conjugacy_violations=tuple(e for e, conjugate in odd if not conjugate),
        high_period_pairs=tuple(high),
        shape_misses=tuple(e for e in high if not _mirrored(*e["words"], n)))


# -- the table --------------------------------------------------------------------

@dataclass
class TTable:
    """Computed T(t, n) cells with provenance, plus emitters."""

    t_max: int
    n_max: int
    cells: dict[tuple[int, int], TCell] = field(default_factory=dict)

    def get(self, t: int, n: int) -> TCell | None:
        return self.cells.get((t, n))

    def _grid(self) -> list[list[str]]:
        """The header row, then per n the cells' values, "" where none, for t
        up to the last that holds a cell: no column past it, whatever t_max."""
        ts = range(1, min(self.t_max, max((t for t, _ in self.cells), default=0)) + 1)
        return [["n\\t", *map(str, ts)]] + [
            [str(n), *(str(self.cells[t, n].value) if (t, n) in self.cells else "" for t in ts)]
            for n in range(1, self.n_max + 1)]

    def to_csv(self) -> str:
        """The grid as CSV, one line per row."""
        return "".join(",".join(row) + "\n" for row in self._grid())

    def to_markdown(self) -> str:
        """The grid as a Markdown table, its separator as wide as its header."""
        grid = self._grid()
        header, *rows = ("".join(f"| {x} " if x else "| " for x in row) + "|" for row in grid)
        return "\n".join([header, "|" + "---|" * len(grid[0]), *rows]) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "t_max": self.t_max,
            "n_max": self.n_max,
            "cells": [
                {"t": t, "n": n, "value": cell.value, "method": cell.method}
                for (t, n), cell in sorted(self.cells.items(),
                                           key=lambda kv: (kv[0][1], kv[0][0]))
            ],
        }


def t_table(t_max: int, n_max: int, budget: Budget | None = None) -> TTable:
    """Fill the table: brute force for t up to BRUTE_MAX_T, the closed form
    on its region n <= t < 2n, no t past both visited; overlapping cells
    must agree exactly and are marked "both". The budget's seconds cover
    the whole table, and its memory each brute-force scan: a scan over
    either raises BudgetExceededError, whose progress names the cell's t
    and n."""
    if t_max < 1 or n_max < 1:
        raise ValueError("table extents must be positive")
    budget = budget or Budget.default()
    started = time.monotonic()
    table = TTable(t_max, n_max)
    for n in range(1, n_max + 1):
        for t in range(n, min(t_max, max(BRUTE_MAX_T, 2 * n - 1)) + 1):
            closed = count_T_closed(t, n) if n <= t < 2 * n else None
            brute = count_T_bruteforce(t, n, budget, started) if t <= BRUTE_MAX_T else None
            if brute and closed and brute.value != closed.value:
                raise AssertionError(f"closed form disagrees with brute force at "
                                     f"t={t} n={n}: {closed.value} vs {brute.value}")
            cell = brute or closed  # t <= BRUTE_MAX_T or t < 2n: one is computed
            table.cells[(t, n)] = TCell(t, n, cell.value, "both") if brute and closed else cell
    return table
