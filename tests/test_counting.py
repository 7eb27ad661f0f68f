"""T(t, n) counting, the equal-factor characterization, the 2n boundary."""

import time
import tracemalloc
from collections import defaultdict
from itertools import combinations, count, product

import numpy as np
import pytest

import factorwords.counting
from factorwords import budget as budget_mod
from factorwords import (Budget, BudgetExceededError, OutOfValidityRegion, Word,
                         are_root_conjugate, check_conjecture_2n, check_theorem1,
                         count_T_bruteforce, count_T_closed, counterexample_family,
                         equal_factor_pairs, lyndon_words, period, t_table)
from factorwords.budget import BudgetMeter
from factorwords.scan import HASH_CHUNK_BITS, factor_classes


@pytest.fixture
def charged_peak(monkeypatch):
    """Run a call under tracemalloc: its peak, and the most a meter held."""
    class PeakMeter(BudgetMeter):
        peak = 0

        def charge_memory(self, nbytes, what=""):
            super().charge_memory(nbytes, what)
            PeakMeter.peak = max(PeakMeter.peak, self.charged_bytes)

    monkeypatch.setattr(factorwords.counting, "BudgetMeter", PeakMeter)

    def run(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1], PeakMeter.peak
        finally:
            tracemalloc.stop()
    return run


class TestBruteForce:
    @pytest.mark.parametrize("t,n,expected", [
        (5, 3, 27), (8, 4, 216), (1, 1, 2), (2, 1, 3), (10, 2, 12),
    ])
    def test_known_cells(self, t, n, expected):
        assert count_T_bruteforce(t, n).value == expected

    def test_diagonal(self):
        for n in (1, 2, 3, 5, 8):
            cell = count_T_bruteforce(n, n)
            assert cell.value == 1 << n and cell.method == "brute"

    def test_validation(self):
        with pytest.raises(ValueError):
            count_T_bruteforce(3, 4)
        with pytest.raises(ValueError):
            count_T_bruteforce(25, 3)
        with pytest.raises(ValueError, match="factor length must be positive"):
            count_T_bruteforce(3, 0)
        with pytest.raises(ValueError, match="need 1 <= n <= t"):
            check_theorem1(3, 5)
        with pytest.raises(ValueError, match="k >= 2"):
            counterexample_family(1)
        with pytest.raises(ValueError, match="order must be positive"):
            check_conjecture_2n(0)
        with pytest.raises(ValueError, match="table extents must be positive"):
            t_table(0, 3)

    def test_worker_independence(self):
        a = count_T_bruteforce(12, 4, Budget.default(workers=1))
        b = count_T_bruteforce(12, 4, Budget.default(workers=4))
        assert a.value == b.value

    def test_pool_path_matches_one_worker(self):
        # the scan runs in-process, so the worker count must not matter at
        # t = 19: n = 5 counts the distinct bitmaps, n = 10 the hashed
        # class scan's classes (and is in closed-form range)
        for n in (5, 10):
            one = count_T_bruteforce(19, n, Budget.default(workers=1))
            two = count_T_bruteforce(19, n, Budget.default(workers=2))
            assert one == two
        assert one.value == count_T_closed(19, 10).value

    @pytest.mark.parametrize("t,n", [(16, 5), (19, 5), (16, 8), (19, 10), (14, 4), (15, 5),
                                     (16, 6), (22, 1), (22, 4), (22, 6)])
    def test_charges_bound_the_count(self, t, n, charged_peak):
        # up to order 6 the sorted bitmaps of every word's key, in one byte
        # widened to two (22, 1), two (22, 4), four (16, 5) and eight (22, 6);
        # at (14, 4), (15, 5) and (16, 6) the chunk's temporaries weigh most
        # beside the keys; (16, 8) and (19, 10) take the hashed class scan:
        # the most the meter held covers the peak, and at 2^22 words it is
        # at most half as much again
        peak, charged = charged_peak(lambda: count_T_bruteforce(t, n))
        assert peak <= charged
        if t == 22:
            assert charged <= 1.5 * peak

    def test_time_budget_stops_the_bitmap_scan(self):
        # the keys of 2^24 words are built chunk by chunk, with a time check
        # after each, and again after their sort: the hash pass of (24, 3),
        # 0.04 s on a 2-core Xeon, overruns a 3 ms budget tenfold, and the
        # longest step between two checks of an order <= 6 cell is the
        # count's sort, 0.26 s at (24, 6) there
        started = time.monotonic()
        with pytest.raises(BudgetExceededError) as e:
            count_T_bruteforce(24, 3, Budget(max_seconds=0.003))
        assert e.value.progress["phase"] == "set hashes"
        assert time.monotonic() - started < 0.003 + 0.26

    def test_memory_budget_covers_the_scan(self):
        tiny = Budget(max_memory_bytes=8 << 20)
        with pytest.raises(BudgetExceededError):
            check_conjecture_2n(10, tiny)
        with pytest.raises(BudgetExceededError):
            count_T_bruteforce(20, 10, tiny)
        assert check_conjecture_2n(10, Budget(max_memory_bytes=100 << 20)).passed

    def test_time_budget_stops_the_class_scan_past_the_hashes(self):
        # on a 2-core Xeon the hash pass of 2^22 words takes 0.09 s and the
        # phases after it about 0.8 s more: a 0.1 s budget runs out in one
        with pytest.raises(BudgetExceededError) as e:
            count_T_bruteforce(22, 7, Budget(max_seconds=0.1))
        assert e.value.progress["phase"] in {"set hashes", "hash sort", "shared hashes",
                                             "row keys", "row-key sort"}

    @pytest.mark.parametrize("phase,t", [("hash sort", 16), ("shared hashes", 16),
                                         ("row keys", 16), ("row-key sort", 16), ("row keys", 18)],
                             ids=["hash sort", "shared hashes", "row keys", "row-key sort",
                                  "row keys, first of two chunks"])
    def test_class_scan_checks_the_time_after_each_phase(self, monkeypatch, phase, t):
        # a clock that reads 0 until the meter notes the phase, then 1 s: the
        # next time check refuses, before any later phase is noted; at t = 18
        # the words sharing a set hash fill two row-key chunks, and the check
        # after the first refuses
        meters = []

        class Meter(BudgetMeter):
            def __init__(self, budget):
                super().__init__(budget)
                meters.append(self)

        monkeypatch.setattr(factorwords.counting, "BudgetMeter", Meter)
        monkeypatch.setattr(budget_mod.time, "monotonic",
                            lambda: float(any(m.progress.get("phase") == phase for m in meters)))
        with pytest.raises(BudgetExceededError) as e:
            count_T_bruteforce(t, 7, Budget(max_seconds=0.5), started=0.0)
        assert e.value.progress["phase"] == phase
        if t == 18:
            members = sum(map(len, factor_classes(7, t, BudgetMeter(Budget()))[1]))
            assert e.value.progress["words_scanned"] == 1 << HASH_CHUNK_BITS < members


class TestClosedForm:
    @pytest.mark.parametrize("t,n,expected", [
        (7, 4, 114), (9, 5, 474), (5, 3, 27), (11, 6, 1965),
    ])
    def test_known_cells(self, t, n, expected):
        assert count_T_closed(t, n).value == expected

    def test_diagonal_is_power_of_two(self):
        for t in (1, 2, 5, 9):
            assert count_T_closed(t, t).value == 1 << t

    def test_region_enforced(self):
        for t, n in ((8, 4), (3, 4), (12, 5)):
            with pytest.raises(OutOfValidityRegion):
                count_T_closed(t, n)

    def test_matches_brute_on_region_spot(self):
        for n in range(1, 6):
            for t in range(n, 2 * n):
                assert count_T_closed(t, n).value == count_T_bruteforce(t, n).value


class TestEqualFactorPairs:
    def test_known_pair(self):
        pairs = equal_factor_pairs(6, 3)
        hit = [p for p in pairs
               if {str(p.w), str(p.w2)} == {"010110", "011010"}]
        assert len(hit) == 1
        p = hit[0]
        assert p.period_w == p.period_w2 == 5 and p.root_conjugate

    def test_same_length_words_with_same_set(self):
        for p in equal_factor_pairs(6, 3):
            assert p.w != p.w2 and len(p.w) == len(p.w2) == 6

    def test_diagonal_empty(self):
        for t in (1, 3, 5):
            assert equal_factor_pairs(t, t) == []

    def test_boundary_family(self):
        for k in range(3, 7):
            x, y, px, py = counterexample_family(k)
            assert period(x).period == px == k + 1
            assert period(y).period == py == k
            pairs = equal_factor_pairs(2 * k - 1, k - 1)
            hit = [p for p in pairs if {str(p.w), str(p.w2)} == {str(x), str(y)}]
            assert len(hit) == 1
            assert {hit[0].period_w, hit[0].period_w2} == {k, k + 1}


    def test_against_string_grouping(self):
        for n in (1, 2, 3):
            for t in range(n, 10):
                groups = defaultdict(list)
                for bits in product("01", repeat=t):
                    s = "".join(bits)
                    groups[frozenset(s[i:i + n] for i in range(t - n + 1))].append(s)
                expected = sorted(pair for g in groups.values()
                                  for pair in combinations(sorted(g), 2))
                pairs = equal_factor_pairs(t, n)
                got = sorted((str(p.w), str(p.w2)) for p in pairs)
                assert got == expected, (t, n)
                # the integer periods and classes against the scalar route, up
                # to t = 7, about 14000 pairs (t = 9 alone has about 190000)
                for p in pairs if t <= 7 else []:
                    assert (p.period_w, p.period_w2) == (period(p.w).period, period(p.w2).period)
                    assert p.root_conjugate == are_root_conjugate(p.w, p.w2)

    def test_memory_budget_covers_the_pairs(self):
        # one class of 4094 words at n = 1: about 8.4 million pairs
        with pytest.raises(BudgetExceededError):
            equal_factor_pairs(12, 1, Budget(max_memory_bytes=64 << 20))

    @pytest.mark.parametrize("t,n", [(9, 2), (11, 3), (12, 6)])
    def test_charges_bound_the_pairs(self, t, n, charged_peak):
        # the pairs are charged to the scan's meter, beside the scan and the
        # class members: 59329 pairs at (9, 2), 76295 at (11, 3), 604 at (12, 6)
        peak, charged = charged_peak(lambda: equal_factor_pairs(t, n))
        assert peak <= charged


class TestTheorem1:
    def test_in_region_pass(self):
        assert check_theorem1(7, 4).passed
        assert check_theorem1(5, 3).passed

    def test_diagonal_vacuous(self):
        for n in range(1, 11):
            rep = check_theorem1(n, n)
            assert rep.passed and rep.nontrivial_classes == 0

    def test_region_guard(self):
        with pytest.raises(OutOfValidityRegion):
            check_theorem1(7, 3)

    def test_time_budget_enforced(self):
        with pytest.raises(BudgetExceededError):
            check_theorem1(7, 4, budget=Budget(max_seconds=1e-6))

    def test_out_of_region_family_flagged(self):
        for k in range(3, 7):
            x, y, _, _ = counterexample_family(k)
            rep = check_theorem1(2 * k - 1, k - 1, allow_out_of_region=True)
            assert not rep.in_region
            assert not rep.forward_ok
            hits = [c for c in rep.counterexamples
                    if c.get("direction") == "forward"
                    and set(c["words"]) == {str(x), str(y)}]
            assert hits

    def test_forward_counterexamples_match_the_scalar_route(self):
        for n in (1, 2, 3):
            for t in range(2 * n, 11):
                rep = check_theorem1(t, n, allow_out_of_region=True)
                for c in rep.counterexamples:
                    if c["direction"] == "forward":
                        a, b = map(Word.from_text, c["words"])
                        assert c["periods"] == [period(a).period, period(b).period]
                        assert c["root_conjugate"] == are_root_conjugate(a, b)

    def test_forward_scan_stops_at_the_counterexample_cap(self, monkeypatch):
        drawn = 0

        def counted(members, r):
            nonlocal drawn
            for pair in combinations(members, r):
                drawn += 1
                yield pair

        monkeypatch.setattr(factorwords.counting, "combinations", counted)
        rep = check_theorem1(11, 1, allow_out_of_region=True)
        assert not rep.forward_ok and len(rep.counterexamples) == 20
        # one class of 2046 words: 2046 * 2045 / 2 pairs without the cap
        assert drawn < 0.01 * (2046 * 2045 // 2)

    @pytest.mark.parametrize("t,n,lost,merge", [
        (9, 5, ["0011"], False), (13, 7, None, False), (13, 7, ["01", "001"], True)])
    def test_backward_failures_name_the_root_and_class(self, t, n, lost, merge, monkeypatch):
        # the class scan loses the classes of ``lost`` (every class when
        # None), or with ``merge`` returns them joined as one: the roots whose
        # class it lacks are reported in Lyndon order, up to the cap after any
        # forward counterexample, then a note counts each side's own classes
        real = factorwords.counting.factor_classes
        lyndon = [str(r) for p in range(2, t - n + 2) for r in lyndon_words(p)]
        classes = {r: sorted({Word.from_text(r).rotated(j).repeated_to(t).code
                              for j in range(len(r))}) for r in lyndon}
        lost = [r for r in lyndon if r in (lost or lyndon)]
        gone = [classes[r] for r in lost]

        def altered(n, ell, meter):
            count, found = real(n, ell, meter)
            kept = [c for c in found if c.tolist() not in gone]
            return count, kept + ([np.array(sorted(sum(gone, [])))] if merge else [])

        monkeypatch.setattr(factorwords.counting, "factor_classes", altered)
        rep = check_theorem1(t, n)
        assert rep.forward_ok != merge and not rep.backward_ok
        # the merged class pairs each word of one class with each of the other
        forward = len(gone[0]) * len(gone[1]) if merge else 0
        assert all(c["direction"] == "forward" for c in rep.counterexamples[:forward])
        want = lost[:20 - forward]
        assert len(want) == min(20, len(lost)) and rep.counterexamples[forward:] == tuple(
            {"direction": "backward", "root": r,
             "class": [str(Word(t, c)) for c in classes[r]]} for r in want) + (
            {"direction": "backward", "note": "period classes and equal-factor classes differ",
             "only_in_groups": int(merge), "only_in_classes": len(lost)},)

    def test_backward_classes_are_the_lyndon_roots(self):
        # in the region every Lyndon root of length 2..k+1 has one class
        for t in range(1, 16):
            for n in range(t // 2 + 1, t + 1):
                rep = check_theorem1(t, n)
                roots = sum(len(lyndon_words(p)) for p in range(2, t - n + 2))
                assert rep.nontrivial_classes == rep.backward_classes == roots, (t, n)

    def test_one_class_scan_and_no_root_windows(self, monkeypatch):
        # one period_classes call over the class members, no factor_keys
        # (counting does not import it), and out of region no Lyndon root is
        # listed
        assert not hasattr(factorwords.counting, "factor_keys")
        # the scan's keys stay in scan: counting reads its counts and classes
        for name in ("_set_hashes", "_class_runs", "_BITMAP_MAX_ORDER", "_distinct"):
            assert not hasattr(factorwords.counting, name), name
        calls = []
        real = factorwords.counting.period_classes
        monkeypatch.setattr(factorwords.counting, "period_classes",
                            lambda *a: calls.append("period_classes") or real(*a))
        for t, n in ((9, 5), (15, 8), (16, 8), (12, 2)):
            calls.clear()
            check_theorem1(t, n, allow_out_of_region=True)
            assert calls == ["period_classes"], (t, n)

        def no_roots(max_len):
            raise AssertionError("Lyndon roots listed out of region")

        monkeypatch.setattr(factorwords.counting, "_duval", no_roots)
        assert check_theorem1(12, 2, allow_out_of_region=True).backward_ok

    def test_out_of_region_members_are_charged(self, charged_peak):
        # one class of 2^t - 2 words at n = 1: its members' arrays are
        # charged before they are made, and the walk stops at 20
        # counterexamples among its first words, so (18, 1) answers within
        # 16 MiB; 4 MiB is below its scan's charge, and refuses it
        peak, charged = charged_peak(lambda: check_theorem1(16, 1, allow_out_of_region=True))
        assert peak <= charged
        rep = check_theorem1(18, 1, allow_out_of_region=True,
                             budget=Budget(max_memory_bytes=16 << 20))
        assert not rep.in_region and not rep.forward_ok and len(rep.counterexamples) == 20
        with pytest.raises(BudgetExceededError):
            check_theorem1(18, 1, allow_out_of_region=True,
                           budget=Budget(max_memory_bytes=4 << 20))

    def test_class_sizes_equal_periods(self):
        # within the region, each non-singleton class has as many words as
        # its members' common period
        for t, n in ((5, 3), (7, 4), (9, 5)):
            k = t - n
            for codes in factor_classes(n, t, BudgetMeter(Budget()))[1]:
                pis = {period(Word(t, int(c))).period for c in codes}
                assert len(pis) == 1
                p = pis.pop()
                assert p <= k + 1 and len(codes) == p


def _mirrored(x: str, y: str) -> bool:
    """x = c v s v^R c, with c one letter, v nonempty and s 01 or 10; y = x^R."""
    n = len(x) // 2
    c, v, s = x[0], x[1:n - 1], x[n - 1:n + 1]
    return (v != "" and s in ("01", "10") and x == c + v + s + v[::-1] + c
            and y == "".join(reversed(x)))


class TestConjecture2n:
    def test_small_orders_pass(self):
        for n in range(1, 7):
            assert check_conjecture_2n(n).passed

    def test_known_high_period_pair(self):
        rep = check_conjecture_2n(3)
        hp = [p for p in rep.high_period_pairs if "010110" in p["words"]]
        assert hp and hp[0]["periods"] == [5, 5]
        # the pair is a word and its reversal: 0 1 01 1 0 against 0 1 10 1 0
        x, y = hp[0]["words"]
        assert (x, y) == ("010110", "011010") and y == x[::-1]
        assert not rep.shape_misses

    def test_shape_always_found_up_to_ten(self):
        for n in range(2, 11):
            rep = check_conjecture_2n(n)
            assert not rep.shape_misses
            assert all(y == x[::-1] for x, y in (e["words"] for e in rep.high_period_pairs))

    def test_violations_against_the_scalar_route(self, monkeypatch):
        # the class scan joins every shared class of length 8 into one, so
        # its pairs break the conjecture: each list holds exactly the pairs
        # its criterion picks, in pair order
        real = factorwords.counting.factor_classes
        monkeypatch.setattr(factorwords.counting, "factor_classes", lambda n, ell, meter: (
            0, [np.sort(np.concatenate(real(n, ell, meter)[1]))]))
        rep = check_conjecture_2n(4)
        joined = np.sort(np.concatenate(factor_classes(4, 8, BudgetMeter(Budget()))[1]))
        pairs = [(Word(8, int(a)), Word(8, int(b))) for a, b in combinations(joined, 2)]
        periods = {w: period(w).period for w in {w for pair in pairs for w in pair}}
        assert rep.pair_count == len(pairs) and rep.nontrivial_classes == 1
        words = lambda got: [tuple(e["words"]) for e in got]
        assert words(rep.period_violations) == [
            (str(a), str(b)) for a, b in pairs if periods[a] != periods[b]]
        assert words(rep.conjugacy_violations) == [
            (str(a), str(b)) for a, b in pairs if not are_root_conjugate(a, b)]
        high = [(str(a), str(b)) for a, b in pairs if periods[a] > 5]
        assert words(rep.high_period_pairs) == high
        assert words(rep.shape_misses) == [(x, y) for x, y in high if not _mirrored(x, y)]
        assert 0 < len(rep.shape_misses) < len(high)
        assert not rep.passed

    def test_shape_test_on_every_reversal_pair(self, monkeypatch):
        # classes {x, x^R} for every word x of length 10 that is no palindrome:
        # every high-period pair passes the reversal check, so only the rest
        # of the shape, x = c v s v^R c, tells the misses apart
        rev = lambda x: int(f"{x:010b}"[::-1], 2)
        monkeypatch.setattr(factorwords.counting, "factor_classes", lambda n, ell, meter: (
            0, [np.array([x, rev(x)]) for x in range(1 << 10) if x < rev(x)]))
        rep = check_conjecture_2n(5)
        high = [tuple(e["words"]) for e in rep.high_period_pairs]
        assert [tuple(e["words"]) for e in rep.shape_misses] == [
            (x, y) for x, y in high if not _mirrored(x, y)]
        assert 0 < len(rep.shape_misses) < len(high)

    def test_json_shape(self):
        doc = check_conjecture_2n(3).to_json_dict()
        assert doc["passed"] is True
        assert set(doc) == {"n", "t", "pair_count", "nontrivial_classes", "period_violations",
                            "conjugacy_violations", "high_period_pairs", "shape_misses", "passed"}
        assert [set(e) for e in doc["high_period_pairs"]] == [{"words", "periods"}] * 2

    def test_time_budget_enforced(self):
        with pytest.raises(BudgetExceededError):
            check_conjecture_2n(3, Budget(max_seconds=1e-6))

    def test_time_budget_stops_the_class_scan_partway(self):
        # the 2^22 words of length 22 are hashed chunk by chunk, with a time
        # check after each, so the budget stops the scan, not its end
        with pytest.raises(BudgetExceededError) as e:
            check_conjecture_2n(11, Budget(max_seconds=1e-9))
        assert 0 < e.value.progress["words_scanned"] < 1 << 22


class TestGroupIdentity:
    def test_excess_accounts_for_the_count(self):
        # sum over the shared classes of (size - 1) is exactly 2^t - T(t, n)
        for t in range(1, 13):
            for n in range(1, min(t, 8) + 1):
                shared = factor_classes(n, t, BudgetMeter(Budget()))[1]
                excess = sum(len(cls) - 1 for cls in shared)
                assert (1 << t) - excess == count_T_bruteforce(t, n).value


class TestTable:
    def test_small_table(self):
        tab = t_table(8, 3)
        assert tab.get(5, 3).value == 27 and tab.get(5, 3).method == "both"
        assert tab.get(8, 3).value == 94 and tab.get(8, 3).method == "brute"
        assert tab.get(2, 3) is None
        row1 = [tab.get(t, 1).value for t in range(1, 9)]
        assert row1 == [2, 3, 3, 3, 3, 3, 3, 3]

    def test_time_budget_covers_the_whole_table(self, monkeypatch):
        # a clock that reads 1 ms later each time it is read: every cell
        # reads it a few times, so only one clock for the whole table
        # reaches the 20 ms budget, at a cell past the first
        clock = count()
        monkeypatch.setattr(budget_mod.time, "monotonic", lambda: next(clock) / 1000)
        with pytest.raises(BudgetExceededError) as e:
            t_table(8, 3, Budget(max_seconds=0.02))
        assert (e.value.progress["t"], e.value.progress["n"]) > (1, 1)
        assert e.value.progress["elapsed_seconds"] > 0.02

    def test_memory_budget_refuses_a_cell(self):
        # a count holds 3 bytes per word at order 1: 2^19 words pass 1 MiB
        with pytest.raises(BudgetExceededError) as e:
            t_table(19, 2, Budget(max_memory_bytes=1 << 20))
        assert e.value.progress["n"] == 1 and 1 <= e.value.progress["t"] <= 19

    def test_closed_only_cells(self, monkeypatch):
        # past the brute-force limit, the closed form alone fills its region
        monkeypatch.setattr(factorwords.counting, "BRUTE_MAX_T", 8)
        tab = t_table(11, 6)
        assert [tab.get(t, 6).method for t in range(6, 12)] == ["both"] * 3 + ["closed"] * 3
        assert all(tab.get(t, 6) == count_T_closed(t, 6) for t in range(9, 12))

    def test_visits_only_the_t_that_can_hold_a_cell(self, monkeypatch):
        # no cell lies past max(BRUTE_MAX_T, 2n - 1), so a huge t_max costs nothing
        monkeypatch.setattr(factorwords.counting, "BRUTE_MAX_T", 4)
        started = time.monotonic()
        tab = t_table(10 ** 7, 3)
        assert time.monotonic() - started < 1
        assert tab.cells == t_table(5, 3).cells

    def test_grid_ends_at_the_last_cell(self, monkeypatch):
        # the emitters print no column past the last t that holds a cell
        monkeypatch.setattr(factorwords.counting, "BRUTE_MAX_T", 4)
        started = time.monotonic()
        tab = t_table(10 ** 7, 2)
        csv, md = tab.to_csv(), tab.to_markdown()
        assert time.monotonic() - started < 1
        assert csv.splitlines()[0] == "n\\t,1,2,3,4"
        header, separator = md.splitlines()[:2]
        assert header.endswith("| 4 |") and separator == "|" + "---|" * 5
        assert (csv, md) == (t_table(4, 2).to_csv(), t_table(4, 2).to_markdown())

    def test_emitters(self):
        tab = t_table(6, 2)
        csv = tab.to_csv()
        assert csv.splitlines()[0] == "n\\t,1,2,3,4,5,6"
        assert csv.splitlines()[2] == "2,,4,7,11,12,12"
        md = tab.to_markdown()
        assert md.splitlines()[0].startswith("| n\\t |")
        doc = tab.to_json_dict()
        cells = {(c["t"], c["n"]): c for c in doc["cells"]}
        assert cells[(3, 2)]["method"] == "both"
        assert cells[(6, 2)]["method"] == "brute"
