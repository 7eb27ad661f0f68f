"""The census's walk-layer runs, its brute-force oracle, and their bookkeeping."""

import hashlib
import json
import re
import tracemalloc
from functools import reduce
from operator import or_

import numpy as np
import pytest

from factorwords import (Budget, BudgetExceededError, FactorSet, brute_force_enumerate,
                         enumerate_representable, factors, is_circ_representable,
                         is_representable)
from factorwords import enumeration
from factorwords import budget as budget_mod
from factorwords.budget import BudgetMeter
from factorwords.enumeration import _closed_walks, _levels, _run, census_nbytes
from factorwords.factorsets import _containing, _cover_word, _set_bits, _table
from factorwords.scan import word_scan_nbytes

EXPECTED_ROWS = {
    1: (3, 3, 2, 2),
    2: (6, 14, 4, 5),
    3: (27, 121, 9, 10),
    4: (973, 5921, 24, 24),
}


class TestEnumerate:
    def test_rows(self, enum_results):
        for n, row in EXPECTED_ROWS.items():
            r = enum_results[n]
            assert (r.circ_count, r.rep_count, r.nu, r.mu) == row

    def test_histograms_sum_to_counts(self, enum_results):
        for n, r in enum_results.items():
            assert sum(r.sw_histogram.values()) == r.rep_count
            assert sum(r.scw_histogram.values()) == r.circ_count
            assert max(r.sw_histogram) == r.mu
            assert max(r.scw_histogram) == r.nu
            assert min(r.sw_histogram) == n  # single words witness themselves

    def test_set_listings(self, enum_results):
        r = enum_results[2]
        assert len(r.rep_sets) == 14 and len(r.circ_sets) == 6
        assert set(r.circ_sets) <= set(r.rep_sets)
        # {00, 11} is neither
        absent = (1 << 0) | (1 << 3)
        assert absent not in r.rep_sets

    def test_safe_scan_lengths(self, enum_results, monkeypatch):
        # uncapped, the oracle needs no scan length from the census: it reads
        # each length once, both flavours from one run, until no prefix state
        # is new (test_new_states_pinned's last length), and gives the
        # census's row, least codes and sets
        read = []

        class LengthMeter(BudgetMeter):
            def note(self, **fields):
                super().note(**fields)
                if "scanned" in fields:
                    read.append(int(fields["scanned"].split()[1]))

        monkeypatch.setattr(enumeration, "BudgetMeter", LengthMeter)
        last = {1: 2, 2: 6, 3: 14, 4: 34}
        for n, r in enum_results.items():
            read.clear()
            b = brute_force_enumerate(n, collect_sets=True)
            assert [b.to_json_dict(), b.rep_sets, b.circ_sets] == [
                r.to_json_dict(), r.rep_sets, r.circ_sets]
            assert read == list(range(1, last[n] + 1))

    def test_order_validation(self):
        with pytest.raises(ValueError):
            enumerate_representable(0)
        with pytest.raises(ValueError):
            enumerate_representable(6)
        with pytest.raises(ValueError):
            enumerate_representable(5)  # the census covers orders 1..4


class TestDeciderAgreement:
    """The census search and the structural deciders check each other."""

    @staticmethod
    def _check_every_set(result, n):
        rep, circ = set(result.rep_sets), set(result.circ_sets)
        for members in range(1, 1 << (1 << n)):
            s = FactorSet(n, members)
            assert (members in rep) == is_representable(s)
            assert (members in circ) == is_circ_representable(s)

    def test_every_set_small_orders(self, enum_results):
        for n in (1, 2, 3):
            self._check_every_set(enum_results[n], n)

    def test_sampled_sets_order_four(self, enum_results):
        # the deciders are fast enough that the sample is all 2^16 - 1 sets
        self._check_every_set(enum_results[4], 4)

    def test_joint_closed_walks_match_the_runs_per_least_member(self):
        for n in (1, 2, 3, 4):
            levels = {}
            for d, bits in _closed_walks(debruijn_preds(n), BudgetMeter(Budget())):
                assert not bits & reduce(or_, levels.values(), 0)  # each set closes once
                levels[d] = levels.get(d, 0) | bits
            ref = reference_closed_walks(n)
            assert {d: bits for d, bits in levels.items() if bits} == {
                d: sum(1 << s for s in np.flatnonzero(ref == d).tolist())
                for d in np.unique(ref[ref != 0]).tolist()}
            # each set it reports, but a lone vertex with a self-loop, has a
            # closed covering walk of that many moves from its least member
            for d, bits in levels.items():
                for members in FactorSet(1 << n, bits).codes():
                    if members & members - 1:
                        u = (members & -members).bit_length() - 1
                        w = _cover_word(FactorSet(n, members), 1 << u, u, None)
                        assert len(w) == n + d

    def test_levels_take_each_set_at_its_first_length(self):
        # lengths may repeat; a set held again later is not counted again
        hist, top, seen = _levels([(2, 0b0110), (2, 0b1000), (3, 0b1010), (5, 0b10001)])
        assert list(hist.items()) == [(2, 3), (5, 2)]
        assert (top, seen) == (0b10001, 0b11111)
        hist, top, seen = _levels([(1, 0b01), (1, 0b10)])
        assert (hist, top, seen) == ({1: 2}, 0b11, 0b11)


class TestOracleAgreement:
    def test_small_orders_all_fields(self, enum_results, brute_small):
        for n in (1, 2, 3):
            assert enum_results[n].to_json_dict() == brute_small[n].to_json_dict()
            assert enum_results[n].rep_sets == brute_small[n].rep_sets
            assert enum_results[n].circ_sets == brute_small[n].circ_sets

    def test_order_four(self, enum_results, brute4):
        r, b = enum_results[4], brute4
        assert (b.circ_count, b.rep_count, b.nu, b.mu) == (973, 5921, 24, 24)
        assert r.to_json_dict() == b.to_json_dict()
        assert r.rep_sets == b.rep_sets and r.circ_sets == b.circ_sets

    def test_results_pinned(self, enum_results, brute_small, brute4):
        # both routes' results for orders 1..4: the JSON, the histograms'
        # order and the set listings; the digest was recorded when both
        # routes built their results from per-set depth arrays
        oracle = {**brute_small, 4: brute4}
        h = hashlib.sha256()
        for n in (1, 2, 3, 4):
            for r in (enum_results[n], oracle[n]):
                doc = [r.to_json_dict(), list(r.sw_histogram.items()),
                       list(r.scw_histogram.items()), list(r.rep_sets), list(r.circ_sets)]
                h.update(json.dumps(doc).encode())
        assert h.hexdigest() == (
            "b69416def6b3c049f289702ab274f3a735e19fa9893b7651d1110481aa760f89")

    def test_longer_scans_agree(self, brute4):
        # no order-4 set is first listed past 25 letters, and no prefix state
        # is new past 34: longer scans give the same row, least codes and sets
        want = [brute4.to_json_dict(), brute4.rep_sets, brute4.circ_sets]
        for max_len in (33, 40, 64):
            r = brute_force_enumerate(4, max_len, collect_sets=True)
            assert [r.to_json_dict(), r.rep_sets, r.circ_sets] == want

    def test_brute_validation(self):
        with pytest.raises(ValueError):
            brute_force_enumerate(5, 30)
        with pytest.raises(ValueError):
            brute_force_enumerate(3, 2)


def debruijn_preds(n):
    """Per vertex x of the order-n de Bruijn graph, the vertices with a move
    to x, as the census lists them."""
    width = 1 << n
    return [[x >> 1, x >> 1 | width >> 1] for x in range(width)]


def depth_array(found, count):
    """The uint8 array holding at each i < count the value of the first pair
    in ``found`` whose bit set holds bit i (0: none)."""
    out = np.zeros(count, np.uint8)
    seen = 0
    for value, bits in found:
        bits &= ~seen
        seen |= bits
        raw = np.frombuffer(bits.to_bytes(-(-count // 8), "little"), np.uint8)
        out[np.unpackbits(raw, count=count, bitorder="little").astype(bool)] = value
    return out


def reference_closed_walks(n):
    """Each set's shortest closed covering walk length (0: none), by one
    unfiltered run per least member u: from ({u}, u) over the vertices >= u,
    renumbered from 0, so that mask c stands for the set c << u, reading
    vertex 0 of each layer."""
    preds = debruijn_preds(n)
    width = len(preds)
    out = np.zeros(1 << width, np.uint8)
    for u in range(width):
        run = _run([[v - u for v in preds[x] if v >= u] for x in range(u, width)],
                   [2] + [0] * (width - u - 1), BudgetMeter(Budget()), f"closed walks from {u}")
        depths = depth_array(((d, layer[0]) for d, layer in run), 1 << (width - u))
        out[1 << u::2 << u] = depths[1::2]
        # ({u}, u) closes only by a self-loop: the one-letter circular word 0 or 1
        out[1 << u] = u in (0, width - 1)
    return out


def reached_states(n):
    """Each (S, v) state of order n in the census's forward layers from every
    ({w}, w), as (S, v, depth)."""
    width = 1 << n
    starts = [1 << (1 << w) for w in range(width)]
    for d, layer in _run(debruijn_preds(n), starts, BudgetMeter(Budget()), "ordinary"):
        for v, states in enumerate(layer):
            while states:
                s = (states & -states).bit_length() - 1
                yield s, v, d
                states &= states - 1


def reference_depths(n):
    """A plain dictionary search: the first depth of every (S, v) state."""
    wmask = (1 << n) - 1
    depth = {(1 << u, u): 0 for u in range(1 << n)}
    frontier = list(depth)
    d = 0
    while frontier:
        d += 1
        nxt = []
        for cov, v in frontier:
            for b in (0, 1):
                x = ((v << 1) & wmask) | b
                if (cov | 1 << x, x) not in depth:
                    depth[cov | 1 << x, x] = d
                    nxt.append((cov | 1 << x, x))
        frontier = nxt
    return depth


def cover_word(n, members, v):
    """The least shortest word with factor set ``members`` ending in v."""
    return _cover_word(FactorSet(n, members), members, v, None)


class TestValidNodes:
    def test_roots_and_first_layer_order_one(self):
        states = {(s, v): d for s, v, d in reached_states(1)}
        assert states[0b01, 0] == 0        # ({0}, 0)
        assert states[0b11, 1] == 1        # ({0, 1}, 1)

    def test_example_node_order_two(self):
        states = list(reached_states(2))
        hit = [d for s, v, d in states if s == 0b0011 and v == 0b01]
        assert hit == [1]                  # {00, 01} ending in 01
        assert len({s for s, _, _ in states}) == 14

    def test_nodes_unique(self):
        # each state is read once, in the layer of the depth a plain
        # dictionary search gives it
        ref = reference_depths(3)
        ours = {}
        for s, v, d in reached_states(3):
            assert ref[s, v] == d
            assert (s, v) not in ours
            ours[s, v] = d
        assert ours == ref

    def test_prefix_suffix_in_set(self):
        for s, v, _ in reached_states(2):
            assert s >> v & 1

    def test_containing_masks_match_division(self):
        # the masks holding x repeat 2^x zeros then 2^x ones: the 2^nv-bit
        # all-ones value divided by 2^(2^(x+1)) - 1, times the one block
        for nv in range(1, 13):
            full = (1 << (1 << nv)) - 1
            assert _containing(nv) == tuple(
                full // ((1 << (2 << x)) - 1) * (((1 << (1 << x)) - 1) << (1 << x))
                for x in range(nv))


class TestWitnessReconstruction:
    def test_examples(self):
        assert str(cover_word(2, 0b0001, 0b00)) == "00"
        assert str(cover_word(2, 0b0011, 0b01)) == "001"

    def test_every_node_reconstructs(self):
        for n in (1, 2, 3):
            for s, v, d in reached_states(n):
                w = cover_word(n, s, v)
                assert len(w) == n + d
                assert factors(w, n) == FactorSet(n, s)
                assert w.segment(len(w) - n + 1, len(w)).code == v

    def test_unknown_node_rejected(self):
        # no word with factor set {00} ends in 11, nor with {00, 11}
        assert cover_word(2, 0b0001, 0b11) is None
        assert cover_word(2, 0b1001, 0b11) is None


class TestDeterminism:
    def test_worker_counts_agree(self):
        docs = []
        for workers in (1, 4):
            r = enumerate_representable(3, Budget.default(workers=workers))
            docs.append(json.dumps(r.to_json_dict(), sort_keys=True))
        assert docs[0] == docs[1]

    def test_brute_worker_counts_agree(self):
        docs = []
        for workers in (1, 4):
            r = brute_force_enumerate(3, 11, Budget.default(workers=workers))
            docs.append(json.dumps(r.to_json_dict(), sort_keys=True))
        assert docs[0] == docs[1]


class TestBudget:
    @pytest.mark.parametrize("limits", [
        {"max_memory_bytes": 0}, {"max_seconds": 0}, {"max_seconds": float("nan")},
        {"workers": 0}])
    def test_limits_refused(self, limits):
        # NaN compares false with every bound, so it would never stop a run
        with pytest.raises(ValueError):
            Budget(**limits)

    def test_memory_ceiling_enforced(self):
        with pytest.raises(BudgetExceededError) as exc:
            enumerate_representable(4, Budget(max_memory_bytes=1 << 16))
        assert "charged_bytes" in exc.value.progress

    def test_time_message_exceeds_limit(self, monkeypatch):
        # 0.2 ms over a 50 ms limit: rounded to nearest, it reads 0.050s
        meter = BudgetMeter(Budget(max_seconds=0.05), started=100.0)
        monkeypatch.setattr(budget_mod.time, "monotonic", lambda: 100.0502)
        with pytest.raises(BudgetExceededError) as exc:
            meter.check_time("here")
        shown = re.search(r"\((\d+\.\d{3})s > 0\.05s\) at here$", str(exc.value))
        assert float(shown.group(1)) > 0.05

    def test_refused_charge_is_not_held(self):
        meter = BudgetMeter(Budget(max_memory_bytes=1000))
        meter.charge_memory(600)
        with pytest.raises(BudgetExceededError) as exc:
            meter.charge_memory(500, "more")
        assert "requested 500 with 600 held" in str(exc.value)
        assert meter.charged_bytes == exc.value.progress["charged_bytes"] == 600
        meter.charge_memory(400)  # exactly the budget still fits

    def test_huge_refused_charge_is_written_as_a_power_of_two(self):
        # Python writes no int of over 4300 digits in decimal; from 2^64 on a
        # count is written as the power of two it reaches
        meter = BudgetMeter(Budget(max_memory_bytes=1000))
        for nbytes, shown in (((1 << 64) - 1, str((1 << 64) - 1)), (1 << 64, "at least 2^64"),
                              ((1 << 20000) + 5, "at least 2^20000")):
            with pytest.raises(BudgetExceededError) as exc:
                meter.charge_memory(nbytes)
            assert f"requested {shown} with 0 held, budget 1000 bytes" in str(exc.value)

    @pytest.mark.parametrize("n,max_len", [(3, 16), (4, 20), (4, 25), (4, None)])
    def test_oracle_charge_bounds_its_buffers(self, n, max_len):
        tracemalloc.start()
        try:
            brute_force_enumerate(n, max_len, collect_sets=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= word_scan_nbytes(n, max_len)

    def test_oracle_table_charge_bounds_its_buffers(self, monkeypatch):
        # the set listings are charged on top of word_scan_nbytes, which
        # holds the state flags: the most the meter holds covers the peak
        class PeakMeter(BudgetMeter):
            peak = 0

            def charge_memory(self, nbytes, what=""):
                super().charge_memory(nbytes, what)
                PeakMeter.peak = max(PeakMeter.peak, self.charged_bytes)

        monkeypatch.setattr(enumeration, "BudgetMeter", PeakMeter)
        tracemalloc.start()
        try:
            brute_force_enumerate(4, 25, collect_sets=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert word_scan_nbytes(4, 25) < PeakMeter.peak < 10 << 20
        assert peak <= PeakMeter.peak

    def test_oracle_memory_ceiling_enforced(self):
        tight = Budget(max_memory_bytes=word_scan_nbytes(4, 25) - 1)
        with pytest.raises(BudgetExceededError) as exc:
            brute_force_enumerate(4, 25, tight)
        assert exc.value.progress["charged_bytes"] == 0
        fits = Budget(max_memory_bytes=word_scan_nbytes(3, 11))
        assert brute_force_enumerate(3, 11, fits).circ_count == 27

    def test_order_five_refused_before_charging(self, monkeypatch):
        charged = []

        class LoggingMeter(BudgetMeter):
            def charge_memory(self, nbytes, what=""):
                charged.append(nbytes)
                super().charge_memory(nbytes, what)

        monkeypatch.setattr(enumeration, "BudgetMeter", LoggingMeter)
        with pytest.raises(ValueError, match="orders 1..4"):
            enumerate_representable(5, Budget(max_memory_bytes=8 << 20))
        assert charged == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_time_budget_reports_the_depth(self, workers):
        # the time is checked after every layer, so the first check stops it
        with pytest.raises(BudgetExceededError) as exc:
            enumerate_representable(4, Budget(max_seconds=1e-6, workers=workers))
        assert exc.value.progress["run"] == "ordinary"
        assert exc.value.progress["depth"] == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_census_charge_bounds_its_peak(self, n):
        # their masks are part of the charge
        _containing.cache_clear()
        tracemalloc.start()
        try:
            enumerate_representable(n, collect_sets=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= census_nbytes(n)

    def test_listing_reads_the_table_bytes(self, monkeypatch):
        # the 973 circular order-4 sets listed from their 2^16-bit table, as
        # the census lists them: a string of a byte per bit would be 64 KiB
        # on its own. The census's charge for that listing covers its peak
        # alone, with no help from census_nbytes' 64 KiB for the searches
        listings = []

        class LoggingMeter(BudgetMeter):
            def charge_memory(self, nbytes, what=""):
                super().charge_memory(nbytes, what)
                if what == "set listing":
                    listings.append(nbytes)

        monkeypatch.setattr(enumeration, "BudgetMeter", LoggingMeter)
        sets = enumerate_representable(4, collect_sets=True).circ_sets
        table = reduce(or_, (1 << s for s in sets))
        tracemalloc.start()
        try:
            listed = tuple(_set_bits(_table(table)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert listed == sets and len(sets) == 973
        assert peak <= 64 << 10
        assert peak <= listings[1]  # ordinary, then circular

    @pytest.mark.parametrize("route", ["census", "oracle"])
    def test_listing_charge_covers_the_listings(self, route, monkeypatch):
        # at order 4, the bytes the listings hold once built stay within the
        # charges naming them, and the peak within the most the meter held
        charges = []

        class PeakMeter(BudgetMeter):
            peak = 0

            def charge_memory(self, nbytes, what=""):
                super().charge_memory(nbytes, what)
                charges.append((what, nbytes))
                PeakMeter.peak = max(PeakMeter.peak, self.charged_bytes)

        monkeypatch.setattr(enumeration, "BudgetMeter", PeakMeter)
        call = {"census": lambda collect: enumerate_representable(4, collect_sets=collect),
                "oracle": lambda collect: brute_force_enumerate(4, 25, collect_sets=collect)}
        call[route](False)  # the census's cached masks are built before tracing
        held = []
        for collect in (False, True):
            tracemalloc.start()
            try:
                result = call[route](collect)
                held.append(tracemalloc.get_traced_memory()[0])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len(result.rep_sets) == 5921 and len(result.circ_sets) == 973
        listing = sum(nbytes for what, nbytes in charges if "listing" in what)
        assert held[1] - held[0] <= listing
        assert peak <= PeakMeter.peak
