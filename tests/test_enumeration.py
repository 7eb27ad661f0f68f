"""The sharded search, its brute-force oracle, and their bookkeeping."""

import json
import random
import re
import tracemalloc

import numpy as np
import pytest

from factorwords import (Budget, BudgetExceededError, FactorSet, brute_force_enumerate,
                         enumerate_representable, factors, is_circ_representable,
                         is_representable)
from factorwords import enumeration
from factorwords import budget as budget_mod
from factorwords.budget import BudgetMeter
from factorwords.enumeration import UNSEEN, _layers, _scan_shard, brute_force_nbytes
from factorwords.factorsets import _cover_word

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

    def test_order_validation(self):
        with pytest.raises(ValueError):
            enumerate_representable(0)
        with pytest.raises(ValueError):
            enumerate_representable(6)
        with pytest.raises(ValueError):
            enumerate_representable(5)  # the census covers orders 1..4


class TestDeciderAgreement:
    """The census search and the structural deciders check each other."""

    def test_every_set_small_orders(self, enum_results):
        for n in (1, 2, 3):
            rep, circ = set(enum_results[n].rep_sets), set(enum_results[n].circ_sets)
            for members in range(1, 1 << (1 << n)):
                s = FactorSet(n, members)
                assert (members in rep) == is_representable(s)
                assert (members in circ) == is_circ_representable(s)

    def test_sampled_sets_order_four(self, enum_results):
        rep, circ = set(enum_results[4].rep_sets), set(enum_results[4].circ_sets)
        rng = random.Random(4)
        for _ in range(3000):
            members = rng.randrange(1, 1 << 16)
            s = FactorSet(4, members)
            assert (members in rep) == is_representable(s)
            assert (members in circ) == is_circ_representable(s)

    def test_shards_report_their_least_member(self):
        for n in (1, 2, 3, 4):
            width = 1 << n
            space = (1 << width) << n
            scratch = np.empty(space, np.uint8), np.empty(space, np.int32)

            def run(shards):
                out = np.full((2, 1 << width), UNSEEN, np.uint8)
                for u in shards:
                    _scan_shard(n, u, out, *scratch)
                return out

            for u in range(width):
                sets = np.flatnonzero((run([u]) != UNSEEN).any(axis=0))
                assert np.all(sets & -sets == 1 << u)
            # the shards write disjoint slices, so no merge is needed and
            # their order, sharing one pair of scratch arrays, does not matter
            assert np.array_equal(run(range(width)), run(reversed(range(width))))


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

    def test_brute_validation(self):
        with pytest.raises(ValueError):
            brute_force_enumerate(5, 30)
        with pytest.raises(ValueError):
            brute_force_enumerate(3, 2)


def reached_states(n):
    """Each (S, v) state of order n that ``_layers`` reaches in shard u from
    every ({w}, w), w >= u, as (u, S, v, depth)."""
    width = 1 << n
    for u in range(width):
        space = (1 << (width - u)) << n
        depth = np.empty(space, np.uint8)
        w = np.arange(u, width, dtype=np.int64)
        _layers(n, u, ((np.int64(1) << (w - u)) << n) | w, depth,
                np.empty(space, np.int32))
        for i in np.flatnonzero(depth != UNSEEN).tolist():
            yield u, (i >> n) << u, i & (width - 1), int(depth[i])


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
    fs = FactorSet(n, members)
    return _cover_word(fs, [((1 << u) << n) | u for u in fs.codes()],
                       {(members << n) | v}, None)


class TestValidNodes:
    def test_roots_and_first_layer_order_one(self):
        states = {(s, v): d for u, s, v, d in reached_states(1) if u == 0}
        assert states[0b01, 0] == 0        # ({0}, 0)
        assert states[0b11, 1] == 1        # ({0, 1}, 1)

    def test_example_node_order_two(self):
        states = list(reached_states(2))
        hit = [d for u, s, v, d in states if s == 0b0011 and v == 0b01]
        assert hit == [1]                  # {00, 01} ending in 01
        assert len({s for _, s, _, _ in states}) == 14

    def test_nodes_unique(self):
        # each state is read once, in the shard of its set's least member,
        # at the depth a plain dictionary search gives it
        ref = reference_depths(3)
        ours = {}
        for u, s, v, d in reached_states(3):
            assert ref[s, v] == d
            if s & -s == 1 << u:
                assert (s, v) not in ours
                ours[s, v] = d
        assert ours == ref

    def test_prefix_suffix_in_set(self):
        for u, s, v, _ in reached_states(2):
            assert s >> v & 1
            assert s & -s >= 1 << u


class TestWitnessReconstruction:
    def test_examples(self):
        assert str(cover_word(2, 0b0001, 0b00)) == "00"
        assert str(cover_word(2, 0b0011, 0b01)) == "001"

    def test_every_node_reconstructs(self):
        for n in (1, 2, 3):
            for _, s, v, d in reached_states(n):
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

    @pytest.mark.parametrize("n,max_len", [(3, 16), (4, 20), (4, 25)])
    def test_oracle_charge_bounds_its_buffers(self, n, max_len):
        tracemalloc.start()
        try:
            brute_force_enumerate(n, max_len, collect_sets=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= brute_force_nbytes(n, max_len)

    def test_oracle_table_charge_bounds_its_buffers(self, monkeypatch):
        # the suffix tables are charged as they are built, on top of
        # brute_force_nbytes: the most the meter holds covers the peak
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
        assert brute_force_nbytes(4, 25) < PeakMeter.peak < 10 << 20
        assert peak <= PeakMeter.peak

    def test_oracle_memory_ceiling_enforced(self):
        tight = Budget(max_memory_bytes=brute_force_nbytes(4, 25) - 1)
        with pytest.raises(BudgetExceededError) as exc:
            brute_force_enumerate(4, 25, tight)
        assert exc.value.progress["charged_bytes"] == 0
        fits = Budget(max_memory_bytes=brute_force_nbytes(3, 11))
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
    def test_time_budget_reports_completed_shards(self, workers):
        with pytest.raises(BudgetExceededError) as exc:
            enumerate_representable(4, Budget(max_seconds=1e-6, workers=workers))
        assert exc.value.progress["completed_shards"] >= 1

