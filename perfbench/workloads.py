"""The benchmark's workloads: seeded inputs, one timed operation, its checks.

Each workload builds its inputs from the seed before timing starts and hands
factorwords only FactorSet, Digraph and integer values. ``op`` is the timed
operation; ``check`` compares its outputs with published or independent
reference data (``reference.json``) and charges every mismatch to the layer
that produced it.

census and oracle compute the same per-order rows two ways; each is checked
against one reference, which the search and the oracle were both shown to
reproduce when it was recorded, so agreement of the two routes is checked on
every run of either.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
from dataclasses import dataclass
from pathlib import Path

from factorwords import (Budget, FactorSet, Word, brute_force_enumerate, chain_fan,
                         check_conjecture_2n, check_theorem1, circular_factors,
                         enumerate_representable, factors, hamiltonian_walk,
                         is_circ_representable, is_representable,
                         random_strongly_connected, shortest_circular_witness,
                         shortest_witness, t_table, upper_bound_audit)


@functools.cache
def reference() -> dict:
    return json.loads((Path(__file__).parent / "reference.json").read_text())


ORDERS = (1, 2, 3, 4)
# lengths at which the brute-force oracle is exact (at least mu and nu)
SAFE_LENGTHS = {1: 3, 2: 6, 3: 11, 4: 25}
ORACLE_WORKERS = min(2, len(os.sched_getaffinity(0)))


def _digest(sets) -> str:
    return hashlib.sha256(",".join(map(str, sets)).encode()).hexdigest()


def _check_census(probe, results) -> bool:
    ok = True
    for n, r in zip(ORDERS, results):
        got = r.to_json_dict()
        del got["n"]
        if r.rep_sets is not None:
            got["rep_sets_sha256"] = _digest(r.rep_sets)
            got["circ_sets_sha256"] = _digest(r.circ_sets)
        row = [r.circ_count, r.rep_count, r.nu, r.mu]
        if row != reference()["published_rows"][str(n)]:
            ok = probe.fail("enumeration", f"order {n}: (|C|, |R|, nu, mu) = {row}")
        ref = reference()["census"][str(n)]
        for key in got:
            if got[key] != ref[key]:
                ok = probe.fail("enumeration",
                                f"order {n}: {key} = {got[key]!r}, expected {ref[key]!r}")
    return ok


class Census:
    """``enumerate_representable`` for orders 1..4 with one worker."""

    def __init__(self, probe, seed: int):
        pass  # the inputs are the orders themselves

    def items(self, index: int) -> list:
        return [None]

    def warm_up(self, probe) -> bool:
        # The set lists are compared here, once: like the enumerate command,
        # the timed calls do not collect them (collecting adds about a third).
        return _check_census(probe,
                             [enumerate_representable(n, collect_sets=True) for n in ORDERS])

    def op(self, probe, item):
        out = []
        for n in ORDERS:
            r = probe.call("enumeration.enumerate_representable",
                           enumerate_representable, n)
            probe.note(sets=r.rep_count + r.circ_count)
            out.append(r)
        return out

    def check(self, probe, item, results) -> bool:
        return _check_census(probe, results)


class Oracle:
    """``brute_force_enumerate`` for orders 1..4 at the safe lengths, on a
    pool of ``ORACLE_WORKERS`` processes."""

    def __init__(self, probe, seed: int):
        self.budget = Budget.default(workers=ORACLE_WORKERS)

    def items(self, index: int) -> list:
        return [None]

    def warm_up(self, probe) -> bool:
        brute_force_enumerate(3, SAFE_LENGTHS[3], self.budget)
        return True

    def op(self, probe, item):
        out = []
        for n in ORDERS:
            ell = SAFE_LENGTHS[n]
            # collecting the set lists costs the scan well under 1%
            out.append(probe.call("enumeration.brute_force_enumerate",
                                  brute_force_enumerate, n, ell, self.budget,
                                  collect_sets=True))
            # ordinary and circular scans of every word of length n..ell
            probe.note(words=2 * ((2 << ell) - (1 << n)), workers=ORACLE_WORKERS)
        return out

    def check(self, probe, item, results) -> bool:
        return _check_census(probe, results)


T_MAX, N_MAX = 16, 8
# every in-region (t, n) with t <= 15: n <= t < 2n
THEOREM1_CELLS = [(t, n) for t in range(1, 16) for n in range((t + 2) // 2, t + 1)]
CONJECTURE_ORDERS = range(1, 11)
AUDIT_ORDERS = range(1, 9)
WALK_GRAPHS, WALK_MAX_VERTICES = 2000, 12
FAN_SIZES = range(2, 13)
# t_table scans every word of length t for each cell it brute-forces
T_TABLE_WORDS = sum(1 << t for n in range(1, N_MAX + 1) for t in range(n, T_MAX + 1))


class Audit:
    """The ttable, verify and bounds commands: T(t, n), the characterization,
    the t = 2n conjecture, the upper-bound audit and covering walks."""

    def __init__(self, probe, seed: int):
        rng = random.Random(f"audit:{seed}")
        probe.begin("bench.generate")
        self.graphs = [probe.call("bounds.random_strongly_connected",
                                  random_strongly_connected, rng, WALK_MAX_VERTICES)
                       for _ in range(WALK_GRAPHS)]
        self.fans = [probe.call("bounds.chain_fan", chain_fan, n) for n in FAN_SIZES]
        probe.end()

    def items(self, index: int) -> list:
        return [None]

    def warm_up(self, probe) -> bool:
        t_table(6, 3)
        check_theorem1(5, 3)
        check_conjecture_2n(3)
        upper_bound_audit(3)
        hamiltonian_walk(self.fans[0])
        return True

    def op(self, probe, item):
        table = probe.call("counting.t_table", t_table, T_MAX, N_MAX)
        probe.note(words=T_TABLE_WORDS)
        theorem1 = [probe.call("counting.check_theorem1", check_theorem1, t, n)
                    for t, n in THEOREM1_CELLS]
        conjecture = [probe.call("counting.check_conjecture_2n", check_conjecture_2n, n)
                      for n in CONJECTURE_ORDERS]
        audits = [probe.call("bounds.upper_bound_audit", upper_bound_audit, n)
                  for n in AUDIT_ORDERS]
        walks = [probe.call("bounds.hamiltonian_walk", hamiltonian_walk, g)
                 for g in self.graphs]
        fans = [probe.call("bounds.hamiltonian_walk", hamiltonian_walk, g)
                for g in self.fans]
        return table, theorem1, conjecture, audits, walks, fans

    def check(self, probe, item, result) -> bool:
        table, theorem1, conjecture, audits, walks, fans = result
        ok = True
        for n, row in reference()["t_table"].items():
            for t, expected in enumerate(row, start=int(n)):
                cell = table.get(t, int(n))
                if cell is None or cell.value != expected:
                    ok = probe.fail("counting", f"T({t}, {n}) = {cell}, expected {expected}")
        for (t, n), rep in zip(THEOREM1_CELLS, theorem1):
            if not (rep.in_region and rep.passed):
                ok = probe.fail("counting", f"theorem 1 fails at (t, n) = ({t}, {n})")
        for n, rep in zip(CONJECTURE_ORDERS, conjecture):
            if not rep.passed:
                ok = probe.fail("counting", f"t = 2n conjecture fails at n = {n}")
        for n, a in zip(AUDIT_ORDERS, audits):
            if not (a.consistent and a.binomial_identity_ok):
                ok = probe.fail("bounds", f"upper-bound audit inconsistent at n = {n}")
        for g, rep in zip(self.graphs + self.fans, walks + fans):
            if not (rep.covers_all and rep.walk[0] == rep.walk[-1]
                    and rep.optimal_length <= min(rep.length, rep.bound)):
                ok = probe.fail("bounds", f"bad covering walk on {g.vertex_count} vertices")
        for n, rep in zip(FAN_SIZES, fans):
            if rep.optimal_length != rep.bound:
                ok = probe.fail("bounds", f"chain_fan({n}) misses its bound {rep.bound}")
        return ok


@dataclass(frozen=True)
class Query:
    kind: str
    circular: bool
    fs: FactorSet
    source_length: int | None  # length of the word the set came from


# Per 1000-query batch: kind -> (order, circular, source word lengths or None
# for uniform subsets, {set size: count}). The kinds' shares are 40/30/15/15.
# Each kind's counts follow the size distribution of its unconditioned draw
# (estimated from 4*10^5 draws; exact binomial for uniform subsets), rounded
# by largest remainder. The cost of a witness search grows steeply with the
# set size, so fixing the size histogram keeps the number of expensive
# queries the same in every batch: seeds change which sets are drawn, not how
# many dense ones. Circular sets of size 15 or 16 (0.2 and 0.04 expected per
# batch) round to none.
QUERY_MIX = {
    "uniform4": (4, False, None, {2: 1, 3: 3, 4: 11, 5: 27, 6: 49, 7: 70, 8: 78, 9: 70,
                                  10: 49, 11: 27, 12: 11, 13: 3, 14: 1}),
    "factors4": (4, False, (4, 24), {1: 16, 2: 16, 3: 17, 4: 18, 5: 22, 6: 22, 7: 24,
                                     8: 28, 9: 29, 10: 32, 11: 30, 12: 22, 13: 15,
                                     14: 7, 15: 2}),
    "circular4": (4, True, (1, 16), {1: 19, 2: 6, 3: 8, 4: 7, 5: 18, 6: 14, 7: 14, 8: 17,
                                     9: 14, 10: 15, 11: 10, 12: 5, 13: 2, 14: 1}),
    "factors5": (5, False, (5, 18), {1: 12, 2: 11, 3: 12, 4: 12, 5: 12, 6: 14, 7: 13,
                                     8: 13, 9: 13, 10: 13, 11: 11, 12: 8, 13: 4, 14: 2}),
}


class Queries:
    """The witness command: a decider, then the shortest (circular) witness,
    for each of 1000 seeded sets per batch."""

    def __init__(self, probe, seed: int):
        self.seed = seed
        self.probe = probe

    def items(self, index: int) -> list[Query]:
        probe = self.probe
        rng = random.Random(f"queries:{self.seed}:{index}")
        batch = []
        probe.begin("bench.generate")
        for kind, (order, circular, lengths, quota) in QUERY_MIX.items():
            need = dict(quota)
            extract = circular_factors if circular else factors
            name = f"factorsets.{extract.__name__}"
            while need:
                if lengths is None:
                    fs, ell = FactorSet(order, rng.randrange(1, 1 << (1 << order))), None
                else:
                    ell = rng.randint(*lengths)
                    fs = probe.call(name, extract, Word(ell, rng.getrandbits(ell)), order)
                if need.get(len(fs)):
                    need[len(fs)] -= 1
                    if not need[len(fs)]:
                        del need[len(fs)]
                    batch.append(Query(kind, circular, fs, ell))
        probe.end()
        rng.shuffle(batch)
        return batch

    def warm_up(self, probe) -> bool:
        for fs in (FactorSet.full(2), FactorSet.parse("00,11")):
            is_representable(fs)
            shortest_witness(fs)
            is_circ_representable(fs)
            shortest_circular_witness(fs)
        return True

    def op(self, probe, q: Query):
        if q.circular:
            yes = probe.call("factorsets.is_circ_representable", is_circ_representable, q.fs)
            probe.note(yes=yes)
            return yes, probe.call("factorsets.shortest_circular_witness",
                                   shortest_circular_witness, q.fs)
        yes = probe.call("factorsets.is_representable", is_representable, q.fs)
        probe.note(yes=yes)
        return yes, probe.call("factorsets.shortest_witness", shortest_witness, q.fs)

    def check(self, probe, q: Query, result) -> bool:
        yes, w = result
        what = f"{q.kind} set {q.fs.to_hex()}"
        if w.found != yes:
            return probe.fail("factorsets", f"{what}: decider {yes}, search {w.found}")
        if q.source_length is not None and not yes:
            return probe.fail("factorsets", f"{what}: set of a word judged unrepresentable")
        if not yes:
            return True
        extract = circular_factors if q.circular else factors
        if w.witness.length != w.length or extract(w.witness, q.fs.order) != q.fs:
            return probe.fail("factorsets", f"{what}: witness {w.witness} does not "
                                            "have exactly this factor set")
        if q.source_length is not None and w.length > q.source_length:
            return probe.fail("factorsets", f"{what}: witness of length {w.length} "
                                            f"exceeds its source word ({q.source_length})")
        return True


WORKLOADS = {"census": Census, "oracle": Oracle, "audit": Audit, "queries": Queries}
