"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report lines.
"""

import json
import random
import time
from itertools import combinations

from factorwords import (Budget, FactorSet, Word, chain_fan, check_theorem1,
                         circular_factors, construct_ts, construct_ty,
                         count_T_bruteforce, count_T_closed,
                         counterexample_family, debruijn, enumerate_representable,
                         factors, hamiltonian_walk, is_circ_representable,
                         lower_bound, net_audit, random_strongly_connected,
                         shortest_circular_witness, shortest_witness, t_table,
                         upper_bound, upper_bound_audit, witness_length_bound)

EXPECTED_ROWS = {
    1: (3, 3, 2, 2),
    2: (6, 14, 4, 5),
    3: (27, 121, 9, 10),
    4: (973, 5921, 24, 24),
}

PUBLISHED_CIRC_COUNT_5 = 2466131

# published T(t, n) for n = 1..8, t = n..16 (row-major from t = n)
PUBLISHED_T = {
    1: [2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3],
    2: [4, 7, 11, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12],
    3: [8, 15, 27, 48, 72, 94, 100, 103, 101, 103, 101, 103, 101, 103],
    4: [16, 31, 59, 114, 216, 391, 677, 1087, 1621, 2246, 2928, 3595, 4235],
    5: [32, 63, 123, 242, 474, 933, 1795, 3421, 6399, 11682, 20704, 35914],
    6: [64, 127, 251, 498, 986, 1965, 3899, 7709, 15171, 29710, 57726],
    7: [128, 255, 507, 1010, 2010, 4013, 8001, 15969, 31789, 63256],
    8: [256, 511, 1019, 2034, 4058, 8109, 16193, 32367, 64671],
}


def report(num, text):
    print(f"\ncriterion {num}: PASS - {text}")


def test_criterion_01_enumeration_rows():
    started = time.monotonic()
    results = {n: enumerate_representable(n) for n in (1, 2, 3, 4)}
    elapsed = time.monotonic() - started
    for n, row in EXPECTED_ROWS.items():
        r = results[n]
        assert (r.circ_count, r.rep_count, r.nu, r.mu) == row, n
    # each reported extremal witness really witnesses a maximally hard set,
    # confirmed by the independent per-set search
    for n, r in results.items():
        s = factors(r.longest_witness, n)
        assert shortest_witness(s).length == r.mu
        sc = circular_factors(r.longest_circ_witness, n)
        assert len(r.longest_circ_witness) == r.nu
        assert shortest_circular_witness(sc).length == r.nu
    assert elapsed < 300, f"enumeration took {elapsed:.1f}s"
    report(1, f"rows 1..4 exact incl. witness checks in {elapsed:.1f}s")


def test_criterion_02_order_five_policy():
    # the census covers orders 1..4: no search of this package finishes the
    # order-5 row, so order 5 is refused at once instead of searched until
    # its budget runs out, and the order-5 count is the published one
    from cli_runner import invoke
    try:
        enumerate_representable(5, Budget(max_memory_bytes=32 << 20))
    except ValueError as e:
        assert "orders 1..4" in str(e)
    else:
        raise AssertionError("an order-5 census should be refused")
    assert invoke(["enumerate", "--n", "5", "--budget-mb", "16"]).exit_code == 2
    doc = json.loads(invoke(["bounds", "--n", "5", "-f", "json"]).output)
    assert (doc["count"], doc["count_source"]) == (PUBLISHED_CIRC_COUNT_5, "published")
    report(2, "order 5 refused by the census (CLI exit 2); bounds --n 5 quotes "
              f"the published |C_5| = {PUBLISHED_CIRC_COUNT_5}")


def test_criterion_03_published_table_reproduced():
    started = time.monotonic()
    table = t_table(16, 8)
    elapsed = time.monotonic() - started
    cells = 0
    for n, row in PUBLISHED_T.items():
        for offset, expected in enumerate(row):
            t = n + offset
            cell = table.get(t, n)
            assert cell is not None and cell.value == expected, (t, n)
            cells += 1
    assert cells == 100
    assert elapsed < 120, f"table took {elapsed:.1f}s"
    report(3, f"all {cells} published cells exact in {elapsed:.1f}s")


def test_criterion_04_closed_form_consistency():
    checked = 0
    for n in range(1, 9):
        for t in range(n, 2 * n):
            assert count_T_closed(t, n).value == count_T_bruteforce(t, n).value
            checked += 1
    report(4, f"closed form == brute force on all {checked} region cells")


def test_criterion_05_characterization_verified():
    checked = 0
    for t in range(1, 15):
        for n in range((t + 1 + 1) // 2, t + 1):
            rep = check_theorem1(t, n)
            assert rep.in_region and rep.passed, (t, n)
            checked += 1
    detected = []
    for k in range(3, 7):
        x, y, px, py = counterexample_family(k)
        rep = check_theorem1(2 * k - 1, k - 1, allow_out_of_region=True)
        assert not rep.in_region and not rep.forward_ok
        hit = [c for c in rep.counterexamples
               if c.get("direction") == "forward"
               and set(c["words"]) == {str(x), str(y)}]
        assert hit and sorted(hit[0]["periods"]) == [py, px], k
        detected.append(k)
    report(5, f"{checked} in-region (t,n) pass exhaustively; boundary family "
              f"flagged outside the region for k={detected}")


def test_criterion_06_splice_construction():
    t = construct_ty(debruijn(2), Word.from_text("010"))
    assert str(t) == "00110011" + "0" + "01" + "0" + "011" + "00110011"
    rng = random.Random(2024)
    for n in (2, 3, 4, 5):
        b = debruijn(n)
        base = circular_factors(b, n + 1)
        absent = [Word(n + 1, c) for c in range(1 << (n + 1)) if c not in base]
        for _ in range(50):
            sub = [y for y in absent if rng.random() < 0.5]
            ts = construct_ts(b, sub)
            assert circular_factors(ts, n + 1).members \
                == base.members | sum(1 << y.code for y in sub)
    distinct = {}
    for n in (2, 3):
        b = debruijn(n)
        base = circular_factors(b, n + 1)
        absent = [Word(n + 1, c) for c in range(1 << (n + 1)) if c not in base]
        seen = set()
        for r in range(len(absent) + 1):
            for sub in combinations(absent, r):
                seen.add(circular_factors(construct_ts(b, list(sub)), n + 1).members)
        assert len(seen) == lower_bound(n)
        distinct[n] = len(seen)
    report(6, "literal splice reproduced byte-for-byte; 50 random subsets "
              f"exact for n=2..5; all sets distinct (n=2: {distinct[2]}, "
              f"n=3: {distinct[3]})")


def test_criterion_07_bound_audit_and_sandwich(enum_results):
    for n in range(1, 7):
        audit = upper_bound_audit(n)
        assert audit.consistent and audit.binomial_identity_ok
    counts = {n: enum_results[n].circ_count for n in (2, 3, 4)}
    counts[5] = PUBLISHED_CIRC_COUNT_5
    for n, count in counts.items():
        assert lower_bound(n - 1) <= count <= upper_bound(n - 1), n
    report(7, "telescoping exact for n<=6; sandwich holds for orders 2..4 "
              "(enumerated) and 5 (published)")


def test_criterion_08_incidence_partition(enum_results):
    for n in (1, 2, 3):
        audit = net_audit(n)
        assert audit.circ_count == enum_results[n + 1].circ_count
        assert audit.unbalanced == 0, n
        assert audit.class_sizes.keys() <= set(enum_results[n].circ_sets), n
        assert sum(audit.class_sizes.values()) == audit.circ_count
        for t_members, size in audit.class_sizes.items():
            assert size <= audit.caps[t_members], (n, t_members)
        assert audit.consistent
    report(8, "every circularly representable set projects to exactly one "
              "class and class sizes respect the 7^sigma cap (orders 2..4)")


def test_criterion_09_walk_bounds(enum_results):
    rng = random.Random(7)
    for _ in range(200):
        g = random_strongly_connected(rng, max_vertices=12)
        rep = hamiltonian_walk(g)
        assert rep.covers_all and rep.optimal_length <= rep.bound
    for n in range(2, 13):
        rep = hamiltonian_walk(chain_fan(n))
        assert rep.optimal_length == rep.bound == (n + 1) ** 2 // 4
    for n in (1, 2, 3, 4):
        r = enum_results[n]
        assert r.mu <= witness_length_bound(n)
        assert r.nu <= witness_length_bound(n)
    report(9, "200 random digraphs under the bound; chain-fan tight for "
              "n=2..12; measured mu/nu under the closed-form cap")


def _oracle_agreement_doc(enum_results, brute_small, brute4, workers):
    """Agreement verdicts for graph, search and brute-force routes."""
    doc = {}
    for n in (1, 2, 3):
        bfs_circ = set(enum_results[n].circ_sets)
        brute_circ = set(brute_small[n].circ_sets)
        verdicts = []
        for members in range(1, 1 << (1 << n)):
            graph = is_circ_representable(FactorSet(n, members))
            assert graph == (members in bfs_circ) == (members in brute_circ), \
                (n, members)
            verdicts.append(int(graph))
        doc[str(n)] = verdicts
    rng = random.Random(1234)
    bfs_circ = set(enum_results[4].circ_sets)
    brute_circ = set(brute4.circ_sets)
    verdicts = []
    for _ in range(1000):
        members = rng.randrange(1, 1 << 16)
        graph = is_circ_representable(FactorSet(4, members))
        assert graph == (members in bfs_circ) == (members in brute_circ), members
        verdicts.append([members, int(graph)])
    doc["4_sampled"] = verdicts
    doc["workers"] = workers  # recorded, must not influence the verdicts
    return doc


def test_criterion_10_oracle_equivalence(enum_results, brute_small, brute4):
    doc = _oracle_agreement_doc(enum_results, brute_small, brute4, workers=1)
    total = sum(len(v) for k, v in doc.items() if k != "workers")
    report(10, f"graph, search and brute-force routes agree on {total} "
               "subsets (all of orders 1..3, 1000 sampled at order 4)")


def test_criterion_11_determinism_across_workers(enum_results, brute_small):
    docs = {}
    for workers in (1, 4, 16):
        budget = Budget.default(workers=workers)
        c1 = [enumerate_representable(n, budget).to_json_dict()
              for n in (1, 2, 3, 4)]
        c3 = t_table(16, 8, budget).to_json_dict()
        rng = random.Random(7)
        c9 = []
        for _ in range(50):
            g = random_strongly_connected(rng, max_vertices=10)
            c9.append(hamiltonian_walk(g).to_json_dict())
        from factorwords import brute_force_enumerate
        brute4w = brute_force_enumerate(4, 25, budget, collect_sets=True)
        c10 = _oracle_agreement_doc(
            enum_results,
            brute_small,
            brute4w,
            workers=1,  # fixed label: the payload may not vary with workers
        )
        docs[workers] = json.dumps(
            {"c1": c1, "c3": c3, "c9": c9, "c10": c10}, sort_keys=True)
    assert docs[1] == docs[4] == docs[16]
    report(11, "criteria 1/3/9/10 payloads byte-identical for workers 1, 4, 16")
