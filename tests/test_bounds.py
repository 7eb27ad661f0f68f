"""Splice constructions, bound audits, and covering-walk machinery."""

import hashlib
import json
import random
import time
from dataclasses import replace
from itertools import combinations, permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factorwords import (AlreadyPresent, Digraph, FactorSet, NotStronglyConnected, Word,
                         chain_fan, circular_factors, construct_ts, construct_ty,
                         debruijn, growth_ratio, hamiltonian_walk, lower_bound, net_audit,
                         random_strongly_connected, upper_bound, upper_bound_audit,
                         witness_length_bound)
from factorwords import bounds
from factorwords.bounds import WALK_MAX_VERTICES, _longest_simple_path, _optimal_closed_cover
from factorwords.factorsets import strong_components


def dense_graph(seed: int, nv: int, p: float = 0.9) -> Digraph:
    """A seeded random digraph with edge probability p and no self-loops."""
    rng = random.Random(seed)
    g = Digraph(nv)
    for u, v in product(range(nv), repeat=2):
        if u != v and rng.random() < p:
            g.add_edge(u, v)
    return g


def pinned_graphs() -> list[Digraph]:
    """The graphs behind the pinned hamiltonian_walk digest."""
    rng = random.Random(7)
    graphs = [random_strongly_connected(rng, max_vertices=12) for _ in range(300)]
    graphs += [chain_fan(n) for n in range(2, 16)]
    graphs += [dense_graph(seed, nv) for seed, nv in ((1, 13), (2, 14), (3, 15))]
    return graphs


def walk_digest(graphs: list[Digraph]) -> str:
    doc = json.dumps([hamiltonian_walk(g).to_json_dict() for g in graphs], sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


class TestSplice:
    def test_literal_order_two_splice(self):
        t = construct_ty(debruijn(2), Word.from_text("010"))
        expected = "00110011" + "0" + "01" + "0" + "011" + "00110011"
        assert str(t) == expected and len(t) == 23

    def test_all_absent_words_splice_correctly(self):
        for n in (2, 3, 4):
            b = debruijn(n)
            base = circular_factors(b, n + 1)
            absent = [Word(n + 1, c) for c in range(1 << (n + 1))
                      if c not in base]
            assert len(absent) == 1 << n
            for y in absent:
                ty = construct_ty(b, y)
                assert str(ty)[: 1 << n] == str(b)
                assert str(ty)[-(1 << n):] == str(b)
                got = circular_factors(ty, n + 1)
                assert got.members == base.members | (1 << y.code)

    def test_occurrences_never_overlap(self):
        # the two occurrence indices stay apart for every absent word
        for n in range(2, 7):
            b = str(debruijn(n))
            t = b * 4
            base = circular_factors(debruijn(n), n + 1)
            for c in range(1 << (n + 1)):
                if c in base:
                    continue
                y = str(Word(n + 1, c))
                i1 = t.index(y[:n]) + 1
                i2 = t.rindex(y[1:]) + 1
                assert i1 + n - 1 < i2

    def test_validation(self):
        with pytest.raises(AlreadyPresent):
            construct_ty(debruijn(2), Word.from_text("001"))
        with pytest.raises(ValueError):
            construct_ty(Word.from_text("0011"), Word.from_text("01"))
        with pytest.raises(ValueError):
            construct_ty(Word.from_text("0101"), Word.from_text("010"))

    def test_concatenation(self):
        b = debruijn(2)
        base = circular_factors(b, 3)
        assert construct_ts(b, []) == b + b
        assert circular_factors(b + b, 3) == base
        y = Word.from_text("010")
        assert construct_ts(b, [y]) == construct_ty(b, y)
        absent = [Word(3, c) for c in range(8) if c not in base]
        full = construct_ts(b, absent)
        assert len(circular_factors(full, 3)) == 8

    def test_all_subsets_distinct_small_orders(self):
        for n in (2, 3):
            b = debruijn(n)
            base = circular_factors(b, n + 1)
            absent = [Word(n + 1, c) for c in range(1 << (n + 1))
                      if c not in base]
            seen = set()
            for r in range(len(absent) + 1):
                for sub in combinations(absent, r):
                    fs = circular_factors(construct_ts(b, list(sub)), n + 1)
                    assert fs.members == base.members | sum(1 << y.code for y in sub)
                    seen.add(fs.members)
            assert len(seen) == lower_bound(n)


class TestBoundValues:
    def test_lower(self):
        assert lower_bound(1) == 4
        assert lower_bound(2) == 16
        assert lower_bound(4) == 65536

    def test_upper(self):
        assert upper_bound(1) == 10
        assert upper_bound(2) == 100
        assert upper_bound(3) == 10000
        assert upper_bound(4) == 10 ** 8

    def test_validation(self):
        for fn in (lower_bound, upper_bound, upper_bound_audit, witness_length_bound):
            with pytest.raises(ValueError, match="order must be positive"):
                fn(0)

    def test_audit_exact(self):
        for n in range(1, 7):
            audit = upper_bound_audit(n)
            assert audit.consistent
            assert audit.binomial_identity_ok
            m = 1 << (n - 1)
            assert audit.weighted_sum == 10 ** m
            # row/col extents: k ranges to 2^n, i to k//2
            assert len(audit.table) == (1 << n) + 1
            # total sets of all sizes: sum_k sum_i L[k][i] = 2^(2^n)
            assert sum(sum(row) for row in audit.table) == 1 << (1 << n)

    def test_audit_json(self):
        doc = upper_bound_audit(3).to_json_dict()
        assert doc["bound"] == "10000"
        assert doc["consistent"] is True
        assert all(isinstance(v, str) for row in doc["L"] for v in row)

    def test_net_audit_figures(self):
        for n, circ_count, data_bound in ((1, 6, 9), (2, 27, 66), (3, 973, 3363)):
            audit = net_audit(n)
            assert (audit.circ_count, audit.data_bound) == (circ_count, data_bound)
            assert audit.consistent
        for n in (0, 4):
            with pytest.raises(ValueError):
                net_audit(n)

    def test_net_audit_flags_unequal_projections(self, monkeypatch):
        # fed the representable sets of order 3 as if circular, the audit
        # counts those whose prefixes and suffixes differ
        real = bounds.enumerate_representable

        def ordinary(k, budget=None, collect_sets=False):
            r = real(k, budget, collect_sets)
            return replace(r, circ_sets=r.rep_sets) if k == 3 else r

        def unequal(members):
            codes = list(FactorSet(3, members).codes())
            return {w >> 1 for w in codes} != {w & 3 for w in codes}

        monkeypatch.setattr(bounds, "enumerate_representable", ordinary)
        audit = net_audit(2)
        assert audit.unbalanced == sum(map(unequal, real(3, collect_sets=True).rep_sets)) > 0
        assert not audit.consistent

    def test_sandwich_small_orders(self, enum_results):
        for n in (2, 3, 4):
            count = enum_results[n].circ_count
            assert lower_bound(n - 1) <= count <= upper_bound(n - 1)

    def test_sandwich_published_order_five(self):
        assert lower_bound(4) <= 2466131 <= upper_bound(4)

    def test_growth_ratio_reported_range(self, enum_results):
        counts = {n: enum_results[n].circ_count for n in (1, 2, 3, 4)}
        counts[5] = 2466131
        for n, c in counts.items():
            assert 2 ** 0.5 - 0.1 < growth_ratio(n, c) < 10 ** 0.25 + 0.01


class TestWalks:
    def test_single_vertex_with_loop(self):
        g = Digraph(1)
        g.add_edge(0, 0)
        r = hamiltonian_walk(g)
        assert r.length == 1 and r.optimal_length == 1 and r.bound == 1
        assert r.covers_all

    def test_chain_fan_attains_bound(self):
        for n in range(2, 13):
            r = hamiltonian_walk(chain_fan(n))
            assert r.optimal_length == r.bound == (n + 1) ** 2 // 4
            assert r.covers_all and r.length >= r.optimal_length

    def test_random_graphs_stay_under_bound(self):
        rng = random.Random(7)
        for _ in range(200):
            g = random_strongly_connected(rng, max_vertices=12)
            r = hamiltonian_walk(g)
            assert r.covers_all
            assert r.optimal_length <= r.bound
            assert r.length >= r.optimal_length
            for a, b in zip(r.walk, r.walk[1:]):
                assert b in g.edges[a]
            for a, b in zip(r.optimal_walk, r.optimal_walk[1:]):
                assert b in g.edges[a]
            assert r.walk[0] == r.walk[-1]
            assert r.optimal_walk[0] == r.optimal_walk[-1]

    def test_optimum_matches_brute_force(self):
        # the least vertex sequence of a shortest closed walk through 0
        # covering every vertex, by listing all sequences of each length
        rng = random.Random(11)
        for _ in range(150):
            g = random_strongly_connected(rng, max_vertices=4)
            nv = g.vertex_count
            best = next(
                walk for length in range(1, 2 * nv * nv)
                for inner in product(range(nv), repeat=length - 1)
                if set(walk := (0, *inner, 0)) == set(range(nv))
                and all(b in g.edges[a] for a, b in zip(walk, walk[1:])))
            r = hamiltonian_walk(g)
            assert r.optimal_length == len(best) - 1
            assert r.optimal_walk == best

    def test_optimum_matches_a_state_search(self):
        # a dictionary-keyed breadth-first search over (covered, vertex)
        # states from ({0}, 0), each state's moves by ascending successor and
        # its parent the first state reaching it: the first (all, 0) reached
        # ends the least vertex sequence of a shortest closed covering walk
        def least_optimum(g):
            goal = ((1 << g.vertex_count) - 1, 0)
            parent = {(1, 0): None}
            frontier = [(1, 0)]
            while goal not in parent:
                nxt = []
                for state in frontier:
                    for w in sorted(g.edges[state[1]]):
                        reached = state[0] | 1 << w, w
                        if reached not in parent:
                            parent[reached] = state
                            nxt.append(reached)
                frontier = nxt
            walk, state = [], goal
            while state is not None:
                walk.append(state[1])
                state = parent[state]
            return tuple(walk[::-1])

        rng = random.Random(23)
        graphs = [g for g in (random_strongly_connected(rng, max_vertices=8) for _ in range(400))
                  if g.vertex_count >= 5]
        for g in graphs[:100]:
            for u, v in product(range(g.vertex_count), repeat=2):
                if u != v and rng.random() < 0.15:
                    g.add_edge(u, v)
        assert len(graphs) >= 150
        for g in graphs:
            best = least_optimum(g)
            r = hamiltonian_walk(g)
            assert r.optimal_walk == best
            assert r.optimal_length == len(best) - 1

    def test_longest_simple_path_matches_brute_force(self):
        rng = random.Random(13)
        for _ in range(200):
            g = random_strongly_connected(rng, max_vertices=6)
            nv = g.vertex_count
            path = _longest_simple_path(g)
            assert len(set(path)) == len(path)
            assert all(b in g.edges[a] for a, b in zip(path, path[1:]))
            longest = next(k for k in range(nv, 0, -1)
                           for perm in permutations(range(nv), k)
                           if all(b in g.edges[a] for a, b in zip(perm, perm[1:])))
            assert len(path) == longest

    def test_longest_simple_path_is_the_least(self):
        # depth-first search listing simple paths by start vertex, then by
        # each step's position in g.edges iteration order: the first of the
        # most vertices is the least longest path
        def paths(g, path):
            yield path
            for w in g.edges[path[-1]]:
                if w not in path:
                    yield from paths(g, path + [w])

        def least_longest(g):
            every = [p for v in range(g.vertex_count) for p in paths(g, [v])]
            return max(every, key=len)

        rng = random.Random(17)
        for _ in range(200):
            g = random_strongly_connected(rng, max_vertices=6)
            for u, v in product(range(g.vertex_count), repeat=2):
                if u != v and rng.random() < 0.3:
                    g.add_edge(u, v)
            assert _longest_simple_path(g) == least_longest(g)
        # above 8 vertices a set may iterate out of ascending order; some of
        # these graphs then have a least longest path that is not the least
        # vertex sequence
        unsorted = 0
        for _ in range(100):
            g = random_strongly_connected(rng, max_vertices=12)
            best = least_longest(g)
            assert _longest_simple_path(g) == best
            unsorted += best != min(p for v in range(g.vertex_count)
                                    for p in paths(g, [v]) if len(p) == len(best))
        assert unsorted

    def test_pinned_outputs(self):
        # sha256 of the reports' JSON, recorded at commit 1e64a7a with the
        # dict-keyed searches the bit-parallel layers replaced
        assert walk_digest(pinned_graphs()) == \
            "7558ced16676ecae0a6873f29b0bb4169bab6705bc9fd777211f53f08ec48934"

    def test_pinned_outputs_on_the_audit_graphs(self):
        # sha256 of the reports' JSON on the benchmark's audit graphs (seed
        # 1), recorded at commit 247e12e with the backward layer step
        rng = random.Random("audit:1")
        graphs = [random_strongly_connected(rng, 12) for _ in range(2000)]
        assert walk_digest(graphs) == \
            "675645b53601ded686f06058f400e898f53339528b0c21ca0dfe19cdfea8710d"

    def test_pinned_outputs_at_the_vertex_limit(self):
        # sha256 of the reports' JSON on graphs of up to 15 vertices (46 of
        # them 13 to 15), recorded at commit 8968a3d with the full-width masks
        rng = random.Random(19)
        graphs = [random_strongly_connected(rng, WALK_MAX_VERTICES) for _ in range(300)]
        assert walk_digest(graphs) == \
            "f02d55ac8b622644444f32c813462cd6f789a7a8018694b310dbe6d68bc98971"

    def test_optimum_refuses_a_graph_not_strongly_connected(self):
        # 0 <-> 1 -> 2 never returns from 2: its layers would never empty,
        # so the strong-connectivity test refuses it before any layer
        g = Digraph(3)
        for u, v in ((0, 1), (1, 0), (1, 2)):
            g.add_edge(u, v)
        with pytest.raises(NotStronglyConnected):
            _optimal_closed_cover(g)

    def test_chain_fan_at_the_vertex_limit(self):
        r = hamiltonian_walk(chain_fan(WALK_MAX_VERTICES))
        assert r.optimal_length == r.bound == 64

    def test_complete_graph_at_the_vertex_limit_is_fast(self):
        nv = WALK_MAX_VERTICES
        g = Digraph(nv)
        for u, v in product(range(nv), repeat=2):
            g.add_edge(u, v)
        t0 = time.perf_counter()
        r = hamiltonian_walk(g)
        assert time.perf_counter() - t0 < 0.5
        assert r.optimal_walk == (*range(nv), 0)
        assert r.length == r.optimal_length == nv

    def test_strong_connectivity_matches_reachability(self):
        rng = random.Random(3)
        for _ in range(300):
            nv = rng.randint(1, 6)
            g = Digraph(nv)
            for u, v in product(range(nv), repeat=2):
                if rng.random() < 0.3:
                    g.add_edge(u, v)
            reach = [{v} | g.edges[v] for v in range(nv)]
            for k in range(nv):  # transitive closure, Warshall's order
                for v in range(nv):
                    if k in reach[v]:
                        reach[v] |= reach[k]
            assert g.strongly_connected() == all(len(r) == nv for r in reach)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 9).flatmap(lambda nv: st.tuples(
        st.just(nv), st.lists(st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1))))))
    @example((1, []))
    @example((1, [(0, 0)]))
    @example((3, [(0, 1), (1, 1), (1, 2), (2, 0)]))
    @example((3, [(0, 0), (0, 1), (1, 0), (2, 2), (2, 0)]))  # 2 reaches 0, not back
    def test_strong_connectivity_matches_components(self, graph):
        # the two closures from vertex 0 decide what Tarjan's algorithm
        # does: whether the graph is one strong component
        nv, edges = graph
        g = Digraph(nv)
        for u, v in edges:
            g.add_edge(u, v)
        assert g.strongly_connected() == (len(strong_components(dict(enumerate(g.edges)))) == 1)

    def test_not_strongly_connected_rejected(self):
        g = Digraph(3)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        with pytest.raises(NotStronglyConnected):
            hamiltonian_walk(g)

    def test_vertex_limit(self):
        with pytest.raises(ValueError):
            hamiltonian_walk(Digraph(16))

    def test_digraph_validation(self):
        with pytest.raises(ValueError, match="at least two vertices"):
            chain_fan(1)
        with pytest.raises(ValueError, match="at least one vertex"):
            Digraph(0)
        with pytest.raises(ValueError, match="adjacency size mismatch"):
            Digraph(2, [set()])
        with pytest.raises(ValueError, match=r"edge \(0,2\) out of range"):
            Digraph(2).add_edge(0, 2)
        with pytest.raises(ValueError, match="empty digraph text"):
            Digraph.from_text("")

    def test_text_roundtrip(self):
        g = chain_fan(5)
        assert Digraph.from_text(g.to_text()).to_text() == g.to_text()
        with pytest.raises(ValueError):
            Digraph.from_text("3\n0 - 1")


class TestWitnessLengthBound:
    def test_values(self):
        assert witness_length_bound(1) == 2
        assert witness_length_bound(3) == 20
        assert witness_length_bound(4) == 72

    def test_closed_form_equals_walk_bound(self):
        for n in range(1, 9):
            assert witness_length_bound(n) == ((1 << n) + 1) ** 2 // 4

    def test_caps_measured_extremes(self, enum_results):
        for n in (1, 2, 3, 4):
            r = enum_results[n]
            assert r.mu <= witness_length_bound(n)
            assert r.nu <= witness_length_bound(n)
