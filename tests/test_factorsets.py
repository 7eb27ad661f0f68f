"""Factor sets, the overlap graph, representability and witness searches.

The brute-force oracles here work on plain Python strings on purpose: they
share no code with the library's bit-table paths.
"""

import hashlib
import json
import random
import tracemalloc
from collections import Counter
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorwords import (Budget, BudgetExceededError, EmptySet, FactorSet, Word, circular_factors,
                         debruijn, factors, is_circ_representable,
                         is_representable, shortest_circular_witness,
                         shortest_witness)
from factorwords import factorsets
from factorwords.budget import BudgetMeter
from factorwords.factorsets import (WitnessResult, _chained, _cover_word, _layer_cover,
                                    _open_ends, _sides, _structure, _successors,
                                    strong_components)


def fs(text):
    return FactorSet.parse(text)


# the full order-16 set less 0101010101010100 and 0101010101010101: the two
# members 0010101010101010 and 1010101010101010 have no successor
DENSE_16 = FactorSet(16, ((1 << (1 << 16)) - 1) & ~(3 << 2 * 0b010101010101010))


def str_factors(s, n):
    return frozenset(s[i:i + n] for i in range(len(s) - n + 1))


def str_circular_factors(s, n):
    ext = s * (n // len(s) + 2)
    return frozenset(ext[i:i + n] for i in range(len(s)))


def all_strings(ell):
    return ("".join(bits) for bits in product("01", repeat=ell))


def brute_witness_index(n, max_len, circular):
    """Map frozenset-of-strings -> (shortest length, lex-least witness)."""
    index = {}
    lengths = range(1 if circular else n, max_len + 1)
    for ell in lengths:
        for s in all_strings(ell):
            key = str_circular_factors(s, n) if circular else str_factors(s, n)
            if key not in index:
                index[key] = (ell, s)
    return index


def reference_cover_word(fs, starts, end):
    """The search without the condensation prune: one breadth-first search
    over states (covered << n) | v from every start, each layer in the order
    its states were first reached and each state's moves by ascending next
    vertex, read back through parent links from the first goal state."""
    n = fs.order
    wmask = (1 << n) - 1
    frontier = [1 << u << n | u for u in fs.codes() if starts >> u & 1]
    parent = dict.fromkeys(frontier)
    d = 0
    while frontier:
        for st in frontier:
            if st >> n == fs.members and end in (None, st & wmask):
                code = 0
                for k in range(d):
                    code |= (st & 1) << k
                    st = parent[st]
                return Word(n + d, (st & wmask) << d | code)
        nxt = []
        for st in frontier:
            v = st & wmask
            for x in (v << 1 & wmask, (v << 1 | 1) & wmask):
                nst = (st >> n | 1 << x) << n | x
                if fs.members >> x & 1 and nst not in parent:
                    parent[nst] = st
                    nxt.append(nst)
        frontier = nxt
        d += 1
    return None


class TestFactorExtraction:
    def test_examples(self):
        assert factors(Word.from_text("001"), 2).to_text() == "00,01"
        # the longest order-3 witness has the full factor set: that is what
        # makes its shortest witness 2^3 + 3 - 1 = 10 letters long
        w = Word.from_text("0001011100")
        assert factors(w, 3) == FactorSet.full(3)
        assert factors(w, 10).to_text() == "0001011100"
        assert circular_factors(Word.from_text("001"), 2).to_text() == "00,01,10"
        assert circular_factors(Word.from_text("0011"), 3).to_text() == "001,011,100,110"
        for n in (1, 3, 6):
            assert circular_factors(Word.from_text("0"), n).to_text() == "0" * n

    def test_short_word_error(self):
        from factorwords import InvalidLength
        with pytest.raises(InvalidLength):
            factors(Word.from_text("0"), 3)
        for extract in (factors, circular_factors):
            with pytest.raises(ValueError, match="factor length must be positive"):
                extract(Word(2, 0), 0)

    def test_against_string_oracle(self):
        for ell in range(1, 9):
            for s in all_strings(ell):
                w = Word.from_text(s)
                for n in range(1, 7):
                    assert {str(x) for x in circular_factors(w, n)} \
                        == set(str_circular_factors(s, n))
                    if n <= ell:
                        assert {str(x) for x in factors(w, n)} \
                            == set(str_factors(s, n))


class TestFactorSetValue:
    def test_parse_roundtrip(self):
        s = fs("001,011,110,100")
        assert s.order == 3 and len(s) == 4
        assert s.to_text() == "001,011,100,110"
        assert FactorSet.parse(s.to_hex(), order=3, hex_bitmap=True) == s
        assert FactorSet.parse(" 01 , 10 ") == fs("01,10")

    def test_membership_and_iteration(self):
        s = fs("00,01")
        assert Word.from_text("00") in s and Word.from_text("11") not in s
        assert 1 in s and 3 not in s
        assert [str(w) for w in s] == ["00", "01"]
        assert list(s.codes()) == [0, 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            FactorSet.parse("01,001")
        with pytest.raises(EmptySet):
            FactorSet.parse("  ")
        with pytest.raises(ValueError):
            FactorSet.parse("0ff", hex_bitmap=True)
        with pytest.raises(ValueError):
            FactorSet(2, 1 << 20)
        with pytest.raises(ValueError):
            FactorSet(2, 1 << 4)
        with pytest.raises(ValueError):
            FactorSet(2, -1)
        with pytest.raises(ValueError, match="order must be positive"):
            FactorSet(0, 0)
        with pytest.raises(ValueError, match="order must be positive"):
            FactorSet.full(-3)  # not the shift's "negative shift count"
        with pytest.raises(ValueError, match="code 4 out of range"):
            FactorSet.from_codes(2, [4])
        with pytest.raises(EmptySet):
            FactorSet.from_words([])
        with pytest.raises(ValueError, match="expected 3"):
            FactorSet.parse("00", order=3)
        assert Word(3, 0) not in FactorSet(2, 1)
        assert len(FactorSet(2, (1 << 4) - 1)) == 4
        # checked on the bit length: 2^40-bit tables are never built
        assert len(FactorSet(40, 1)) == 1


def low_bit_codes(m):
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def test_codes_match_the_low_bit_loop():
    rng = random.Random(12)
    for n in range(1, 13):
        for members in (0, 1, (1 << (1 << n)) - 1, 1 << (1 << n) - 1,
                        *(rng.getrandbits(1 << n) for _ in range(20))):
            assert list(FactorSet(n, members).codes()) == low_bit_codes(members)


class TestOverlapGraph:
    def test_structure(self):
        adj = _successors(FactorSet.full(2))
        assert sum(map(len, adj.values())) == 8
        assert all(len(adj[x]) <= 2 for x in range(4))
        assert len(strong_components(adj)) == 1
        adj = _successors(fs("00,11"))
        assert adj == {0b00: (0b00,), 0b11: (0b11,)}  # two self-loops
        assert len(strong_components(adj)) == 2

    def test_strong_components_in_topological_order(self):
        assert strong_components(_successors(fs("00,01,11"))) == [[0b00], [0b01], [0b11]]
        comps = strong_components(_successors(fs("001,010,100,011,110")))
        assert [sorted(c) for c in comps] == [[1, 2, 3, 4, 6]]

    def test_strong_components_pinned(self):
        # every set of orders 1..4, member order included
        comps = [strong_components(_successors(FactorSet(n, m)))
                 for n in range(1, 5) for m in range(1, 1 << (1 << n))]
        assert hashlib.sha256(json.dumps(comps).encode()).hexdigest() == (
            "c7967abe8b2f0e5b98d1833d2e9e16d4465db2510f6b9890ed1f1ac1245551b2")

    def test_strong_components_match_reachability(self):
        # the classes of mutual reachability, sources first, on graphs with
        # sparse labels, self-loops and many components
        rng = random.Random(9)
        for _ in range(300):
            labels = rng.sample(range(100), rng.randint(1, 12))
            adj = {v: [w for w in labels if rng.random() < 0.2] for v in labels}
            reach = {v: {v} for v in labels}
            for _ in labels:
                for v in labels:
                    reach[v] |= {x for w in adj[v] for x in reach[w]}
            comps = strong_components(adj)
            assert sorted(map(sorted, comps)) == sorted(map(list, {
                tuple(sorted(w for w in labels if v in reach[w] and w in reach[v]))
                for v in labels}))
            rank = {v: i for i, c in enumerate(comps) for v in c}
            assert all(rank[v] <= rank[w] for v in labels for w in adj[v])

    def test_edge_condition(self):
        # x -> y exactly when the last n-1 letters of x are the first n-1 of
        # y, successors ascending: on full, top-member-only and random sets
        rng = random.Random(3)
        sets = [s for n in range(1, 13) for s in (
            FactorSet.full(n), FactorSet(n, 1 << (1 << n) - 1),
            *(FactorSet(n, rng.getrandbits(1 << n)) for _ in range(12)))]
        for s in sets:
            texts = [str(x) for x in s]
            by_prefix: dict[str, list[int]] = {}
            for t in texts:
                by_prefix.setdefault(t[:-1], []).append(int(t, 2))
            assert _successors(s) == {int(t, 2): tuple(by_prefix.get(t[1:], ()))
                                      for t in texts}, s.to_hex()


class TestRepresentability:
    def test_examples(self):
        assert not is_representable(fs("00,11"))
        assert is_representable(fs("00,01"))
        for text in ("0", "11", "010"):
            assert is_representable(FactorSet.from_texts([text]))
        assert not is_circ_representable(fs("00,11"))
        for n in (1, 2, 3):
            assert is_circ_representable(FactorSet.full(n))
        assert not is_circ_representable(fs("01"))

    def test_empty_set_rejected(self):
        empty = FactorSet(2, 0)
        for fn in (is_representable, is_circ_representable,
                   shortest_witness, shortest_circular_witness):
            with pytest.raises(EmptySet):
                fn(empty)

    def test_exhaustive_against_oracle_small_orders(self):
        for n in (1, 2, 3):
            max_lin = {1: 3, 2: 6, 3: 10}[n]
            max_circ = {1: 3, 2: 5, 3: 9}[n]
            lin = brute_witness_index(n, max_lin, circular=False)
            circ = brute_witness_index(n, max_circ, circular=True)
            lin_sets = {frozenset(k) for k in lin}
            circ_sets = {frozenset(k) for k in circ}
            for members in range(1, 1 << (1 << n)):
                s = FactorSet(n, members)
                key = frozenset(str(w) for w in s)
                assert is_representable(s) == (key in lin_sets), s.to_text()
                assert is_circ_representable(s) == (key in circ_sets), s.to_text()

    def test_answers_pinned(self):
        # both deciders on every non-empty set of orders 1..4 and on 3000
        # seeded order-5 sets: uniform subsets and the factor sets of random
        # words, ordinary and circular, so that many answers are yes
        rng = random.Random(5)
        sets = [FactorSet(n, m) for n in (1, 2, 3, 4) for m in range(1, 1 << (1 << n))]
        for i in range(3000):
            if i % 3 == 0:
                sets.append(FactorSet(5, rng.getrandbits(32) or 1))
            else:
                ell = rng.randint(5, 40)
                extract = factors if i % 3 == 1 else circular_factors
                sets.append(extract(Word(ell, rng.getrandbits(ell)), 5))
        text = "".join(f"{is_representable(s):d}{is_circ_representable(s):d}" for s in sets)
        assert text[-6000:][0::2].count("1") == 2004
        assert text[-6000:][1::2].count("1") == 1400
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "009d879a649711d8f2ddbe5f4fa5e59a5176880c901967b2c8ec2d68305bc52d")

    def test_unbalanced_sets_skip_the_overlap_graph(self, enum_results, monkeypatch):
        # every circularly representable set of orders 1..4 has equal prefix
        # and suffix projections; a set without them is refused before its
        # overlap graph is built
        for n in (1, 2, 3, 4):
            for members in enum_results[n].circ_sets:
                assert factorsets._balanced(FactorSet(n, members))
        unbalanced = [s for s in map(fs, ("01", "00,01", "000,001,011", "0110,1100,1001"))
                      if not factorsets._balanced(s)]
        assert len(unbalanced) == 4
        monkeypatch.setattr(factorsets, "_successors", None)
        for s in unbalanced:
            assert not is_circ_representable(s)
            assert shortest_circular_witness(s) == WitnessResult(False)

    def test_open_ends_refuse_only_unrepresentable_sets(self, enum_results):
        # a set with two members that no member precedes, or two that no
        # member follows, has no covering walk; over orders 1..4 the table
        # test refuses 0, 0, 74 and 49482 sets and never a representable one
        refused = []
        for n in (1, 2, 3, 4):
            rep = set(enum_results[n].rep_sets)
            out = [m for m in range(1, 1 << (1 << n)) if not _open_ends(FactorSet(n, m))]
            assert rep.isdisjoint(out), n
            refused.append(len(out))
        assert refused == [0, 0, 74, 49482]

    def test_open_ends_skip_the_overlap_graph(self, monkeypatch):
        # a set the table test refuses is answered without its overlap graph,
        # with or without a budget; the dense order-16 set too, whose search
        # asked for 544 MB at its start
        refused = [s for s in map(partial(FactorSet, 3), range(1, 256)) if not _open_ends(s)]
        assert len(refused) == 74
        monkeypatch.setattr(factorsets, "_successors", None)
        for s in [*refused, DENSE_16]:
            assert not is_representable(s)
            assert shortest_witness(s) == WitnessResult(False)
            assert shortest_witness(s, Budget(max_memory_bytes=1 << 20)) == WitnessResult(False)

    def test_circular_implies_ordinary(self, enum_results):
        for n in (1, 2, 3, 4):
            for members in enum_results[n].circ_sets:
                assert is_representable(FactorSet(n, members))


@st.composite
def small_factor_sets(draw):
    """Sets of orders 1..5: factors of a random word, or a uniform random
    subset of at most 10 members."""
    n = draw(st.integers(1, 5))
    top = 1 << n
    if draw(st.booleans()):
        ell = draw(st.integers(n, n + 11))
        return factors(Word(ell, draw(st.integers(0, (1 << ell) - 1))), n)
    codes = draw(st.lists(st.integers(0, top - 1), min_size=1,
                          max_size=min(10, top), unique=True))
    return FactorSet.from_codes(n, codes)


@settings(max_examples=300, deadline=None)
@given(small_factor_sets())
def test_structural_decider_agrees_with_search(s):
    assert is_representable(s) == shortest_witness(s).found


@st.composite
def tables_and_word_sets(draw):
    """Sets of orders 5..10: a uniform random table, or the factors of a
    random word."""
    n = draw(st.integers(5, 10))
    if draw(st.booleans()):
        return FactorSet(n, draw(st.integers(1, (1 << (1 << n)) - 1)))
    ell = draw(st.integers(n, 4 << n))
    return factors(Word(ell, draw(st.integers(0, (1 << ell) - 1))), n)


@settings(max_examples=300, deadline=None)
@given(tables_and_word_sets())
def test_open_ends_refuse_only_what_the_structure_refuses(s):
    if not _open_ends(s):
        adj = _successors(s)
        assert not _chained(adj, strong_components(adj)), s.to_hex()


class TestWitnesses:
    def test_examples(self):
        r = shortest_witness(fs("00,01"))
        assert (r.found, r.length, str(r.witness)) == (True, 3, "001")
        r = shortest_witness(fs("101"))
        assert (r.length, str(r.witness)) == (3, "101")
        r = shortest_witness(FactorSet.full(2))
        assert (r.length, str(r.witness)) == (5, "00110")
        r = shortest_circular_witness(FactorSet.full(2))
        assert (r.length, str(r.witness)) == (4, "0011")
        for n in (2, 4):
            r = shortest_circular_witness(FactorSet.from_texts(["0" * n]))
            assert (r.length, str(r.witness)) == (1, "0")
        r = shortest_circular_witness(circular_factors(Word.from_text("0011"), 3))
        assert (r.length, str(r.witness)) == (4, "0011")
        assert shortest_witness(fs("00,11")).found is False
        assert shortest_circular_witness(fs("01")).found is False

    def test_exhaustive_minimality_and_tiebreak(self):
        # length and lexicographic choice both match the string oracle
        for n in (1, 2, 3):
            max_lin = {1: 3, 2: 6, 3: 11}[n]
            max_circ = {1: 3, 2: 5, 3: 10}[n]
            lin = brute_witness_index(n, max_lin, circular=False)
            circ = brute_witness_index(n, max_circ, circular=True)
            lin_by_set = {frozenset(k): v for k, v in lin.items()}
            circ_by_set = {frozenset(k): v for k, v in circ.items()}
            for members in range(1, 1 << (1 << n)):
                s = FactorSet(n, members)
                key = frozenset(str(w) for w in s)
                r = shortest_witness(s)
                if key in lin_by_set:
                    ell, word = lin_by_set[key]
                    assert (r.found, r.length, str(r.witness)) == (True, ell, word)
                    # definitional soundness
                    assert factors(r.witness, n) == s
                else:
                    assert not r.found
                rc = shortest_circular_witness(s)
                if key in circ_by_set:
                    ell, word = circ_by_set[key]
                    assert (rc.found, rc.length, str(rc.witness)) == (True, ell, word)
                    assert circular_factors(rc.witness, n) == s
                else:
                    assert not rc.found


    def test_tables_sized_by_the_set(self):
        # a two-member set of order 24: the search's tables hold its two
        # vertices, not 2^24
        tracemalloc.start()
        try:
            r = shortest_witness(FactorSet.from_texts(["0" * 24, "0" * 23 + "1"]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (r.length, str(r.witness)) == (25, "0" * 24 + "1")
        assert peak < 64 << 10

    def test_states_sized_by_the_members(self):
        # 181 members of order 20: a state's covered mask over member ranks
        # takes 181 bits; over member codes it took 2^20 (a 64 MB peak)
        w = Word(200, random.Random(5).getrandbits(200))
        s = factors(w, 20)
        tracemalloc.start()
        try:
            r = shortest_witness(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (len(s), r.length, factors(r.witness, 20)) == (181, 200, s)
        assert peak < 2 << 20

    def test_order_four_histograms_and_reextraction(self, enum_results):
        r = enum_results[4]
        for sets, search, extract, histogram in (
                (r.rep_sets, shortest_witness, factors, r.sw_histogram),
                (r.circ_sets, shortest_circular_witness, circular_factors,
                 r.scw_histogram)):
            lengths = Counter()
            for members in sets:
                s = FactorSet(4, members)
                w = search(s)
                assert w.found and w.witness.length == w.length
                assert extract(w.witness, 4) == s
                lengths[w.length] += 1
            assert lengths == Counter(histogram)

    def test_witnesses_pinned(self, enum_results):
        # (found, length, witness) in both flavours for every representable
        # order-4 set and 500 seeded order-5 sets: the digest was recorded
        # from the search that pruned its layers backwards, before the
        # one-pass search with parent links replaced it
        rng = random.Random(14)
        sets = [FactorSet(4, m) for m in enum_results[4].rep_sets]
        for i in range(500):
            if i % 3 == 0:
                ell = rng.randint(5, 24)
                sets.append(factors(Word(ell, rng.getrandbits(ell)), 5))
            elif i % 3 == 1:
                ell = rng.randint(1, 20)
                sets.append(circular_factors(Word(ell, rng.getrandbits(ell)), 5))
            else:
                sets.append(FactorSet.from_codes(5, rng.sample(range(32), rng.randint(1, 10))))
        h = hashlib.sha256()
        for s in sets:
            for search in (shortest_witness, shortest_circular_witness):
                w = search(s)
                h.update(f"{w.found} {w.length} {w.witness}\n".encode())
        assert len(sets) == 6421
        assert h.hexdigest() == (
            "9b765551a74d0c7eb240bfbe795151bb96beeea9d6d2b53e68dc58992ed6972a")

    def test_prune_keeps_the_unpruned_words(self):
        # every non-empty set of orders 1..4 and 600 seeded order-5 sets,
        # from every member and, circularly, from and back to the least one
        rng = random.Random(17)
        sets = [FactorSet(n, m) for n in (1, 2, 3, 4) for m in range(1, 1 << (1 << n))]
        for i in range(600):
            if i % 3 == 0:
                ell = rng.randint(5, 24)
                sets.append(factors(Word(ell, rng.getrandbits(ell)), 5))
            elif i % 3 == 1:
                ell = rng.randint(1, 20)
                sets.append(circular_factors(Word(ell, rng.getrandbits(ell)), 5))
            else:
                sets.append(FactorSet.from_codes(5, rng.sample(range(32), rng.randint(1, 10))))
        for s in sets:
            u = next(s.codes())
            for starts, end in ((s.members, None), (1 << u, u)):
                assert _cover_word(s, starts, end, None) == reference_cover_word(s, starts, end)

    def test_layers_match_the_breadth_first_search(self, monkeypatch):
        # every set of orders 1..4 the rule sends to the walk layers, one
        # strong component of at most 16 members, and 300 seeded order-5
        # ones, unions of the circular factor sets of one to four words: the
        # layers give the word the breadth-first search gives alone, and
        # shortest_witness takes them without that search
        rng = random.Random(37)
        sets = [s for n in (1, 2, 3, 4) for s in map(partial(FactorSet, n), range(1, 1 << (1 << n)))
                if len(s) <= 16 and len(_structure(s)[1]) == 1]
        assert len(sets) == 1031
        while len(sets) < 1031 + 300:
            members = 0
            for _ in range(rng.randint(1, 4)):
                ell = rng.randint(2, 16)
                members |= circular_factors(Word(ell, rng.getrandbits(ell)), 5).members
            s = FactorSet(5, members)
            if len(s) <= 16 and len(_structure(s)[1]) == 1:
                sets.append(s)
        bfs = [_cover_word(s, s.members, None, None) for s in sets]
        monkeypatch.setattr(factorsets, "_cover_word", None)
        for s, word in zip(sets, bfs):
            assert _layer_cover(s, _successors(s), None) == word, s.to_hex()
            assert shortest_witness(s) == WitnessResult(True, word.length, word)

    def test_prune_cuts_the_states_reached(self, monkeypatch):
        # 0xbedf, one of the hardest order-4 sets (mu_4 = 24), has strong
        # components of sizes 1, 1, 9, 1, 1; without the prune, the search
        # noted 592 states on it
        noted = []

        class LoggingMeter(BudgetMeter):
            def note(self, **kwargs):
                noted.append(kwargs["states"])
                super().note(**kwargs)

        monkeypatch.setattr(factorsets, "BudgetMeter", LoggingMeter)
        s = FactorSet(4, 0xbedf)
        assert [len(comp) for comp in strong_components(_successors(s))] == [1, 1, 9, 1, 1]
        assert shortest_witness(s, Budget()).length == 24
        assert max(noted) <= 150

    def test_no_search_on_a_set_without_a_witness(self, monkeypatch):
        # 0xfffffffff3ffffbf lacks 000110, 011010 and 011011, so 001101 and
        # 101101 have no successor: two sink components, which no walk both
        # reaches. The table test refuses it before the meter notes a depth;
        # a search run until it ran dry outgrew 1 MiB. 0xbfffffbb7ffffff7
        # lacks 000011, 011111, 100010, 100110 and 111110: every member has
        # a predecessor and a successor, but 111111, on its own loop, is a
        # component the others neither reach nor leave to. The structure
        # refuses it before a search layer
        depths = []

        class LoggingMeter(BudgetMeter):
            def note(self, **kwargs):
                depths.append(kwargs["depth"])
                super().note(**kwargs)

        monkeypatch.setattr(factorsets, "BudgetMeter", LoggingMeter)
        s = FactorSet(6, 0xfffffffff3ffffbf)
        assert [len(comp) for comp in strong_components(_successors(s))] == [59, 1, 1]
        assert shortest_witness(s, Budget(max_memory_bytes=1 << 20)) == WitnessResult(False)
        assert depths == []
        s = FactorSet(6, 0xbfffffbb7ffffff7)
        assert [len(comp) for comp in strong_components(_successors(s))] == [1, 58]
        assert shortest_witness(s, Budget(max_memory_bytes=1 << 20)) == WitnessResult(False)
        assert depths and max(depths) == 0

    @pytest.mark.parametrize("n,members", [(3, 0xff), (4, 0xffff), (4, 0xbedf)])
    def test_charge_bounds_the_peak(self, n, members, monkeypatch):
        # the start layer, the component and move tables and each later
        # layer's worst case, held at most at once, cover the search's peak;
        # the ordinary search of full(3) and full(4) runs on walk layers, each
        # charged before it is built, with the tables and step temporaries
        held, on_layers = [], [False]  # the flag is set in place, allocating nothing traced

        class PeakMeter(BudgetMeter):
            def charge_memory(self, nbytes, what=""):
                super().charge_memory(nbytes, what)
                held.append(self.charged_bytes)
                on_layers[0] |= what == "witness layer tables"

        monkeypatch.setattr(factorsets, "BudgetMeter", PeakMeter)
        s = FactorSet(n, members)
        layered = members != 0xbedf
        assert (len(_structure(s)[1]) == 1) == layered
        for search in (shortest_witness, shortest_circular_witness):
            held.clear()
            on_layers[0] = False
            tracemalloc.start()
            try:
                search(s, Budget())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= max(held), (search.__name__, s.to_hex())
            assert on_layers[0] == (layered and search is shortest_witness)

    def test_charge_bounds_the_peak_on_small_sets(self, monkeypatch):
        # every set of orders 2 and 3 and every 7th of order 4, in both
        # flavours and on every route (the table test's refusal, walk
        # layers, breadth-first, a lone circular member): the largest charge
        # covers tracemalloc's peak, the meter, the result and the tables'
        # headers included
        top = [0]

        class PeakMeter(BudgetMeter):
            def charge_memory(self, nbytes, what=""):
                super().charge_memory(nbytes, what)
                if self.charged_bytes > top[0]:
                    top[0] = self.charged_bytes

        monkeypatch.setattr(factorsets, "BudgetMeter", PeakMeter)
        sets = [FactorSet(n, m) for n in (2, 3) for m in range(1, 1 << (1 << n))]
        sets += map(partial(FactorSet, 4), range(1, 1 << 16, 7))
        assert len(sets) == 9633
        over = []
        for search in (shortest_witness, shortest_circular_witness):
            for s in sets:
                budget = Budget()
                search(s, budget)  # fills the caches the search reads
                top[0] = 0
                tracemalloc.start()
                try:
                    search(s, budget)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                if peak > top[0]:
                    over.append((search.__name__, s.to_hex(), peak, top[0]))
        assert over == []

    def test_table_test_charges_its_temporaries(self, monkeypatch):
        # a set the table test refuses charges only the test: its fixed part
        # and four bytes per byte of its membership table
        charges = []

        class LoggingMeter(BudgetMeter):
            def charge_memory(self, nbytes, what=""):
                charges.append((what, nbytes))
                super().charge_memory(nbytes, what)

        monkeypatch.setattr(factorsets, "BudgetMeter", LoggingMeter)
        assert shortest_witness(DENSE_16, Budget(max_memory_bytes=16 << 20)) == WitnessResult(False)
        assert charges == [("witness table test", factorsets._FIXED_BYTES + 4 * 8192)]
        with pytest.raises(BudgetExceededError) as exc:
            shortest_witness(DENSE_16, Budget(max_memory_bytes=32 << 10))
        assert "witness table test" in str(exc.value)

    def test_state_bytes_cover_the_peak_per_state(self, monkeypatch):
        # _STATE_BYTES is the most tracemalloc measured per state the
        # breadth-first search notes on full(4), in either flavour; the
        # ordinary one is called directly, as shortest_witness takes full(4)
        # on walk layers
        noted = []

        class LoggingMeter(BudgetMeter):
            def note(self, **kwargs):
                noted.append(kwargs["states"])
                super().note(**kwargs)

        monkeypatch.setattr(factorsets, "BudgetMeter", LoggingMeter)
        ordinary = lambda s, budget: _cover_word(s, s.members, None,
                                                 factorsets.BudgetMeter(budget))
        for search in (ordinary, shortest_circular_witness):
            noted.clear()
            tracemalloc.start()
            try:
                search(FactorSet.full(4), Budget())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak / max(noted) <= factorsets._STATE_BYTES, search.__name__

    def test_budget_stops_the_search(self):
        for search in (shortest_witness, shortest_circular_witness):
            with pytest.raises(BudgetExceededError) as exc:
                search(FactorSet.full(5), Budget(max_memory_bytes=1 << 20))
            assert exc.value.progress["depth"] >= 1
            with pytest.raises(BudgetExceededError) as exc:
                search(FactorSet.full(4), Budget(max_seconds=1e-9))
            # the ordinary search of full(4) runs on walk layers
            layer = "witness layer 1" if search is shortest_witness else "witness search depth 1"
            assert str(exc.value).endswith(layer)
            assert search(FactorSet.full(4), Budget()) == search(FactorSet.full(4))

    def test_budget_stop_never_overshoots(self):
        # each layer is charged at its worst case before it is built, so the
        # states reached when the search stops fit the budget
        for search in (shortest_witness, shortest_circular_witness):
            for mb in (1, 4, 16):
                budget = Budget(max_memory_bytes=mb << 20)
                with pytest.raises(BudgetExceededError) as exc:
                    search(FactorSet.full(5), budget)
                assert exc.value.progress["states"] * 84 <= budget.max_memory_bytes
                # the report holds what was charged, not the refused request
                assert exc.value.progress["charged_bytes"] <= budget.max_memory_bytes
                assert "requested" in str(exc.value)


    def test_start_layer_charged_before_it_is_built(self):
        # 2^20 start states, each with a 2^20-bit covered mask: refused at
        # once, before any start state exists
        with pytest.raises(BudgetExceededError) as exc:
            shortest_witness(FactorSet.full(20), Budget(max_memory_bytes=16 << 20))
        assert exc.value.progress["depth"] == 0
        assert exc.value.progress["charged_bytes"] == 0
        assert "witness search start" in str(exc.value)


def reference_projection(fs):
    """{ t : t is the length-n prefix or suffix of some member }, by a loop
    over the members."""
    n = fs.order - 1
    mask = (1 << n) - 1
    members = 0
    for w in fs.codes():
        members |= 1 << (w >> 1)
        members |= 1 << (w & mask)
    return FactorSet(n, members)


def reference_skeletons(fs):
    """Number of x of length n-1 with 0x, 1x, x0 and x1 all in the set, by a
    loop over the x."""
    n = fs.order
    m = fs.members
    hi = 1 << (n - 1)
    count = 0
    for x in range(hi):
        if ((m >> x) & 1 and (m >> (x | hi)) & 1
                and (m >> (x << 1)) & 1 and (m >> ((x << 1) | 1)) & 1):
            count += 1
    return count


def reference_sides(members, n):
    """_sides read from the table's binary string: its halves, and its even
    and odd bits by stride-2 slices of the string padded to even length."""
    half = 1 << (n - 1)
    hi = members >> half
    bits = format(members, f"0{(members.bit_length() + 2) & ~1}b")
    return members ^ hi << half, hi, int(bits[1::2], 2), int(bits[::2], 2)


def projection(fs):
    lo, hi, even, odd = _sides(fs.members, fs.order)
    return FactorSet(fs.order - 1, lo | hi | even | odd)


def skeletons(fs):
    lo, hi, even, odd = _sides(fs.members, fs.order)
    return (lo & hi & even & odd).bit_count()


def net_is_edge_cover(s, t, x, n):
    """Whether S (order n+1) meets the net {axb} of x (n-1 letters) in an
    edge cover of {a : ax in T} x {b : xb in T}, T of order n."""
    edges = {(a, b) for a, b in product((0, 1), repeat=2) if s >> (a << n | x << 1 | b) & 1}
    left = {a for a in (0, 1) if t >> (a << (n - 1) | x) & 1}
    right = {b for b in (0, 1) if t >> (x << 1 | b) & 1}
    return (edges <= set(product(left, right))
            and {a for a, _ in edges} == left and {b for _, b in edges} == right)


class TestIncidence:
    def test_examples(self):
        assert projection(fs("0110,1100,1001,0011")).to_text() == "001,011,100,110"
        for n in (1, 2, 4):
            assert projection(FactorSet.from_texts(["0" * (n + 1)])).to_text() == "0" * n
        b = debruijn(3)
        assert projection(circular_factors(b, 4)) == circular_factors(b, 3)
        assert projection(circular_factors(b, 4)) == FactorSet.full(3)

    def test_projection_commutes_with_circular_factors(self):
        for ell in range(2, 13):
            for code in range(1 << ell):
                w = Word(ell, code)
                for n in range(1, min(ell - 1, 5) + 1):
                    if ell >= n + 1:
                        assert projection(circular_factors(w, n + 1)) \
                            == circular_factors(w, n)

    def test_sides_match_the_string_form(self):
        # the bit tables read through bytes.translate against the string
        # slices they replaced, on every table of orders 1..4 and random ones
        # of orders 5..14
        rng = random.Random(40)
        tables = [(n, m) for n in (1, 2, 3, 4) for m in range(1 << (1 << n))]
        tables += [(n, rng.getrandbits(1 << n)) for n in range(5, 15) for _ in range(50)]
        for n, m in tables:
            assert _sides(m, n) == reference_sides(m, n), (n, hex(m))

    def test_sides_sized_like_the_table(self):
        # the order-20 set of 181 members has a 128 KiB table: the string
        # form peaked at 2.16 MB on it
        s = factors(Word(200, random.Random(5).getrandbits(200)), 20)
        tracemalloc.start()
        try:
            _sides(s.members, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 700_000

    def test_bit_forms_match_the_loops(self):
        rng = random.Random(16)
        for n in range(1, 13):
            for _ in range(40):
                s = FactorSet(n, rng.getrandbits(1 << n))
                assert skeletons(s) == reference_skeletons(s), (n, s.to_hex())
                if n >= 2:
                    assert projection(s) == reference_projection(s), (n, s.to_hex())


class TestPairsSkeletonsNets:
    def test_skeleton_counts(self):
        for n in (1, 2, 3, 5):
            assert skeletons(FactorSet.full(n)) == 1 << (n - 1)
        assert skeletons(FactorSet(3, 0)) == 0

    def test_net_feasibility_is_projection_equality(self):
        # the net of a skeleton x of T meets S in one of 7 edge covers
        net = [a << 2 | b for a, b in product((0, 1), repeat=2)]   # x = 0
        subsets = [sum(1 << c for i, c in enumerate(net) if bits >> i & 1) for bits in range(16)]
        assert sum(net_is_edge_cover(s, FactorSet.full(2).members, 0, 2) for s in subsets) == 7
        # S meets every net in an edge cover of its projection T exactly when
        # its prefix and suffix projections are equal
        for order in (2, 3, 4):
            n = order - 1
            for members in range(1, 1 << (1 << order)):
                t = reference_projection(FactorSet(order, members)).members
                covers = all(net_is_edge_cover(members, t, x, n) for x in range(1 << (n - 1)))
                lo, hi, even, odd = _sides(members, order)
                assert covers == (lo | hi == even | odd), (order, members)

    def test_net_subsets_against_enumeration(self, enum_results):
        # every circularly representable set of order n+1 meets each net in
        # an edge cover of its projection
        for n in (2, 3):
            for members in enum_results[n + 1].circ_sets:
                t = reference_projection(FactorSet(n + 1, members)).members
                for x in range(1 << (n - 1)):
                    assert net_is_edge_cover(members, t, x, n), (members, x)
