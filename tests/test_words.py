"""Word primitives: periods, conjugacy, Lyndon words, de Bruijn words,
and the word-scan kernel."""

import functools
import hashlib
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factorwords import (Budget, InvalidLength, Word, are_conjugate, are_root_conjugate,
                         circular_factors, debruijn, divisors, factors,
                         lyndon_count, lyndon_words, mobius, period, root)
from factorwords.budget import BudgetMeter
from factorwords.counting import BRUTE_MAX_T
from factorwords.words import (_holding, _suffix_table, class_scan_nbytes, factor_classes,
                               factor_keys, period_classes, scan_nbytes, sorted_runs,
                               word_scan, word_scan_nbytes)


def w(text):
    return Word.from_text(text)


def key_bitmap(key) -> int:
    """The membership bitmap that one key of ``factor_keys`` stands for: a
    bitmap itself up to order 6, else the ascending factor codes plus one."""
    return int(key) if np.ndim(key) == 0 else sum(1 << (int(c) - 1) for c in key if c)


class PeakMeter(BudgetMeter):
    """A meter that remembers the most it held."""

    peak = 0

    def charge_memory(self, nbytes, what=""):
        super().charge_memory(nbytes, what)
        self.peak = max(self.peak, self.charged_bytes)


class TestWordBasics:
    def test_roundtrip_and_indexing(self):
        word = w("0011")
        assert str(word) == "0011"
        assert [word.letter(i) for i in (1, 2, 3, 4)] == [0, 0, 1, 1]
        assert str(word.segment(2, 3)) == "01"
        assert str(w("01") + w("10")) == "0110"
        assert str(w("0011").rotated(2)) == "1100"

    def test_validation(self):
        with pytest.raises(ValueError):
            Word.from_text("")
        with pytest.raises(ValueError):
            Word.from_text("01a")
        with pytest.raises(InvalidLength):
            Word(0, 0)
        with pytest.raises(IndexError):
            w("01").letter(3)

    def test_repeated_to(self):
        assert str(w("01").repeated_to(5)) == "01010"
        assert str(w("011").repeated_to(2)) == "01"


class TestPeriod:
    @pytest.mark.parametrize("text,expected", [
        ("010110", 5),
        ("0", 1), ("00000", 1),
        ("00110", 4),
        ("0101", 2),
        ("0010010", 3),
    ])
    def test_known_periods(self, text, expected):
        assert period(w(text)).period == expected

    def test_root_is_prefix(self):
        info = period(w("010110"))
        assert str(info.root) == "01011"
        assert str(root(w("0101"))) == "01"

    def test_exhaustive_against_definition(self):
        # p is a period of s iff s equals its length-p prefix repeated
        for ell in range(1, 17):
            for code in range(1 << ell):
                s = format(code, f"0{ell}b")
                direct = next(p for p in range(1, ell + 1)
                              if s == (s[:p] * ell)[:ell])
                assert period(Word(ell, code)).period == direct


class TestConjugacy:
    def test_examples(self):
        assert are_conjugate(w("0011"), w("1100"))
        assert are_conjugate(w("01"), w("01"))
        assert not are_conjugate(w("0011"), w("0101"))
        assert not are_conjugate(w("01"), w("011"))
        assert are_root_conjugate(w("010110"), w("011010"))
        assert are_root_conjugate(w("0101"), w("0101"))
        assert not are_root_conjugate(w("000"), w("111"))

    def test_root_conjugacy_is_an_equivalence(self):
        # canonical form: the least rotation of the root; two words are
        # root-conjugate iff their canonical forms coincide, which makes
        # reflexivity, symmetry and transitivity structural
        def canon(word):
            r = str(root(word))
            return min(r[k:] + r[:k] for k in range(len(r)))

        words = [Word(ell, c) for ell in range(1, 8) for c in range(1 << ell)]
        for a in words:
            for b in words:
                assert are_root_conjugate(a, b) == (canon(a) == canon(b))


class TestPeriodClasses:
    def test_periods_match_the_scalar_period(self):
        for t in range(1, 13):
            periods, _ = period_classes(t, range(1 << t))
            assert periods.tolist() == [period(Word(t, c)).period for c in range(1 << t)]

    def test_classes_match_root_conjugacy(self):
        # root conjugacy is an equivalence (TestConjugacy), so checking each
        # word against the first word of its (period, class) pair, and those
        # first words pairwise, checks every pair of words of one length
        for t in range(1, 11):
            periods, roots = period_classes(t, range(1 << t))
            firsts = {}
            for c, key in enumerate(zip(periods.tolist(), roots.tolist())):
                first = firsts.setdefault(key, c)
                assert are_root_conjugate(Word(t, first), Word(t, c))
            for a, b in combinations(firsts.values(), 2):
                assert not are_root_conjugate(Word(t, a), Word(t, b))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_property_against_the_scalar_route(self, data):
        # windows of one periodic word, so that short periods and conjugate
        # roots are common, or else a window against any word of its length
        t = data.draw(st.integers(1, BRUTE_MAX_T))
        p = data.draw(st.integers(1, t))
        ext = Word(p, data.draw(st.integers(0, (1 << p) - 1))).repeated_to(t + p)
        a, b = (ext.segment(i + 1, i + t).code for i in data.draw(
            st.lists(st.integers(0, p - 1), min_size=2, max_size=2)))
        b = data.draw(st.sampled_from([b, data.draw(st.integers(0, (1 << t) - 1))]))
        periods, roots = period_classes(t, [a, b])
        assert periods.tolist() == [period(Word(t, a)).period, period(Word(t, b)).period]
        agree = periods[0] == periods[1] and roots[0] == roots[1]
        assert agree == are_root_conjugate(Word(t, a), Word(t, b))

    def test_validation(self):
        periods, roots = period_classes(63, [(1 << 63) - 1, 1 << 62])
        assert periods.tolist() == [1, 63] and roots.tolist() == [1, 1]
        for t in (0, 64):
            with pytest.raises(ValueError):
                period_classes(t, [0])


class TestFineWilf:
    def test_common_prefix_forces_common_root(self):
        # any word with minimal period p is the periodic extension of its
        # first p letters, so every pair (w1, w2) sharing a prefix of length
        # period(w1) + period(w2) - 1 arises as (w1, extension of w1's first
        # p2 letters); enumerate those and check the roots agree
        words = [(format(c, f"0{ell}b"),) for ell in range(1, 15)
                 for c in range(1 << ell)]
        checked = 0
        for (s1,) in words:
            ell1 = len(s1)
            p1 = period(Word.from_text(s1)).period
            for p2 in range(1, 15):
                need = p1 + p2 - 1
                if need > ell1:
                    break
                pref = (s1[:p2] * need)[:need]
                if pref != s1[:need]:
                    continue
                for ell2 in range(need, 15):
                    s2 = (s1[:p2] * ell2)[:ell2]
                    w1, w2 = Word.from_text(s1), Word.from_text(s2)
                    i1, i2 = period(w1), period(w2)
                    # common prefix long enough for the actual periods
                    lcp = 0
                    for a, b in zip(s1, s2):
                        if a != b:
                            break
                        lcp += 1
                    if lcp >= i1.period + i2.period - 1:
                        checked += 1
                        assert i1.root == i2.root, (s1, s2)
        assert checked == 7192  # the instance count is itself deterministic


class TestOverlapPeriodicity:
    def test_self_overlap_bounds_the_period(self):
        # a factorization w = xyz with xy = yz forces |x| to be a period
        for ell in range(3, 15):
            for code in range(1 << ell):
                s = format(code, f"0{ell}b")
                p = None
                for a in range(1, (ell - 1) // 2 + 1):
                    if s[: ell - a] == s[a:]:
                        if p is None:
                            p = period(Word(ell, code)).period
                        assert p <= a, (s, a)


class TestMobiusLyndon:
    @pytest.mark.parametrize("m,expected", [
        (1, 1), (2, -1), (3, -1), (4, 0), (6, 1), (12, 0), (30, -1), (210, 1),
    ])
    def test_mobius(self, m, expected):
        assert mobius(m) == expected

    def test_divisors(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(1) == [1]

    @pytest.mark.parametrize("i,expected", [(1, 2), (2, 1), (3, 2), (6, 9)])
    def test_lyndon_count_known(self, i, expected):
        assert lyndon_count(i) == expected

    def test_lyndon_words_examples(self):
        assert [str(x) for x in lyndon_words(1)] == ["0", "1"]
        assert [str(x) for x in lyndon_words(2)] == ["01"]
        assert [str(x) for x in lyndon_words(3)] == ["001", "011"]

    def test_counts_match_enumeration(self):
        for i in range(1, 17):
            ws = lyndon_words(i)
            assert len(ws) == lyndon_count(i)
            assert ws == sorted(ws, key=lambda x: x.code)

    def test_lyndon_words_are_least_rotations(self):
        for i in range(1, 9):
            for x in lyndon_words(i):
                s = str(x)
                assert all(s < s[k:] + s[:k] for k in range(1, i))

    def test_necklace_identity(self):
        for n in range(1, 17):
            assert sum(d * lyndon_count(d) for d in divisors(n)) == 1 << n


class TestDeBruijn:
    def test_known_values(self):
        assert str(debruijn(1)) == "01"
        assert str(debruijn(2)) == "0011"
        assert str(debruijn(3)) == "00010111"

    def test_length_and_coverage(self):
        for n in range(1, 13):
            b = debruijn(n)
            assert len(b) == 1 << n
            # every length-n word occurs exactly once cyclically
            ext = b.repeated_to(len(b) + n - 1)
            seen = [ext.segment(i + 1, i + n).code for i in range(len(b))]
            assert sorted(seen) == list(range(1 << n))

    def test_lexicographically_least(self):
        for n in (1, 2, 3):
            ell = 1 << n
            best = min(c for c in range(1 << ell)
                       if len(circular_factors(Word(ell, c), n)) == 1 << n)
            assert debruijn(n).code == best

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            debruijn(0)
        with pytest.raises(ValueError):
            debruijn(25)


class TestFactorSubsetRelation:
    def test_ordinary_factors_within_cyclic(self):
        for ell in range(1, 13):
            for code in range(1 << ell):
                word = Word(ell, code)
                for n in range(1, min(ell, 6) + 1):
                    fs = factors(word, n)
                    cs = circular_factors(word, n)
                    assert fs.members & ~cs.members == 0
                    wrap = [cs_code for i in range(ell - n + 1, ell)
                            for cs_code in
                            [word.repeated_to(ell + n - 1).segment(i + 1, i + n).code]]
                    assert (fs == cs) == all(c in fs for c in wrap)


@st.composite
def word_batches(draw):
    """(n, ell, circular, codes): a few words of one length, circular ones
    possibly shorter than n."""
    n = draw(st.integers(1, 10))
    circular = draw(st.booleans())
    ell = draw(st.integers(1 if circular else n, 40))
    codes = draw(st.lists(st.integers(0, (1 << ell) - 1), min_size=1, max_size=8))
    return n, ell, circular, codes


GROUPING_CASES = ((2, 9), (7, 12))


def classes(n, ell):
    count, shared = factor_classes(n, ell, BudgetMeter(Budget()))
    return count, [g.tolist() for g in shared]


def direct_classes(n, ell):
    """What factor_classes gives, from grouping the words' extracted factor
    sets one by one."""
    direct: dict[int, list[int]] = {}
    for c in range(1 << ell):
        direct.setdefault(factors(Word(ell, c), n).members, []).append(c)
    return len(direct), [direct[bm] for bm in sorted(direct) if len(direct[bm]) > 1]


class TestScanKernel:
    @settings(max_examples=300, deadline=None)
    @given(word_batches())
    @example((5, 3, True, [0b011, 0b110, 0b101, 0b000]))  # wraps more than once
    @example((10, 1, True, [0, 1]))
    @example((7, 12, False, [0b010101010101, 0b101010101010, 0b011011011011]))
    def test_keys_match_factor_extraction(self, batch):
        n, ell, circular, codes = batch
        extract = circular_factors if circular else factors
        sets = [extract(Word(ell, c), n).members for c in codes]
        keys = factor_keys(n, ell, codes, circular)
        assert [key_bitmap(k) for k in keys] == sets
        # keys sort as the bitmaps do, and equal keys are exactly equal sets
        order, starts = sorted_runs(keys)
        assert [sets[i] for i in order] == sorted(sets)
        assert [sets[order[i]] for i in starts] == sorted(set(sets))

    def test_classes_against_direct_grouping(self):
        for n, ell in GROUPING_CASES:
            assert classes(n, ell) == direct_classes(n, ell)

    def test_classes_with_colliding_hashes(self, monkeypatch):
        # four factor values: above order 6 nearly every word shares its set
        # hash, so the exact row keys must split the hash groups
        monkeypatch.setattr("factorwords.words._factor_hash",
                            lambda c: c.astype(np.uint64) & np.uint64(3))
        for n, ell in GROUPING_CASES:
            assert classes(n, ell) == direct_classes(n, ell)

    def test_hashed_classes_match_row_key_classes(self):
        # above order 6 only the words sharing a set hash get row keys; the
        # classes must be those of sorting every word's row key
        for ell in range(7, 17):
            for n in range(7, ell + 1):
                keys = factor_keys(n, ell, range(1 << ell))
                order, starts = sorted_runs(keys)
                ends = np.append(starts[1:], order.size)
                want = [order[a:b].tolist() for a, b in zip(starts, ends) if b - a > 1]
                assert classes(n, ell) == (starts.size, want)

    def test_holding_matches_isin(self):
        # more shared hashes than a 2^16-flag table holds at four per hash,
        # half of them with equal low 16 bits, and some held by no word
        rng = np.random.default_rng(13)
        hashes = rng.integers(0, 1 << 63, 200_000, dtype=np.uint64)
        hashes[::2] &= np.uint64(0xFFFF_FFFF_FFFF_0000)
        shared = np.unique(np.concatenate([rng.choice(hashes, 30_000),
                                           rng.integers(0, 1 << 63, 1000, dtype=np.uint64)]))
        assert shared.size > 1 << 14
        assert (_holding(hashes, shared) == np.flatnonzero(np.isin(hashes, shared))).all()

    def test_validation(self):
        with pytest.raises(InvalidLength):
            factor_keys(4, 3, [0])
        with pytest.raises(ValueError):
            factor_keys(0, 3, [0])
        with pytest.raises(ValueError):
            factor_keys(10, 60, [0], circular=True)

    @pytest.mark.parametrize("n,ell,circular", [
        (3, 16, False), (4, 16, True), (5, 16, False), (6, 16, True),
        (7, 16, False), (8, 16, True), (10, 18, False), (17, 18, False),
        (10, 17, True),
    ])
    def test_scan_nbytes_bounds_the_buffers(self, n, ell, circular):
        # budgets charge scan_nbytes before a scan, so it must not undercount
        tracemalloc.start()
        try:
            keys = factor_keys(n, ell, range(1 << ell), circular)
            order, starts = sorted_runs(keys)
            distinct = keys[order[starts]]  # as the counting scan takes them
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(distinct) == len(starts)
        assert peak <= scan_nbytes(n, ell, 1 << ell, circular)

    @pytest.mark.parametrize("n,ell", [(7, 14), (9, 18), (10, 20), (5, 12)],
                             ids=["7-14-False", "9-18-False", "10-20-False", "5-12-False"])
    def test_class_scan_nbytes_bounds_the_buffers(self, n, ell):
        # charged up front, plus the row keys factor_classes charges its meter
        meter = PeakMeter(Budget())
        tracemalloc.start()
        try:
            factor_classes(n, ell, meter)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= class_scan_nbytes(n, ell, 1 << ell) + meter.peak


def first_and_least(n, max_len, batches):
    """Per set, ordinary then circular: the first length listing it (0:
    none) and the least code of that length giving it."""
    first = np.zeros((2, 1 << (1 << n)), np.int64)
    least = np.zeros_like(first)
    for circ, scan in enumerate(batches):
        for ell, sets, codes in scan:
            fresh = first[circ, sets] == 0
            first[circ, sets[fresh]] = ell
            least[circ, sets[fresh]] = codes[fresh]
    return first, least


def direct_batches(n, max_len, circular):
    """One batch per length from a plain scan of every word."""
    for ell in range(1 if circular else n, max_len + 1):
        sets, codes = np.unique(factor_keys(n, ell, range(1 << ell), circular),
                                return_index=True)
        yield ell, sets, codes


@functools.lru_cache(maxsize=None)
def suffix_table(n, split_bits, hlen):
    return _suffix_table(n, split_bits, hlen, BudgetMeter(Budget()))


# SHA-256 over the suffix tables' arrays (dtype, shape and bytes) per order,
# hlen in {0, n - 1} and split_bits in {1, 2, n, 2n, 14}, as the tables read
# when each row was deduplicated over every x
SUFFIX_TABLE_SHA256 = {
    1: "da0eab4016db04e04f56196bada99126d5dce7f44873b2059df8b389f7eb4a14",
    2: "db04e0e4450fb4af3f2e5a4571de77f2bc5faf899461ee9aec837a14ceb5fbdf",
    3: "5bd9fd58abc02cd3cf145f3ab800134c2983fb3cfe5cc88c3a2804c429ae2e54",
    4: "13dfec3f2b0389ce78917904278629d51aa3e987fd49349327fc3fb3b6ded5e0",
}


class TestWordScan:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_suffix_table_pinned(self, n):
        # building rows from (suffix set, tail) pairs keeps every table,
        # split_bits below n - 1 included, where a tail holds letters of t
        digest = hashlib.sha256()
        for hlen in sorted({0, n - 1}):
            for split_bits in sorted({1, 2, n, 2 * n, 14}):
                for a in suffix_table(n, split_bits, hlen):
                    digest.update(f"{a.dtype.str}{a.shape}".encode())
                    digest.update(a.tobytes())
        assert digest.hexdigest() == SUFFIX_TABLE_SHA256[n]

    @pytest.mark.parametrize("n,max_len", [(1, 9), (2, 12), (3, 14), (4, 18)])
    def test_split_scan_matches_direct_scan(self, n, max_len):
        # split_bits = n and n + 2 run the direct path (circular words
        # shorter than n included), the ordinary split and the circular wrap;
        # at 2n, an order-4 table row has keys out of x order, so the least
        # codes come out right only if the rows are kept in x order; at 1 and
        # 2, below n - 1, a row's tail u holds letters of t as well as of x
        want = first_and_least(n, max_len, [direct_batches(n, max_len, c)
                                            for c in (False, True)])
        for split_bits in sorted({1, 2, n, n + 2, 2 * n}):
            got = first_and_least(n, max_len, [word_scan(n, max_len, BudgetMeter(Budget()),
                                                         c, split_bits)
                                               for c in (False, True)])
            assert all((g == w).all() for g, w in zip(got, want)), split_bits

    @pytest.mark.parametrize("n,max_len,split_bits", [(3, 12, 4), (4, 14, 6), (2, 10, 2)])
    def test_each_set_is_listed_once_at_its_first_length(self, n, max_len, split_bits):
        # every set in exactly one batch, of its first length, with the
        # least code of that length
        for circular in (False, True):
            first, least = first_and_least(n, max_len, [direct_batches(n, max_len, circular)])
            listed = np.zeros(1 << (1 << n), np.int64)
            for ell, keys, codes in word_scan(n, max_len, BudgetMeter(Budget()), circular,
                                              split_bits):
                assert (factor_keys(n, ell, codes, circular) == keys).all()
                assert (first[0, keys] == ell).all() and (least[0, keys] == codes).all()
                np.add.at(listed, keys, 1)
            assert (listed == (first[0] != 0)).all()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_split_key_is_the_word_key(self, data):
        # F(p·x) = F(p) | F(t·x), and circularly F(p) | F(t·x·h), with the
        # suffix key read from the table built for the scan
        n = data.draw(st.integers(1, 5), "n")
        split_bits = data.draw(st.integers(1, 5), "split_bits")
        circular = data.draw(st.booleans(), "circular")
        ell = data.draw(st.integers(split_bits + n, split_bits + n + 10), "ell")
        code = data.draw(st.integers(0, (1 << ell) - 1), "code")
        hlen = n - 1 if circular else 0
        plen = ell - split_bits
        p, x = code >> split_bits, code & ((1 << split_bits) - 1)
        t, h = p & ((1 << (n - 1)) - 1), p >> (plen - hlen)
        tkeys, txs = suffix_table(n, split_bits, hlen)
        row = (t << hlen) | h
        suffix = factor_keys(n, n - 1 + split_bits + hlen,
                             [(((t << split_bits) | x) << hlen) | h])[0]
        assert txs[row][tkeys[row] == suffix].min() <= x
        split = factor_keys(n, plen, [p])[0] | suffix
        assert split == factor_keys(n, ell, [code], circular)[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            next(word_scan(5, 20, BudgetMeter(Budget())))
        with pytest.raises(ValueError):
            next(word_scan(3, 20, BudgetMeter(Budget()), split_bits=0))

    @pytest.mark.parametrize("n,max_len,circular,split_bits", [
        (3, 16, True, 14), (4, 17, False, 14), (4, 20, False, 14), (4, 20, True, 14),
        (1, 20, True, 1), (4, 20, True, 6), (3, 20, True, 5), (2, 20, False, 3),
        (4, 25, False, 14), (4, 25, True, 14),  # the oracle's own scans
    ])
    def test_word_scan_nbytes_bounds_the_buffers(self, n, max_len, circular, split_bits):
        # word_scan_nbytes is charged up front and the scan charges its
        # suffix table on top: together they must not undercount
        meter = PeakMeter(Budget())
        tracemalloc.start()
        try:
            for batch in word_scan(n, max_len, meter, circular, split_bits):
                pass  # holds each batch while the next one is made
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert meter.charged_bytes == 0  # the table is released at the end
        assert peak <= word_scan_nbytes(n, max_len, circular, split_bits) + meter.peak
