"""Word primitives: periods, conjugacy, Lyndon words, de Bruijn words,
and the word-scan kernel."""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factorwords import (Budget, InvalidLength, Word, are_conjugate, are_root_conjugate,
                         circular_factors, debruijn, divisors, factors,
                         lyndon_count, lyndon_words, mobius, period, root)
from factorwords import scan as words
from factorwords.budget import BudgetMeter
from factorwords.counting import BRUTE_MAX_T
from factorwords.scan import (_NEW_STATES_MOST, _holding, _new_states, class_scan_nbytes,
                              factor_classes, factor_keys, period_classes, scan_nbytes,
                              sorted_runs, word_scan, word_scan_nbytes)


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
        with pytest.raises(ValueError, match="code 4 out of range"):
            Word(2, 4)
        with pytest.raises(IndexError, match="bad segment 2..1"):
            w("000").segment(2, 1)
        with pytest.raises(InvalidLength):
            w("00").repeated_to(0)

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

    def test_validation(self):
        for fn in (mobius, lyndon_count, lyndon_words):
            with pytest.raises(ValueError, match="positive"):
                fn(0)

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
        monkeypatch.setattr("factorwords.scan._factor_hash",
                            lambda c: c.astype(np.uint32) & np.uint32(3))
        for n, ell in GROUPING_CASES:
            assert classes(n, ell) == direct_classes(n, ell)

    def test_set_hashes_sum_each_distinct_factor_once(self):
        # a word's hash is the sum mod 2^32 of the factor hashes over its
        # factor set, however often a factor repeats in it: every word up to
        # 13 letters and of (7, 16), where repeats lie more than n letters
        # apart, and a sample of (10, 20)
        cells = [(n, ell, 1) for ell in range(7, 14) for n in range(7, ell + 1)]
        for n, ell, step in cells + [(7, 16, 1), (10, 20, 97)]:
            table = words._factor_hash(np.arange(1 << n))
            hashes = words._set_hashes(n, ell, BudgetMeter(Budget()))
            assert table.dtype == hashes.dtype == np.uint32
            table, hashes = table.tolist(), hashes.tolist()
            for c in range(0, 1 << ell, step):
                got = sum(table[x] for x in factors(Word(ell, c), n).codes())
                assert hashes[c] == got % (1 << 32)

    def test_set_hashes_pinned_to_a_direct_sum(self):
        # byte for byte, the sum over each word's distinct windows, found by
        # sorting its row of windows, not one letter at a time
        for ell in range(7, 17):
            codes = np.arange(1 << ell, dtype=np.uint64)
            for n in range(7, ell + 1):
                shifts = np.arange(ell - n + 1, dtype=np.uint64)
                windows = np.sort((codes[:, None] >> shifts) & np.uint64((1 << n) - 1), axis=1)
                fresh = np.ones(windows.shape, bool)
                fresh[:, 1:] = windows[:, 1:] != windows[:, :-1]
                table = words._factor_hash(np.arange(1 << n)).astype(np.uint64)
                want = (table[windows] * fresh).sum(axis=1).astype(np.uint32)
                got = words._set_hashes(n, ell, BudgetMeter(Budget()))
                assert got.tobytes() == want.tobytes()

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
        # half of them with equal low 16 bits, and some held by no word; in
        # the scan's hash dtype and a wider one
        rng = np.random.default_rng(13)
        for dt in (np.uint32, np.uint64):
            top = np.iinfo(dt).max
            hashes = rng.integers(0, top, 200_000, dtype=dt, endpoint=True)
            hashes[::2] &= dt(top ^ 0xFFFF)
            shared = np.unique(np.concatenate([rng.choice(hashes, 30_000),
                                               rng.integers(0, top, 1000, dt, endpoint=True)]))
            assert shared.size > 1 << 14
            found = _holding(hashes, shared, BudgetMeter(Budget()))
            assert (found == np.flatnonzero(np.isin(hashes, shared))).all()

    def test_validation(self):
        with pytest.raises(InvalidLength):
            factor_keys(4, 3, [0])
        with pytest.raises(ValueError):
            factor_keys(0, 3, [0])
        with pytest.raises(ValueError):
            factor_keys(10, 60, [0], circular=True)

    @pytest.mark.parametrize("n,ell", [
        (3, 16), (4, 16), (5, 16), (6, 16), (7, 16), (8, 16), (10, 18), (17, 18), (10, 17),
    ], ids=[  # as first pinned, when a third field read the words circularly
        "3-16-False", "4-16-True", "5-16-False", "6-16-True", "7-16-False", "8-16-True",
        "10-18-False", "17-18-False", "10-17-True",
    ])
    def test_scan_nbytes_bounds_the_buffers(self, n, ell):
        # budgets charge scan_nbytes before a scan, so it must not undercount
        tracemalloc.start()
        try:
            keys = factor_keys(n, ell, range(1 << ell))
            order, starts = sorted_runs(keys)
            distinct = keys[order[starts]]  # as the counting scan takes them
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(distinct) == len(starts)
        assert peak <= scan_nbytes(n, ell, 1 << ell)

    @pytest.mark.parametrize("n,ell", [(7, 14), (9, 18), (10, 20), (5, 12), (20, 20)],
                             ids=["7-14-False", "9-18-False", "10-20-False", "5-12-False",
                                  "20-20-False"])
    def test_class_scan_nbytes_bounds_the_buffers(self, n, ell):
        # charged up front, plus the row keys factor_classes charges its meter;
        # at 2^20 words or fewer it holds under 12 MiB, even when its table
        # holds a hash per word, as at (20, 20)
        meter = PeakMeter(Budget())
        tracemalloc.start()
        try:
            factor_classes(n, ell, meter)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= class_scan_nbytes(n, ell, 1 << ell) + meter.peak
        assert peak <= 12 << 20

    def test_class_scan_nbytes_per_word(self):
        # a 4-byte hash, its sorted copy and a flag per word, and little
        # besides at 2^20 words
        assert class_scan_nbytes(10, 20, 1 << 20) <= 12 << 20


def first_and_least(n, batches):
    """Per set, ordinary then circular: the first length listing it (0:
    none) and the least code of that length giving it, from (length,
    ordinary, circular) batches, each a pair (keys, codes)."""
    first = np.zeros((2, 1 << (1 << n)), np.int64)
    least = np.zeros_like(first)
    for ell, *flavours in batches:
        for circ, (sets, codes) in enumerate(flavours):
            fresh = first[circ, sets] == 0
            first[circ, sets[fresh]] = ell
            least[circ, sets[fresh]] = codes[fresh]
    return first, least


def direct_batches(n, max_len):
    """One pair of batches per length, ordinary and circular, from a plain
    scan of every word; the ordinary batch is empty below n letters."""
    for ell in range(1, max_len + 1):
        yield ell, *(np.unique(factor_keys(n, ell, range(1 << ell), circ), return_index=True)
                     if circ or ell >= n else (np.zeros(0, int), np.zeros(0, int))
                     for circ in (False, True))


class TestWordScan:
    @pytest.mark.parametrize("n,max_len", [(1, 9), (2, 12), (3, 14), (4, 18), (3, 18)])
    def test_split_scan_matches_direct_scan(self, n, max_len):
        # the scan splits into a direct scan of the circular words shorter
        # than n and one run of the new prefix states, listing both flavours;
        # (1, 9), (2, 12) and (3, 18) read past the last length with a new
        # state, where it ends by itself. Uncapped, it lists as far as it
        # reads and agrees up to max_len
        want = first_and_least(n, direct_batches(n, max_len))
        for cap in (max_len, None):
            first, least = first_and_least(n, word_scan(n, cap, BudgetMeter(Budget())))
            past = first > max_len
            first[past], least[past] = 0, 0
            assert (first == want[0]).all() and (least == want[1]).all(), cap

    @pytest.mark.parametrize("n,max_len,cut", [(3, 12, 4), (4, 14, 6), (2, 10, 2)])
    def test_each_set_is_listed_once_at_its_first_length(self, n, max_len, cut):
        # every set in exactly one batch of its flavour, of its first length,
        # with the least code of that length; a scan capped cut letters
        # shorter yields the same batches up to its cap
        first, least = first_and_least(n, direct_batches(n, max_len))
        batches = list(word_scan(n, max_len, BudgetMeter(Budget())))
        shorter = list(word_scan(n, max_len - cut, BudgetMeter(Budget())))
        assert [ell for ell, _, _ in shorter] == [
            ell for ell, _, _ in batches if ell <= max_len - cut]
        for circ, circular in enumerate((False, True)):
            listed = np.zeros(1 << (1 << n), np.int64)
            for ell, *flavours in batches:
                keys, codes = flavours[circ]
                if keys.size:
                    assert (factor_keys(n, ell, codes, circular) == keys).all()
                assert (first[circ, keys] == ell).all() and (least[circ, keys] == codes).all()
                np.add.at(listed, keys, 1)
            assert (listed == (first[circ] != 0)).all()
            for (_, *got), (_, *want) in zip(shorter, batches):
                (keys, codes), (want_keys, want_codes) = got[circ], want[circ]
                assert (keys == want_keys).all() and (codes == want_codes).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            next(word_scan(5, 20, BudgetMeter(Budget())))

    @pytest.mark.parametrize("n,max_len,short", [
        (4, 25, 14), (4, 20, 4), (3, 16, 3), (2, 12, 1), (1, 9, 2)])
    def test_each_state_is_expanded_once(self, n, max_len, short):
        # by each length, the scan has expanded as many states as there are
        # distinct pairs (F(p), row(p)) over the prefixes p so far: none
        # twice, such as a pair met again at a longer prefix. The reference
        # reads all 2^plen prefixes, so it stops short letters before the scan
        hlen = n - 1
        meter = BudgetMeter(Budget())
        noted = {ell: meter.progress.get("states", 0)
                 for ell, _, _ in word_scan(n, max_len, meter)}
        pairs = set()
        for plen in range(n, max_len - short + 1):
            p = np.arange(1 << plen)
            rows = ((p & ((1 << hlen) - 1)) << hlen) | (p >> (plen - hlen))
            pairs.update(zip(factor_keys(n, plen, p).tolist(), rows.tolist()))
            assert noted[max(ell for ell in noted if ell <= plen)] == len(pairs), plen

    @pytest.mark.parametrize("n,max_len", [(1, 4), (2, 8), (3, 15), (4, 16)])
    def test_new_states_match_a_dict_reference(self, n, max_len):
        # per prefix length, each pair (F(p), row(p)) that no shorter prefix
        # reaches, with the least p of the length reaching it, in ascending
        # p; orders 1..3 read one length past the last with a new state
        hlen = n - 1
        reached, want = set(), []
        for plen in range(n, max_len + 1):
            p = np.arange(1 << plen)
            rows = ((p & ((1 << hlen) - 1)) << hlen) | (p >> (plen - hlen))
            new = {}
            for state, code in zip(zip(factor_keys(n, plen, p).tolist(), rows.tolist()),
                                   p.tolist()):
                if state not in reached:
                    new.setdefault(state, code)
            reached.update(new)
            want.append(sorted((code, key, row) for (key, row), code in new.items()))
        got = [list(zip(p.tolist(), keys.tolist(), rows.tolist()))
               for _, (keys, rows, p) in zip(range(n, max_len + 1), _new_states(n))]
        assert got == want[:len(got)] and not any(want[len(got):])
        assert len(got) < len(want) if n < 4 else len(got) == len(want)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_new_states_pinned(self, n):
        # the prefix length after which no state is new, the states in all,
        # and the most at one length, which word_scan_nbytes reads
        pinned = {1: (2, 3, 2), 2: (6, 26, 8), 3: (14, 500, 86), 4: (34, 74446, 7496)}
        sizes = [p.size for _, (_, _, p) in zip(range(64), _new_states(n))]
        assert (n + len(sizes) - 1, sum(sizes), max(sizes)) == pinned[n]
        assert max(sizes) == _NEW_STATES_MOST[n]

    def test_codes_past_63_letters_refused(self, monkeypatch):
        # at order 4 no state is new past 34 prefix letters, so the scan ends
        # well inside 63 letters; states new for ever would reach the limit,
        # capped past it or not
        def endless(n):
            for state in real(n):
                yield state
            while True:
                yield state

        real = words._new_states
        assert [ell for ell, _, _ in word_scan(4, 64, BudgetMeter(Budget()))][-1] == 34
        monkeypatch.setattr(words, "_new_states", endless)
        for cap in (64, None):
            with pytest.raises(ValueError, match="63 letters"):
                for batch in word_scan(4, cap, BudgetMeter(Budget())):
                    pass

    @pytest.mark.parametrize("n,max_len", [
        (3, 16), (4, 17), (4, 20), (4, 20), (1, 20), (4, 20), (3, 20), (2, 20),
        (4, 25), (4, 25),  # the oracle's scan, capped and not
        (4, 25), (4, 25), (4, None),
    ], ids=[  # as first pinned, when a third field chose the flavour and a fourth
        # named a split length
        "3-16-True-14", "4-17-False-14", "4-20-False-14", "4-20-True-14",
        "1-20-True-1", "4-20-True-6", "3-20-True-5", "2-20-False-3",
        "4-25-False-14", "4-25-True-14", "4-25-False-3", "4-25-True-3", "4-None-True",
    ])
    def test_word_scan_nbytes_bounds_the_buffers(self, n, max_len):
        # word_scan_nbytes is charged up front, the state flags included; the
        # scan charges nothing itself
        meter = PeakMeter(Budget())
        tracemalloc.start()
        try:
            for batch in word_scan(n, max_len, meter):
                pass  # holds each batch while the next one is made
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert meter.peak == 0
        assert peak <= word_scan_nbytes(n, max_len)
