"""Binary words and their primitive combinatorics.

A Word is an immutable binary string backed by an integer code with the
leftmost letter as the most significant bit, so that lexicographic order on
equal-length words coincides with numeric order on codes. Positions are
1-based throughout: ``w.letter(1)`` is the leftmost letter.

Also provides minimal periods and roots, (root-)conjugacy, the Möbius
function, Lyndon word counting/enumeration, lexicographically least
de Bruijn words, and the package's one word scan: ``factor_keys`` turns a
batch of word codes into canonical factor-set keys with numpy,
``factor_classes`` groups the words of a length by factor set, and ``word_scan``
lists each factor set of the words up to a length once, orders 1..4,
reading long words as a prefix key joined with a table of suffix keys.

Above order 6, ``factor_classes`` sorts no key per word. It gives each word
a 64-bit set hash, the wrapping sum over its distinct factors of a fixed
splitmix64 value read from a table (Zobrist hashing), and sorts the hashes
once; only the words holding a hash another word holds get exact row keys,
which split any collision. Equal sets hash equally, so the classes are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .budget import BudgetMeter


class InvalidLength(ValueError):
    """A word is too short (or otherwise badly sized) for the operation."""


@dataclass(frozen=True)
class Word:
    """A non-empty binary word: ``length`` letters packed into ``code``.

    ``code`` holds the letters with w.letter(1) as the most significant bit:
    code = sum of w.letter(i) * 2**(length - i).
    """

    length: int
    code: int

    def __post_init__(self):
        if self.length < 1:
            raise InvalidLength("words must have at least one letter")
        if not 0 <= self.code < (1 << self.length):
            raise ValueError(f"code {self.code} out of range for length {self.length}")

    @classmethod
    def from_text(cls, text: str) -> "Word":
        """Parse an ASCII string of '0'/'1' characters, leftmost first."""
        if not text or any(c not in "01" for c in text):
            raise ValueError(f"not a binary word: {text!r}")
        return cls(len(text), int(text, 2))

    def __str__(self) -> str:
        return format(self.code, f"0{self.length}b")

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"

    def __len__(self) -> int:
        return self.length

    def letter(self, i: int) -> int:
        """The i-th letter, 1-based from the left."""
        if not 1 <= i <= self.length:
            raise IndexError(f"position {i} out of range 1..{self.length}")
        return (self.code >> (self.length - i)) & 1

    def segment(self, i: int, j: int) -> "Word":
        """The factor occupying positions i..j inclusive, 1-based."""
        if not (1 <= i <= j <= self.length):
            raise IndexError(f"bad segment {i}..{j} of length-{self.length} word")
        n = j - i + 1
        return Word(n, (self.code >> (self.length - j)) & ((1 << n) - 1))

    def __add__(self, other: "Word") -> "Word":
        return Word(self.length + other.length,
                    (self.code << other.length) | other.code)

    def rotated(self, k: int) -> "Word":
        """Left rotation by k letters."""
        k %= self.length
        if k == 0:
            return self
        mask = (1 << self.length) - 1
        return Word(self.length,
                    ((self.code << k) & mask) | (self.code >> (self.length - k)))

    def bits(self) -> Iterator[int]:
        """Letters left to right."""
        for i in range(self.length - 1, -1, -1):
            yield (self.code >> i) & 1

    def repeated_to(self, total: int) -> "Word":
        """Periodic extension of this word to ``total`` letters."""
        if total < 1:
            raise InvalidLength("cannot extend to an empty word")
        reps = -(-total // self.length)
        code = 0
        for _ in range(reps):
            code = (code << self.length) | self.code
        excess = reps * self.length - total
        return Word(total, code >> excess)


@dataclass(frozen=True)
class PeriodInfo:
    """Minimal period of a word and the corresponding root prefix."""

    period: int
    root: Word


def period(w: Word) -> PeriodInfo:
    """Minimal period via the border (failure-function) relation.

    p is a period of w when w is a prefix of the infinite repetition of its
    length-p prefix; the minimal one equals |w| minus the longest proper
    border length.
    """
    bits = list(w.bits())
    n = len(bits)
    border = [0] * n
    k = 0
    for q in range(1, n):
        while k and bits[k] != bits[q]:
            k = border[k - 1]
        if bits[k] == bits[q]:
            k += 1
        border[q] = k
    p = n - border[-1]
    return PeriodInfo(p, w.segment(1, p))


def root(w: Word) -> Word:
    """The prefix of w whose length is the minimal period."""
    return period(w).root


def are_conjugate(w: Word, w2: Word) -> bool:
    """True when w2 is a rotation of w."""
    if w.length != w2.length:
        return False
    s = str(w)
    return str(w2) in s + s


def are_root_conjugate(w: Word, w2: Word) -> bool:
    """True when the roots of w and w2 are rotations of each other."""
    return are_conjugate(period(w).root, period(w2).root)


def period_classes(t: int, codes) -> tuple[np.ndarray, np.ndarray]:
    """Minimal periods and root classes (least rotations of the roots) of
    length-t words given by code, as uint64 arrays: two words are
    root-conjugate exactly when both agree."""
    if not 1 <= t <= 63:
        raise ValueError("period_classes reads words of 1..63 letters")
    c = np.asarray(codes, np.uint64)
    periods = np.full(c.shape, t, np.uint64)
    for q in range(t - 1, 0, -1):  # q is a period: the first t - q letters are the last
        periods[(c >> q) == (c & ((1 << (t - q)) - 1))] = q
    roots = c >> (t - periods)
    least, mask = roots.copy(), (1 << periods) - 1
    for j in range(1, t):
        turn = j % periods
        np.minimum(least, ((roots << turn) & mask) | (roots >> (periods - turn)), out=least)
    return periods, least


def mobius(m: int) -> int:
    """Möbius function by trial factorization."""
    if m < 1:
        raise ValueError("mobius is defined on positive integers")
    result = 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            result = -result
        d += 1
    if m > 1:
        result = -result
    return result


def divisors(m: int) -> list[int]:
    """All positive divisors of m, ascending."""
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
        d += 1
    return small + large[::-1]


def lyndon_count(i: int) -> int:
    """Number of binary Lyndon words of length i: (1/i) * sum mu(i/d) 2^d."""
    if i < 1:
        raise ValueError("length must be positive")
    return sum(mobius(i // d) << d for d in divisors(i)) // i


def _duval(max_len: int) -> Iterator[list[int]]:
    """All binary Lyndon words of length <= max_len, in lexicographic order."""
    w = [0]
    while w:
        yield w
        w = [w[i % len(w)] for i in range(max_len)]
        while w and w[-1] == 1:
            w.pop()
        if w:
            w[-1] = 1


def lyndon_words(i: int) -> list[Word]:
    """All binary Lyndon words of length exactly i, in lexicographic order."""
    if i < 1:
        raise ValueError("length must be positive")
    out = []
    for bits in _duval(i):
        if len(bits) == i:
            code = 0
            for b in bits:
                code = (code << 1) | b
            out.append(Word(i, code))
    return out


DEBRUIJN_MAX_ORDER = 24


def debruijn(n: int) -> Word:
    """The lexicographically least binary de Bruijn word of order n.

    Concatenates, in lexicographic order, the Lyndon words whose length
    divides n. The result has length 2^n and contains every length-n word
    exactly once as a cyclic factor.
    """
    if not 1 <= n <= DEBRUIJN_MAX_ORDER:
        raise ValueError(f"order must be in 1..{DEBRUIJN_MAX_ORDER}")
    chunks = []
    for bits in _duval(n):
        if n % len(bits) == 0:
            chunks.append("".join(map(str, bits)))
    return Word.from_text("".join(chunks))


# -- the word scan ----------------------------------------------------------------

_BITMAP_MAX_ORDER = 6     # 2^n membership bits fit one uint64
# codes per scan call in counting's chunked T(t, n) scan: on the order-4
# brute-force scan, 2^18 ran faster and with a third of the memory of 2^21
SCAN_CHUNK_BITS = 18
# word_scan: suffix letters per table entry, and words or candidates per
# batch. On the order-4 scans to length 25 (2-core box, process time, medians
# of 40), split 12, 13 and 15 ran 11%, 0.5% and 29% slower than 14; batches
# of 2^15, 2^16 ran 8%, 13% faster for +0.4, +1.5 MB RSS
SPLIT_BITS = 14
SCAN_BATCH_BITS = 14


def _scan_dtypes(n: int, ell: int, circular: bool):
    """Letters read per word, the code dtype, and the key dtype and width."""
    span = ell + n - 1 if circular else ell
    code_dt = np.dtype(np.uint32 if span <= 32 else np.uint64)
    if n <= _BITMAP_MAX_ORDER:
        return span, code_dt, np.min_scalar_type((1 << (1 << n)) - 1), 1
    return span, code_dt, np.min_scalar_type(1 << n), span - n + 1


def _windows(n: int, ell: int, codes, circular: bool):
    """The codes of length-``ell`` words (a range, sequence or array) as an
    array, and a generator of their length-n windows left to right, one array
    per position. Read circularly, each word is extended by its first letters,
    cyclically, so that short circular words wrap repeatedly, as in
    ``circular_factors``."""
    if n < 1 or ell < 1:
        raise ValueError("lengths must be positive")
    if ell < n and not circular:
        raise InvalidLength(f"a word of length {ell} has no factors of length {n}")
    span, code_dt, _, _ = _scan_dtypes(n, ell, circular)
    if span > 64:
        raise ValueError("the scan reads at most 64 letters per word")
    dt = code_dt.type
    codes = (np.arange(codes.start, codes.stop, dtype=dt) if isinstance(codes, range)
             else np.asarray(codes, dt))
    ext, got = codes, ell
    while got < span:  # append the word's first letters, cyclically
        take = min(ell, span - got)
        ext = (ext << dt(take)) | (codes >> dt(ell - take))
        got += take
    mask = dt((1 << n) - 1)
    return codes, ((ext >> dt(sh)) & mask for sh in range(span - n, -1, -1))


def factor_keys(n: int, ell: int, codes, circular: bool = False) -> np.ndarray:
    """One canonical factor-set key per word of length ``ell``, for a range,
    sequence or array of codes. Keys are equal exactly when the words' sets
    of length-n factors, read ordinarily or circularly (short circular words
    wrap repeatedly, as in ``circular_factors``), are equal, and they sort as
    the sets' bitmaps do. For 2^n <= 64 the key is the bitmap, in the least
    unsigned dtype holding it; otherwise a row with one entry per factor
    occurrence: the distinct factor codes plus one, ascending, left-padded
    with zeros, which compared from the last column back order as bitmaps.
    """
    codes, windows = _windows(n, ell, codes, circular)
    _, _, key_dt, width = _scan_dtypes(n, ell, circular)
    if n <= _BITMAP_MAX_ORDER:
        one = key_dt.type(1)
        keys = np.zeros(codes.size, key_dt)
        for win in windows:
            keys |= one << win.astype(key_dt)
        return keys
    keys = np.empty((codes.size, width), key_dt)
    for i, win in enumerate(windows):
        keys[:, i] = win
    keys += key_dt.type(1)
    keys.sort(axis=1)
    keys[:, 1:][keys[:, 1:] == keys[:, :-1]] = 0
    keys.sort(axis=1)
    return keys


def sorted_runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A stable order sorting ``keys`` (bitmap order) and the positions in
    it where each run of equal keys starts."""
    rows = keys.reshape(len(keys), -1)
    order = np.lexsort(rows.T)
    ordered = rows[order]
    fresh = (ordered[1:] != ordered[:-1]).any(axis=1)
    return order, np.flatnonzero(np.concatenate(([len(keys) > 0], fresh)))


# The hashed class scan (orders above 6) hashes 2^HASH_CHUNK_BITS codes per
# chunk; at (n, t) = (10, 20), chunks of 2^14..2^16 ran about equally fast
# and 2^12 slower, and the smallest of them holds the least
HASH_CHUNK_BITS = 14
_GOLDEN, _MIX1, _MIX2 = (np.uint64(c) for c in
                         (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))


def _factor_hash(factors: np.ndarray) -> np.ndarray:
    """A fixed pseudo-random uint64 per factor code: splitmix64's output for
    the state (code + 1) * golden."""
    z = (factors.astype(np.uint64) + np.uint64(1)) * _GOLDEN
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _set_hashes(n: int, ell: int, meter: BudgetMeter) -> np.ndarray:
    """Per word of length ``ell``, by code, the wrapping uint64 sum of
    ``_factor_hash`` over its distinct length-n factors: a window equal to an
    earlier one of the same word adds nothing, so equal sets hash equally.
    Its table of 2^n factor hashes is no larger than the 2^ell it fills."""
    table = _factor_hash(np.arange(1 << n))
    hashes = np.zeros(1 << ell, np.uint64)
    for lo in range(0, 1 << ell, 1 << HASH_CHUNK_BITS):
        hi = min(1 << ell, lo + (1 << HASH_CHUNK_BITS))
        part, seen = hashes[lo:hi], []
        for win in _windows(n, ell, range(lo, hi), False)[1]:
            fresh = np.ones(win.size, bool)
            for earlier in seen:
                fresh &= win != earlier
            np.add(part, table.take(win), out=part, where=fresh)
            seen.append(win)
        meter.note(words_scanned=hi)
        meter.check_time(f"factor classes of length {ell}")
    return hashes


def _holding(hashes: np.ndarray, shared: np.ndarray) -> np.ndarray:
    """The ascending positions of the hashes found in ``shared`` (sorted),
    chunk by chunk: a table of flags per low bits of the shared hashes, four
    per shared hash and at least 2^16, passes few others to the exact search."""
    low = np.uint64((1 << max(16, (4 * shared.size - 1).bit_length())) - 1)
    flagged = np.zeros(int(low) + 1, bool)
    flagged[shared & low] = True
    found = []
    for lo in range(0, hashes.size, 1 << HASH_CHUNK_BITS):
        part = hashes[lo:lo + (1 << HASH_CHUNK_BITS)]
        maybe = np.flatnonzero(flagged[part & low])
        hit = shared.take(np.searchsorted(shared, part[maybe]), mode="clip") == part[maybe]
        found.append(lo + maybe[hit])
    return np.concatenate(found)


def _shared_runs(keys: np.ndarray) -> tuple[int, list[np.ndarray]]:
    """The number of distinct keys and, in key order, the positions of every
    key held two or more times, ascending."""
    order, starts = sorted_runs(keys)
    ends = np.append(starts[1:], order.size)
    shared = ends - starts > 1
    return starts.size, [order[a:b] for a, b in zip(starts[shared], ends[shared])]


def factor_classes(n: int, ell: int, meter: BudgetMeter) -> tuple[int, list[np.ndarray]]:
    """Group the words of length ``ell`` by factor set.

    Returns the number of distinct sets and, in bitmap order, the ascending
    codes of every set that two or more of the words share.

    Orders up to 6 sort every word's bitmap key. Above that, each word gets
    a 64-bit set hash (``_set_hashes``) and one sort of the hashes finds
    those two or more words hold. Equal sets hash equally, so a word whose
    hash no other word holds is alone in its set; only the words holding a
    shared hash get exact row keys, which split any collision and put the
    classes in bitmap order. ``class_scan_nbytes`` bounds the buffers other
    than those row keys. The hash pass notes ``words_scanned`` to the meter
    and checks the time after each chunk, and the row keys are charged to it
    while they are held.
    """
    if n <= _BITMAP_MAX_ORDER:
        return _shared_runs(factor_keys(n, ell, range(1 << ell)))
    hashes = _set_hashes(n, ell, meter)
    ordered = np.sort(hashes)
    repeats = ordered[1:] == ordered[:-1]
    first = repeats.copy()
    first[1:] &= ~repeats[:-1]  # the first repeat of each shared hash
    groups = np.count_nonzero(first)
    if groups == 0:
        return hashes.size, []
    sharing = int(groups + np.count_nonzero(repeats))  # words holding a shared hash
    held = scan_nbytes(n, ell, sharing)
    meter.charge_memory(held, f"row keys of {sharing} words sharing a set hash")
    shared = ordered[1:][first]
    del ordered, repeats, first
    members = _holding(hashes, shared)
    del hashes
    count, runs = _shared_runs(factor_keys(n, ell, members))
    meter.release_memory(held)
    return (1 << ell) - sharing + count, [members[run] for run in runs]


def scan_nbytes(n: int, ell: int, count: int, circular: bool = False) -> int:
    """An upper bound on the bytes held at once by ``factor_keys`` on a range
    of ``count`` codes, then ``sorted_runs`` (not the lists ``factor_classes``
    returns): per word, the larger of making the keys (codes, extension, keys,
    temporaries) and sorting them (keys, copy, order, buffer, run starts).
    """
    _, code_dt, key_dt, width = _scan_dtypes(n, ell, circular)
    key = key_dt.itemsize * width
    making = (code_dt.itemsize * (3 if circular else 2) + key
              + (3 * key_dt.itemsize if n <= _BITMAP_MAX_ORDER else width))
    sorting = 2 * key + 8 * 3 + width + 2
    return count * max(making, sorting)


def class_scan_nbytes(n: int, ell: int, count: int) -> int:
    """An upper bound on the bytes ``factor_classes`` holds at once on a range
    of ``count`` codes, beside the lists it returns and, above order 6, the
    row keys of the words sharing a set hash, which it charges to its meter:
    up to order 6, ``scan_nbytes``; above, per word its hash, a sorted copy
    and three flags, plus the 2^n factor hashes and one chunk's temporaries.
    """
    if n <= _BITMAP_MAX_ORDER:
        return scan_nbytes(n, ell, count)
    _, code_dt, _, width = _scan_dtypes(n, ell, False)
    chunk = min(count, 1 << HASH_CHUNK_BITS)
    return count * 19 + chunk * (code_dt.itemsize * (width + 4) + 40) + (8 << n)


def _first_pairs(keys: np.ndarray, tags: np.ndarray) -> np.ndarray:
    """The ascending positions of the first of each distinct (key, tag)
    pair: one lexsort of the two narrow arrays, several times faster than a
    stable sort of their wide combination."""
    order = np.lexsort((keys, tags))
    a, b = keys[order], tags[order]
    fresh = np.ones(order.size, bool)
    fresh[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    return np.sort(order[fresh])


def _suffix_table(n: int, split_bits: int, hlen: int,
                  meter: BudgetMeter) -> tuple[np.ndarray, np.ndarray]:
    """Per row (t << hlen) | h: the distinct keys of the words t·x·h, over
    the x of ``split_bits`` letters, for t of n - 1 letters and h of hlen,
    each with its least x (in the least unsigned dtype holding it) and
    ordered by that x; rows are padded to one width by repeating their last
    entry. F(t·x·h) is F(t·x) plus the windows of u·h, u the last n - 1
    letters of t·x (read only when hlen = n - 1), so a t's rows are built
    from its distinct (F(t·x), u) pairs, each with its least x: the least x
    of a key is the least of some pair. Each row is charged to the meter as
    it is made and the padded table before it is filled; the rows are
    released once it is, so the table stays charged."""
    xs = np.arange(1 << split_bits, dtype=_scan_dtypes(n, n - 1 + split_bits, False)[1])
    x_dt = np.min_scalar_type((1 << split_bits) - 1)
    umask = (1 << hlen) - 1  # the tail u, or nothing when read ordinarily
    wrap = (factor_keys(n, 2 * hlen, range(1 << 2 * hlen)) if hlen
            else np.zeros(1, np.uint8))
    keys, least = [], []
    for t in range(1 << (n - 1)):
        tx = (t << split_bits) | xs
        base = factor_keys(n, n - 1 + split_bits, tx)
        pairs = _first_pairs(base, (tx & umask).astype(np.uint8))
        base, tail = base[pairs], (tx[pairs] & umask) << hlen
        for h in range(1 << hlen):
            row = base | wrap[tail | h]
            first = np.sort(np.unique(row, return_index=True)[1])
            keys.append(row[first])
            least.append(pairs[first].astype(x_dt))
            meter.charge_memory(keys[-1].nbytes + least[-1].nbytes, "suffix table row")
    width = max(map(len, least))
    rows = sum(k.nbytes + x.nbytes for k, x in zip(keys, least))
    meter.charge_memory(len(keys) * width * (keys[0].itemsize + x_dt.itemsize),
                        "suffix table")
    tkeys, txs = (np.empty((len(keys), width), a[0].dtype) for a in (keys, least))
    for table, entries in ((tkeys, keys), (txs, least)):
        for padded, a in zip(table, entries):  # pad by the last entry
            padded[:a.size], padded[a.size:] = a, a[-1]
    meter.release_memory(rows)
    return tkeys, txs


def word_scan(n: int, max_len: int, meter: BudgetMeter, circular: bool = False,
              split_bits: int = SPLIT_BITS):
    """Yield (length, keys, codes) batches listing each factor set of the
    words (circular words) of length n..max_len (1..max_len) once, at the
    first length reaching it, with the least code of that length giving it.
    Batches cover runs of codes of one length, in length then code order;
    a batch's ``keys`` are the ``factor_keys`` no earlier batch listed,
    ascending, possibly none. Orders 1..4: each batch's keys are filtered
    through a mask of 2^(2^n) flags, the sets listed, before the dedupe.

    Lengths below split_bits + n are scanned directly in batches. A longer
    word c = p·x, with x its last ``split_bits`` letters, t the last n - 1
    letters of p and h its first n - 1, has F(c) = F(p) | F(t·x), and read
    circularly F(p) | F(t·x·h): the window reaching past x wraps into h. So
    one table, of the distinct F(t·x) (F(t·x·h)) per t (pair t, h) with the
    least x giving each, turns a batch of prefixes into candidates
    F(p) | table[row(p)], laid out in code order; only the unlisted ones
    get their codes (p << split_bits) | x. Prefixes sharing the pair
    (F(p), row(p)) give the same candidates, so only the least of each
    pair in a batch is expanded: it gives them their least codes.

    ``word_scan_nbytes`` bounds the buffers other than the table, which is
    charged to the meter row by row as it is built and released when the
    scan ends.
    """
    if not 1 <= n <= 4:  # the mask of listed sets holds 2^(2^n) flags, 64 KiB at order 4
        raise ValueError("the word scan supports orders 1..4")
    if split_bits < 1:
        raise ValueError("split_bits must be positive")
    listed = np.zeros(1 << (1 << n), bool)

    def unlisted(keys):  # the keys not listed yet, now listed, and their first positions
        pos = np.flatnonzero(~listed.take(keys))
        sets, first = np.unique(keys[pos], return_index=True)
        listed[sets] = True
        return sets, pos[first]

    hlen = n - 1 if circular else 0
    tmask = (1 << (n - 1)) - 1
    split = split_bits + n  # the least length read as prefix and suffix
    if max_len >= split:
        tkeys, txs = _suffix_table(n, split_bits, hlen, meter)
        step = max(1, (1 << SCAN_BATCH_BITS) // tkeys.shape[1])
    for ell in range(1 if circular else n, max_len + 1):
        if ell < split:
            chunk = 1 << min(ell, SCAN_BATCH_BITS)
            for start in range(0, 1 << ell, chunk):
                sets, pos = unlisted(factor_keys(n, ell, range(start, start + chunk), circular))
                yield ell, sets, start + pos
            continue
        plen = ell - split_bits
        for lo in range(0, 1 << plen, 1 << SCAN_BATCH_BITS):
            p = np.arange(lo, min(lo + (1 << SCAN_BATCH_BITS), 1 << plen), dtype=np.int64)
            keys, rows = factor_keys(n, plen, p), ((p & tmask) << hlen) | (p >> (plen - hlen))
            kept = _first_pairs(keys, rows.astype(np.uint8))
            p, keys, rows = p[kept], keys[kept], rows[kept]
            for a in range(0, p.size, step):
                sets, pos = unlisted((keys[a:a + step, None] | tkeys[rows[a:a + step]]).ravel())
                i, j = np.divmod(pos, tkeys.shape[1])
                yield ell, sets, (p[a + i] << split_bits) | txs[rows[a + i], j]
    if max_len >= split:
        meter.release_memory(tkeys.nbytes + txs.nbytes)


def word_scan_nbytes(n: int, max_len: int, circular: bool = False,
                     split_bits: int = SPLIT_BITS) -> int:
    """An upper bound on the bytes ``word_scan`` holds at once beside its
    suffix table, which it charges to its meter as it is built: the
    mask of listed sets plus the most of making one table row, one direct
    chunk, and one batch of candidates beside its chunk of prefixes.
    """
    key = _scan_dtypes(n, max_len, circular)[2].itemsize
    # per key made, as if unlisted: the filter's flags and positions, the dedupe's
    # copies, order and flags, the batch yielded and the caller's hold on the one before
    listing = 5 * key + 51
    split = split_bits + n
    ell = min(max_len, split - 1)
    count = 1 << min(ell, SCAN_BATCH_BITS)
    most = scan_nbytes(n, ell, count, circular) + count * listing
    if max_len >= split:
        # a row's codes: the x range, t·x, its tails and two temporaries
        row = ((40 + listing) << split_bits) + scan_nbytes(n, split - 1, 1 << split_bits)
        plen = max_len - split_bits
        prefixes = 1 << min(plen, SCAN_BATCH_BITS)
        cand = max(1 << SCAN_BATCH_BITS, min(1 << split_bits, 1 << (1 << n)))
        most = max(most, row, prefixes * (key + 16) + scan_nbytes(n, plen, prefixes)
                   + cand * (2 * key + listing))
    return (1 << (1 << n)) + most
