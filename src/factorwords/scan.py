"""The package's one word scan, over numpy arrays of word codes.

``factor_keys`` turns a batch of word codes into canonical factor-set keys,
``factor_classes`` groups the words of a length by factor set, ``word_scan``
lists each factor set of the words and of the circular words once, orders
1..4, from one run reading per length only the states (key, last and first
n - 1 letters) no shorter word reached, until none is new, and
``period_classes`` gives minimal periods and root classes of a batch of
words.

Above order 6, ``factor_classes`` sorts no key per word. It gives each word
a 32-bit set hash, the wrapping sum over its distinct factors of a fixed
value from a table (Zobrist hashing), built one letter at a time from the
hashes of the words' prefixes, and sorts the hashes once; only the words
holding a hash another word holds get exact row keys, which split any
collision. Equal sets hash equally, so the classes are exact at any width.

The kernels keep off numpy idioms that run per row or per element rather
than as one pass over a 1-D array, each measured several times slower at
the scan's sizes (2^14-word chunks, a few thousand states): a gather with a
uint8 or uint32 index array goes through ``take``, as indexing first casts
the index; a masked add multiplies by the mask instead of passing
``where=``; and pairs are written one member at a time through the strided
views ``a[0::2]`` and ``a[1::2]``, not by broadcasting against a length-2
axis. Buffers rewritten per window or chunk are allocated once, and filled
through ``out=``.

With ``counting``, its one user beside the oracle, this is the only module
that imports numpy when loaded.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .budget import BudgetMeter
from .words import InvalidLength

_BITMAP_MAX_ORDER = 6     # 2^n membership bits fit one uint64
# codes per scan call in counting's chunked T(t, n) scan: on the order-4
# brute-force scan, 2^18 ran faster and with a third of the memory of 2^21
SCAN_CHUNK_BITS = 18


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


def _scan_dtypes(n: int, ell: int, circular: bool):
    """Letters read per word, the code dtype, and the key dtype and width."""
    span = ell + n - 1 if circular else ell
    code_dt = np.dtype(np.uint32 if span <= 32 else np.uint64)
    if n <= _BITMAP_MAX_ORDER:
        return span, code_dt, np.min_scalar_type((1 << (1 << n)) - 1), 1
    return span, code_dt, np.min_scalar_type(1 << n), span - n + 1


def _windows(n: int, ell: int, codes, circular: bool):
    """The codes of length-``ell`` words (a range, sequence or array) as an
    array, and a generator of their length-n windows left to right, one
    position at a time, each written over the last in one buffer: read each
    before taking the next. Read circularly, each word is extended by its
    first letters, cyclically, so that short circular words wrap repeatedly,
    as in ``circular_factors``."""
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
    win = np.empty_like(ext)
    return codes, (np.bitwise_and(np.right_shift(ext, dt(sh), win), mask, win)
                   for sh in range(span - n, -1, -1))


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
        bit = np.empty_like(keys)
        for win in windows:
            bit[...] = win
            keys |= np.left_shift(one, bit, bit)
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


# The hashed class scan (orders above 6) fills 2^HASH_CHUNK_BITS codes of a
# prefix length per chunk; at (n, t) = (10, 20) and (11, 22), chunks of
# 2^13..2^16 ran within about a fifth of each other and 2^12 slower (best of
# 7, 2-core Xeon), and 2^14 keeps a chunk's temporaries near 256 KiB
HASH_CHUNK_BITS = 14
_GOLDEN, _MIX1, _MIX2 = (np.uint64(c) for c in
                         (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))


def _factor_hash(factors: np.ndarray) -> np.ndarray:
    """A fixed pseudo-random uint32 per factor code: the high half of
    splitmix64's output for the state (code + 1) * golden."""
    z = (factors.astype(np.uint64) + np.uint64(1)) * _GOLDEN
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return np.right_shift(z, np.uint64(32), out=z).astype(np.uint32)


def _set_hashes(n: int, ell: int, meter: BudgetMeter) -> np.ndarray:
    """Per word of length ``ell``, by code, the sum mod 2^32 (uint32) of
    ``_factor_hash`` over its distinct length-n factors, so equal sets hash
    equally.

    The hashes are built one letter at a time, for prefix lengths L = n + 1
    .. ell. The distinct windows of an L-letter word c are those of its first
    L - 1 letters, c >> 1, and its last window unless that repeats an earlier
    one: H_L[c] = H_{L-1}[c >> 1], plus the last window's factor hash unless
    R_L[c]. The last window repeats the one k letters back exactly when
    ((c >> k) ^ c) & mask == 0; for k < L - n that reads only the last L - 1
    letters, c mod 2^(L-1), so level L - 1 decided it for that word, and
    R_L[c] is R_{L-1}[c mod 2^(L-1)] or the one new distance, k = L - n.

    Every level is written into the output, chunk by chunk from the top
    down: a chunk [lo, hi) reads only the prefixes [lo/2, hi/2), which no
    chunk above it overwrites. The flags of levels below ``ell`` live in one
    array of 2^(ell-1), each level's written over the last's in place (a
    chunk of the upper half reads the lower half, not yet overwritten). The
    table of factor hashes is made a chunk at a time; at n == ell it is the
    result. After each chunk the level and the codes filled at it
    (``words_scanned``) are noted to the meter, and the time is checked.
    """
    table = np.empty(1 << n, np.uint32)
    for lo in range(0, 1 << n, 1 << HASH_CHUNK_BITS):
        hi = min(1 << n, lo + (1 << HASH_CHUNK_BITS))
        table[lo:hi] = _factor_hash(np.arange(lo, hi))
    if ell == n:
        return table
    code_dt = _scan_dtypes(n, ell, False)[1].type
    mask = code_dt((1 << n) - 1)
    hashes = np.empty(1 << ell, np.uint32)
    hashes[:1 << n] = table
    repeats = np.zeros(1 << (ell - 1), bool)  # R_n: a word of n letters repeats no window
    for level in range(n + 1, ell + 1):
        half = 1 << (level - 1)
        size = min(half, 1 << HASH_CHUNK_BITS)
        width = min(size, 1 << n)  # per row of a chunk, c & mask runs through a table slice
        back = code_dt(level - n)
        for lo in range(2 * half - size, -1, -size):
            hi = lo + size
            codes = np.arange(lo, hi, dtype=code_dt)
            rep = ((codes >> back) ^ codes) & mask == 0
            del codes  # not held past the chunk's masked add, nor into the next chunk
            carried = repeats[lo & (half - 1):][:size]
            if level < ell:
                rep = np.logical_or(carried, rep, out=repeats[lo:hi])
            else:
                rep |= carried
            part = hashes[lo:hi]
            prefix = hashes[lo >> 1:hi >> 1]
            if lo == 0:  # the lowest chunk's prefixes lie inside it
                prefix = prefix.copy()
            part[0::2] = prefix
            part[1::2] = prefix
            col = int(lo & mask)
            grid = part.reshape(-1, width)
            grid += table[col:col + width] * ~rep.reshape(-1, width)
            meter.note(phase="set hashes", level=level, words_scanned=2 * half - lo)
            meter.check_time(f"set hashes of length {ell}")
    return hashes


def _holding(hashes: np.ndarray, shared: np.ndarray, meter: BudgetMeter) -> np.ndarray:
    """The ascending positions of the hashes found in ``shared`` (sorted),
    chunk by chunk: a table of flags per low bits of the shared hashes, four
    per shared hash and at least 2^16, passes few others to the exact search.
    After each chunk the hashes read (``words_scanned``) are noted to the
    meter, and the time is checked."""
    low = hashes.dtype.type((1 << max(16, (4 * shared.size - 1).bit_length())) - 1)
    flagged = np.zeros(int(low) + 1, bool)
    flagged[shared & low] = True
    found = []
    for lo in range(0, hashes.size, 1 << HASH_CHUNK_BITS):
        part = hashes[lo:lo + (1 << HASH_CHUNK_BITS)]
        maybe = np.flatnonzero(flagged.take(part & low))
        hit = shared.take(np.searchsorted(shared, part[maybe]), mode="clip") == part[maybe]
        found.append(lo + maybe[hit])
        meter.note(phase="shared hashes", words_scanned=lo + part.size)
        meter.check_time("words holding a shared set hash")
    return np.concatenate(found)


def _class_runs(n: int, ell: int, meter: BudgetMeter
                ) -> tuple[int, np.ndarray | None, np.ndarray, np.ndarray]:
    """``factor_classes`` up to its lists: the number of distinct sets; the
    ascending codes of the words given keys (None: every word); and, as
    ``sorted_runs`` gives them, the stable order of those keys and where its
    runs of equal keys start. A caller that needs only the count makes no
    list."""
    if n <= _BITMAP_MAX_ORDER:
        order, starts = sorted_runs(factor_keys(n, ell, range(1 << ell)))
        return starts.size, None, order, starts
    hashes = _set_hashes(n, ell, meter)
    ordered = np.sort(hashes)
    repeats = ordered[1:][ordered[1:] == ordered[:-1]]  # a hash k words hold, k - 1 times
    del ordered
    meter.note(phase="hash sort")
    meter.check_time(f"sort of the set hashes of length {ell}")
    if repeats.size == 0:
        return hashes.size, None, np.empty(0, np.intp), np.empty(0, np.intp)
    shared = repeats[np.append(True, repeats[1:] != repeats[:-1])]
    sharing = repeats.size + shared.size  # words holding a shared hash
    del repeats
    held = scan_nbytes(n, ell, sharing)
    meter.charge_memory(held, f"row keys of {sharing} words sharing a set hash")
    members = _holding(hashes, shared, meter)
    del hashes
    _, _, key_dt, width = _scan_dtypes(n, ell, False)
    keys = np.empty((sharing, width), key_dt)
    for lo in range(0, sharing, 1 << HASH_CHUNK_BITS):
        hi = min(sharing, lo + (1 << HASH_CHUNK_BITS))
        keys[lo:hi] = factor_keys(n, ell, members[lo:hi])
        meter.note(phase="row keys", words_scanned=hi)
        meter.check_time(f"row keys of length {ell}")
    order, starts = sorted_runs(keys)
    del keys
    meter.note(phase="row-key sort")
    meter.check_time(f"sort of the row keys of length {ell}")
    meter.release_memory(held)
    return (1 << ell) - sharing + starts.size, members, order, starts


def factor_classes(n: int, ell: int, meter: BudgetMeter) -> tuple[int, list[np.ndarray]]:
    """Group the words of length ``ell`` by factor set.

    Returns the number of distinct sets and, in bitmap order, the ascending
    codes of every set that two or more of the words share.

    Orders up to 6 sort every word's bitmap key. Above that, each word gets
    a 32-bit set hash (``_set_hashes``) and one sort of the hashes finds
    those two or more words hold. Equal sets hash equally, so a word whose
    hash no other word holds is alone in its set; only the words holding a
    shared hash get exact row keys, which split any collision and put the
    classes in bitmap order. So the hash width sets only how many words get
    row keys: at 2^24 words, 32 bits add some (2^24)^2 / 2^33 = 2^15 pairs.
    ``class_scan_nbytes`` bounds the buffers other than those row keys,
    which are charged to the meter while they are held.

    The meter's ``phase`` names the step last run: "set hashes" (with the
    prefix length and ``words_scanned``, after each chunk of each length),
    "hash sort", "shared hashes" and "row keys" (each after each chunk of
    2^HASH_CHUNK_BITS words, with ``words_scanned``), and "row-key sort",
    one lexsort; the time is checked after each. Up to order 6 the scan
    notes nothing and checks no time: the callers check when it returns.
    """
    count, members, order, starts = _class_runs(n, ell, meter)
    ends = np.append(starts[1:], order.size)
    shared = ends - starts > 1
    runs = [order[a:b] for a, b in zip(starts[shared], ends[shared])]
    return count, runs if members is None else [members[run] for run in runs]


def scan_nbytes(n: int, ell: int, count: int) -> int:
    """An upper bound on the bytes held at once by ``factor_keys`` on a range
    of ``count`` codes, then ``sorted_runs`` (not the lists ``factor_classes``
    returns): per word, the larger of making the keys (codes, a window, keys,
    temporaries) and sorting them (keys, copy, order, buffer, run starts).
    """
    _, code_dt, key_dt, width = _scan_dtypes(n, ell, False)
    key = key_dt.itemsize * width
    making = (code_dt.itemsize * 2 + key
              + (3 * key_dt.itemsize if n <= _BITMAP_MAX_ORDER else width))
    sorting = 2 * key + 8 * 3 + width + 2
    return count * max(making, sorting)


def class_scan_nbytes(n: int, ell: int, count: int) -> int:
    """An upper bound on the bytes ``factor_classes`` holds at once on a range
    of ``count`` codes, beside the lists it returns and, above order 6, the
    row keys of the words sharing a set hash, which it charges to its meter:
    up to order 6, ``scan_nbytes``; above, per word a 4-byte hash and then a
    sorted copy and a flag (while the hashes are made, half a byte of repeat
    flags); 4 bytes per factor for their hash table, and 24 per factor of a
    chunk while it is made; per word of a chunk its code, two temporaries and
    flags, or in ``_holding`` its hash's low bits, those as an index and a
    flag; and ``_holding``'s 2^16 flags (tracemalloc: 9.0 bytes per word at
    (n, ell) = (10, 20) and (20, 20), 21 at (7, 14); per chunk word, 24 while
    the table is made and 14 while the hashes are).
    """
    if n <= _BITMAP_MAX_ORDER:
        return scan_nbytes(n, ell, count)
    code_dt = _scan_dtypes(n, ell, False)[1]
    chunk = min(count, 1 << HASH_CHUNK_BITS) * (3 * code_dt.itemsize + 4)
    table = (4 << n) + 24 * min(1 << n, 1 << HASH_CHUNK_BITS)
    return count * 9 + chunk + table + (1 << 16)


def _first_pairs(keys: np.ndarray, tags: np.ndarray) -> np.ndarray:
    """The ascending positions of the first of each distinct (key, tag)
    pair: one lexsort of the two narrow arrays, several times faster than a
    stable sort of their wide combination."""
    order = np.lexsort((keys, tags))
    a, b = keys[order], tags[order]
    fresh = np.ones(order.size, bool)
    fresh[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    return np.sort(order[fresh])


def _new_states(n: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per prefix length from n on, while there are any, the new states:
    the pairs (F(p), row(p)), row(p) = (t << n - 1) | h with t the last
    n - 1 letters of p and h its first n - 1, that no shorter prefix
    reaches, each with the least p of the length reaching it, as (keys,
    rows, codes) in ascending p.

    A letter a takes the state of p to that of p·a: the key gains the
    window t·a, t becomes the last n - 1 letters of t·a, and h stays. So a
    state new at length plen + 1 has only new predecessors at plen (from
    one reached before, it would have been reached before), and its least
    p·a is the least over them. Each length's states are therefore the
    successors of the last length's new ones, deduplicated keeping the least
    p and filtered through one bit per (key, row), set when first reached.
    Only the first length reads ``factor_keys``."""
    hlen = n - 1
    rbits = 2 * hlen  # bits per row
    tmask = (1 << hlen) - 1
    p = np.arange(1 << n, dtype=np.int64)
    keys = factor_keys(n, n, p)
    rows = (((p & tmask) << hlen) | (p >> 1)).astype(np.uint8)
    # per row and letter a: the window t·a as a key bit, and the next row
    every = np.arange(1 << rbits)
    win = ((every >> hlen) << 1)[:, None] | np.arange(2)
    gain = keys.dtype.type(1) << win.astype(keys.dtype)
    succ = (((win & tmask) << hlen) | (every & tmask)[:, None]).astype(np.uint8)
    seen = np.zeros(-(-(1 << ((1 << n) + rbits)) // 8), np.uint8)
    while True:
        ids = (keys.astype(np.int64) << rbits) | rows
        fresh = np.flatnonzero((seen[ids >> 3] >> (ids & 7).astype(np.uint8)) & 1 == 0)
        kept = fresh[_first_pairs(keys[fresh], rows[fresh])]
        if not kept.size:
            return
        ids, p, keys, rows = ids[kept], p[kept], keys[kept], rows[kept]
        np.bitwise_or.at(seen, ids >> 3, (1 << (ids & 7)).astype(np.uint8))
        yield keys, rows, p
        # the successors p·0 and p·1 of each p, in ascending p: whole table
        # rows gathered by take, each letter's keys and codes written through
        # a strided 1-D view
        succ_keys = gain.take(rows, axis=0).ravel()
        succ_keys[0::2] |= keys
        succ_keys[1::2] |= keys
        succ_p = np.empty(succ_keys.size, np.int64)
        succ_p[0::2] = p << 1
        succ_p[1::2] = succ_p[0::2] | 1
        keys, rows, p = succ_keys, succ.take(rows, axis=0).ravel(), succ_p


def word_scan(n: int, max_len: int | None, meter: BudgetMeter):
    """Yield (length, ordinary, circular) batches, each a pair (keys, codes),
    listing each factor set of the words of length n..max_len, and of the
    circular words of length 1..max_len, once, at the first length reaching
    it, with the least code of that length giving it; with max_len None,
    until no prefix state is new. One pair per length, in length order; a
    batch's ``keys`` are the ``factor_keys`` no earlier batch of its flavour
    listed, ascending, possibly none. Orders 1..4: keys are filtered through
    one row of 2^(2^n) flags per flavour, the sets listed, before the dedupe.

    Circular words shorter than n wrap repeatedly and are scanned directly;
    there the ordinary batch is empty. A longer word p has the state (F(p),
    row(p)), row(p) = (t << n - 1) | h with t its last n - 1 letters and h
    its first n - 1, which fixes both its sets: F(p), and read circularly
    F(p) | F(t·h), as the windows wrapping past its end are those of t·h.
    So one run lists both flavours. Let S be first listed in a flavour at
    length L, by c, the least word of that length giving it there. No
    shorter word shares c's state, so it is new at L; ``_new_states`` keeps
    the least word of each new state, which is c (a lesser one would give S
    too), and the listing keeps the first position of each key: S is listed
    at L with code c. A new state whose set was listed before is dropped by
    the flags. When no state is new, no longer word lists a set, and the
    scan ends. The codes hold at most 63 letters: a length past that with
    new states is refused. Each length notes its new states and their
    running total to the meter.

    ``word_scan_nbytes`` bounds the bytes it holds.
    """
    if not 1 <= n <= 4:  # the flags of listed sets hold 2^(2^n) per flavour, 64 KiB at order 4
        raise ValueError("the word scan supports orders 1..4")
    last = 64 if max_len is None else max_len  # uncapped: to the first length refused
    listed = np.zeros((2, 1 << (1 << n)), bool)

    def unlisted(flavour, keys, codes):  # the keys not listed, now listed, and their least codes
        pos = np.flatnonzero(~listed[flavour].take(keys))
        sets, first = np.unique(keys[pos], return_index=True)
        listed[flavour, sets] = True
        return sets, codes[pos[first]]

    for ell in range(1, min(n, last + 1)):  # the circular words shorter than n
        codes = np.arange(1 << ell)
        keys = factor_keys(n, ell, codes, True)
        yield ell, (keys[:0], codes[:0]), unlisted(1, keys, codes)
    # per row t·h, the windows wrapping past a word's end (none at order 1)
    wrap = factor_keys(n, 2 * n - 2, range(4 ** (n - 1))) if n > 1 else np.zeros(1, np.uint8)
    states = 0
    for ell, (keys, rows, p) in zip(range(n, last + 1), _new_states(n)):
        if ell > 63:
            raise ValueError("the scan's codes hold at most 63 letters")
        states += p.size
        meter.note(new_states=p.size, states=states)
        yield ell, unlisted(0, keys, p), unlisted(1, keys | wrap.take(rows), p)


# per order, the most new states one prefix length holds: they depend on
# nothing else (TestWordScan pins them)
_NEW_STATES_MOST = {1: 2, 2: 8, 3: 86, 4: 7496}
# bytes per new state, the larger of making the next length's states (it, its
# successors, their flag lookups, the dedupe and the batches held: tracemalloc
# at order 4, 106) and listing its sets in both flavours (52)
_STATE_BYTES = 128


def word_scan_nbytes(n: int, max_len: int | None) -> int:
    """An upper bound on the bytes ``word_scan`` holds at once: the flags of
    the sets listed and of the states reached; beside them, one length's new
    states; and 32 KiB for numpy's fixed temporaries, the short circular
    words and the per-row tables (tracemalloc: 15.4 KB at order 1).
    """
    held = 2 * (1 << (1 << n)) + (1 << ((1 << n) + 2 * n - 2)) // 8 + 1
    states = _NEW_STATES_MOST[n]
    if max_len is not None:
        states = min(states, 1 << max_len)
    return (32 << 10) + held + states * _STATE_BYTES
