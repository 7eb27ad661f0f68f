"""The package's one word scan, over numpy arrays of word codes.

``factor_keys`` turns a batch of word codes into canonical factor-set keys,
``factor_classes`` groups the words of a length by factor set, ``word_scan``
lists each factor set of the words and of the circular words once, orders
1..4, from one run reading per length only the states (key, last and first
n - 1 letters) no shorter word reached, until none is new, and
``period_classes`` gives minimal periods and root classes of a batch of
words.

One scan keys all the words of a length, ``_set_hashes``, each word's key
built from its prefix's one letter at a time: up to order 6 its factor
bitmap; above, a 32-bit set hash, the wrapping sum over its distinct factors
of a fixed value from a table (Zobrist hashing). Two users sort the keys
once: ``set_count`` counts the distinct sets, T(t, n), and ``factor_classes``
lists them; above order 6 only the words holding a hash another word holds
get exact row keys, which split any collision. Equal sets hash equally, so
counts and classes are exact at any width. Each charges its meter what it
holds before it scans.

The kernels keep off numpy idioms that run per row or per element, each
measured several times slower at the scan's sizes (2^14-word chunks, a few
thousand states): a gather with a uint8 or uint32 index array goes through
``take``, as indexing first casts the index; a masked add multiplies by the
mask instead of passing ``where=``; pairs are written through the strided
views ``a[0::2]`` and ``a[1::2]``. Buffers rewritten per window or chunk are
allocated once, filled through ``out=``. With ``counting``, its one user
beside the oracle, this is the only module that imports numpy when loaded.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .budget import BudgetMeter
from .words import InvalidLength

_BITMAP_MAX_ORDER = 6     # 2^n membership bits fit one uint64


def period_classes(t: int, codes) -> tuple[np.ndarray, np.ndarray]:
    """Minimal periods and root classes (least rotations of the roots) of
    length-t words given by code, as uint64 arrays: two words are
    root-conjugate exactly when both agree. Made 2^HASH_CHUNK_BITS words at
    a time, a chunk's buffers holding 72 bytes per word (tracemalloc)."""
    if not 1 <= t <= 63:
        raise ValueError("period_classes reads words of 1..63 letters")
    codes = np.asarray(codes)
    periods, least = np.full(codes.size, t, np.uint64), np.empty(codes.size, np.uint64)
    for lo in range(0, codes.size, 1 << HASH_CHUNK_BITS):
        c = codes[lo:lo + (1 << HASH_CHUNK_BITS)].astype(np.uint64)
        per, best = periods[lo:lo + c.size], least[lo:lo + c.size]
        for q in range(t - 1, 0, -1):  # q is a period: the first t - q letters are the last
            per[(c >> q) == (c & ((1 << (t - q)) - 1))] = q
        roots = c >> (t - per)
        best[...], mask = roots, (1 << per) - 1
        for j in range(1, t):
            turn = j % per
            np.minimum(best, ((roots << turn) & mask) | (roots >> (per - turn)), out=best)
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


# The class scan fills 2^HASH_CHUNK_BITS codes of a prefix length per chunk;
# at (n, t) = (10, 20) and (11, 22), chunks of 2^13..2^16 ran within about a
# fifth of each other and 2^12 slower (best of 7, 2-core Xeon), and 2^14
# keeps a chunk's temporaries near 256 KiB
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
    """Per word of length ``ell``, by code, a key of its length-n factor
    set: up to order 6 its bitmap, as ``factor_keys`` gives it; above, the
    sum mod 2^32 (uint32) of ``_factor_hash`` over its distinct factors.
    The keys are built one letter at a time, for prefix lengths L = n + 1
    .. ell. The distinct windows of an L-letter word c are those of its first
    L - 1 letters, c >> 1, and its last window. A bitmap ORs in that
    window's bit, which a repeat leaves as it was; a hash adds its factor
    hash unless R_L[c], the window repeats. It repeats the one k letters
    back exactly when ((c >> k) ^ c) & mask == 0; for k < L - n that reads
    only the last L - 1 letters, c mod 2^(L-1), so level L - 1 decided it
    for that word, and R_L[c] is R_{L-1}[c mod 2^(L-1)] or the one new
    distance, k = L - n. Every level is written into the output, chunk by
    chunk from the top down: a chunk [lo, hi) reads only the prefixes [lo/2,
    hi/2), which no chunk above it overwrites. The flags of levels below
    ``ell`` live in one array of 2^(ell-1), each level's written over the
    last's in place (a chunk of the upper half reads the lower half, not yet
    overwritten). The table of factor hashes is made a chunk at a time.
    After each chunk the level and the codes filled at it (``words_scanned``)
    are noted to the meter, and the time is checked."""
    _, code_dt, key_dt, _ = _scan_dtypes(n, ell, False)
    bitmap = n <= _BITMAP_MAX_ORDER
    if bitmap:  # tiled to 64 entries, so a chunk's rows are 64 words wide at every order
        table = np.tile(np.left_shift(key_dt.type(1), np.arange(1 << n, dtype=key_dt)),
                        max(1, 64 >> n))
    else:
        table = np.empty(1 << n, np.uint32)
        for lo in range(0, 1 << n, 1 << HASH_CHUNK_BITS):
            hi = min(1 << n, lo + (1 << HASH_CHUNK_BITS))
            table[lo:hi] = _factor_hash(np.arange(lo, hi))
    mask = code_dt.type((1 << n) - 1)
    keys = np.empty(1 << ell, table.dtype)
    keys[:1 << n] = table[:1 << n]
    repeats = None if bitmap else np.zeros(1 << (ell - 1), bool)  # R_n: none repeats
    for level in range(n + 1, ell + 1):
        half = 1 << (level - 1)
        size = min(half, 1 << HASH_CHUNK_BITS)
        width = min(size, table.size)  # per row of a chunk, c & mask runs through a table slice
        back = code_dt.type(level - n)
        for lo in range(2 * half - size, -1, -size):
            hi = lo + size
            part = keys[lo:hi]
            prefix = keys[lo >> 1:hi >> 1]
            if lo == 0:  # the lowest chunk's prefixes lie inside it
                prefix = prefix.copy()
            part[0::2] = prefix
            part[1::2] = prefix
            col = lo & (table.size - 1)
            grid = part.reshape(-1, width)
            if bitmap:
                grid |= table[col:col + width]
            else:
                codes = np.arange(lo, hi, dtype=code_dt)
                rep = ((codes >> back) ^ codes) & mask == 0
                del codes  # not held past the chunk's masked add, nor into the next chunk
                carried = repeats[lo & (half - 1):][:size]
                if level < ell:
                    rep = np.logical_or(carried, rep, out=repeats[lo:hi])
                else:
                    rep |= carried
                grid += table[col:col + width] * ~rep.reshape(-1, width)
            meter.note(phase="set hashes", level=level, words_scanned=2 * half - lo)
            meter.check_time(f"set hashes of T({ell},{n})")
    return keys


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


def _class_runs(n: int, ell: int, meter: BudgetMeter) -> tuple[int, np.ndarray, np.ndarray]:
    """``factor_classes`` up to its lists: the number of distinct sets; the
    codes of the words given keys (every word, up to order 6) in the stable
    order sorting their keys; and where its runs of equal keys start."""
    hashes = _set_hashes(n, ell, meter)
    if n <= _BITMAP_MAX_ORDER:
        order, starts = sorted_runs(hashes)
        meter.note(phase="bitmap sort")
        meter.check_time(f"sort of the bitmaps of T({ell},{n})")
        return starts.size, order, starts
    ordered = np.sort(hashes)
    repeats = ordered[1:][ordered[1:] == ordered[:-1]]  # a hash k words hold, k - 1 times
    del ordered
    meter.note(phase="hash sort")
    meter.check_time(f"sort of the set hashes of T({ell},{n})")
    if repeats.size == 0:
        return hashes.size, np.empty(0, np.intp), np.empty(0, np.intp)
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
        meter.check_time(f"row keys of T({ell},{n})")
    order, starts = sorted_runs(keys)
    del keys
    meter.note(phase="row-key sort")
    meter.check_time(f"sort of the row keys of T({ell},{n})")
    meter.release_memory(held)
    return (1 << ell) - sharing + starts.size, members[order], starts


# Bytes per class listed beside 8 per member: tracemalloc's peak was 137-145 per
# view of the sort order (10^2..10^4 classes), and its copy adds one more
_LIST_BYTES = 304


def factor_classes(n: int, ell: int, meter: BudgetMeter) -> tuple[int, list[np.ndarray]]:
    """Group the words of length ``ell`` by factor set.

    Returns the number of distinct sets and, in bitmap order, the ascending
    codes of every set that two or more of the words share.

    Every word gets a key (``_set_hashes``), sorted once: up to order 6 its
    bitmap; above, a 32-bit set hash. Equal sets hash equally, so a word
    whose hash no other word holds is alone in its set; only the words
    holding a shared hash get exact row keys, which split any collision and
    put the classes in bitmap order. So the hash width sets only how many
    words get row keys: at 2^24 words, 32 bits add some (2^24)^2 / 2^33 =
    2^15 pairs. The meter is charged ``class_scan_nbytes`` while the scan
    runs, and the lists, copied out of the sort, before they are built. Its
    ``phase`` names the step last run, the time checked after each: "set
    hashes" (with the prefix length and ``words_scanned``, after each chunk
    of each length); up to order 6 "bitmap sort"; above, "hash sort",
    "shared hashes" and "row keys" (each after each chunk of
    2^HASH_CHUNK_BITS words, with ``words_scanned``), and "row-key sort"."""
    held = class_scan_nbytes(n, ell, 1 << ell)
    meter.charge_memory(held, f"scan of length {ell}")
    count, order, starts = _class_runs(n, ell, meter)
    ends = np.append(starts[1:], order.size)
    shared = ends - starts > 1
    starts, ends = starts[shared], ends[shared]
    lists = starts.size * _LIST_BYTES + 8 * int((ends - starts).sum())
    meter.charge_memory(lists, f"{starts.size} factor classes of length {ell}")
    classes = [order[a:b].copy() for a, b in zip(starts, ends)]
    meter.release_memory(held)
    return count, classes


def set_count(n: int, ell: int, meter: BudgetMeter) -> int:
    """T(ell, n), the number of length-n factor sets of the words of length
    ``ell``, charged before the scan. Up to order 6 the bitmaps of
    ``_set_hashes`` are sorted in place ("bitmap sort"), bytes widened to two
    (numpy sorts those 8 times faster), and neighbours that differ counted:
    a wide key and a flag per word, and a key per word of a chunk for the
    lowest chunk's prefix copy and numpy's buffer (tracemalloc, n = 1..6,
    ell = n..22: those took at most 101 KB, at (6, 15)). Above order 6, the
    count of ``factor_classes``' scan, charged ``class_scan_nbytes``."""
    if n > _BITMAP_MAX_ORDER:
        meter.charge_memory(class_scan_nbytes(n, ell, 1 << ell), f"scan of length {ell}")
        return _class_runs(n, ell, meter)[0]
    key = _scan_dtypes(n, ell, False)[2].itemsize
    meter.charge_memory(((max(2, key) + 1) << ell) + (key << HASH_CHUNK_BITS),
                        f"scan of length {ell}")
    keys = _set_hashes(n, ell, meter)
    if keys.dtype == np.uint8:
        keys = keys.astype(np.uint16)
    keys.sort()
    meter.note(phase="bitmap sort")
    meter.check_time(f"sort of the bitmaps of T({ell},{n})")
    return 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))


def scan_nbytes(n: int, ell: int, count: int) -> int:
    """An upper bound on the bytes held at once by ``factor_keys`` on
    ``count`` codes above order 6, then ``sorted_runs``: per word, the
    larger of making the row keys (codes, a window, keys, temporaries) and
    sorting them (keys, copy, order, buffer, run starts).
    """
    _, code_dt, key_dt, width = _scan_dtypes(n, ell, False)
    key = key_dt.itemsize * width
    making = code_dt.itemsize * 2 + key + width
    sorting = 2 * key + 8 * 3 + width + 2
    return count * max(making, sorting)


def class_scan_nbytes(n: int, ell: int, count: int) -> int:
    """An upper bound on the bytes the class route (``factor_classes``, and
    a count above order 6) holds at once over ``count`` words of length
    ``ell``, beside the row keys and lists it charges. Up to order 6, per
    word its key, the sort order, a sorted copy, three flags and a run
    start, and 8 KiB (tracemalloc at ell = 18: 12.0 bytes per word at order
    1, 32.5 at order 6; at most 6.5 KB more, at (1, 1)). Above, per word a
    4-byte hash, then a sorted copy and a flag (half a byte of repeat flags
    while the hashes are made); 4 bytes per factor for their hash table, 24
    per factor of a chunk while it is made; per word of a chunk its code,
    two temporaries and flags, or in ``_holding`` its hash's low bits, those
    as an index and a flag; and ``_holding``'s 2^16 flags (tracemalloc: 9.0
    bytes per word at (10, 20) and (20, 20), 21 at (7, 14); per chunk word,
    24 while the table is made and 14 while the hashes are)."""
    _, code_dt, key_dt, _ = _scan_dtypes(n, ell, False)
    if n <= _BITMAP_MAX_ORDER:
        return count * (2 * key_dt.itemsize + 19) + (8 << 10)
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
