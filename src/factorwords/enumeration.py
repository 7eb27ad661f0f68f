"""Exhaustive enumeration of representable and circularly representable sets.

The search runs over states (S, v): a set S of length-n words and a vertex
v, such that some word ending in v has factor set exactly S. Appending one
letter maps (S, v) to (S + {x}, x), where x drops the first letter of v and
appends the new one. Breadth-first search from the single-word states
({u}, u) reaches exactly these states, and the depth of a state is the
length of the shortest such word minus n.

The census shards by the least member u of S. A walk covering S only
visits members of S, so shard u searches the (S, v) states whose vertices
are all at least u, indexed densely by ((S >> u) << n) | v: shard u is 2^u
times smaller than shard 0. One multi-source layered search from every
({w}, w), w >= u, gives the first depth of each set whose least member is
u; one search from ({u}, u) gives its shortest closed covering walk, whose
length is the same from every vertex the walk passes through. Each shard
reports only the sets whose least member is its u, and shards merge by
elementwise minimum, which is associative and commutative: results are
identical for any worker count.
The dense arrays take 5 bytes per state of shard 0, 2^(2^n + n) states, so
the census covers orders 1..4; order 5 is refused.

A set S is representable iff some walk covers exactly S, with shortest
witness n + (first depth). It is circularly representable iff some closed
walk of length d >= 1 returns to its start vertex having covered exactly S;
the shortest circular witness is the least such d (a lone vertex needs a
self-loop, covered by a singleton rule). The extremal witnesses are the least
of the per-set searches' witnesses over the sets of extremal depth.

The brute-force oracle shares no search with the census: the package's one
word scan, ``words.word_scan``, lists the factor sets of every word and
circular word up to a length, reading each long word as a prefix key ORed
with a suffix key from a table built once per call. It runs in-process,
so its results do not depend on the worker count. Both turn their per-set
shortest witness lengths into a result through one builder, ``_result``.
"""

from __future__ import annotations

import base64
import json
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .budget import Budget, BudgetMeter
from .factorsets import FactorSet, shortest_circular_witness, shortest_witness
from .words import Word, word_scan, word_scan_nbytes

ARRAY_MAX_ORDER = 4      # the census and the oracle cover orders 1..4
UNSEEN = 255             # depth sentinel in uint8 arrays
CHECKPOINT_VERSION = 2    # 2: dense shards are by least member, not prefix


@dataclass(frozen=True)
class EnumerationResult:
    """Per-order summary of the enumeration.

    ``sw_histogram`` maps shortest-witness length to the number of sets
    attaining it; ``scw_histogram`` is the circular analogue. ``rep_sets``
    and ``circ_sets`` (membership bitmaps, ascending) are filled on request.
    """

    n: int
    circ_count: int
    rep_count: int
    nu: int
    mu: int
    longest_circ_witness: Word
    longest_witness: Word
    sw_histogram: dict[int, int]
    scw_histogram: dict[int, int]
    rep_sets: tuple[int, ...] | None = None
    circ_sets: tuple[int, ...] | None = None

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "circ_count": self.circ_count,
            "rep_count": self.rep_count,
            "nu": self.nu,
            "mu": self.mu,
            "longest_circ_witness": str(self.longest_circ_witness),
            "longest_witness": str(self.longest_witness),
            "sw_histogram": {str(k): v for k, v in sorted(self.sw_histogram.items())},
            "scw_histogram": {str(k): v for k, v in sorted(self.scw_histogram.items())},
        }


# -- per-shard scans ---------------------------------------------------------

def _layers(n: int, u: int, starts: np.ndarray, depth: np.ndarray,
            owner: np.ndarray) -> None:
    """Layered search over shard u from the start states.

    Fills depth[((S >> u) << n) | v] with the first depth of each state
    (UNSEEN where none); only vertices >= u are entered. Each layer drops
    the states already seen and keeps one copy of each new one: the position
    stamped last into ``owner``.
    """
    wmask = (1 << n) - 1
    depth.fill(UNSEEN)
    depth[starts] = 0
    frontier = starts
    d = 0
    while frontier.size:
        d += 1
        v = frontier & wmask
        cov = frontier >> n
        nxt = []
        for b in (0, 1):
            s = ((v << 1) & wmask) | b
            c = cov
            if u:
                keep = s >= u
                s, c = s[keep], c[keep]
            nxt.append(((c | (np.int64(1) << (s - u))) << n) | s)
        ns = np.concatenate(nxt)
        ns = ns[depth[ns] == UNSEEN]
        pos = np.arange(ns.size, dtype=np.int32)
        owner[ns] = pos
        ns = ns[owner[ns] == pos]
        depth[ns] = d
        frontier = ns


def _shard_nbytes(n: int, u: int) -> int:
    """Bytes of shard u's arrays: depth and owner per state, two records."""
    return 5 * ((1 << ((1 << n) - u)) << n) + 2 * (1 << (1 << n))


def _scan_shard(n: int, u: int):
    """Search shard u; returns (set_first, circ_first) over all sets.

    set_first[S] is the first depth at which S is covered, circ_first[S] the
    first depth >= 1 of a closed walk covering S, both for the sets whose
    least member is u and UNSEEN elsewhere.
    """
    width = 1 << n
    space = (1 << (width - u)) << n
    depth = np.empty(space, np.uint8)
    owner = np.empty(space, np.int32)
    # ours[k] views the states of S = (2k + 1) << u, the sets with least
    # member u, which set_first[1 << u::2 << u] lists in the same order
    ours = depth.reshape(-1, 2, width)[:, 1]
    set_first = np.full(1 << width, UNSEEN, np.uint8)
    circ_first = np.full(1 << width, UNSEEN, np.uint8)
    w = np.arange(u, width, dtype=np.int64)
    _layers(n, u, ((np.int64(1) << (w - u)) << n) | w, depth, owner)
    set_first[1 << u::2 << u] = ours.min(axis=1)
    _layers(n, u, np.array([(1 << n) | u], np.int64), depth, owner)
    circ_first[1 << u::2 << u] = ours[:, u]
    circ_first[1 << u] = UNSEEN  # the start itself is no closed walk
    return set_first, circ_first


def _scan_shard_worker(args):
    n, u = args
    set_first, circ_first = _scan_shard(n, u)
    return u, set_first.tobytes(), circ_first.tobytes()


# -- full enumeration --------------------------------------------------------

def _check_order(n: int) -> None:
    if not 1 <= n <= ARRAY_MAX_ORDER:
        raise ValueError(f"the census covers orders 1..{ARRAY_MAX_ORDER}, not {n}")


def _result(n: int, first: np.ndarray, least_code,
            collect_sets: bool) -> EnumerationResult:
    """The per-order summary from each set's shortest witness lengths.

    ``first[0]`` and ``first[1]`` map each set bitmap to its shortest
    ordinary and circular witness lengths (0: none); ``least_code(circ,
    sets)`` gives the least code among the shortest ordinary (circ = 0) or
    circular (circ = 1) witnesses of ``sets``, which all have one length.
    """
    found = first != 0
    mu, nu = (int(f.max()) for f in first)
    hist = [{int(ell): int(c) for ell, c in zip(*np.unique(f[k], return_counts=True))}
            for f, k in zip(first, found)]
    sets = [tuple(np.flatnonzero(k).tolist()) if collect_sets else None for k in found]
    return EnumerationResult(
        n=n, circ_count=int(found[1].sum()), rep_count=int(found[0].sum()),
        nu=nu, mu=mu,
        longest_circ_witness=Word(nu, least_code(1, np.flatnonzero(first[1] == nu))),
        longest_witness=Word(mu, least_code(0, np.flatnonzero(first[0] == mu))),
        sw_histogram=hist[0], scw_histogram=hist[1],
        rep_sets=sets[0], circ_sets=sets[1],
    )


def enumerate_representable(n: int, budget: Budget | None = None,
                            collect_sets: bool = False,
                            checkpoint_path: str | None = None) -> EnumerationResult:
    """Enumerate all non-empty (circularly) representable sets of order n.

    Aggregates the sharded search: counts, the maxima mu/nu of the shortest
    (circular) witness lengths, histograms, and one extremal witness per
    flavor (the lexicographically least among the minimal-length witnesses
    of maximally-hard sets). With ``checkpoint_path`` set, per-shard results
    are appended to a restartable line-delimited file.
    """
    _check_order(n)
    budget = budget or Budget.default()
    meter = BudgetMeter(budget)
    width = 1 << n

    in_flight = sum(_shard_nbytes(n, u) for u in range(min(budget.workers, width)))
    meter.charge_memory(in_flight + 2 * (1 << width), "shard arrays")

    done: dict[int, tuple[bytes, bytes]] = {}
    if checkpoint_path:
        done = _load_checkpoint(checkpoint_path, n, width)
    pending = [(n, u) for u in range(width) if u not in done]

    pool = (ProcessPoolExecutor(max_workers=min(budget.workers, len(pending)))
            if budget.workers > 1 and len(pending) > 1 else None)
    with pool or nullcontext():
        for u, sf, cf in (pool.map if pool else map)(_scan_shard_worker, pending):
            done[u] = (sf, cf)
            if checkpoint_path:
                _append_checkpoint(checkpoint_path, n, u, sf, cf)
            meter.note(completed_shards=len(done))
            meter.check_time(f"shard {u}")

    # per set, ordinary then circular: the least first depth over the shards
    depth = np.full((2, 1 << width), UNSEEN, np.uint8)
    for records in done.values():
        for row, rec in zip(depth, records):
            np.minimum(row, np.frombuffer(rec, np.uint8), out=row)
    # lone vertices with a self-loop: the one-letter circular words
    for u in (0, width - 1):
        depth[1, 1 << u] = min(depth[1, 1 << u], 1)
    # a set first covered at depth d has shortest witness length n + d (at
    # most 24, well inside uint8); a closed walk's depth is its circular
    # witness length; 0 marks no witness (a product: np.where is slower)
    first = (depth != UNSEEN) * (depth + np.array([[n], [0]], np.uint8))

    # the least of the extremal sets' lex-least witnesses
    searches = (shortest_witness, shortest_circular_witness)
    return _result(n, first, lambda circ, sets: min(
        searches[circ](FactorSet(n, int(s))).witness.code for s in sets), collect_sets)


# -- checkpoints -------------------------------------------------------------

def _append_checkpoint(path: str, n: int, u: int, sf: bytes, cf: bytes) -> None:
    record = {"record": "shard", "u": u,
              "set_first_b64": base64.b64encode(sf).decode(),
              "circ_first_b64": base64.b64encode(cf).decode()}
    new = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", encoding="utf-8") as fh:
        if new:
            fh.write(json.dumps({"record": "header",
                                 "version": CHECKPOINT_VERSION, "n": n}) + "\n")
        fh.write(json.dumps(record) + "\n")


def _parse_record(line: bytes):
    """The record on a checkpoint line, or None when the line is torn."""
    if not line.endswith(b"\n"):
        return None
    try:
        return json.loads(line)
    except ValueError:
        return None


def _load_checkpoint(path: str, n: int, width: int) -> dict[int, tuple[bytes, bytes]]:
    """The finished shards recorded in a checkpoint file.

    Records are appended whole, so only the last one can be torn, by a run
    cut mid-write: the file is truncated to the records before it, and that
    shard is computed again. A header of another order or version, a line
    that is no record, or a shard record without both base64 depth arrays
    of this order does not match.
    """
    if not os.path.exists(path):
        return {}
    with open(path, "r+b") as fh:
        lines = fh.read().splitlines(keepends=True)
        records = [_parse_record(line) for line in lines]
        if records and records[-1] is None:
            fh.truncate(len(b"".join(lines[:-1])))
            records.pop()
    if not records:
        return {}
    mismatch = ValueError(f"checkpoint {path} does not match this run")
    if not all(isinstance(rec, dict) for rec in records):
        raise mismatch
    header, *shards = records
    if (header.get("record") != "header" or header.get("version") != CHECKPOINT_VERSION
            or header.get("n") != n):
        raise mismatch
    done: dict[int, tuple[bytes, bytes]] = {}
    for rec in shards:
        if rec.get("record") != "shard":
            continue
        u = rec.get("u")
        if not isinstance(u, int) or not 0 <= u < width:
            raise ValueError(f"checkpoint shard {u} out of range")
        try:
            sf, cf = (base64.b64decode(rec[key], validate=True)
                      for key in ("set_first_b64", "circ_first_b64"))
        except (KeyError, TypeError, ValueError):
            raise mismatch from None
        if len(sf) != 1 << width or len(cf) != 1 << width:
            raise mismatch
        done[u] = (sf, cf)
    return done


# -- brute-force oracle -------------------------------------------------------

def brute_force_nbytes(n: int, max_len: int) -> int:
    """The bytes ``brute_force_enumerate`` charges up front: its per-set
    arrays and the larger of its two word scans' buffers. Each scan charges
    its suffix table on top while it holds it."""
    return (32 << (1 << n)) + max(word_scan_nbytes(n, max_len, circ) for circ in (False, True))


def brute_force_enumerate(n: int, max_len: int, budget: Budget | None = None,
                          collect_sets: bool = False) -> EnumerationResult:
    """Independent oracle: scan every word and circular word up to max_len.

    Exact only when max_len is at least the true mu/nu for the order; the
    caller picks max_len. ``words.word_scan`` lists, length by length in
    code order, the distinct factor sets of the words (ordinary, then
    circular) with the least code giving each; the first length to list a
    set is its shortest witness length. The scan runs in-process, so the
    result does not depend on ``budget.workers``.
    """
    _check_order(n)
    if max_len < n:
        raise ValueError("max_len must be at least the order")
    budget = budget or Budget.default()
    meter = BudgetMeter(budget)
    meter.charge_memory(brute_force_nbytes(n, max_len), "scan buffers")

    # per set, ordinary then circular: the shortest witness length (0: none)
    # and the least code of that length giving the set
    first = np.zeros((2, 1 << (1 << n)), np.int64)
    least = np.zeros_like(first)
    for circ in (0, 1):
        # batches come in length then code order, so the first batch to
        # list a set has its least witness
        for ell, sets, codes in word_scan(n, max_len, bool(circ), meter=meter):
            fresh = first[circ, sets] == 0
            first[circ, sets[fresh]] = ell
            least[circ, sets[fresh]] = codes[fresh]
            meter.note(scanned=f"length {ell}")
            meter.check_time(f"length {ell}")
    return _result(n, first, lambda circ, sets: int(least[circ, sets].min()),
                   collect_sets)
