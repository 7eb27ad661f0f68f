"""Calls into factorwords, counted per layer and optionally traced.

Every call the benchmark makes into a factorwords module goes through
``Probe.call``, so an exception is charged to the layer that raised it. With
tracing on, each call also records a span: name, start, end, parent span and
run id (one run id per benchmark operation, shared by its child spans). The
spans stay in memory; the benchmark writes them out when it ends.

Spans are recorded only around the benchmark's own calls into each module's
public functions; the layers below them (words, budget, the shard scan) get
spans when tracing moves inside the program.
"""

from __future__ import annotations

import resource
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter

LAYERS = ("enumeration", "factorsets", "counting", "bounds")


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); 0.0 when nothing was measured."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    cpu_s: float = 0.0
    info: dict = field(default_factory=dict)


class Probe:
    """Per-layer error counts, and spans while ``tracing`` is set."""

    def __init__(self):
        self.tracing = False
        self.spans: list[Span] = []
        self.errors: Counter = Counter()
        self._stack: list[int] = []
        self._run = 0

    def begin(self, name: str) -> None:
        """Open a root span (a benchmark operation or input generation)."""
        if self.tracing:
            self._run += 1
            self._stack.append(len(self.spans))
            self.spans.append(Span(name, perf_counter(), 0.0, None, self._run))

    def end(self) -> None:
        """Close the root span."""
        if self.tracing:
            self.spans[self._stack.pop()].end = perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn``; ``name`` is ``<module>.<function>`` of factorwords."""
        if not self.tracing:
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.errors[name.split(".")[0]] += 1
                raise
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._run)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        cpu0 = cpu_seconds()
        span.start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.errors[name.split(".")[0]] += 1
            span.info["error"] = True
            raise
        finally:
            span.end = perf_counter()
            span.cpu_s = cpu_seconds() - cpu0
            self._stack.pop()

    def note(self, **info) -> None:
        """Attach counts to the span of the call that just returned."""
        if self.tracing:
            self.spans[-1].info.update(info)

    def fail(self, layer: str, message: str) -> bool:
        """Record a failed output check against ``layer``; returns False."""
        self.errors[layer] += 1
        print(f"check failed [{layer}]: {message}", flush=True)
        return False

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics derived from the recorded spans."""
        spans = defaultdict(list)
        for s in self.spans:
            spans[s.name].append(s)

        def durs(name):
            return [s.end - s.start for s in spans[name]]

        def busy(name):
            return sum(durs(name))

        def total(name, key):
            return sum(s.info.get(key, 0) for s in spans[name])

        def per_busy(name, key):
            b = busy(name)
            return total(name, key) / b if b else 0.0

        def per_call(name, key):
            n = len(spans[name])
            return total(name, key) / n if n else 0.0

        def cpu_util(name):
            worker_s = sum((s.end - s.start) * s.info.get("workers", 1) for s in spans[name])
            return sum(s.cpu_s for s in spans[name]) / worker_s if worker_s else 0.0

        er, bf = "enumeration.enumerate_representable", "enumeration.brute_force_enumerate"
        ir, ic = "factorsets.is_representable", "factorsets.is_circ_representable"
        sw, scw = "factorsets.shortest_witness", "factorsets.shortest_circular_witness"
        tt, th, cj = "counting.t_table", "counting.check_theorem1", "counting.check_conjecture_2n"
        rs, hw, ub = ("bounds.random_strongly_connected", "bounds.hamiltonian_walk",
                      "bounds.upper_bound_audit")
        m = {
            f"{er}.calls": len(spans[er]),
            f"{er}.busy_s": busy(er),
            f"{er}.sets_per_s": per_busy(er, "sets"),
            f"{bf}.calls": len(spans[bf]),
            f"{bf}.busy_s": busy(bf),
            f"{bf}.words_per_s": per_busy(bf, "words"),
            f"{bf}.cpu_util": cpu_util(bf),
            f"{ir}.calls": len(spans[ir]),
            f"{ir}.busy_s": busy(ir),
            f"{ir}.p50_us": percentile(durs(ir), 50) * 1e6,
            f"{ir}.yes_ratio": per_call(ir, "yes"),
            f"{ic}.calls": len(spans[ic]),
            f"{ic}.busy_s": busy(ic),
            f"{ic}.yes_ratio": per_call(ic, "yes"),
            f"{sw}.calls": len(spans[sw]),
            f"{sw}.busy_s": busy(sw),
            f"{sw}.p50_ms": percentile(durs(sw), 50) * 1e3,
            f"{sw}.p99_ms": percentile(durs(sw), 99) * 1e3,
            f"{scw}.calls": len(spans[scw]),
            f"{scw}.busy_s": busy(scw),
            f"{scw}.p50_ms": percentile(durs(scw), 50) * 1e3,
            f"{scw}.p99_ms": percentile(durs(scw), 99) * 1e3,
            f"{scw}.max_ms": max(durs(scw), default=0.0) * 1e3,
            f"{tt}.busy_s": busy(tt),
            f"{tt}.words_per_s": per_busy(tt, "words"),
            f"{th}.calls": len(spans[th]),
            f"{th}.busy_s": busy(th),
            f"{cj}.calls": len(spans[cj]),
            f"{cj}.busy_s": busy(cj),
            f"{cj}.max_call_s": max(durs(cj), default=0.0),
            f"{rs}.busy_s": busy(rs),
            f"{hw}.calls": len(spans[hw]),
            f"{hw}.busy_s": busy(hw),
            f"{hw}.p99_ms": percentile(durs(hw), 99) * 1e3,
            f"{ub}.busy_s": busy(ub),
        }
        for layer in LAYERS:
            m[f"{layer}.errors"] = self.errors[layer]
        m["bench.self_s"] = sum(t for name, t in self.self_times().items()
                                if name.startswith("bench."))
        return m

    def self_times(self) -> dict[str, float]:
        """Per span name, total duration minus the part its direct children
        cover (children never overlap: the benchmark makes one call at a
        time)."""
        covered = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        out = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s.name] += s.end - s.start - covered[i]
        return dict(out)
