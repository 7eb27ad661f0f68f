"""factorwords benchmark.

    python3 perfbench/run.py --workload census --seed 1 --seconds 22 --trace 0

Run from the root of a source checkout: factorwords is imported from its
``src/``. Each run

  * times a cold import of factorwords and factorwords.cli in fresh
    interpreters (``setup_s``, the start-up every CLI call pays);
  * builds the workload's inputs from ``--seed`` and makes one untimed
    warm-up call of every function it times;
  * repeats the workload's operation in a closed loop with one caller for
    about ``--seconds`` seconds, and checks every output;
  * prints a machine record and each metric by name, unit and sample count,
    writes them to ``.perfbench_out/``, and ends with one JSON line
    ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json.
With ``--trace 1`` every pass runs twice on the same inputs, untraced and
traced; the metrics are the per-layer ones, derived from the spans of the
traced passes, and ``trace.overhead_frac`` compares the two. The spans are
written to ``.perfbench_out/`` as well. End-to-end numbers come only from
untraced passes. Resource use is read with getrusage for this process and
its children only.

Exit status: 0 when every output checked out, 1 when one did not, 2 when the
benchmark cannot run (no ``src/`` with factorwords beside it).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5

IMPORT_PROBE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import factorwords
t1 = time.perf_counter()
import factorwords.cli
t2 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1, factorwords.__file__]))
"""


def _from_src(module_file: str) -> bool:
    return Path(module_file).resolve().is_relative_to(SRC.resolve())


def measure_setup() -> tuple[float, float]:
    """Median cold import time of factorwords plus factorwords.cli, and of
    factorwords.cli alone, over SETUP_PROBES fresh interpreters."""
    total, cli = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                             capture_output=True, text=True, timeout=120, check=True)
        t_pkg, t_cli, where = json.loads(out.stdout)
        if not _from_src(where):
            raise RuntimeError(f"factorwords imported from {where}, not {SRC}")
        total.append(t_pkg + t_cli)
        cli.append(t_cli)
    return statistics.median(total), statistics.median(cli)


def machine_record(loadavg: tuple[float, float, float]) -> dict:
    import numpy

    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    except OSError:
        cpu = ""
    commit = None
    if (ROOT / ".git").exists():
        try:
            got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True)
            commit = got.stdout.strip() or None
        except OSError:
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "factorwords").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_at_start": loadavg,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


class Reference:
    """A fixed pure-Python loop, timed between operations.

    On a shared box the speed of every process drifts, by up to a factor of
    two over minutes, and that drift slows this loop as much as it slows
    factorwords. Operation time over reference time therefore stays put from
    run to run where either alone does not. The loop is the benchmark's own
    code, so no change to factorwords can move it.
    """

    INTERVAL_S = 0.5  # least time between two samplings
    SHARE = 0.02      # loop time per second elapsed since the last sampling

    def __init__(self):
        self.samples: list[float] = []
        self._last: float | None = None

    def sample(self) -> None:
        """Run the loop once or, after a long operation, repeatedly for SHARE
        of the time since the last sampling, so that each second of the run
        weighs about the same in the mean."""
        now = perf_counter()
        if self._last is not None and now - self._last < self.INTERVAL_S:
            return
        budget = 0.0 if self._last is None else self.SHARE * (now - self._last)
        spent = 0.0
        while True:
            start = perf_counter()
            table = {}
            for i in range(60_000):
                table[i * 7919 % 10_007] = i
            total = 0
            for key in table:
                total += table[key]
            self.samples.append(perf_counter() - start)
            spent += self.samples[-1]
            if spent >= budget:
                break
        self._last = perf_counter()


def run_pass(workload, probe, items, reference: Reference) -> tuple[list[float], int]:
    """Time each operation of one pass, sampling the reference loop between
    operations. Returns the latencies of operations whose outputs passed
    their checks, and how many failed."""
    latencies, failed = [], 0
    for item in items:
        probe.begin("bench.op")
        start = perf_counter()
        try:
            result, ok = workload.op(probe, item), True
        except Exception:
            traceback.print_exc()
            ok = False
        stop = perf_counter()
        probe.end()
        try:
            ok = ok and workload.check(probe, item, result)
        except Exception:
            traceback.print_exc()
            ok = False
        if ok:
            latencies.append(stop - start)
        else:
            failed += 1
        reference.sample()
    return latencies, failed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    trace = bool(args.trace)
    loadavg = os.getloadavg()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    targets = json.loads((HERE / "targets.json").read_text())
    if set(targets) != {m["name"] for m in spec["per_layer"]}:
        print("perfbench/targets.json and BENCHMARK.json name different "
              "per-layer metrics", file=sys.stderr)
        return 2
    if not (SRC / "factorwords" / "__init__.py").is_file():
        print(f"no factorwords sources under {SRC}: run from a source checkout",
              file=sys.stderr)
        return 2

    setup_s, cli_import_s = measure_setup()
    sys.path.insert(0, str(SRC))
    import factorwords
    if not _from_src(factorwords.__file__):
        print(f"factorwords imported from {factorwords.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from probe import Probe, percentile
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    machine = machine_record(loadavg)
    print("machine:", json.dumps(machine), flush=True)

    probe = Probe()
    probe.tracing = trace
    workload = WORKLOADS[args.workload](probe, args.seed)
    probe.tracing = False
    # the warm-up is untimed; where it checks outputs it counts as an operation
    try:
        failed = 0 if workload.warm_up(probe) else 1
    except Exception:
        traceback.print_exc()
        failed = 1
    attempted = 1

    modes = (False, True) if trace else (False,)
    latencies = {mode: [] for mode in modes}
    reference = Reference()
    passes = 0
    began = perf_counter()
    reference.sample()
    while True:
        probe.tracing = trace
        items = workload.items(passes)
        for mode in modes:
            probe.tracing = mode
            lat, bad = run_pass(workload, probe, items, reference)
            latencies[mode] += lat
            attempted += len(items)
            failed += bad
            if not passes and not mode:
                # peak RSS as a CLI call sees it: set-up plus one operation
                # (later passes would add allocator fragmentation)
                rss_mb = {who: resource.getrusage(who).ru_maxrss / 1024
                          for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)}
        passes += 1
        elapsed = perf_counter() - began
        # stop where the next pass would end further past --seconds than
        # this one ends short of it
        if elapsed + elapsed / passes / 2 > args.seconds:
            break
    probe.tracing = False

    ops = latencies[False]
    ref_s = statistics.fmean(reference.samples)
    values = {
        "setup_s": setup_s,
        "op_cost_ref": statistics.fmean(ops) / ref_s if ops else 0.0,
        "ops_per_s": len(ops) / sum(ops) if ops else 0.0,
        "op_p50_ms": percentile(ops, 50) * 1e3,
        "op_p90_ms": percentile(ops, 90) * 1e3,
        "peak_rss_mb": rss_mb[resource.RUSAGE_SELF],
        "child_rss_mb": rss_mb[resource.RUSAGE_CHILDREN],
        "ok_ratio": 1 - failed / attempted,
        "reference_ms": ref_s * 1e3,
    }
    samples = {"setup_s": SETUP_PROBES, "op_cost_ref": len(ops), "ops_per_s": len(ops),
               "op_p50_ms": len(ops), "op_p90_ms": len(ops),
               "reference_ms": len(reference.samples)}
    if trace:
        values.update(probe.layer_metrics())
        values["cli.import_s"] = cli_import_s
        values["trace.overhead_frac"] = (sum(latencies[True]) / sum(ops) - 1
                                         if ops and latencies[True] else 0.0)

    # Raw throughput and latency are reported, not gated: on a shared box
    # they follow its speed drift (see Reference).
    units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
             "reference_ms": "ms"}
    units.update((m["name"], m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    print(f"workload {args.workload}, seed {args.seed}, {passes} passes, "
          f"{attempted} operations, {failed} failed, measured "
          f"{perf_counter() - began:.1f} s", flush=True)
    for name, value in values.items():
        n = samples.get(name)
        print(f"  {name} = {value:.6g} {units.get(name, '')}"
              + (f"  (n={n})" if n else ""))
    self_s = probe.self_times()
    for name, value in self_s.items():
        print(f"  self time of {name} spans = {value:.6g} s")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "machine": machine, "passes": passes, "attempted": attempted,
        "failed": failed, "samples": samples, "values": values,
        "self_s_by_span": self_s,
        "targets": targets if trace else None,
    }, indent=1))
    if trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            [asdict(s) for s in probe.spans]))

    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
