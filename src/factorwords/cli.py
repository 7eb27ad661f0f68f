"""Command-line interface.

Commands:
    factors     factor set of a word (ordinary or circular)
    witness     shortest (circular) witness of a set, or "not representable"
    enumerate   all representable / circularly representable sets of order n
    ttable      the T(t, n) table as text, CSV, Markdown or JSON
    bounds      the lower <= count <= upper sandwich for an order
    verify      exhaustive checks (equal-factor characterization, the t = 2n
                boundary conjecture, random-digraph walk bounds)

Exit codes: 0 success, 1 verification failure, 2 usage or input error,
3 budget exhaustion. Data goes to stdout; progress notes to stderr.
"""

from __future__ import annotations

import json
import random
import sys
import time
from dataclasses import dataclass

import click

from . import __version__
from . import bounds as bounds_mod
from . import counting, enumeration
from .budget import Budget, BudgetExceededError, BudgetMeter
from .factorsets import (EmptySet, FactorSet, circular_factors, factors,
                         shortest_circular_witness, shortest_witness)
from .words import InvalidLength, Word

SCHEMA_VERSION = "1"

# published reference count for the one order we cannot recompute quickly
PUBLISHED_CIRC_COUNTS = {5: 2466131}


@dataclass(frozen=True)
class RunConfig:
    """Resolved per-invocation settings."""

    output_format: str
    budget: Budget
    seed: int
    schema_version: str


def _common_options(fn):
    fn = click.option("--format", "-f", "output_format", default="text",
                      type=click.Choice(["text", "json", "csv", "md"]),
                      help="Output format.")(fn)
    fn = click.option("--budget-mb", default=None, type=int,
                      help="Memory budget in MiB (default: "
                           "FACTORSET_BUDGET_MB or 2048).")(fn)
    fn = click.option("--max-seconds", default=None, type=float,
                      help="Wall-clock budget in seconds.")(fn)
    fn = click.option("--seed", default=0, show_default=True,
                      help="Seed for randomized suites.")(fn)
    fn = click.option("--schema-version", default=SCHEMA_VERSION,
                      type=click.Choice([SCHEMA_VERSION]),
                      help="JSON schema version tag.")(fn)
    return fn


def _config(output_format, budget_mb, max_seconds, seed,
            schema_version) -> RunConfig:
    if budget_mb is not None:
        budget = Budget(max_memory_bytes=budget_mb << 20, max_seconds=max_seconds)
    else:
        budget = Budget(max_memory_bytes=Budget.default().max_memory_bytes,
                        max_seconds=max_seconds)
    return RunConfig(output_format, budget, seed, schema_version)


def _emit_json(cfg: RunConfig, command: str, payload: dict) -> None:
    doc = {"schema_version": cfg.schema_version, "command": command}
    doc.update(payload)
    click.echo(json.dumps(doc, sort_keys=True))


def _fail_usage(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _guard(fn):
    """Map domain errors to the documented exit codes."""
    import functools

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except BudgetExceededError as e:
            click.echo(f"budget exhausted: {e}", err=True)
            click.echo(f"progress: {json.dumps(e.progress, sort_keys=True)}", err=True)
            sys.exit(3)
        except (InvalidLength, EmptySet, ValueError) as e:
            _fail_usage(str(e))
    return wrapper


@click.group()
@click.version_option(version=__version__, prog_name="factorwords")
def main():
    """Factor sets of binary words: representability, witnesses, counts."""


@main.command("factors")
@click.argument("word")
@click.option("--n", "order", type=int, required=True, help="Factor length.")
@click.option("--circular", is_flag=True, help="Read the word circularly.")
@click.option("--hex", "as_hex", is_flag=True, help="Print the hex bitmap.")
@_common_options
@_guard
def cmd_factors(word, order, circular, as_hex, **opts):
    """Print the set of length-N factors of WORD."""
    cfg = _config(**opts)
    w = Word.from_text(word)
    fs = circular_factors(w, order) if circular else factors(w, order)
    if cfg.output_format == "json":
        _emit_json(cfg, "factors", {
            "word": str(w), "n": order, "circular": circular,
            "factors": [str(x) for x in fs], "hex": fs.to_hex()})
    else:
        click.echo(fs.to_hex() if as_hex else fs.to_text())


@main.command("witness")
@click.argument("set_spec", required=False)
@click.option("--n", "order", type=int, required=True, help="Word length of the set.")
@click.option("--circular", is_flag=True, help="Search for a circular witness.")
@click.option("--hex", "as_hex", is_flag=True,
              help="SET_SPEC is a hex bitmap of 2^n bits.")
@click.option("--full", "use_full", is_flag=True, help="Use the full set.")
@_common_options
@_guard
def cmd_witness(set_spec, order, circular, as_hex, use_full, **opts):
    """Shortest word whose factor set is exactly SET_SPEC."""
    cfg = _config(**opts)
    if use_full:
        fs = FactorSet.full(order)
    elif set_spec is None:
        _fail_usage("provide a set or --full")
    else:
        fs = FactorSet.parse(set_spec, order=order, hex_bitmap=as_hex)
    result = (shortest_circular_witness if circular else shortest_witness)(fs, cfg.budget)
    if cfg.output_format == "json":
        _emit_json(cfg, "witness", {
            "set": fs.to_text(), "n": order, "circular": circular,
            "found": result.found, "length": result.length,
            "witness": str(result.witness) if result.witness else None})
    elif result.found:
        click.echo(f"{result.length} {result.witness}")
    else:
        click.echo("not circularly representable" if circular
                   else "not representable")


@main.command("enumerate")
@click.option("--n", "order", type=int, required=True, help="Order to enumerate.")
@click.option("--oracle", is_flag=True,
              help="Use the brute-force scan instead of the graph search.")
@click.option("--max-len", type=int, default=None,
              help="Scan limit for --oracle (default: a known-safe bound).")
@_common_options
@_guard
def cmd_enumerate(order, oracle, max_len, **opts):
    """Counts, extremal witness lengths and witnesses for one order."""
    cfg = _config(**opts)
    started = time.monotonic()
    enumeration.check_order(order)
    if oracle:
        safe = {1: 3, 2: 6, 3: 11, 4: 25}    # at least the order's mu and nu
        result = enumeration.brute_force_enumerate(
            order, safe[order] if max_len is None else max_len, cfg.budget)
    else:
        result = enumeration.enumerate_representable(order, cfg.budget)
    elapsed = round(time.monotonic() - started, 3)
    if cfg.output_format == "json":
        _emit_json(cfg, "enumerate", {
            "result": result.to_json_dict(),
            "stats": {"elapsed_seconds": elapsed,
                      "memory_budget_bytes": cfg.budget.max_memory_bytes}})
    else:
        r = result
        click.echo(f"n {r.n}")
        click.echo(f"|C_{r.n}| {r.circ_count}")
        click.echo(f"|R_{r.n}| {r.rep_count}")
        click.echo(f"nu {r.nu}")
        click.echo(f"mu {r.mu}")
        click.echo(f"longest_circ_witness {r.longest_circ_witness}")
        click.echo(f"longest_witness {r.longest_witness}")


@main.command("ttable")
@click.option("--t-max", type=int, default=16, show_default=True)
@click.option("--n-max", type=int, default=8, show_default=True)
@_common_options
@_guard
def cmd_ttable(t_max, n_max, **opts):
    """The table of T(t, n) counts."""
    cfg = _config(**opts)
    table = counting.t_table(t_max, n_max, cfg.budget)
    if cfg.output_format == "json":
        _emit_json(cfg, "ttable", table.to_json_dict())
    elif cfg.output_format == "csv":
        click.echo(table.to_csv(), nl=False)
    else:
        click.echo(table.to_markdown(), nl=False)


@main.command("bounds")
@click.option("--n", "order", type=int, required=True, help="Order to report on.")
@_common_options
@_guard
def cmd_bounds(order, **opts):
    """Sandwich lower <= |C_n| <= upper for the circularly representable
    count of one order (order 1 reports the degenerate order-2 sandwich)."""
    cfg = _config(**opts)
    if order < 1:
        _fail_usage("order must be positive")
    m = max(1, order - 1)          # de Bruijn order of the construction
    target = m + 1                 # the order whose count is sandwiched
    lower = bounds_mod.lower_bound(m)
    upper = bounds_mod.upper_bound(m)
    if target <= enumeration.ARRAY_MAX_ORDER:
        count = enumeration.enumerate_representable(target, cfg.budget).circ_count
        source = "enumerated"
    elif target in PUBLISHED_CIRC_COUNTS:
        count = PUBLISHED_CIRC_COUNTS[target]
        source = "published"
    else:
        _fail_usage(f"no known count for order {target}")
    ratio = bounds_mod.growth_ratio(target, count)
    ok = lower <= count <= upper
    if cfg.output_format == "json":
        _emit_json(cfg, "bounds", {
            "order": target, "lower": lower, "count": count, "upper": upper,
            "count_source": source, "holds": ok,
            "growth_ratio": round(ratio, 6)})
    else:
        click.echo(f"2^(2^{m}) = {lower} <= |C_{target}| = {count} "
                   f"<= 10^(2^{m - 1}) = {upper}")
        click.echo(f"count source: {source}; growth ratio "
                   f"|C_{target}|^(1/2^{target}) = {ratio:.4f}")
    if not ok:
        sys.exit(1)


@main.command("verify")
@click.option("--theorem1", nargs=2, type=int, default=None,
              help="t n: check the equal-factor characterization.")
@click.option("--allow-out-of-region", is_flag=True,
              help="Scan --theorem1 outside its validity region.")
@click.option("--conjecture2n", type=int, default=None,
              help="n: scan the t = 2n boundary conjecture.")
@click.option("--hamiltonian", type=int, default=None,
              help="TRIALS: random strongly connected digraphs vs the walk bound.")
@_common_options
@_guard
def cmd_verify(theorem1, allow_out_of_region, conjecture2n, hamiltonian, **opts):
    """Run one exhaustive verification; exit 1 on failure."""
    cfg = _config(**opts)
    chosen = [x is not None for x in (theorem1, conjecture2n, hamiltonian)]
    if sum(chosen) != 1:
        _fail_usage("choose exactly one of --theorem1 / --conjecture2n / --hamiltonian")
    if hamiltonian is not None and hamiltonian < 1:
        _fail_usage("--hamiltonian needs at least one trial")

    if theorem1 is not None:
        t, n = theorem1
        report = counting.check_theorem1(
            t, n, allow_out_of_region=allow_out_of_region, budget=cfg.budget)
        payload = report.to_json_dict()
        passed = report.passed
        label = f"theorem1 t={t} n={n}" + ("" if report.in_region
                                           else " (outside validity region)")
    elif conjecture2n is not None:
        report = counting.check_conjecture_2n(conjecture2n, budget=cfg.budget)
        payload = report.to_json_dict()
        passed = report.passed
        label = f"conjecture2n n={conjecture2n}"
    else:
        rng = random.Random(cfg.seed)
        meter = BudgetMeter(cfg.budget)
        failures = []
        trials = []
        for i in range(hamiltonian):
            g = bounds_mod.random_strongly_connected(rng)
            rep = bounds_mod.hamiltonian_walk(g)
            trials.append({"vertices": g.vertex_count,
                           "optimal": rep.optimal_length, "bound": rep.bound})
            if rep.optimal_length > rep.bound or not rep.covers_all:
                failures.append({"graph": g.to_text(), **trials[-1]})
            meter.note(trials_done=i + 1)
            meter.check_time(f"trial {i + 1}")
        payload = {"trials": trials, "failures": failures, "seed": cfg.seed}
        passed = not failures
        label = f"hamiltonian trials={hamiltonian} seed={cfg.seed}"

    if cfg.output_format == "json":
        _emit_json(cfg, "verify", {"check": label, "passed": passed,
                                   "report": payload})
    else:
        click.echo(f"{label}: {'PASS' if passed else 'FAIL'}")
        if not passed:
            click.echo(json.dumps(payload, sort_keys=True))
    if not passed:
        sys.exit(1)


if __name__ == "__main__":
    main()
