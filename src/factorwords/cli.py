"""Command-line interface.

Commands:
    factors     factor set of a word (ordinary or circular)
    witness     shortest (circular) witness of a set, or "not representable"
    enumerate   all representable / circularly representable sets of order n
    ttable      the T(t, n) table as text, CSV, Markdown or JSON
    bounds      the lower <= count <= upper sandwich for an order
    verify      exhaustive checks (equal-factor characterization, the t = 2n
                boundary conjecture, random-digraph walk bounds)

Each command takes only the options it reads: every one --format text or
json (ttable also csv and md), every one but factors --budget-mb and
--max-seconds, verify --seed with --hamiltonian and --allow-out-of-region
with --theorem1. factors charges its set's table, and its hex text when
printed, against the default memory budget (FACTORSET_BUDGET_MB or 2048).

Exit codes: 0 success, 1 verification failure, 2 usage or input error,
3 budget exhaustion. Data goes to stdout; progress notes to stderr.

The parser is the standard library's argparse, built once at import from the
table ``_COMMANDS``, so the CLI needs no package beyond numpy. An option is
read only when spelled out in full, never from a prefix, and --help has no -h
form. argparse's own usage errors (an unknown option, a missing or badly
typed value) exit 2, as the commands' own refusals do.

Each command imports the modules it runs when it runs, so importing the CLI
and --help load none of them: factors and witness load ``factorsets``,
enumerate ``enumeration``, bounds that and ``bounds``, verify --hamiltonian
``bounds``. Only the array scans load numpy: ttable, verify --theorem1 and
--conjecture2n import ``counting``, and enumerate --oracle the word scan.
Every other command, and every refusal, starts without it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .budget import Budget, BudgetExceededError, BudgetMeter

SCHEMA_VERSION = "1"

# published reference count for the one order we cannot recompute quickly
PUBLISHED_CIRC_COUNTS = {5: 2466131}


def _budget(budget_mb: int | None, max_seconds: float | None) -> Budget:
    memory = Budget.default().max_memory_bytes if budget_mb is None else budget_mb << 20
    return Budget(max_memory_bytes=memory, max_seconds=max_seconds)


def _charge_table(meter: BudgetMeter, which: str, order: int, top: int) -> None:
    """Charge the membership table of ``which``, a set of order ``order`` with
    top member ``top``, before it is built: a table can take 2^order bits."""
    meter.charge_memory((top >> 3) + 1, f"the membership table of {which} of order {order}")


def _emit_json(command: str, payload: dict) -> None:
    doc = {"schema_version": SCHEMA_VERSION, "command": command}
    doc.update(payload)
    print(json.dumps(doc, sort_keys=True))


def _fail_usage(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _guard(fn):
    """Map domain errors to the documented exit codes."""
    import functools

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except BudgetExceededError as e:
            print(f"budget exhausted: {e}", file=sys.stderr)
            print(f"progress: {json.dumps(e.progress, sort_keys=True)}", file=sys.stderr)
            sys.exit(3)
        except ValueError as e:  # InvalidLength and EmptySet among them
            _fail_usage(str(e))
    return wrapper


@_guard
def cmd_factors(word, order, circular, as_hex, output_format):
    """Print the set of length-N factors of WORD."""
    from .factorsets import circular_factors, factors
    from .words import Word
    w = Word.from_text(word)
    if order < 1:
        _fail_usage("factor length must be positive")
    meter = BudgetMeter(Budget.default())
    text = str(w.repeated_to(w.length + order - 1)) if circular else word
    top = max((text[i:i + order] for i in range(len(text) - order + 1)), default="0")
    _charge_table(meter, "the factor set", order, int(top, 2))
    fs = circular_factors(w, order) if circular else factors(w, order)
    if as_hex or output_format == "json":  # 2^order / 4 digits
        meter.charge_memory(((1 << order) + 3) >> 2, f"the hex text of an order-{order} set")
    if output_format == "json":
        _emit_json("factors", {
            "word": str(w), "n": order, "circular": circular,
            "factors": [str(x) for x in fs], "hex": fs.to_hex()})
    else:
        print(fs.to_hex() if as_hex else fs.to_text())


@_guard
def cmd_witness(set_spec, order, circular, as_hex, use_full, output_format,
                budget_mb, max_seconds):
    """Shortest word whose factor set is exactly SET_SPEC."""
    from .factorsets import FactorSet, shortest_circular_witness, shortest_witness
    budget = _budget(budget_mb, max_seconds)
    if order < 1:
        _fail_usage("order must be positive")
    if use_full == (set_spec is not None):
        _fail_usage("provide exactly one of a set and --full")
    if use_full and as_hex:
        _fail_usage("--hex reads SET_SPEC, which --full does not take")
    if not as_hex:  # a hex table is no larger than the argument giving it
        # parse refuses every other word before it builds the table
        top = (1 << order) - 1 if use_full else max(
            (int(t, 2) for t in map(str.strip, set_spec.split(","))
             if t and len(t) == order and not t.strip("01")), default=0)
        _charge_table(BudgetMeter(budget), f"the {'full ' * use_full}set", order, top)
    fs = (FactorSet.full(order) if use_full
          else FactorSet.parse(set_spec, order=order, hex_bitmap=as_hex))
    result = (shortest_circular_witness if circular else shortest_witness)(fs, budget)
    if output_format == "json":
        _emit_json("witness", {
            "set": fs.to_text(), "n": order, "circular": circular,
            "found": result.found, "length": result.length,
            "witness": str(result.witness) if result.witness else None})
    elif result.found:
        print(f"{result.length} {result.witness}")
    else:
        print("not circularly representable" if circular else "not representable")


@_guard
def cmd_enumerate(order, oracle, output_format, budget_mb, max_seconds):
    """Counts, extremal witness lengths and witnesses for one order."""
    from . import enumeration
    budget = _budget(budget_mb, max_seconds)
    started = time.monotonic()
    if oracle:  # the scan runs until no longer word lists a set
        result = enumeration.brute_force_enumerate(order, budget=budget)
    else:
        result = enumeration.enumerate_representable(order, budget)
    elapsed = round(time.monotonic() - started, 3)
    if output_format == "json":
        _emit_json("enumerate", {
            "result": result.to_json_dict(),
            "stats": {"elapsed_seconds": elapsed,
                      "memory_budget_bytes": budget.max_memory_bytes}})
    else:
        r = result
        print(f"n {r.n}")
        print(f"|C_{r.n}| {r.circ_count}")
        print(f"|R_{r.n}| {r.rep_count}")
        print(f"nu {r.nu}")
        print(f"mu {r.mu}")
        print(f"longest_circ_witness {r.longest_circ_witness}")
        print(f"longest_witness {r.longest_witness}")


@_guard
def cmd_ttable(t_max, n_max, output_format, budget_mb, max_seconds):
    """The table of T(t, n) counts."""
    from . import counting
    table = counting.t_table(t_max, n_max, _budget(budget_mb, max_seconds))
    if output_format == "json":
        _emit_json("ttable", table.to_json_dict())
    elif output_format == "csv":
        print(table.to_csv(), end="")
    else:
        print(table.to_markdown(), end="")


@_guard
def cmd_bounds(order, output_format, budget_mb, max_seconds):
    """Sandwich lower <= |C_n| <= upper for the circularly representable
    count of one order (order 1 reports the degenerate order-2 sandwich)."""
    from . import bounds as bounds_mod
    from . import enumeration
    budget = _budget(budget_mb, max_seconds)
    if order < 1:
        _fail_usage("order must be positive")
    m = max(1, order - 1)          # de Bruijn order of the construction
    target = m + 1                 # the order whose count is sandwiched
    if target <= enumeration.ARRAY_MAX_ORDER:
        count = enumeration.enumerate_representable(target, budget).circ_count
        source = "enumerated"
    elif target in PUBLISHED_CIRC_COUNTS:
        count = PUBLISHED_CIRC_COUNTS[target]
        source = "published"
    else:  # before the bounds, whose digits grow as 2^m
        _fail_usage(f"no known count for order {target}")
    lower = bounds_mod.lower_bound(m)
    upper = bounds_mod.upper_bound(m)
    ratio = bounds_mod.growth_ratio(target, count)
    ok = lower <= count <= upper
    if output_format == "json":
        _emit_json("bounds", {
            "order": target, "lower": lower, "count": count, "upper": upper,
            "count_source": source, "holds": ok,
            "growth_ratio": round(ratio, 6)})
    else:
        print(f"2^(2^{m}) = {lower} <= |C_{target}| = {count} "
              f"<= 10^(2^{m - 1}) = {upper}")
        print(f"count source: {source}; growth ratio "
              f"|C_{target}|^(1/2^{target}) = {ratio:.4f}")
    if not ok:
        sys.exit(1)


@_guard
def cmd_verify(theorem1, allow_out_of_region, conjecture2n, hamiltonian, seed,
               output_format, budget_mb, max_seconds):
    """Run one exhaustive verification; exit 1 on failure."""
    budget = _budget(budget_mb, max_seconds)
    chosen = [x is not None for x in (theorem1, conjecture2n, hamiltonian)]
    if sum(chosen) != 1:
        _fail_usage("choose exactly one of --theorem1 / --conjecture2n / --hamiltonian")
    if hamiltonian is not None and hamiltonian < 1:
        _fail_usage("--hamiltonian needs at least one trial")
    if allow_out_of_region and theorem1 is None:
        _fail_usage("--allow-out-of-region reads --theorem1")
    if hamiltonian is None and seed is not None:
        _fail_usage("--seed reads --hamiltonian")

    if theorem1 is not None:
        from . import counting
        t, n = theorem1
        report = counting.check_theorem1(
            t, n, allow_out_of_region=allow_out_of_region, budget=budget)
        payload = report.to_json_dict()
        passed = report.passed
        label = f"theorem1 t={t} n={n}" + ("" if report.in_region
                                           else " (outside validity region)")
    elif conjecture2n is not None:
        from . import counting
        report = counting.check_conjecture_2n(conjecture2n, budget=budget)
        payload = report.to_json_dict()
        passed = report.passed
        label = f"conjecture2n n={conjecture2n}"
    else:
        import random

        from . import bounds as bounds_mod
        seed = seed or 0
        rng = random.Random(seed)
        meter = BudgetMeter(budget)
        failures = []
        trials = []
        for i in range(hamiltonian):
            g = bounds_mod.random_strongly_connected(rng)
            rep = bounds_mod.hamiltonian_walk(g)
            trials.append({"vertices": g.vertex_count,
                           "optimal": rep.optimal_length, "bound": rep.bound})
            if not (rep.covers_all and rep.walk[0] == rep.walk[-1]
                    and rep.optimal_length <= min(rep.length, rep.bound)):
                failures.append({"graph": g.to_text(), **trials[-1]})
            meter.note(trials_done=i + 1)
            meter.check_time(f"trial {i + 1}")
        payload = {"trials": trials, "failures": failures, "seed": seed}
        passed = not failures
        label = f"hamiltonian trials={hamiltonian} seed={seed}"

    if output_format == "json":
        _emit_json("verify", {"check": label, "passed": passed,
                              "report": payload})
    else:
        print(f"{label}: {'PASS' if passed else 'FAIL'}")
        if not passed:
            print(json.dumps(payload, sort_keys=True))
    if not passed:
        sys.exit(1)



def _opt(*flags: str, **kwargs) -> tuple:
    return flags, kwargs


def _format(*extra: str) -> tuple:
    return _opt("--format", "-f", dest="output_format", default="text",
                choices=("text", "json", *extra), help="Output format.")


_HELP = _opt("--help", action="help", help="Show this message and exit.")
_ORDER = {"dest": "order", "type": int, "required": True, "metavar": "N"}
_FLAG = {"action": "store_true"}
_BUDGET = (
    _opt("--budget-mb", type=int, metavar="MIB",
         help="Memory budget in MiB (default: FACTORSET_BUDGET_MB or 2048)."),
    _opt("--max-seconds", type=float, metavar="SECONDS", help="Wall-clock budget in seconds."),
)

# each command's name, function and options besides --help
_COMMANDS = (
    ("factors", cmd_factors, (
        _opt("word", metavar="WORD"),
        _opt("--n", **_ORDER, help="Factor length."),
        _opt("--circular", **_FLAG, help="Read the word circularly."),
        _opt("--hex", dest="as_hex", **_FLAG, help="Print the hex bitmap."),
        _format())),
    ("witness", cmd_witness, (
        _opt("set_spec", nargs="?", metavar="SET_SPEC"),
        _opt("--n", **_ORDER, help="Word length of the set."),
        _opt("--circular", **_FLAG, help="Search for a circular witness."),
        _opt("--hex", dest="as_hex", **_FLAG, help="SET_SPEC is a hex bitmap of 2^n bits."),
        _opt("--full", dest="use_full", **_FLAG, help="Use the full set."),
        _format(), *_BUDGET)),
    ("enumerate", cmd_enumerate, (
        _opt("--n", **_ORDER, help="Order to enumerate."),
        _opt("--oracle", **_FLAG, help="Use the brute-force scan instead of the graph search."),
        _format(), *_BUDGET)),
    ("ttable", cmd_ttable, (
        _opt("--t-max", type=int, default=16, metavar="T",
             help="Longest word length (default: 16)."),
        _opt("--n-max", type=int, default=8, metavar="N",
             help="Largest factor length (default: 8)."),
        _format("csv", "md"), *_BUDGET)),
    ("bounds", cmd_bounds, (
        _opt("--n", **_ORDER, help="Order to report on."),
        _format(), *_BUDGET)),
    ("verify", cmd_verify, (
        _opt("--theorem1", nargs=2, type=int, metavar=("T", "N"),
             help="Check the equal-factor characterization."),
        _opt("--allow-out-of-region", **_FLAG,
             help="Scan --theorem1 outside its validity region."),
        _opt("--conjecture2n", type=int, metavar="N", help="Scan the t = 2n boundary conjecture."),
        _opt("--hamiltonian", type=int, metavar="TRIALS",
             help="Random strongly connected digraphs vs the walk bound."),
        _opt("--seed", type=int, help="Seed of the --hamiltonian digraphs (default: 0)."),
        _format(), *_BUDGET)),
)


def _build() -> argparse.ArgumentParser:
    # no parser takes an option's prefix for the option, or -h for --help
    top = argparse.ArgumentParser(
        prog="factorwords", allow_abbrev=False, add_help=False,
        description="Factor sets of binary words: representability, witnesses, counts.")
    top.add_argument(*_HELP[0], **_HELP[1])
    top.add_argument("--version", action="version", version=f"factorwords, version {__version__}",
                     help="Show the version and exit.")
    commands = top.add_subparsers(metavar="COMMAND", required=True)
    for name, run, options in _COMMANDS:
        doc = " ".join((run.__doc__ or "").split())
        parser = commands.add_parser(name, help=doc, description=doc,
                                     allow_abbrev=False, add_help=False)
        for flags, kwargs in (_HELP, *options):
            parser.add_argument(*flags, **kwargs)
        parser.set_defaults(run=run)
    return top


_PARSER = _build()


def main(argv: list[str] | None = None) -> None:
    """Run the command ``argv`` names (default: the process's arguments)."""
    args = vars(_PARSER.parse_args(argv))
    args.pop("run")(**args)


if __name__ == "__main__":
    main()
