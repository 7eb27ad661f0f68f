"""Command-line surface: formats, exit codes, schema round-trips."""

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr
from pathlib import Path

import pytest
from cli_runner import invoke

import factorwords
from factorwords import cli
from factorwords.bounds import WalkReport


@pytest.fixture
def run():
    return lambda *args: invoke(args)


class TestFactors:
    def test_circular(self, run):
        r = run("factors", "001", "--n", "2", "--circular")
        assert r.exit_code == 0 and r.output.strip() == "00,01,10"

    def test_ordinary(self, run):
        r = run("factors", "001", "--n", "2")
        assert r.exit_code == 0 and r.output.strip() == "00,01"

    def test_too_short_exits_2(self, run):
        r = run("factors", "0", "--n", "3")
        assert r.exit_code == 2
        r = run("factors", "01", "--n", "0")
        assert r.exit_code == 2 and "factor length must be positive" in r.output

    def test_json(self, run):
        r = run("factors", "0011", "--n", "3", "--circular", "-f", "json")
        doc = json.loads(r.output)
        assert doc["schema_version"] == "1"
        assert doc["factors"] == ["001", "011", "100", "110"]

    def test_unknown_flag_rejected(self, run):
        assert run("factors", "001", "--n", "2", "--bogus").exit_code == 2

    def test_table_charged_against_the_default_budget(self, run, monkeypatch):
        # the factor set of 1^70 has top member 2^70 - 1: its table is refused
        r = run("factors", "1" * 70, "--n", "70")
        assert r.exit_code == 3 and "Traceback" not in r.output
        assert "the membership table of the factor set of order 70" in r.output
        assert "progress:" in r.output
        monkeypatch.setenv("FACTORSET_BUDGET_MB", "1")
        assert run("factors", "1" * 24, "--n", "24").exit_code == 3
        assert run("factors", "0" * 24, "--n", "24").output.strip() == "0" * 24
        r = run("factors", "0" * 24, "--n", "24", "--hex")  # 2^22 hex digits
        assert r.exit_code == 3 and "the hex text of an order-24 set" in r.output

    def test_no_schema_version_option(self, run):
        r = run("factors", "001", "--n", "2", "--schema-version", "1")
        assert r.exit_code == 2 and "unrecognized arguments: --schema-version" in r.output


class TestWitness:
    def test_not_representable(self, run):
        r = run("witness", "00,11", "--n", "2")
        assert r.exit_code == 0 and r.output.strip() == "not representable"

    def test_full_circular(self, run):
        r = run("witness", "--full", "--n", "2", "--circular")
        assert r.output.strip() == "4 0011"

    def test_wrap(self, run):
        r = run("witness", "000", "--n", "3", "--circular")
        assert r.output.strip() == "1 0"

    def test_hex_spec(self, run):
        r = run("witness", "3", "--n", "2", "--hex")  # bits 0,1 = {00, 01}
        assert r.output.strip() == "3 001"

    def test_non_positive_order_exits_2(self, run):
        for order in ("-3", "0"):
            r = run("witness", "--full", "--n", order)
            assert r.exit_code == 2 and "order must be positive" in r.output
            assert "shift" not in r.output

    def test_nan_time_budget_exits_2(self, run):
        r = run("witness", "00", "--n", "2", "--max-seconds", "nan")
        assert r.exit_code == 2 and "max_seconds must be positive" in r.output

    def test_budget_exhaustion_exits_3(self, run):
        r = run("witness", "--full", "--n", "5", "--budget-mb", "16")
        assert r.exit_code == 3
        assert "budget exhausted" in r.output and "progress:" in r.output

    def test_full_order_22_honours_max_seconds(self, run):
        for extra in ((), ("--circular",)):
            started = time.monotonic()
            r = run("witness", "--full", "--n", "22", "--max-seconds", "1", *extra)
            assert r.exit_code == 3 and "budget exhausted" in r.output
            assert time.monotonic() - started < 5

    def test_full_set_charged_before_it_is_built(self, run):
        # its table alone is 2^40 bits, 128 GiB: refused, not allocated
        r = run("witness", "--full", "--n", "40", "--budget-mb", "16")
        assert r.exit_code == 3 and "the full set of order 40" in r.output
        assert "progress:" in r.output and "Traceback" not in r.output

    def test_tables_past_4300_digits_refused(self, run):
        # requests too large to write in decimal are refused as any other
        for args in (("witness", "--full", "--n", "20000", "--budget-mb", "16"),
                     ("factors", "1", "--n", "15000", "--circular")):
            r = run(*args)
            assert r.exit_code == 3 and "requested at least 2^" in r.output, args

    def test_missing_spec_exits_2(self, run):
        assert run("witness", "--n", "2").exit_code == 2

    def test_spec_with_full_exits_2(self, run):
        r = run("witness", "00", "--n", "2", "--full")
        assert r.exit_code == 2 and "exactly one" in r.output

    def test_hex_with_full_exits_2(self, run):
        # --hex describes SET_SPEC, so with --full it would be dropped unread
        r = run("witness", "--full", "--n", "2", "--hex")
        assert r.exit_code == 2 and "--hex" in r.output

    def test_set_without_a_witness_needs_no_search(self, run):
        # refused from its table, before the overlap graph is built
        r = run("witness", "fffffffff3ffffbf", "--hex", "--n", "6", "--budget-mb", "64")
        assert r.exit_code == 0 and r.output.strip() == "not representable"

    def test_dense_set_without_a_witness_answered_from_its_table(self, run):
        # the full order-16 set less 0101010101010100 and 0101010101010101:
        # its search asked for 544 MB at its start and exited 3
        x = 0b010101010101010
        spec = format(((1 << 65536) - 1) & ~(3 << 2 * x), "x")
        r = run("witness", spec, "--hex", "--n", "16", "--budget-mb", "16")
        assert r.exit_code == 0 and r.output.strip() == "not representable"

    def test_set_table_charged_before_it_is_built(self, run):
        # a word list's table is charged up to its top member: 2^30 bits
        # over 64 MiB, and 2^70 bits over the default budget
        for ones, budget in ((30, ("--budget-mb", "64")), (70, ())):
            r = run("witness", "1" * ones, "--n", str(ones), *budget)
            assert r.exit_code == 3 and "Traceback" not in r.output
            assert f"the membership table of the set of order {ones}" in r.output
            assert "progress:" in r.output

    def test_json(self, run):
        r = run("witness", "00,01", "--n", "2", "-f", "json")
        doc = json.loads(r.output)
        assert (doc["found"], doc["length"], doc["witness"]) == (True, 3, "001")
        r = run("witness", "00,11", "--n", "2", "-f", "json")
        doc = json.loads(r.output)
        assert (doc["found"], doc["length"], doc["witness"]) == (False, 0, None)

    def test_order_forty_singleton(self, run):
        zeros = "0" * 40
        r = run("witness", zeros, "--n", "40")
        assert r.exit_code == 0 and r.output.strip() == f"40 {zeros}"
        r = run("witness", zeros, "--n", "40", "--circular")
        assert r.exit_code == 0 and r.output.strip() == "1 0"


class TestEnumerate:
    def test_text(self, run):
        r = run("enumerate", "--n", "3")
        assert "|C_3| 27" in r.output and "|R_3| 121" in r.output
        assert "nu 9" in r.output and "mu 10" in r.output

    def test_json_matches_oracle(self, run):
        a = run("enumerate", "--n", "2", "-f", "json")
        b = run("enumerate", "--n", "2", "--oracle", "-f", "json")
        da, db = json.loads(a.output), json.loads(b.output)
        assert da["result"] == db["result"]
        assert da["result"]["circ_count"] == 6

    def test_order_one(self, run):
        r = run("enumerate", "--n", "1", "-f", "json")
        doc = json.loads(r.output)["result"]
        assert (doc["circ_count"], doc["rep_count"], doc["nu"], doc["mu"]) \
            == (3, 3, 2, 2)

    def test_budget_exhaustion_exits_3(self, run):
        r = run("enumerate", "--n", "4", "--budget-mb", "0")
        assert r.exit_code == 2  # zero budget is a usage error
        r = run("enumerate", "--n", "4", "--max-seconds", "1e-9")
        assert r.exit_code == 3

    def test_oracle_budget_exhaustion_exits_3(self, run):
        r = run("enumerate", "--n", "4", "--oracle", "--budget-mb", "1")
        assert r.exit_code == 3
        assert "budget exhausted" in r.output and "progress:" in r.output

    def test_oracle_runs_in_ten_mib(self, run):
        # the oracle's state flags are charged at their real size
        full = run("enumerate", "--n", "4", "--oracle", "-f", "json")
        tight = run("enumerate", "--n", "4", "--oracle", "--budget-mb", "10", "-f", "json")
        assert tight.exit_code == 0
        assert json.loads(tight.output)["result"] == json.loads(full.output)["result"]

    def test_order_five_exits_2(self, run):
        # the census covers orders 1..4: order 5 is refused whatever the budget
        for budget in ((), ("--budget-mb", "16"), ("--max-seconds", "5")):
            r = run("enumerate", "--n", "5", *budget)
            assert r.exit_code == 2 and "orders 1..4" in r.output

    def test_oracle_refuses_the_order_first(self, run):
        # the oracle gives the census's message
        for order in ("0", "5"):
            r = run("enumerate", "--n", order, "--oracle")
            assert r.exit_code == 2
            assert f"the census covers orders 1..4, not {order}" in r.output

    def test_oracle_refuses_a_truncated_row(self, run):
        # the oracle takes no scan length, so no truncated row can be asked
        # for: it scans until no longer word lists a set
        r = run("enumerate", "--n", "4", "--oracle", "--max-len", "12")
        assert r.exit_code == 2 and r.stdout == ""
        assert "unrecognized arguments: --max-len" in r.output
        r = run("enumerate", "--n", "2", "--oracle")
        assert r.exit_code == 0 and "|C_2| 6" in r.stdout and "mu 5" in r.stdout

    def test_no_workers_or_checkpoint_options(self, run, tmp_path):
        for extra in (("--workers", "2"), ("--checkpoint", str(tmp_path / "f"))):
            r = run("enumerate", "--n", "4", *extra)
            assert r.exit_code == 2 and f"unrecognized arguments: {extra[0]}" in r.output
        assert not (tmp_path / "f").exists()


class TestTTable:
    def test_csv(self, run):
        r = run("ttable", "--t-max", "4", "--n-max", "1", "-f", "csv")
        lines = r.output.splitlines()
        assert lines[0] == "n\\t,1,2,3,4"
        assert lines[1] == "1,2,3,3,3"

    def test_json_provenance(self, run):
        r = run("ttable", "--t-max", "5", "--n-max", "3", "-f", "json")
        doc = json.loads(r.output)
        cells = {(c["t"], c["n"]): c["method"] for c in doc["cells"]}
        assert cells[(5, 3)] == "both"
        assert cells[(5, 2)] == "brute"

    def test_markdown_default(self, run):
        r = run("ttable", "--t-max", "3", "--n-max", "2")
        assert r.output.startswith("| n\\t |")

    def test_max_seconds_covers_the_table(self, run):
        # no cell is dropped: the table stops with the cell it reached
        r = run("ttable", "--t-max", "22", "--n-max", "8", "--max-seconds", "0.05",
                "-f", "json")
        assert r.exit_code == 3 and "budget exhausted" in r.output
        progress = json.loads(r.output.split("progress: ", 1)[1])
        assert {"t", "n"} <= set(progress)
        assert f"T({progress['t']},{progress['n']})" in r.output


class TestBounds:
    def test_order_three(self, run):
        r = run("bounds", "--n", "3")
        assert "16 <= |C_3| = 27 <= 10^(2^1) = 100" in r.output

    def test_order_one_reports_order_two(self, run):
        r = run("bounds", "--n", "1")
        assert "4 <= |C_2| = 6 <= 10^(2^0) = 10" in r.output

    def test_order_five_published(self, run):
        r = run("bounds", "--n", "5", "-f", "json")
        doc = json.loads(r.output)
        assert (doc["lower"], doc["count"], doc["upper"]) \
            == (65536, 2466131, 10 ** 8)
        assert doc["count_source"] == "published" and doc["holds"]

    def test_unknown_order_exits_2(self, run):
        assert run("bounds", "--n", "7").exit_code == 2
        r = run("bounds", "--n", "0")
        assert r.exit_code == 2 and "order must be positive" in r.output

    def test_unknown_order_refused_before_the_bounds(self, run, monkeypatch):
        # 10^(2^39) would take hours to compute: the count source is decided first
        def unreachable(m):
            raise AssertionError("a bound was computed")
        monkeypatch.setattr(factorwords.bounds, "upper_bound", unreachable)
        monkeypatch.setattr(factorwords.bounds, "lower_bound", unreachable)
        r = run("bounds", "--n", "40")
        assert r.exit_code == 2 and "no known count for order 40" in r.output


class TestVerify:
    def test_theorem1_pass(self, run):
        r = run("verify", "--theorem1", "7", "4")
        assert r.exit_code == 0 and "PASS" in r.output

    def test_theorem1_out_of_region_needs_flag(self, run):
        assert run("verify", "--theorem1", "5", "2").exit_code == 2

    def test_theorem1_out_of_region_fails_with_flag(self, run):
        r = run("verify", "--theorem1", "5", "2", "--allow-out-of-region")
        assert r.exit_code == 1 and "FAIL" in r.output

    def test_conjecture(self, run):
        r = run("verify", "--conjecture2n", "3", "-f", "json")
        doc = json.loads(r.output)
        assert r.exit_code == 0 and doc["passed"]
        assert "period_law_misses" not in r.output and "factorizations" not in r.output

    @pytest.mark.parametrize("args, t", [("--conjecture2n 13", 26), ("--theorem1 30 20", 30)])
    def test_scans_past_the_brute_force_limit_are_usage_errors(self, run, args, t):
        # a scan longer than t = 24 is refused as a request, not as a budget (exit 3)
        r = run("verify", *args.split())
        assert r.exit_code == 2 and f"brute force scans words of length t <= 24, got t={t}" in r.output

    def test_hamiltonian(self, run):
        r = run("verify", "--hamiltonian", "25", "--seed", "7")
        assert r.exit_code == 0 and "PASS" in r.output

    @pytest.mark.parametrize("walk, optimal", [((0, 1, 0), 3), ((0, 1), 1)])
    def test_hamiltonian_fails_a_bad_report(self, run, monkeypatch, walk, optimal):
        # an optimum longer than the constructed walk, or a walk that is
        # not closed, fails the trial even when both stay under the bound
        def bad(g):
            return WalkReport(walk=walk, length=len(walk) - 1, covers_all=True,
                              bound=100, optimal_walk=(0,) * (optimal + 1),
                              optimal_length=optimal)

        monkeypatch.setattr(factorwords.bounds, "hamiltonian_walk", bad)
        r = run("verify", "--hamiltonian", "1")
        assert r.exit_code == 1 and "FAIL" in r.output

    def test_hamiltonian_honours_max_seconds(self, run):
        r = run("verify", "--hamiltonian", "50", "--max-seconds", "0.000001")
        assert r.exit_code == 3 and "PASS" not in r.output
        assert "progress:" in r.output and '"trials_done": 1' in r.output

    def test_hamiltonian_needs_a_trial(self, run):
        for trials in ("0", "-3"):
            r = run("verify", "--hamiltonian", trials)
            assert r.exit_code == 2 and "PASS" not in r.output

    def test_exactly_one_check(self, run):
        assert run("verify").exit_code == 2
        assert run("verify", "--conjecture2n", "2",
                   "--hamiltonian", "3").exit_code == 2

    def test_json_deterministic_given_seed(self, run):
        a = run("verify", "--hamiltonian", "10", "--seed", "3", "-f", "json")
        b = run("verify", "--hamiltonian", "10", "--seed", "3", "-f", "json")
        assert a.output == b.output


@pytest.mark.parametrize("args", [
    "factors 0011 --n 2 --seed 1", "factors 0011 --n 2 --budget-mb 8",
    "witness 00,01 --n 2 --seed 1", "enumerate --n 2 -f csv",
    "enumerate --n 2 --max-len 25", "verify --theorem1 5 3 --seed 4",
    "verify --conjecture2n 3 --allow-out-of-region",
])
def test_options_a_command_ignores_are_refused(run, args):
    assert run(*args.split()).exit_code == 2


@pytest.mark.parametrize("args, prefix", [
    ("witness 00 --n 2 --circ", "--circ"), ("enumerate --n 2 --budget 5", "--budget"),
    ("verify --hamiltonian 3 --se 1", "--se"), ("--vers bounds --n 3", "--vers"),
])
def test_abbreviated_options_are_refused(run, args, prefix):
    # an option is read only when spelled out in full
    r = run(*args.split())
    assert r.exit_code == 2 and r.stdout == ""
    assert f"unrecognized arguments: {prefix}" in r.output


def test_version(run):
    r = run("--version")
    assert r.exit_code == 0 and r.stdout == f"factorwords, version {factorwords.__version__}\n"


def test_no_command_exits_2(run):
    r = run()
    assert r.exit_code == 2 and r.stdout == ""


def _parses(*argv):
    """Whether the CLI's parser accepts ``argv``; nothing is run."""
    with redirect_stderr(io.StringIO()):
        try:
            cli._PARSER.parse_args(argv)
        except SystemExit:
            return False
    return True


def test_each_command_declares_only_the_options_it_reads():
    budget = {"--budget-mb", "--max-seconds"}
    want = {"factors": set(), "witness": budget, "enumerate": budget, "ttable": budget,
            "bounds": budget, "verify": budget | {"--seed"}}
    base = {"factors": ("0011", "--n", "2"), "witness": ("00", "--n", "2"),
            "enumerate": ("--n", "2"), "ttable": (), "bounds": ("--n", "2"), "verify": ()}
    assert [name for name, *_ in cli._COMMANDS] == list(want)
    for name, args in base.items():
        assert _parses(name, *args), name
        opts = {o for o in budget | {"--seed"} if _parses(name, *args, o, "1")}
        assert opts == want[name], name
        formats = [f for f in ("text", "json", "csv", "md", "xml")
                   if _parses(name, *args, "-f", f)]
        assert formats == ["text", "json"] + (["csv", "md"] if name == "ttable" else [])


def test_cli_import_starts_no_process_machinery():
    # every command pays this import; the package runs in one process
    src = Path(factorwords.__file__).parents[1]
    code = ("import sys, factorwords.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'multiprocessing' or m.startswith('concurrent.futures')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert out.stdout.strip() == "[]"



STARTUP_PROBE = """
import json, sys
before = set(sys.modules)
import factorwords, factorwords.cli
watched = json.loads(sys.argv[1])

def loaded():
    outside = {m.split(".")[0] for m in sys.modules.keys() - before}
    outside -= {*sys.stdlib_module_names, "factorwords", "cli_runner", *watched}
    return [m for m in watched if m in sys.modules] + sorted(outside)

print(json.dumps(loaded()))
from cli_runner import invoke
for args in sys.argv[2:]:
    r = invoke(args.split())
    print(json.dumps([r.exit_code, loaded(), r.output]))
"""
SCAN_MODULES = ("numpy", "factorwords.counting", "factorwords.scan")
PACKAGE_MODULES = tuple(f"factorwords.{m}" for m in (
    "bounds", "enumeration", "factorsets", "words", "counting", "scan"))


def _startup(*commands, watched=SCAN_MODULES):
    """Which of the ``watched`` modules a fresh interpreter holds after
    importing the CLI, then the exit code, the watched modules held and the
    output of each command run in it, one after another. Each list of the
    modules held ends with the top-level names of any other module loaded
    from outside the standard library, so that the CLI's dependencies are
    watched too."""
    path = os.pathsep.join((str(Path(factorwords.__file__).parents[1]),
                            str(Path(__file__).parent)))
    out = subprocess.run([sys.executable, "-c", STARTUP_PROBE, json.dumps(watched), *commands],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True)
    return [json.loads(line) for line in out.stdout.splitlines()]


def test_commands_without_an_array_scan_load_no_numpy():
    # numpy's import is most of a cold start; only ttable, verify --theorem1 and
    # --conjecture2n and enumerate --oracle scan arrays
    commands = ["factors 0011 --n 2", "witness 00,01,11 --n 2", "enumerate --n 3",
                "bounds --n 3", "verify --hamiltonian 20", "--help",
                "witness 00 --n 2 --max-seconds nan"]
    first, *runs = _startup(*commands)
    assert first == []
    assert [(code, held) for code, held, _ in runs] == [(0, [])] * 6 + [(2, [])]
    assert runs[1][2] == "4 0011\n"


def test_each_command_loads_only_the_modules_it_runs():
    # importing the CLI and --help load no package module beside budget; the
    # commands run in one interpreter, so each adds to what the last loaded
    first, *runs = _startup("--help", "verify --theorem1 5 3 --seed 4",
                            "witness 00,01,11 --n 2", "enumerate --n 3", "bounds --n 3",
                            watched=PACKAGE_MODULES)
    assert first == []
    assert [(code, held) for code, held, _ in runs] == [
        (0, []), (2, []),
        (0, ["factorwords.factorsets", "factorwords.words"]),
        (0, ["factorwords.enumeration", "factorwords.factorsets", "factorwords.words"]),
        (0, ["factorwords.bounds", "factorwords.enumeration", "factorwords.factorsets",
             "factorwords.words"]),
    ]


def test_array_scans_print_as_before():
    [_, (code, held, out)] = _startup("ttable --t-max 6 --n-max 3 -f csv")
    assert (code, held) == (0, ["numpy", "factorwords.counting", "factorwords.scan"])
    assert out == "n\\t,1,2,3,4,5,6\n1,2,3,3,3,3,3\n2,,4,7,11,12,12\n3,,,8,15,27,48\n"
    [_, (code, held, out)] = _startup("enumerate --n 3 --oracle")
    assert (code, held) == (0, ["numpy", "factorwords.scan"])
    assert out == ("n 3\n|C_3| 27\n|R_3| 121\nnu 9\nmu 10\n"
                   "longest_circ_witness 000100111\nlongest_witness 0001011100\n")
