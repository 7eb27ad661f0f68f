"""Command-line surface: formats, exit codes, schema round-trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import factorwords
from factorwords.cli import main


@pytest.fixture
def run():
    runner = CliRunner()

    def invoke(*args):
        return runner.invoke(main, list(args))
    return invoke


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

    def test_json(self, run):
        r = run("factors", "0011", "--n", "3", "--circular", "-f", "json")
        doc = json.loads(r.output)
        assert doc["schema_version"] == "1"
        assert doc["factors"] == ["001", "011", "100", "110"]

    def test_unknown_flag_rejected(self, run):
        assert run("factors", "001", "--n", "2", "--bogus").exit_code == 2


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

    def test_budget_exhaustion_exits_3(self, run):
        r = run("witness", "--full", "--n", "5", "--budget-mb", "16")
        assert r.exit_code == 3
        assert "budget exhausted" in r.output and "progress:" in r.output

    def test_missing_spec_exits_2(self, run):
        assert run("witness", "--n", "2").exit_code == 2


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
        # the oracle's suffix tables are charged at their real size
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
        # with or without --max-len, the oracle gives the census's message
        for order in ("0", "5"):
            for scan in ((), ("--max-len", "30")):
                r = run("enumerate", "--n", order, "--oracle", *scan)
                assert r.exit_code == 2
                assert f"the census covers orders 1..4, not {order}" in r.output

    def test_no_workers_or_checkpoint_options(self, run, tmp_path):
        for extra in (("--workers", "2"), ("--checkpoint", str(tmp_path / "f"))):
            r = run("enumerate", "--n", "4", *extra)
            assert r.exit_code == 2 and "No such option" in r.output
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

    def test_hamiltonian(self, run):
        r = run("verify", "--hamiltonian", "25", "--seed", "7")
        assert r.exit_code == 0 and "PASS" in r.output

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


def test_cli_import_starts_no_process_machinery():
    # every command pays this import; the package runs in one process
    src = Path(factorwords.__file__).parents[1]
    code = ("import sys, factorwords.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'multiprocessing' or m.startswith('concurrent.futures')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert out.stdout.strip() == "[]"
