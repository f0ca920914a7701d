"""Command-line behavior: output shapes, exact rendering, exit-status contract."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import qbps
from qbps.cli import main
from qbps.congruence import CHECK_NAMES, CongruenceCheck


@pytest.fixture
def runner():
    return CliRunner()


class TestVerify:
    def test_all_pass_exit_zero(self, runner):
        result = runner.invoke(main, ["verify", "--terms", "30"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert len(lines) == len(CHECK_NAMES)
        assert all(" pass" in line for line in lines)

    def test_order_zero_is_vacuous_pass(self, runner):
        result = runner.invoke(main, ["verify", "--terms", "0"])
        assert result.exit_code == 0

    def test_moduli_and_exact_labels(self, runner):
        result = runner.invoke(main, ["verify", "--terms", "10"])
        assert "mod 10" in result.output
        assert "mod 5" in result.output
        assert "mod 2" in result.output
        assert "exact" in result.output

    def test_check_filter_runs_subset(self, runner):
        result = runner.invoke(main, ["verify", "--terms", "20",
                                      "--checks", "mod10,parity_factor"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("mod10")
        assert lines[1].startswith("parity_factor")

    def test_unknown_check_is_usage_error(self, runner):
        result = runner.invoke(main, ["verify", "--checks", "nonsense"])
        assert result.exit_code == 2
        assert "unknown check" in result.output
        assert "known: mod10," in result.output

    def test_empty_check_list_is_usage_error(self, runner):
        result = runner.invoke(main, ["verify", "--checks", " , "])
        assert result.exit_code == 2

    def test_negative_terms_is_usage_error(self, runner):
        result = runner.invoke(main, ["verify", "--terms", "-3"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("terms", [str(sys.maxsize), str(10 ** 20)])
    @pytest.mark.parametrize("command", [["verify"], ["table", "--kind", "bps"],
                                         ["series", "--name", "G"]])
    def test_oversized_terms_is_usage_error(self, runner, command, terms):
        # No list can hold sys.maxsize + 1 coefficients; the option refuses the
        # order before any series is sized from it.
        result = runner.invoke(main, [*command, "--terms", terms])
        assert result.exit_code == 2, result.output
        assert "--terms" in result.output

    def test_failing_check_exits_one_and_reports_index(self, runner, monkeypatch):
        failing = CongruenceCheck("mod10", 10, 50, first_failure=(3, 7))
        monkeypatch.setattr("qbps.cli.run_all", lambda **kwargs: [failing])
        result = runner.invoke(main, ["verify", "--terms", "50"])
        assert result.exit_code == 1
        assert "fail" in result.output
        assert "first failure at q^3: 7" in result.output


class TestTable:
    def test_bps_csv_head(self, runner):
        result = runner.invoke(main, ["table", "--kind", "bps", "--terms", "2",
                                      "--format", "csv"])
        assert result.exit_code == 0
        assert result.output.splitlines() == ["n,a,b", "0,0,0", "1,-1,0", "2,-15,1"]

    def test_gw_csv_head(self, runner):
        result = runner.invoke(main, ["table", "--kind", "gw", "--terms", "1"])
        assert result.output.splitlines() == ["n,N0,N1,N1_fiber", "0,1,0,", "1,12,1,1"]

    def test_bps_single_zero_row(self, runner):
        result = runner.invoke(main, ["table", "--kind", "bps", "--terms", "0"])
        assert result.output.splitlines() == ["n,a,b", "0,0,0"]

    def test_fiber_column_renders_exact_fractions(self, runner):
        result = runner.invoke(main, ["table", "--kind", "gw", "--terms", "2",
                                      "--format", "json"])
        rows = json.loads(result.output)
        assert rows[2]["N1_fiber"] == "3/2"

    def test_csv_and_json_carry_identical_values(self, runner):
        for kind in ("gw", "bps"):
            as_csv = runner.invoke(main, ["table", "--kind", kind, "--terms", "6",
                                          "--format", "csv"])
            as_json = runner.invoke(main, ["table", "--kind", kind, "--terms", "6",
                                           "--format", "json"])
            parsed_csv = list(csv.DictReader(io.StringIO(as_csv.output)))
            parsed_json = json.loads(as_json.output)
            assert parsed_csv == parsed_json

    def test_csv_uses_lf_line_endings(self, runner):
        result = runner.invoke(main, ["table", "--kind", "bps", "--terms", "3"])
        assert "\r" not in result.output

    def test_missing_kind_is_usage_error(self, runner):
        result = runner.invoke(main, ["table", "--terms", "2"])
        assert result.exit_code == 2

    def test_bad_kind_and_format_are_usage_errors(self, runner):
        assert runner.invoke(main, ["table", "--kind", "plot"]).exit_code == 2
        assert runner.invoke(main, ["table", "--kind", "gw",
                                    "--format", "xml"]).exit_code == 2


class TestSeries:
    def test_divisor_series(self, runner):
        result = runner.invoke(main, ["series", "--name", "G", "--terms", "4"])
        assert result.output.splitlines() == ["0\t0", "1\t1", "2\t3", "3\t4", "4\t7"]

    def test_partition_series(self, runner):
        result = runner.invoke(main, ["series", "--name", "P", "--terms", "3"])
        assert result.output.splitlines() == ["0\t1", "1\t1", "2\t2", "3\t3"]

    def test_brace_series(self, runner):
        result = runner.invoke(main, ["series", "--name", "brace", "--terms", "2"])
        assert result.output.splitlines() == ["0\t0", "1\t0", "2\t10"]

    def test_twelfth_power(self, runner):
        result = runner.invoke(main, ["series", "--name", "P12", "--terms", "3"])
        assert result.output.splitlines() == ["0\t1", "1\t12", "2\t90", "3\t520"]

    def test_invariant_series(self, runner):
        a = runner.invoke(main, ["series", "--name", "A", "--terms", "2"])
        assert a.output.splitlines() == ["0\t0", "1\t-1", "2\t-15"]
        b = runner.invoke(main, ["series", "--name", "B", "--terms", "2"])
        assert b.output.splitlines() == ["0\t0", "1\t0", "2\t1"]

    def test_unknown_name_is_usage_error(self, runner):
        result = runner.invoke(main, ["series", "--name", "xyzzy"])
        assert result.exit_code == 2

    def test_name_required(self, runner):
        result = runner.invoke(main, ["series", "--terms", "2"])
        assert result.exit_code == 2


class TestPinnedOutput:
    # sha256 of the whole output: a refactor of the builders must leave every
    # byte of it unchanged.
    @pytest.mark.parametrize("args, sha256", [
        (["table", "--kind", "bps", "--terms", "2000", "--format", "csv"],
         "a07f6fac376b5102a1dc4507e97041979f8c05201689819d01a7e129433f45f0"),
        (["verify", "--terms", "300"],
         "afe312eea6fdbf4c9d2b03f7806eb36bbec42fbfdbc6309703778d58966b8a47"),
    ], ids=["table_bps_2000", "verify_300"])
    def test_output_digest(self, runner, args, sha256):
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert hashlib.sha256(result.output.encode()).hexdigest() == sha256


class TestProcessEntry:
    # The child imports the qbps under test, installed or not.
    ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(qbps.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}

    def test_module_invocation_round_trip(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qbps", "verify", "--terms", "5"],
            capture_output=True, text=True, timeout=120, env=self.ENV)
        assert proc.returncode == 0
        assert len(proc.stdout.strip().splitlines()) == len(CHECK_NAMES)

    def test_module_invocation_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qbps", "verify", "--checks", "bogus"],
            capture_output=True, text=True, timeout=120, env=self.ENV)
        assert proc.returncode == 2
