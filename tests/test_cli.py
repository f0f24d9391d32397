"""Tests for the bergman-bench command line and report emission."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import bergman
from bergman.cli import main
from bergman.errors import ParameterError
from bergman.reporting import check
from bergman.suites import SUITES, check_run, run_suite


@pytest.fixture()
def runner():
    return CliRunner()


def test_import_leaves_scipy_stats_unloaded():
    """scipy.stats is most of the time of ``import bergman``; only
    ``sampling.sobol_ball`` needs it, and imports it there."""
    src = str(Path(bergman.__file__).resolve().parents[1])
    code = ("import sys, bergman, bergman.cli, bergman.suites; "
            "print('scipy.stats' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


class TestList:
    def test_all_suites_listed(self, runner):
        result = runner.invoke(main, ["list"])
        assert result.exit_code == 0
        for name in SUITES:
            assert name in result.output


class TestRun:
    def test_passing_suite_exit_zero(self, runner, tmp_path):
        result = runner.invoke(main, ["run", "geometry", "--seed", "3",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0
        report = json.loads((tmp_path / "geometry.json").read_text())
        assert report["passed"] is True
        assert report["seed"] == 3
        assert len(report["checks"]) > 5

    def test_failing_suite_exit_one(self, runner, tmp_path, monkeypatch):
        def failing(seed, rep):
            rep.checks.append(check("always_fails", 1.0, 0.0, "<="))
        monkeypatch.setitem(SUITES, "failing", (failing, "fails"))
        result = runner.invoke(main, ["run", "geometry", "failing",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert json.loads((tmp_path / "geometry.json").read_text())["passed"]
        report = json.loads((tmp_path / "failing.json").read_text())
        assert report["passed"] is False
        assert [c["name"] for c in report["checks"]] == ["always_fails"]

    def test_unknown_suite_exit_two(self, runner, tmp_path):
        result = runner.invoke(main, ["run", "mystery",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "unknown suite 'mystery'" in result.output

    def test_unknown_suite_after_a_known_one_writes_nothing(self, runner,
                                                           tmp_path):
        # every name is checked before any suite runs
        out = tmp_path / "d"
        result = runner.invoke(main, ["run", "geometry", "mystery",
                                      "--out", str(out)])
        assert result.exit_code == 2
        assert "unknown suite 'mystery'" in result.output
        assert not out.exists()

    def test_empty_suite_list_exit_two(self, runner):
        result = runner.invoke(main, ["run"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("seed", ["-1", "abc", "2.5"])
    def test_bad_seed_exit_two(self, runner, tmp_path, seed):
        result = runner.invoke(main, ["run", "geometry", "--seed", seed,
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2
        message = ("seed must be a non-negative integer, not -1"
                   if seed == "-1" else f"'{seed}' is not a valid integer")
        assert message in result.output
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)
        assert not list(tmp_path.iterdir())

    def test_config_option_is_unknown(self, tmp_path):
        # in a fresh process, so that nothing but click answers it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 11}))
        src = str(Path(bergman.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-m", "bergman.cli", "run", "geometry",
             "--config", str(cfg)], capture_output=True, text=True,
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": src})
        assert out.returncode == 2
        assert "No such option" in out.stderr and "--config" in out.stderr
        assert "Traceback" not in out.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_out_defaults_to_reports(self, runner, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = runner.invoke(main, ["run", "geometry"])
        assert result.exit_code == 0
        assert (tmp_path / "reports" / "geometry.json").is_file()

    def test_csv_blocks_written(self, runner, tmp_path):
        result = runner.invoke(main, ["run", "a2-diverge",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0
        partial = (tmp_path / "a2-diverge_partial_sums.csv").read_text()
        assert partial.splitlines()[0] == "N,a2_partial,lift_partial"
        termwise = (tmp_path / "a2-diverge_termwise.csv").read_text()
        assert len(termwise.splitlines()) == 92  # header + k in [10, 100]

    def test_multiple_suites_sequential(self, runner, tmp_path):
        result = runner.invoke(main, ["run", "geometry", "lemma4",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0
        assert (tmp_path / "geometry.json").exists()
        assert (tmp_path / "lemma4.json").exists()


class TestDeterminism:
    def test_replay_reproduces_numeric_fields(self):
        first = run_suite("lemma4", 9).numeric_core()
        second = run_suite(first["suite"], first["seed"]).numeric_core()
        assert first == second

    def test_seed_changes_samples(self):
        a = run_suite("lemma4", 1).numeric_core()
        b = run_suite("lemma4", 2).numeric_core()
        assert a != b


class TestSuiteConfig:
    """A suite run is configured by its name and seed alone, and both are
    checked before the suite runs."""

    def test_unknown_name_rejected_at_parse_time(self):
        with pytest.raises(ParameterError, match="unknown suite"):
            run_suite("does-not-exist", 42)

    @pytest.mark.parametrize("seed", [-1, True, 1.0, "7", None])
    def test_seed_must_be_non_negative_int(self, seed):
        with pytest.raises(ParameterError, match="seed"):
            check_run("geometry", seed)
