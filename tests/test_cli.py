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
from bergman.suites import SUITES, SuiteConfig, run_suite


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

    def test_failing_suite_exit_one(self, runner, tmp_path):
        # at |z| in {0.9, 0.99, 0.999} the bounded kernel integral
        # 2F1(3/4, 3/4; 2; x^2) truly varies by 29.6%, so the 5% bar fails
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"tolerances": {"bounded_radii": [0.9, 0.99, 0.999]}}))
        result = runner.invoke(main, ["run", "lemma10", "--config", str(cfg),
                                      "--out", str(tmp_path)])
        assert result.exit_code == 1
        report = json.loads((tmp_path / "lemma10.json").read_text())
        assert report["passed"] is False
        failing = [c for c in report["checks"] if not c["passed"]]
        assert [c["name"] for c in failing] == \
            ["bounded_case_relative_variation"]

    def test_unknown_suite_exit_two(self, runner, tmp_path):
        result = runner.invoke(main, ["run", "mystery",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2

    def test_empty_suite_list_exit_two(self, runner):
        result = runner.invoke(main, ["run"])
        assert result.exit_code == 2

    def test_malformed_config_exit_two(self, runner, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text("[1, 2, 3]")
        result = runner.invoke(main, ["run", "geometry", "--config",
                                      str(bad), "--out", str(tmp_path)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("config,args", [
        ({"seed": "abc"}, []),
        ({"tolerances": [1, 2]}, []),
        ({}, ["--seed", "-1"]),
        ({"tolerances": {"n_triples": "abc"}}, []),
        ({"tolerances": {"n_triples": 2.5}}, []),
        ({"tolerances": {"n_triples": True}}, []),
        ({"out": 5}, []),
    ])
    def test_bad_seed_or_tolerances_exit_two(self, runner, tmp_path, config,
                                             args):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        result = runner.invoke(main, ["run", "geometry", "--config", str(cfg),
                                      "--out", str(tmp_path), *args])
        assert result.exit_code == 2
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)
        assert not (tmp_path / "geometry.json").exists()

    @pytest.mark.parametrize("config", [{"out": 5}, {"out": ["a"]},
                                        {"tolerances": {"n_triples": "abc"}}])
    def test_malformed_config_without_out_exit_two(self, runner, tmp_path,
                                                   monkeypatch, config):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        result = runner.invoke(main, ["run", "geometry", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)
        assert not list(tmp_path.glob("*/geometry.json"))

    def test_malformed_config_exit_two_in_a_fresh_process(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": 5}))
        src = str(Path(bergman.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-m", "bergman.cli", "run", "geometry",
             "--config", str(cfg)], capture_output=True, text=True,
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": src})
        assert out.returncode == 2
        assert "Traceback" not in out.stderr
        assert "out must be a string" in out.stderr

    def test_config_file_supplies_defaults(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 11,
                                   "tolerances": {"n_triples": 5000,
                                                  "n_ball_pairs": 1000}}))
        result = runner.invoke(main, ["run", "geometry", "--config",
                                      str(cfg), "--out", str(tmp_path)])
        assert result.exit_code == 0
        report = json.loads((tmp_path / "geometry.json").read_text())
        assert report["seed"] == 11
        assert report["config"]["overrides"]["n_triples"] == 5000

    @pytest.mark.parametrize("args,where", [
        (["--out", "reports"], "reports"), ([], "from_file")])
    def test_out_option_wins_over_config_file(self, runner, tmp_path,
                                              monkeypatch, args, where):
        # an explicit --out, even the default's value, beats the file's out
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": "from_file"}))
        result = runner.invoke(main, ["run", "geometry", "--config",
                                      str(cfg), *args])
        assert result.exit_code == 0
        written = sorted(p.parent.name for p in tmp_path.glob("*/geometry.json"))
        assert written == [where]

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
        cfg = SuiteConfig("lemma4", seed=9)
        first = run_suite(cfg).numeric_core()
        replay = SuiteConfig(**{"suite": first["config"]["suite"],
                                "seed": first["config"]["seed"],
                                "overrides": first["config"]["overrides"]})
        second = run_suite(replay).numeric_core()
        assert first == second

    def test_seed_changes_samples(self):
        a = run_suite(SuiteConfig("lemma4", seed=1)).numeric_core()
        b = run_suite(SuiteConfig("lemma4", seed=2)).numeric_core()
        assert a != b


class TestSuiteConfig:
    def test_unknown_name_rejected_at_parse_time(self):
        with pytest.raises(ParameterError):
            SuiteConfig("does-not-exist")

    @pytest.mark.parametrize("seed", [-1, True, 1.0, "7", None])
    def test_seed_must_be_non_negative_int(self, seed):
        with pytest.raises(ParameterError, match="seed"):
            SuiteConfig("geometry", seed=seed)

    @pytest.mark.parametrize("default,value,want", [
        (10, 7, 7), (1e-5, 2, 2.0), (1e-5, 0.5, 0.5),
        ((0.5, 1.0), [1, 0.25], (1.0, 0.25)), ((0.5,), (), ())])
    def test_override_takes_the_default_type(self, default, value, want):
        got = SuiteConfig("geometry", overrides={"k": value}).opt("k", default)
        assert got == want and type(got) is type(want)
        if isinstance(want, tuple):
            assert [type(v) for v in got] == [type(v) for v in want]

    @pytest.mark.parametrize("default,value", [
        (10, "abc"), (10, 2.5), (10, True), (10, None), (10, [1]),
        (1e-5, "1e-5"), (1e-5, False), ((0.5,), 0.5), ((0.5,), ["a"]),
        ((0.5,), "ab")])
    def test_override_of_another_type_rejected(self, default, value):
        cfg = SuiteConfig("geometry", overrides={"k": value})
        with pytest.raises(ParameterError, match="'k'"):
            cfg.opt("k", default)
        assert cfg.opt("other", default) == default

    def test_overrides_must_be_dict(self):
        with pytest.raises(ParameterError, match="tolerances"):
            SuiteConfig("geometry", overrides=[("n_triples", 10)])

    def test_echo_round_trips(self):
        cfg = SuiteConfig("geometry", seed=5, overrides={"n_triples": 10})
        echo = cfg.echo()
        again = SuiteConfig(suite=echo["suite"], seed=echo["seed"],
                            overrides=echo["overrides"])
        assert again.echo() == echo
