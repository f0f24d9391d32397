"""Command-line experiment runner: `bergman-bench run <suite> ...`."""
from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from ._version import __version__
from .errors import ParameterError
from .reporting import emit_report
from .suites import SUITES, SuiteConfig, run_suite


@click.group()
@click.version_option(version=__version__, prog_name="bergman-bench")
def main():
    """Experiment suites for weighted Bergman spaces: Lipschitz witness
    characterizations, symmetric lifting, and the supporting geometry
    and quadrature checks.  Exit status: 0 all checks passed, 1 some
    check failed, 2 usage or configuration error."""


@main.command("list")
def list_suites():
    """Print the available suites with what each one checks."""
    width = max(len(name) for name in SUITES)
    for name, (_, description) in SUITES.items():
        click.echo(f"{name:<{width}}  {description}")


def _load_config_file(path: Path) -> dict:
    try:
        obj = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise click.UsageError(f"config {path} must hold a JSON object")
    if not isinstance(obj.get("out", ""), str):
        raise click.UsageError(f"config {path}: out must be a string, "
                               f"not {obj['out']!r}")
    return obj


@main.command()
@click.argument("suites", nargs=-1, required=True)
@click.option("--seed", type=int, default=None, help="Sampling seed "
              "(default 42; every numeric result is reproducible from it).")
@click.option("--out", "out_dir", type=click.Path(path_type=Path),
              default=None, help="Directory for the JSON report and CSV "
              "plot data (default: the config file's out, else reports).")
@click.option("--config", "config_file", type=click.Path(path_type=Path,
              exists=True, dir_okay=False), default=None,
              help="JSON file with {seed, out, tolerances} defaults; "
                   "command-line options win.")
def run(suites, seed, out_dir, config_file):
    """Run one or more suites sequentially and write their reports.

    SUITES are names from `bergman-bench list`.
    """
    file_cfg = _load_config_file(config_file) if config_file else {}
    eff_seed = seed if seed is not None else file_cfg.get("seed", 42)
    if out_dir is None:
        out_dir = Path(file_cfg.get("out", "reports"))
    overrides = file_cfg.get("tolerances", {})

    all_passed = True
    for name in suites:
        try:  # a tolerance's type is checked where the suite reads it
            report = run_suite(SuiteConfig(suite=name, seed=eff_seed,
                                           overrides=overrides))
        except ParameterError as exc:
            raise click.UsageError(str(exc)) from exc
        for line in report.summary_lines():
            click.echo(line)
        try:
            paths = emit_report(report, out_dir)
        except OSError as exc:
            raise click.UsageError(str(exc)) from exc
        click.echo(f"{name}: {'PASS' if report.passed else 'FAIL'} "
                   f"in {report.wall_time_s:.1f}s -> "
                   f"{', '.join(str(p) for p in paths)}")
        all_passed = all_passed and report.passed
    sys.exit(0 if all_passed else 1)


if __name__ == "__main__":
    main()
