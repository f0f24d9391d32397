"""Command-line experiment runner: `bergman-bench run <suite> ...`."""
from __future__ import annotations

import sys
from pathlib import Path

import click

from ._version import __version__
from .errors import ParameterError
from .reporting import emit_report
from .suites import SUITES, check_run, run_suite


@click.group()
@click.version_option(version=__version__, prog_name="bergman-bench")
def main():
    """Experiment suites for weighted Bergman spaces: Lipschitz witness
    characterizations, symmetric lifting, and the supporting geometry
    and quadrature checks.  A suite is a name and a seed: its sizes are
    the ones its bars were derived for.  Exit status: 0 all checks
    passed, 1 some check failed, 2 usage error; the suite names and the
    seed are checked before any suite runs."""


@main.command("list")
def list_suites():
    """Print the available suites with what each one checks."""
    width = max(len(name) for name in SUITES)
    for name, (_, description) in SUITES.items():
        click.echo(f"{name:<{width}}  {description}")


@main.command()
@click.argument("suites", nargs=-1, required=True)
@click.option("--seed", type=int, default=42, help="Sampling seed "
              "(default 42; every numeric result is reproducible from it).")
@click.option("--out", "out_dir", type=click.Path(path_type=Path),
              default="reports", help="Directory for the JSON report and "
              "CSV plot data (default reports).")
def run(suites, seed, out_dir):
    """Run one or more suites sequentially and write their reports.

    SUITES are names from `bergman-bench list`.  Each suite runs at the
    sample sizes, radii and scan points its bars were derived for; the
    seed is its only setting.
    """
    try:  # every name and the seed, before any suite runs
        for name in suites:
            check_run(name, seed)
    except ParameterError as exc:
        raise click.UsageError(str(exc)) from exc

    all_passed = True
    for name in suites:
        report = run_suite(name, seed)
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
