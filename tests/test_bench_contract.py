"""The benchmark's calls into ``bergman`` must keep working: every
workload in ``perfbench/workloads.py`` sets up, runs round 0 at seed 101
and passes every check, its global checks included.

The benchmark pins interfaces that the library's own tests do not all
call in its way (positional kernel arguments, keyword options of the
grids and witnesses).  A break there shows here, not first as a failed
or incorrect benchmark run.  Operations marked ``fault`` are held to the
same standard: the faults they name are fixed.  About 3.5 s, one thread.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 101


def _load_workloads():
    """``workloads.py`` by path; it imports its sibling ``reference``."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "_perfbench_workloads", PERFBENCH / "workloads.py")
        mod = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = mod  # its dataclasses look it up there
        spec.loader.exec_module(mod)
    finally:
        sys.path.remove(str(PERFBENCH))
    return mod


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_round_zero_runs_and_checks(name):
    wl = workloads.WORKLOADS[name](SEED)
    wl.setup()
    ops = wl.round_ops(0)
    assert ops
    bad = {}
    for op in ops:
        check = wl.check(op, wl.run(op))
        if not check.ok:
            bad[op.label] = check.note
    for gname, check in wl.global_checks([0]).items():
        if not check.ok:
            bad[gname] = f"worst rel err {check.rel_err:.3g}"
    assert not bad
