"""Structured experiment reports with JSON and CSV emission."""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class CheckRecord:
    """One asserted comparison inside a suite."""

    name: str
    value: float
    threshold: float
    op: str  # one of "<=", "<", ">=", ">", "==" (value op threshold)
    passed: bool
    info: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"name": self.name, "value": self.value,
                "threshold": self.threshold, "op": self.op,
                "passed": bool(self.passed), "info": self.info}


def check(name: str, value: float, threshold: float, op: str,
          info: dict | None = None) -> CheckRecord:
    value = float(value)
    if op == "<=":
        ok = value <= threshold
    elif op == "<":
        ok = value < threshold
    elif op == ">=":
        ok = value >= threshold
    elif op == ">":
        ok = value > threshold
    elif op == "==":
        ok = value == threshold
    else:
        raise ValueError(f"unknown comparison {op!r}")
    return CheckRecord(name=name, value=value, threshold=float(threshold),
                       op=op, passed=bool(ok), info=info or {})


def check_true(name: str, flag: bool, info: dict | None = None) -> CheckRecord:
    return CheckRecord(name=name, value=float(bool(flag)), threshold=1.0,
                       op="==", passed=bool(flag), info=info or {})


@dataclass
class ExperimentReport:
    """Everything one suite run produced."""

    suite: str
    version: str
    seed: int
    checks: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    csv_blocks: dict = field(default_factory=dict)  # name -> (header, rows)
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def numeric_core(self) -> dict:
        """The deterministic part (everything except the wall time)."""
        return {"suite": self.suite, "version": self.version,
                "seed": self.seed,
                "checks": [c.to_json() for c in self.checks],
                "notes": self.notes,
                "csv": {k: {"header": h, "rows": r}
                        for k, (h, r) in self.csv_blocks.items()}}

    def to_json(self) -> dict:
        out = self.numeric_core()
        out["passed"] = self.passed
        out["wall_time_s"] = self.wall_time_s
        return out

    def summary_lines(self) -> list:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"[{status}] {self.suite}: {c.name}: "
                         f"{c.value:.6g} {c.op} {c.threshold:.6g}")
        return lines


def emit_report(report: ExperimentReport, out_dir):
    """Write <suite>.json and one CSV file per recorded data block;
    returns the written paths."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        p = out_dir / f"{report.suite}.json"
        p.write_text(json.dumps(report.to_json(), indent=2, default=float))
        paths = [p]
        for name, (header, rows) in report.csv_blocks.items():
            p = out_dir / f"{report.suite}_{name}.csv"
            with p.open("w", newline="") as fh:
                wr = csv.writer(fh)
                wr.writerow(header)
                wr.writerows(rows)
            paths.append(p)
        return paths
    except OSError as exc:
        raise OSError(f"cannot write report under {out_dir}: {exc}") from exc
