"""Benchmark of bergman's witness, lifting and growth workloads.

Run from the root of the repository:

    python3 perfbench/run.py --workload disk-witness --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1              # every workload
    python3 perfbench/run.py --workload all --seed 1 --trace 1    # per-layer figures

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a run whose rounds alternate between untraced and traced.  A
single workload prints, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""
from __future__ import annotations

import os

# one thread per process, BLAS included; set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("disk-witness", "ball-witness", "lifting", "growth")
SETUP_PROBES = 3      # fresh processes timed from spawn to ready; median
WORKER_TIMEOUT_S = 170


def _load_workloads():
    """Import bergman from the checkout's ``src``; None when it is absent."""
    if not (SRC / "bergman" / "__init__.py").is_file():
        print(f"no bergman sources under {SRC}", file=sys.stderr)
        return None
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import bergman from {SRC}: {exc}", file=sys.stderr)
        return None
    return workloads


def _units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("ratio", "rel_err")):
        return "ratio"
    return "count"


def _spawn(name: str, seed: int, seconds: float, trace: bool, stage: str):
    """Start a fresh process that sets the workload up, prints "ready" and
    then, for the "worker" stage, runs it; returns (process, seconds from
    spawn to ready)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace)), "--stage", stage]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        proc.communicate(timeout=WORKER_TIMEOUT_S)
        raise RuntimeError(f"{name} did not set up (exit {proc.returncode})")
    return proc, ready


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Time the set-up in fresh processes, run the workload in the last of
    them and return its result with ``setup_s`` added (untraced runs)."""
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES - 1):
            probe, ready = _spawn(name, seed, seconds, trace, "probe")
            probe.communicate(timeout=WORKER_TIMEOUT_S)
            setups.append(ready)
    worker, ready = _spawn(name, seed, seconds, trace, "worker")
    try:
        out, _ = worker.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        worker.kill()
        worker.communicate()
        raise
    lines = out.strip().splitlines()
    if worker.returncode != 0 or not lines:
        raise RuntimeError(f"{name} worker failed (exit {worker.returncode})")
    result = json.loads(lines[-1])
    print("\n".join(lines[:-1]))
    if not trace:
        setups.append(ready)
        setup_s = statistics.median(setups)
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        result["metrics"] = dict(sorted(result["metrics"].items()))
        print(f"{name:14s} {'setup_s':42s} {setup_s:.6g} s")
    return result


def work(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """The workload process: set up, print "ready", run whole rounds for
    ``seconds``, then check every result."""
    wl_mod = _load_workloads()
    if wl_mod is None:
        sys.exit(2)
    from spans import Tracer, layer_metrics

    tracer = Tracer() if trace else None
    wl = wl_mod.WORKLOADS[name](seed)
    if tracer:
        tracer.install()
    t0 = time.perf_counter()
    wl.setup()
    setup_wall = time.perf_counter() - t0
    if tracer:
        tracer.uninstall()
    print("ready", flush=True)

    done = []                      # (op, result, seconds)
    walls = {False: [], True: []}  # traced -> round walls
    traced_rounds = []
    start = time.perf_counter()
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        ops = wl.round_ops(k)
        if traced:
            tracer.phase = k
            tracer.install()
        r0 = time.perf_counter()
        for op in ops:
            if traced:
                tracer.op = op.label
            t = time.perf_counter()
            try:
                res = wl.run(op)
            except Exception as exc:  # a raising operation is a failed one
                res = exc
            done.append((op, res, time.perf_counter() - t))
        walls[traced].append(time.perf_counter() - r0)
        if traced:
            tracer.uninstall()
            traced_rounds.append(k)
        k += 1
        if time.perf_counter() - start >= seconds and (
                tracer is None or (walls[True] and walls[False])):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, unexpected, worst_err = [], [], 0.0
    for op, res, _ in done:
        if isinstance(res, Exception):
            check = wl_mod.Check(False, note=f"raised {res!r}")
        else:
            check = wl.check(op, res)
        if check.ok:
            worst_err = max(worst_err, check.rel_err)
            continue
        failed.append(op)
        if op.fault is None:
            unexpected.append(f"{op.label}: {check.note}")
    for gname, check in wl.global_checks(list(range(k))).items():
        worst_err = max(worst_err, check.rel_err)
        if not check.ok:
            unexpected.append(f"{gname}: worst rel err {check.rel_err:.3g}")

    if tracer:
        metrics = layer_metrics(tracer.phase_totals("setup"),
                                [tracer.phase_totals(r) for r in traced_rounds],
                                setup_wall, walls[True])
        metrics["trace.overhead_s"] = (statistics.median(walls[True])
                                       - statistics.median(walls[False]))
        metrics["quadrature.closed_form.max_rel_err"] = worst_err
        # every traced second is in exactly one layer's self time or the
        # benchmark's own; a lost or doubled span breaks this sum
        layers = (sum(metrics[f"{layer}.self_s"] for layer in
                      ("kernels", "witness", "geometry", "sampling",
                       "quadrature", "lifting"))
                  + metrics["functions.eval.self_s"] + metrics["bench.self_s"])
        if abs(layers - metrics["trace.wall_s"]) > 1e-9 * metrics["trace.wall_s"]:
            unexpected.append(f"span accounting: layers {layers} "
                              f"!= traced {metrics['trace.wall_s']}")
        OUT.mkdir(exist_ok=True)
        (OUT / f"spans-{name}-seed{seed}.json").write_text(json.dumps(
            {"fields": ["id", "parent", "phase", "op", "span", "start", "end",
                        "self_s"], "spans": tracer.spans}))
    else:
        metrics = {"wall_s": statistics.median(walls[False]),
                   "op_p50_s": statistics.median(t for _, _, t in done),
                   "peak_rss_mb": peak_rss_mb}

    for op in failed:
        tag = "known fault" if op.fault else "UNEXPECTED"
        print(f"# {name}: failed {op.label} ({tag}: {op.fault or ''})")
    for line in unexpected:
        print(f"# {name}: INCORRECT {line}")
    print(f"# {name}: {k} rounds, {len(done)} operations, {len(failed)} failed")
    for mname in sorted(metrics):
        print(f"{name:14s} {mname:42s} {metrics[mname]:.6g} {_units(mname)}")
    return {"correct": not unexpected, "attempted": len(done),
            "failed": len(failed),
            "metrics": {m: {"value": v, "unit": _units(m)}
                        for m, v in sorted(metrics.items())}}


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, one after another."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        r = results[name]
        print(f"{name:14s} attempted {r['attempted']} failed {r['failed']} "
              f"correct {r['correct']}", flush=True)
        status |= not r["correct"]
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--stage", choices=("probe", "worker"),
                    help=argparse.SUPPRESS)  # the processes run_workload starts
    args = ap.parse_args(argv)
    trace = bool(args.trace)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, trace)
    if args.stage == "probe":
        wl_mod = _load_workloads()
        if wl_mod is None:
            return 2
        wl_mod.WORKLOADS[args.workload](args.seed).setup()
        print("ready", flush=True)
        return 0
    if args.stage == "worker":
        result = work(args.workload, args.seed, args.seconds, trace)
    else:
        try:
            result = run_workload(args.workload, args.seed, args.seconds, trace)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
