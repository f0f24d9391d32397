"""Spans around the calls into bergman's layers, recorded from outside.

``Tracer.install`` replaces every public function and public method of
the layer modules by a wrapper that records a span, at every place the
library looks the name up: the defining module, every bergman module
that imported the name (``witness.rho_metric`` is ``geometry.rho``) and
the class dictionaries.  ``uninstall`` puts the originals back, so
untraced code runs unchanged.  A span's self time is its duration minus
the time of the spans it caused; summed over all spans, self times equal
the time covered by the outermost spans.
"""
from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import defaultdict

LAYERS = {
    "geometry": "bergman.geometry",
    "sampling": "bergman.sampling",
    "functions": "bergman.functions",
    "quadrature": "bergman.quadrature",
    "kernels": "bergman._kernels",
    "witness": "bergman.witness",
    "lifting": "bergman.lifting",
}

# metric prefix -> (spans whose self time it sums, spans whose calls it counts)
GROUPS = {
    "kernels.local_sup": (["kernels:local_sup_poly"], ["kernels:local_sup_poly"]),
    "kernels.ball_sup": (["kernels:ball_sup_invgrad"], ["kernels:ball_sup_invgrad"]),
    "kernels.pair_block": (["kernels:pair_block_sums"], ["kernels:pair_block_sums"]),
    "witness.verify": (["witness:verify_lipschitz"], []),
    "witness.integrability": (["witness:witness_integrability"], []),
    "witness.calibrate": (["witness:ball_witness_constant"], []),
    "geometry.ball_phi": (["geometry:ball_phi", "geometry:herm"],
                          ["geometry:ball_phi"]),
    "geometry.metric": (["geometry:rho", "geometry:beta", "geometry:ball_metric"], []),
    "sampling.pairs": (["sampling:disk_pairs_stratified",
                        "sampling:ball_pairs_stratified"], []),
    "sampling.sobol": (["sampling:sobol_ball"], []),
    "quadrature.grid_build": (["quadrature:DiskGrid.build",
                               "quadrature:DiskGrid.build_graded",
                               "quadrature:BallGrid.__init__"],
                              ["quadrature:DiskGrid.build",
                               "quadrature:DiskGrid.build_graded",
                               "quadrature:BallGrid.__init__"]),
    "quadrature.protocol": (["quadrature:DiskGrid.integrate_protocol",
                             "quadrature:BallGrid.integrate_protocol",
                             "quadrature:BidiskGrid.protocol_from_block",
                             "quadrature:DiskGrid.partials",
                             "quadrature:BallGrid.partials",
                             "quadrature:BidiskGrid.block_partials",
                             "quadrature:classify_partials",
                             "quadrature:richardson", "quadrature:disk_ladder",
                             "quadrature:bidisk_ladder", "quadrature:log_ladder"],
                            ["quadrature:DiskGrid.integrate_protocol",
                             "quadrature:BallGrid.integrate_protocol",
                             "quadrature:BidiskGrid.protocol_from_block"]),
    "quadrature.coefficient_norm": (["quadrature:BidiskGrid.coefficient_norm"], []),
}


def _count_kernel_local_sup(a, res):
    return {"kernels.local_sup.evals": len(a["centers"]) * len(a["grid"])}


def _count_kernel_ball_sup(a, res):
    return {"kernels.ball_sup.evals": len(a["zpts"]) * len(a["esamp"])}


def _count_kernel_pair_block(a, res):
    n = len(a["z"])
    return {"kernels.pair_block.pairs": n * (n + 1) // 2}


def _count_verify(a, res):
    return {"witness.verify.pairs": a["n_pairs"]}


def _count_g_values(a, res):
    return {"witness.local_sup.requests": int(a["self"].metric != "ball-rho")}


def _count_local_sup_h(a, res):
    return {"witness.local_sup.requests": 1}


def _count_grid(a, res):
    return {"quadrature.grid_build.nodes": (res or a["self"]).node_count}


def _count_coefficient_norm(a, res):
    return {"quadrature.coefficient_norm.node_pairs":
            a["self"].factor.node_count ** 2}


# counts recorded at the same boundaries as the spans, from the bound
# arguments (and the result)
COUNTERS = {
    "kernels:local_sup_poly": _count_kernel_local_sup,
    "kernels:ball_sup_invgrad": _count_kernel_ball_sup,
    "kernels:pair_block_sums": _count_kernel_pair_block,
    "witness:verify_lipschitz": _count_verify,
    "witness:Witness.g_values": _count_g_values,
    "witness:local_sup_h": _count_local_sup_h,
    "quadrature:DiskGrid.build": _count_grid,
    "quadrature:DiskGrid.build_graded": _count_grid,
    "quadrature:BallGrid.__init__": _count_grid,
    "quadrature:BidiskGrid.coefficient_norm": _count_coefficient_norm,
}


def _public(name: str) -> bool:
    return not name.startswith("_") or name in ("__init__", "__call__")


class Tracer:
    """Records spans (id, parent, phase, operation, span name, start, end,
    self time) and counts while installed."""

    def __init__(self):
        self.spans = []
        self.counts = []          # (phase, {name: value})
        self.phase = "setup"
        self.op = "setup"
        self._stack = []          # [span id, time of child spans]
        self._patches = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, layer: str, fn):
        key = f"{layer}:{fn.__qualname__}"
        counter = COUNTERS.get(key)
        sig = inspect.signature(fn) if counter else None
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                spans.append((sid, parent, self.phase, self.op, key, start,
                              end, dur - frame[1]))
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counts.append((self.phase, counter(bound.arguments, result)))
            return result

        return traced

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "bergman" or n.startswith("bergman."))]
        for layer, modname in LAYERS.items():
            mod = sys.modules[modname]
            for name, obj in list(vars(mod).items()):
                if not _public(name) or getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isfunction(obj):
                    traced = self._wrap(layer, obj)
                    for m in modules:
                        for attr, val in list(vars(m).items()):
                            if val is obj:
                                self._patch(m, attr, traced)
                elif inspect.isclass(obj):
                    for attr, val in list(vars(obj).items()):
                        if not _public(attr):
                            continue
                        if inspect.isfunction(val):
                            self._patch(obj, attr, self._wrap(layer, val))
                        elif isinstance(val, (classmethod, staticmethod)):
                            self._patch(obj, attr, type(val)(
                                self._wrap(layer, val.__func__)))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation ------------------------------------------------------

    def phase_totals(self, phase) -> dict:
        """Per-span-name self time and calls, plus counts, of one phase."""
        self_s = defaultdict(float)
        calls = defaultdict(int)
        top = 0.0
        for sid, parent, ph, op, key, start, end, own in self.spans:
            if ph != phase:
                continue
            self_s[key] += own
            calls[key] += 1
            if parent == -1:
                top += end - start
        counts = defaultdict(float)
        for ph, c in self.counts:
            if ph == phase:
                for k, v in c.items():
                    counts[k] += v
        return {"self_s": self_s, "calls": calls, "counts": counts,
                "top_s": top}


def layer_metrics(setup: dict, rounds: list, setup_wall: float,
                  round_walls: list) -> dict:
    """Per-layer figures of one set-up plus the mean traced round.

    ``setup`` and each of ``rounds`` come from ``Tracer.phase_totals``;
    the walls are the traced times of the set-up (after the import) and
    of each traced round.
    """
    def mean_of(get):
        return get(setup) + (statistics.fmean(get(r) for r in rounds)
                             if rounds else 0.0)

    def self_of(keys):
        return mean_of(lambda t: sum(t["self_s"].get(k, 0.0) for k in keys))

    def calls_of(keys):
        return mean_of(lambda t: sum(t["calls"].get(k, 0) for k in keys))

    def count(name):
        return mean_of(lambda t: t["counts"].get(name, 0.0))

    out = {}
    for prefix, (self_keys, call_keys) in GROUPS.items():
        out[f"{prefix}.self_s"] = self_of(self_keys)
        if call_keys:
            out[f"{prefix}.calls"] = calls_of(call_keys)
    all_keys = set(setup["self_s"])
    for r in rounds:
        all_keys |= set(r["self_s"])
    for layer in LAYERS:  # every public call into functions is an evaluation
        name = "functions.eval" if layer == "functions" else layer
        out[f"{name}.self_s"] = self_of([k for k in all_keys
                                         if k.startswith(layer + ":")])
    for name in ("kernels.local_sup.evals", "kernels.ball_sup.evals",
                 "kernels.pair_block.pairs", "witness.verify.pairs",
                 "witness.local_sup.requests", "quadrature.grid_build.nodes",
                 "quadrature.coefficient_norm.node_pairs"):
        out[name] = count(name)
    requests = out["witness.local_sup.requests"]
    out["witness.h_cache.hit_ratio"] = (
        1.0 - out["kernels.local_sup.calls"] / requests if requests else 0.0)
    traced = setup_wall + (statistics.fmean(round_walls) if round_walls else 0.0)
    out["trace.wall_s"] = traced
    out["bench.self_s"] = traced - mean_of(lambda t: t["top_s"])
    return out
