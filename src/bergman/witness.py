"""Construction and verification of Lipschitz witnesses.

A witness for f is a continuous g >= 0 with
|f(z) - f(w)| <= metric(z, w) (g(z) + g(w)) for all z, w.  On the disk
and on the ball the construction is g = |f|/r + C h, with h a sampled
local sup over D(z, r); the Euclidean-metric witness divides the whole
of g by (1 - |z|).  On the disk h is the sup of (1 - |u|^2)|f'(u)| over
a 993-point polar sample of D(z, r).  On the ball it is the sup of the
invariant gradient |grad(f o phi_u)(0)|, in its closed form
sqrt((1 - |u|^2)(|grad f(u)|^2 - |Rf(u)|^2)), over the images
u = phi_z(r e) of a fixed 1,024-point quasi-random sample e of the unit
ball, with C = 1/(1 - r^2) (see :func:`ball_witness_constant`);
``_kernels.ball_sup_invgrad`` pushes the sample in closed form.

One cache serves both domains.  Per f, r and point array it keeps |f|,
the screen sup and the exact sups taken so far, so that the rho, beta
and euclid checks of one family share one pair set's work, and
``Witness.g_values`` computes only the sups still missing.

:func:`witness_integrability` integrates g^p over a grid's nodes.  On a
product grid (``DiskGrid.build``, which records its angular count) the
sups of a ``TaylorPoly`` are taken one ring class at a time by
``_kernels.local_sup_rings``: the sample is invariant under rotation by
2 pi / ``SUP_GRID[1]``, so the nodes of one radius whose angles differ
by a multiple of that share one weight row and one truncation depth.
They agree with the per-point kernel to rounding (7e-13 relative on
the benchmark's grid).  Closed forms, graded grids and ball witnesses
take their sups point by point.

:func:`verify_lipschitz` reports the max residual over seeded pairs and
its argmax, and :func:`derivative_bound_check` the max of the limiting
derivative bound's residual over seeded points.  For a witness both
bound and prune (see :func:`_pruned_max`).  The screen sup, over a fixed
subset of the sample (the centre and the outer ring on the disk, the
first ``BALL_SCREEN_COUNT`` points on the ball), is a max over a subset
of the same per-point values, so it is a lower bound h_lo <= h, and g
formed with it bounds every residual from above.  Exact sups are then
taken in descending bound order, in kernel passes of 1, 2, 4, ... items,
until the next bound can no longer win; ties go to the lowest index, as
in ``np.argmax``, so the result equals the full evaluation's, from a few
exact sups in place of one per point.
"""
from __future__ import annotations

import functools
import hashlib
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ParameterError
from .functions import BallPoly, HoloFunction, TaylorPoly, _ClosedForm
from .geometry import EuclideanDisk, ball_metric, beta as beta_metric, \
    pseudo_disk_params, rho as rho_metric
from .quadrature import BallGrid, DiskGrid, NormResult, WeightParams, \
    disk_ladder, grid_for, matching_grid, tail_head
from .sampling import ball_pairs_stratified, disk_pairs_stratified, \
    sample_disk, sobol_ball

SAFETY = 1.05          # covers sampled-sup undershoot on smooth families
SUP_GRID = (32, 32)    # polar sample of the local Euclidean disk
BALL_SUP_COUNT = 1024  # quasi-random points for the ball local sup
BALL_SUP_SEED = 1023
BALL_SCREEN_COUNT = 32  # leading sample points of the ball verification screen
DISK_METRICS = ("rho", "beta", "euclid")

_UNIT_GRID = EuclideanDisk(0j, 1.0).polar_grid(*SUP_GRID)
# the disk screen: the centre and the outer ring, 33 of the 993 points
_DISK_SCREEN = _UNIT_GRID[np.r_[0, -SUP_GRID[1]:0]]
_H_CACHE: OrderedDict = OrderedDict()
# one witness-suite family stays resident: 6 functions, 3 point arrays each
_H_CACHE_MAX = 24


def disk_constant(r: float) -> float:
    """Safe conversion constant (1+r)/(1-r)^2 between |1 - conj(z) w| and
    the local values of 1 - |u|^2 on D(z, r)."""
    return (1.0 + r) / (1.0 - r) ** 2


@functools.cache
def _ball_sup_sample(n: int):
    return sobol_ball(n, BALL_SUP_COUNT, seed=BALL_SUP_SEED)


def _sup_samples(f: HoloFunction):
    """(sup sample, screen sample) of f's domain; the screen sample is a
    subset of the sup sample."""
    if f.domain == "ball":
        sample = _ball_sup_sample(f.n)
        return sample, sample[:BALL_SCREEN_COUNT]
    return _UNIT_GRID, _DISK_SCREEN


def _sampled_sup(f: HoloFunction, z, r: float, sample):
    """Sup over ``sample`` mapped onto D(z, r), vectorized in z: of
    (1 - |u|^2)|f'(u)| for a disk function, of the invariant gradient for
    a ball function (z of shape (points, n)).

    A kernel call never takes one point alone: its BLAS products would
    take another path and may round differently in the last bit, so one
    point goes in twice.  Two or more points give each point the values
    of any other batch."""
    if len(z) == 1:
        return _sampled_sup(f, np.concatenate([z, z]), r, sample)[:1]
    if f.domain == "ball":
        return _kernels.ball_sup_invgrad(z, sample, f, r)
    centers, radii = pseudo_disk_params(z, r)
    return _kernels.local_sup_poly(centers, radii, sample, f)


def _raw_local_sup(f: HoloFunction, z, r: float):
    """The sampled local sup h over the whole sample."""
    return _sampled_sup(f, z, r, _sup_samples(f)[0])


def _screen_sup(f: HoloFunction, z, r: float):
    """The sup over the screen sample: per point, a max over a subset of
    the values whose max is ``_raw_local_sup``, so a lower bound on it,
    bit for bit."""
    return _sampled_sup(f, z, r, _sup_samples(f)[1])


class _Sups:
    """What the cache keeps of f and the radius r at one point array z,
    which each call passes again: |f|, the screen sup (formed on first
    use) and the exact sups taken so far, NaN where not yet taken."""

    def __init__(self, f: HoloFunction, z, r: float, values):
        self.f, self.r = f, r
        self.abs_f = np.abs(f(z) if values is None else values)
        self.h = np.full(len(z), np.nan)
        self._screen = None

    def screen(self, z):
        if self._screen is None:
            self._screen = _screen_sup(self.f, z, self.r)
        return self._screen

    def exact(self, z, idx):
        """h at the points ``idx`` (distinct) of z, taking the missing ones
        in one kernel call."""
        need = idx[np.isnan(self.h[idx])]
        if len(need):
            self.h[need] = _raw_local_sup(self.f, z[need], self.r)
        return self.h[idx]

    def rings(self, z, n_angular: int):
        """h at every node z of a product grid with ``n_angular`` angles
        per ring, the missing ones taken by ``_kernels.local_sup_rings``,
        in which the nodes that rotations of the sample map onto each
        other share one weight row."""
        need = np.isnan(self.h)
        if need.any():
            centers, radii = pseudo_disk_params(z, self.r)
            self.h[need] = _kernels.local_sup_rings(
                centers, radii, _UNIT_GRID, self.f, n_angular,
                SUP_GRID[1])[need]
        return self.h


def _function_key(f: HoloFunction) -> tuple:
    """f's part of the cache key: its class with its coefficient bytes
    (``TaylorPoly``), its monomial table (``BallPoly``) or its boundary
    order ``s`` (the closed forms), so that no float is formatted on a
    lookup."""
    if isinstance(f, TaylorPoly):
        return TaylorPoly, f.coeffs.tobytes()
    if isinstance(f, BallPoly):
        return BallPoly, f.n, tuple(sorted(f.terms.items()))
    if isinstance(f, _ClosedForm):
        return type(f), f.s
    raise TypeError(f"no witness for {type(f).__name__}")


def _sups(f: HoloFunction, z, r: float, values) -> _Sups:
    """The cache entry of f, r and the points z, made on a miss; ``values``
    is f(z) where the caller has it, else None."""
    key = (*_function_key(f), round(r, 15),
           hashlib.sha1(z.tobytes()).digest())
    entry = _H_CACHE.get(key)
    if entry is not None:
        _H_CACHE.move_to_end(key)
        return entry
    entry = _H_CACHE[key] = _Sups(f, z, r, values)
    if len(_H_CACHE) > _H_CACHE_MAX:
        _H_CACHE.popitem(last=False)
    return entry


def _all_sups(f: HoloFunction, z, r: float, n_angular):
    """(points, cache entry, h at every point) for f, r and the points z,
    taken to shape (points,) on the disk and (points, n) on the ball.
    Points that are a product grid's nodes with ``n_angular`` angles per
    ring (None for any other points) take the sups of a ``TaylorPoly``
    one ring class at a time (``_Sups.rings``)."""
    z = np.asarray(z, dtype=complex)
    z = np.atleast_2d(z) if f.domain == "ball" else np.atleast_1d(z)
    sups = _sups(f, z, r, None)
    if n_angular is not None and isinstance(f, TaylorPoly):
        return z, sups, sups.rings(z, n_angular)
    return z, sups, sups.exact(z, np.arange(len(z)))


def local_sup_h(f: HoloFunction, z, r: float):
    """h(z) = disk_constant(r) * sampled sup of (1 - |u|^2)|f'(u)| over
    the pseudo-hyperbolic disk D(z, r)."""
    if f.domain != "disk":
        raise TypeError("local_sup_h requires a disk variant")
    vals = disk_constant(r) * _all_sups(f, z, r, None)[2]
    return float(vals[0]) if np.isscalar(z) or np.asarray(z).ndim == 0 else vals


@dataclass
class Witness:
    """Callable witness with its construction metadata."""

    f: HoloFunction
    metric: str
    r: float
    C: float
    safety: float = SAFETY

    def g_values(self, z) -> np.ndarray:
        """g = |f|/r + safety * C * h, with h the cached local sup of the
        disk or ball; the euclid witness is then divided by (1 - |z|).
        ``z`` is a point array or a disk grid, whose nodes are then the
        points; on a product grid (``DiskGrid.n_angular``) the sups of a
        ``TaylorPoly`` are taken one ring class at a time."""
        n_angular = None
        if isinstance(z, DiskGrid):
            z, n_angular = z.nodes, z.n_angular
        z, sups, h = _all_sups(self.f, z, self.r, n_angular)
        return self._g(sups.abs_f, z, h)

    def _g(self, abs_f, z, h):
        """g at the points z from |f| and the local sups h there: the
        exact ones, or the screen's for a lower bound on g."""
        g = abs_f / self.r + self.safety * self.C * h
        if self.metric == "euclid":
            g = g / (1.0 - np.abs(z))
        return g

    def __call__(self, z):
        vals = self.g_values(z)
        return float(vals[0]) if vals.size == 1 else vals

    def metadata(self) -> dict:
        return {"metric": self.metric, "r": self.r, "C": self.C,
                "safety": self.safety, "function": self.f.to_json()}


def build_witness(f: HoloFunction, metric: str, r: float) -> Witness:
    """Disk witness: g = |f|/r + safety * h for rho and beta; the euclid
    variant is the whole rho-witness divided by (1 - |z|), which keeps
    both the near and far branches valid via |1 - conj(z) w| >= 1 - |z|."""
    if metric not in DISK_METRICS:
        raise ParameterError(f"metric must be one of {DISK_METRICS}")
    if not 0.0 < r < 1.0:
        raise ParameterError("radius must lie in (0, 1)")
    if isinstance(f, BallPoly):
        raise TypeError("disk witness requires a disk variant")
    return Witness(f=f, metric=metric, r=r, C=disk_constant(r))


@dataclass
class ViolationReport:
    """Max of |f(z)-f(w)| - metric(z,w)(g(z)+g(w)) over sampled pairs;
    ``n_exact`` counts the points at which g was evaluated in full."""

    metric: str
    n_pairs: int
    seed: int
    max_violation: float
    argmax_pair: tuple
    n_near: int
    n_far: int
    r: float
    n_exact: int

    def to_json(self) -> dict:
        def enc(p):
            p = np.asarray(p)
            return [[float(v.real), float(v.imag)] for v in p.ravel()]

        return {"metric": self.metric, "n_pairs": self.n_pairs,
                "seed": self.seed, "max_violation": self.max_violation,
                "argmax_pair": [enc(self.argmax_pair[0]), enc(self.argmax_pair[1])],
                "n_near": self.n_near, "n_far": self.n_far, "r": self.r,
                "n_exact": self.n_exact}


def _metric_values(metric: str, z, w):
    if metric == "rho":
        return rho_metric(z, w, validate=False)
    if metric == "beta":
        return beta_metric(z, w, validate=False)
    if metric == "euclid":
        return np.abs(z - w)
    if metric == "ball-rho":
        return ball_metric(z, w, kind="rho", validate=False)
    raise ParameterError(f"unknown metric {metric!r}")


def verify_lipschitz(f: HoloFunction, g, metric: str | None = None,
                     n_pairs: int = 10_000, seed: int = 0,
                     r: float | None = None) -> ViolationReport:
    """Check the Lipschitz inequality on stratified seeded pairs (half the
    pairs with rho(z, w) < r, half with rho(z, w) >= r).

    ``g`` is a Witness or any callable of a point array; a positive max
    violation is a result, not an error.  A callable is evaluated at all
    2 n_pairs points.  A witness is verified by bound and prune, through
    the sup cache, with the same max and argmax (see :func:`_pruned_max`);
    ``n_exact`` counts 2 per pair taken.
    """
    if n_pairs < 1:
        raise ParameterError("need at least one pair")
    if metric is None:
        metric = g.metric if isinstance(g, Witness) else "rho"
    if r is None:
        r = g.r if isinstance(g, Witness) else 0.5
    if metric == "ball-rho":
        z, w = ball_pairs_stratified(seed, n_pairs, r,
                                     n=f.n if isinstance(f, BallPoly) else 2)
    else:
        z, w = disk_pairs_stratified(seed, n_pairs, r)
    pts = np.concatenate([z, w])
    fv = f(pts)
    diff = np.abs(fv[:n_pairs] - fv[n_pairs:])
    dist = _metric_values(metric, z, w)
    if isinstance(g, Witness):
        sups = _sups(g.f, pts, g.r, fv if f is g.f else None)

        def resid(idx, h):
            both = np.concatenate([idx, idx + n_pairs])
            gzw = g._g(sups.abs_f[both], pts[both], h)
            return diff[idx] - dist[idx] * (gzw[:len(idx)] + gzw[len(idx):])

        i, worst, taken = _pruned_max(
            g.f, resid(np.arange(n_pairs), sups.screen(pts)),
            lambda idx: resid(idx, sups.exact(
                pts, np.concatenate([idx, idx + n_pairs]))), 2)
        n_exact = 2 * taken
    else:
        gzw = np.asarray(g(pts), float)
        resid = diff - dist * (gzw[:n_pairs] + gzw[n_pairs:])
        i = int(np.argmax(resid))
        worst, n_exact = float(resid[i]), 2 * n_pairs
    return ViolationReport(metric=metric, n_pairs=n_pairs, seed=seed,
                           max_violation=worst, argmax_pair=(z[i], w[i]),
                           n_near=n_pairs // 2, n_far=n_pairs - n_pairs // 2,
                           r=float(r), n_exact=n_exact)


def _pruned_max(f: HoloFunction, bound, exact, width: int):
    """(argmax, max, items taken) of the exact residuals ``exact(idx)``
    over all items, given an upper bound on each item's residual; an item
    is a pair or a point, and takes ``width`` local sups of the witness's
    function f, whose sample sets the kernel pass.

    The bounds come from g formed with the screen sup, h_lo <= h bit for
    bit; g and the residual are monotone in h under rounding, so each
    bound is at least its exact residual.  Items are taken in stable
    descending bound order, in kernel passes of 1, 2, 4, ... items up to
    the element budget (8 pairs or 16 points), and the pass stops once the
    next item's bound falls strictly below the best exact residual, or
    equals it at a higher index than the best item's; equal bounds come in
    index order, so every item left has an exact residual below that best,
    or equal to it at a higher index.  On equal residuals the lowest index
    wins, as in ``np.argmax``, so max and argmax equal the full
    evaluation's.  The second stop ends f = 0, where every bound and
    residual is 0, after one item.
    """
    order = np.argsort(-bound, kind="stable")
    top = max(1, _kernels._BUDGET // len(_sup_samples(f)[0]) // width)
    best, best_i, pos, step = -np.inf, -1, 0, 1
    while pos < len(order):
        nxt = order[pos]
        if bound[nxt] < best or (bound[nxt] == best and nxt > best_i):
            break
        idx = order[pos:pos + step]
        for i, v in zip(idx.tolist(), exact(idx).tolist()):
            if v > best or (v == best and i < best_i):
                best, best_i = v, i
        pos += len(idx)
        step = min(2 * step, top)
    return best_i, best, pos


def witness_integrability(w: Witness, p: float, alpha: float,
                          grid=None) -> NormResult:
    """Protocol integral of g^p against dA_alpha (rho/beta witnesses) or
    dA_(p+alpha) (euclid witnesses); ball witnesses use dv_alpha.  A given
    grid must carry that measure's alpha, and a ``BallGrid`` f's n; the
    default disk grid is ``grid_for(f, measure alpha)``.

    On the disk g^p carries the tail of |f|^p against the source dA_alpha,
    since the euclid factor (1 - |z|)^(-p) only cancels the measure's
    extra weight: the ladder is ``tail_head`` at the source (p, alpha),
    then ``disk_ladder`` of the measure's alpha.  ``g_values`` takes the
    grid itself, so that the sups of a ``TaylorPoly`` on a product grid
    are filled into the cache one ring class at a time, with one cache
    lookup (a hash of the nodes) per call."""
    WeightParams(p, alpha)
    if w.metric == "ball-rho":
        grid = matching_grid(grid, lambda: BallGrid(w.f.n, alpha), alpha,
                             n=w.f.n)
        return grid.integrate_protocol(w.g_values(grid.nodes) ** p)
    measure_alpha = alpha + (p if w.metric == "euclid" else 0.0)
    grid = matching_grid(grid, lambda: grid_for(w.f, measure_alpha),
                         measure_alpha)
    return grid.integrate_protocol(w.g_values(grid) ** p, ladder=[
        *tail_head(w.f, p, alpha), *disk_ladder(measure_alpha)])


def derivative_bound_check(f: HoloFunction, w: Witness,
                           metric: str | None = None, n_grid: int = 1000,
                           seed: int = 1) -> float:
    """Max over a seeded grid of the limiting derivative bound residual:
    (1 - |z|^2)|f'| - 2g for rho/beta, |f'| - 2g for euclid.  The max is
    found by bound and prune through the sup cache, one local sup per
    point, and equals the full evaluation's (see :func:`_pruned_max`)."""
    if f.domain != "disk" or w.f.domain != "disk":
        raise TypeError("derivative bound check requires a disk variant")
    if n_grid < 1:
        raise ParameterError("need at least one point")
    metric = metric or w.metric
    z = sample_disk(seed, n_grid)
    fp = np.abs(f.derivative_at(z))
    lead = fp if metric == "euclid" else (1.0 - np.abs(z) ** 2) * fp
    sups = _sups(w.f, z, w.r, None)

    def resid(idx, h):
        return lead[idx] - 2.0 * w._g(sups.abs_f[idx], z[idx], h)

    return float(_pruned_max(w.f, resid(np.arange(n_grid), sups.screen(z)),
                             lambda idx: resid(idx, sups.exact(z, idx)), 1)[1])


# ---------------------------------------------------------------------------
# ball witnesses
# ---------------------------------------------------------------------------

def ball_witness_constant(n: int, r: float, n_pairs: int = 10_000,
                          seed: int = 202) -> float:
    """The constant 1/(1 - r^2) of the ball witness, the same for every n.

    Let F = f o phi_z and rho = rho(z, w) < r.  Then
    |f(z) - f(w)| = |F(0) - F(phi_z(w))| <= rho sup_{|b| <= rho} |grad F(b)|.
    Since |RF(b)| <= |b| |grad F(b)|, the invariant gradient satisfies
    |grad~ F(b)|^2 = (1 - |b|^2)(|grad F(b)|^2 - |RF(b)|^2)
    >= (1 - |b|^2)^2 |grad F(b)|^2, with 1 - |b|^2 > 1 - r^2, and it is
    Moebius invariant: |grad~ F(b)| = |grad~ f(phi_z(b))|.  So
    |f(z) - f(w)| <= rho / (1 - r^2) * sup over D(z, r) of |grad~ f|.
    Pairs with rho >= r are covered by the |f|/r term of the witness.

    ``n_pairs`` and ``seed`` are ignored; they are kept for callers of the
    former pair-sampled calibration.
    """
    return 1.0 / (1.0 - r ** 2)


def build_witness_ball(f: BallPoly, r: float) -> Witness:
    """Ball witness g = |f|/r + safety * C * sup of the invariant gradient
    over the quasi-random image sample of D(z, r), with the closed-form
    C = 1/(1 - r^2) of :func:`ball_witness_constant`; the default safety
    covers the sampled sup's undershoot, as on the disk."""
    if not isinstance(f, BallPoly):
        raise TypeError("ball witness requires a ball variant")
    if not 0.0 < r < 1.0:
        raise ParameterError("radius must lie in (0, 1)")
    return Witness(f=f, metric="ball-rho", r=r,
                   C=ball_witness_constant(f.n, r))
