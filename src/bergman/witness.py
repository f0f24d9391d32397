"""Construction and verification of Lipschitz witnesses.

A witness for f is a continuous g >= 0 with
|f(z) - f(w)| <= metric(z, w) (g(z) + g(w)) for all z, w.  On the disk
the construction is g = |f|/r + h with h a guarded local sup of
(1 - |u|^2)|f'(u)| over pseudo-hyperbolic disks; the Euclidean-metric
witness divides the whole of g by (1 - |z|).  On the ball, h is a local
sup of the invariant gradient |grad(f o phi_u)(0)|, taken in its closed
form sqrt((1 - |u|^2)(|grad f(u)|^2 - |Rf(u)|^2)) over the images
u = phi_z(r e) of a fixed 1,024-point quasi-random sample e of the unit
ball, with the closed-form constant 1/(1 - r^2) (see
:func:`ball_witness_constant`).  ``_kernels.ball_sup_invgrad`` pushes the
sample in closed form and takes 1 - |u|^2 from Rudin's identity
(1 - |z|^2)(1 - |r e|^2) / |1 - <r e, z>|^2.
"""
from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ParameterError
from .functions import BallPoly, HoloFunction, TaylorPoly
from .geometry import EuclideanDisk, ball_metric, beta as beta_metric, \
    pseudo_disk_params, rho as rho_metric
from .quadrature import BallGrid, NormResult, WeightParams, grid_for, \
    matching_grid
from .sampling import ball_pairs_stratified, disk_pairs_stratified, sobol_ball

SAFETY = 1.05          # covers sampled-sup undershoot on smooth families
SUP_GRID = (32, 32)    # polar sample of the local Euclidean disk
BALL_SUP_COUNT = 1024  # quasi-random points for the ball local sup
BALL_SUP_SEED = 1023
DISK_METRICS = ("rho", "beta", "euclid")

_UNIT_GRID = EuclideanDisk(0j, 1.0).polar_grid(*SUP_GRID)
_H_CACHE: OrderedDict = OrderedDict()
_H_CACHE_MAX = 64  # sized so one full witness-suite family stays resident
_BALL_SAMPLES: dict = {}


def disk_constant(r: float) -> float:
    """Safe conversion constant (1+r)/(1-r)^2 between |1 - conj(z) w| and
    the local values of 1 - |u|^2 on D(z, r)."""
    return (1.0 + r) / (1.0 - r) ** 2


def _raw_local_sup(f: HoloFunction, z, r: float):
    """Sampled sup of (1 - |u|^2)|f'(u)| over D(z, r), vectorized in z."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    centers, radii = pseudo_disk_params(z, r)
    return _kernels.local_sup_poly(centers, radii, _UNIT_GRID, f)


def _cached_local_sup(f: HoloFunction, z, r: float):
    key = (json.dumps(f.to_json()), round(r, 15),
           hashlib.sha1(np.asarray(z, dtype=complex).tobytes()).hexdigest())
    if key in _H_CACHE:
        _H_CACHE.move_to_end(key)
        return _H_CACHE[key]
    val = _raw_local_sup(f, z, r)
    _H_CACHE[key] = val
    if len(_H_CACHE) > _H_CACHE_MAX:
        _H_CACHE.popitem(last=False)
    return val


def local_sup_h(f: HoloFunction, z, r: float):
    """h(z) = disk_constant(r) * sampled sup of (1 - |u|^2)|f'(u)| over
    the pseudo-hyperbolic disk D(z, r)."""
    vals = disk_constant(r) * _cached_local_sup(f, z, r)
    return float(vals[0]) if np.isscalar(z) or np.asarray(z).ndim == 0 else vals


def _ball_sup_sample(n: int):
    if n not in _BALL_SAMPLES:
        _BALL_SAMPLES[n] = sobol_ball(n, BALL_SUP_COUNT, seed=BALL_SUP_SEED)
    return _BALL_SAMPLES[n]


def _ball_sup_values(f: BallPoly, z, r: float):
    """Sampled sup of the invariant gradient of f over D(z, r), per point
    z: the max over the images phi_z(r e) of the 1,024-point quasi-random
    ball sample, pushed in closed form by ``_kernels.ball_sup_invgrad``."""
    return _kernels.ball_sup_invgrad(np.atleast_2d(z), _ball_sup_sample(f.n),
                                     f, r)


@dataclass
class Witness:
    """Callable witness with its construction metadata."""

    f: HoloFunction
    metric: str
    r: float
    C: float
    safety: float = SAFETY

    def g_values(self, z) -> np.ndarray:
        """g = |f|/r + safety * C * h, with h the local sup of the disk or
        ball; the euclid witness is then divided by (1 - |z|)."""
        if self.metric == "ball-rho":
            z = np.atleast_2d(np.asarray(z, dtype=complex))
            h = _ball_sup_values(self.f, z, self.r)
        else:
            z = np.atleast_1d(np.asarray(z, dtype=complex))
            h = _cached_local_sup(self.f, z, self.r)
        g = np.abs(self.f(z)) / self.r + self.safety * self.C * h
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
    """Max of |f(z)-f(w)| - metric(z,w)(g(z)+g(w)) over sampled pairs."""

    metric: str
    n_pairs: int
    seed: int
    max_violation: float
    argmax_pair: tuple
    n_near: int
    n_far: int
    r: float

    def to_json(self) -> dict:
        def enc(p):
            p = np.asarray(p)
            return [[float(v.real), float(v.imag)] for v in p.ravel()]

        return {"metric": self.metric, "n_pairs": self.n_pairs,
                "seed": self.seed, "max_violation": self.max_violation,
                "argmax_pair": [enc(self.argmax_pair[0]), enc(self.argmax_pair[1])],
                "n_near": self.n_near, "n_far": self.n_far, "r": self.r}


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
    violation is a result, not an error.
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
    gz = g.g_values(z) if isinstance(g, Witness) else np.asarray(g(z), float)
    gw = g.g_values(w) if isinstance(g, Witness) else np.asarray(g(w), float)
    resid = np.abs(f(z) - f(w)) - _metric_values(metric, z, w) * (gz + gw)
    i = int(np.argmax(resid))
    return ViolationReport(metric=metric, n_pairs=n_pairs, seed=seed,
                           max_violation=float(resid[i]),
                           argmax_pair=(z[i], w[i]),
                           n_near=n_pairs // 2, n_far=n_pairs - n_pairs // 2,
                           r=float(r))


def witness_integrability(w: Witness, p: float, alpha: float,
                          grid=None) -> NormResult:
    """Protocol integral of g^p against dA_alpha (rho/beta witnesses) or
    dA_(p+alpha) (euclid witnesses); ball witnesses use dv_alpha.  A given
    grid must carry that measure's alpha, and a ``BallGrid`` f's n."""
    WeightParams(p, alpha)
    measure_alpha = alpha + (p if w.metric == "euclid" else 0.0)
    if w.metric == "ball-rho":
        grid = matching_grid(grid, lambda: BallGrid(w.f.n, alpha), alpha,
                             n=w.f.n)
    else:
        grid = matching_grid(grid, lambda: grid_for(
            w.f if isinstance(w.f, TaylorPoly) else None, measure_alpha),
            measure_alpha)
    return grid.integrate_protocol(w.g_values(grid.nodes) ** p)


def derivative_bound_check(f: HoloFunction, w: Witness,
                           metric: str | None = None, n_grid: int = 1000,
                           seed: int = 1) -> float:
    """Max over a seeded grid of the limiting derivative bound residual:
    (1 - |z|^2)|f'| - 2g for rho/beta, |f'| - 2g for euclid."""
    from .sampling import sample_disk

    metric = metric or w.metric
    z = sample_disk(seed, n_grid)
    g = w.g_values(z)
    fp = np.abs(f.derivative_at(z))
    if metric == "euclid":
        return float(np.max(fp - 2.0 * g))
    return float(np.max((1.0 - np.abs(z) ** 2) * fp - 2.0 * g))


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
