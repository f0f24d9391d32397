"""Metrics and automorphism geometry of the unit disk and the unit ball.

Disk points are complex numbers with |z| < 1 (scalars or numpy arrays).
Ball points are length-n complex vectors with Euclidean norm < 1, n in
{2, 3}; arrays of points put the coordinate axis last, shape (..., n).
All functions are pure and vectorized.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError

BALL_DIMS = (2, 3)


def _as_disk(z, validate: bool = True):
    z = np.asarray(z, dtype=complex)
    if validate and np.any(np.abs(z) >= 1.0):
        raise DomainError("point outside the open unit disk")
    return z


def _as_ball(z, validate: bool = True):
    z = np.asarray(z, dtype=complex)
    if z.ndim == 0 or z.shape[-1] not in BALL_DIMS:
        raise DomainError(f"ball points need a trailing axis of length {BALL_DIMS}")
    if validate and np.any(np.sum(np.abs(z) ** 2, axis=-1) >= 1.0):
        raise DomainError("point outside the open unit ball")
    return z


def herm(z, w):
    """Hermitian inner product <z, w> = sum z_k conj(w_k) over the last axis."""
    return np.sum(np.asarray(z, dtype=complex) * np.conj(w), axis=-1)


# ---------------------------------------------------------------------------
# disk metrics
# ---------------------------------------------------------------------------

def rho(z, w, validate: bool = True):
    """Pseudo-hyperbolic distance |(z - w) / (1 - conj(z) w)| on the disk.

    |1 - conj(z) w|^2 is expanded in real arithmetic symmetric in (z, w),
    so rho is bit-exactly symmetric (the vectorized complex multiply is
    not, and arctanh amplifies that near the boundary).
    """
    z = _as_disk(z, validate)
    w = _as_disk(w, validate)
    re_zw = z.real * w.real + z.imag * w.imag  # Re(conj(z) w)
    den2 = 1.0 - 2.0 * re_zw + np.abs(z) ** 2 * np.abs(w) ** 2
    return np.abs(z - w) / np.sqrt(np.maximum(den2, 0.0))


def beta(z, w, validate: bool = True):
    """Hyperbolic (Bergman) distance artanh(rho(z, w)); unbounded."""
    return np.arctanh(rho(z, w, validate))


def double_radius(r: float) -> float:
    """Pseudo-hyperbolic radius of the disk with doubled hyperbolic radius.

    tanh(2 artanh r) = 2r / (1 + r^2); the returned r' satisfies
    D(u, r) subset D(z, r') whenever rho(u, z) < r.
    """
    if not 0.0 < r < 1.0:
        raise ParameterError("radius must lie in (0, 1)")
    return 2.0 * r / (1.0 + r * r)


@dataclass(frozen=True)
class EuclideanDisk:
    """A Euclidean disk {|u - center| < radius}, e.g. the Euclidean carrier
    of a pseudo-hyperbolic disk."""

    center: complex
    radius: float

    def boundary(self, n: int = 64) -> np.ndarray:
        th = 2.0 * np.pi * np.arange(n) / n
        return self.center + self.radius * np.exp(1j * th)

    def polar_grid(self, n_radial: int, n_angular: int) -> np.ndarray:
        """Flattened polar sample of the closed disk: the center once,
        then ``n_angular`` angles offset off the axes on each of the
        radii linspace(0, 1, n_radial)[1:], boundary ring included;
        1 + (n_radial - 1) n_angular points."""
        sig = np.linspace(0.0, 1.0, n_radial)[1:]
        ang = np.exp(2j * np.pi * (np.arange(n_angular) + 0.5) / n_angular)
        ring = (self.center + self.radius * sig[:, None] * ang[None, :]).ravel()
        return np.concatenate([[self.center], ring])


def pseudo_disk_params(z, r: float):
    """Vectorized (center, radius) of D(z, r) for an array of centers z:
    (1 - r^2) z / d and r (1 - |z|^2) / d with d = 1 - r^2 |z|^2.

    1 - |z|^2 is formed as (1 - |z|)(1 + |z|), where 1 - |z| is exact
    for |z| >= 1/2, and d as (1 - r^2) + r^2 (1 - |z|^2), a sum of two
    positive terms.  Both are then within a few ulps of their values at
    numpy's |z|, which is exact on the axes; from the rounded |z|^2 they
    would be up to eps / (1 - |z|^2) off (3.5e-11 relative at
    |z| = 0.999997).  Off the axes the rounding of |z| itself still moves
    1 - |z| by up to eps / (1 - |z|) relative."""
    if not 0.0 < r < 1.0:
        raise ParameterError("radius must lie in (0, 1)")
    z = _as_disk(z)
    mod = np.abs(z)
    gap = (1.0 - mod) * (1.0 + mod)
    den = (1.0 - r * r) + r * r * gap
    return (1.0 - r * r) * z / den, r * gap / den


def pseudo_disk(z: complex, r: float) -> EuclideanDisk:
    """The pseudo-hyperbolic disk D(z, r) as a Euclidean disk, for one
    point z: ``pseudo_disk_params`` at a scalar."""
    center, radius = pseudo_disk_params(complex(z), r)
    return EuclideanDisk(complex(center), float(radius))


def mobius(z, zeta):
    """The disk automorphism phi_z(zeta) = (z - zeta) / (1 - conj(z) zeta).

    Involutive, swaps 0 and z, and rho(z, phi_z(zeta)) = |zeta|.
    """
    z = np.asarray(z, dtype=complex)
    zeta = np.asarray(zeta, dtype=complex)
    return (z - zeta) / (1.0 - np.conj(z) * zeta)


# ---------------------------------------------------------------------------
# ball geometry
# ---------------------------------------------------------------------------

def ball_phi(a, z, validate: bool = True):
    """The involutive ball automorphism phi_a applied to z.

    phi_a(z) = (a - P_a z - s_a Q_a z) / (1 - <z, a>) with P_a the
    orthogonal projection onto span{a}, Q_a = I - P_a and
    s_a = sqrt(1 - |a|^2); phi_0 = -identity.  Broadcasts over leading
    axes of ``a`` and ``z``.
    """
    a = _as_ball(a, validate)
    z = _as_ball(z, validate)
    aa = np.sum(np.abs(a) ** 2, axis=-1, keepdims=True)
    za = herm(z, a)[..., None]
    s = np.sqrt(1.0 - aa)
    safe_aa = np.where(aa > 0.0, aa, 1.0)
    P = (za / safe_aa) * a
    P = np.where(aa > 0.0, P, 0.0)
    return (a - P - s * (z - P)) / (1.0 - za)


def ball_metric(z, w, kind: str = "rho", validate: bool = True):
    """Distances on the ball: ``rho`` = |phi_z(w)|, ``beta`` = artanh(rho),
    and the quotient ``d`` = |z - w| / |1 - <z, w>| which dominates rho."""
    z = _as_ball(z, validate)
    w = _as_ball(w, validate)
    if kind == "d":
        diff = np.sqrt(np.sum(np.abs(z - w) ** 2, axis=-1))
        return diff / np.abs(1.0 - herm(z, w))
    r = np.sqrt(np.sum(np.abs(ball_phi(z, w, validate=False)) ** 2, axis=-1))
    if kind == "rho":
        return r
    if kind == "beta":
        return np.arctanh(r)
    raise ParameterError(f"unknown ball metric kind {kind!r}")
