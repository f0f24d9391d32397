"""Hot inner loops of the witness and lifting layers, in numpy.

All kernels are single-threaded and deterministic, and each works in
chunks so that its temporaries stay a few MB.  The two local-sup kernels
push a fixed sample of the unit disk (ball) onto each local disk and take
the max of a quantity that the function classes compute: (1 - |u|^2)
|f'(u)| through ``derivative_at``, and the invariant gradient through
``BallPoly.invariant_gradient_at``.

The pair sum visits only the upper triangle j >= i of the node pairs,
forms |L|^2 in real float64 arithmetic, and works in row chunks of a
fixed element budget (``_PAIR_BUDGET`` float64 values per temporary),
reducing each chunk into ring blocks by BLAS products against a
weighted one-hot ring matrix.
"""
from __future__ import annotations

import numpy as np

from .geometry import ball_phi

HAVE_NUMBA = False  # read only by two warm-up branches of perfbench/workloads.py

_LOCAL_CHUNK = 2048  # centres per pass of local_sup_poly
_BALL_CHUNK = 256    # points per pass of ball_sup_invgrad


# ---------------------------------------------------------------------------
# kernel 1: max over local grids of (1 - |u|^2) |f'(u)| for a disk function
# ---------------------------------------------------------------------------

def local_sup_poly(centers, radii, grid, f):
    """For each center/radius, max over u = center + radius*grid of
    (1 - |u|^2) |f'(u)|."""
    out = np.empty(len(centers))
    for lo in range(0, len(centers), _LOCAL_CHUNK):
        hi = lo + _LOCAL_CHUNK
        u = centers[lo:hi, None] + radii[lo:hi, None] * grid[None, :]
        out[lo:hi] = ((1.0 - np.abs(u) ** 2)
                      * np.abs(f.derivative_at(u))).max(axis=1)
    return out


# ---------------------------------------------------------------------------
# kernel 2: symmetric tensor-grid pair sums of |(f(z)-f(w))/(z-w)|^p
# accumulated into ring blocks (for the lifting scans).
# variant 0: f = (1-z)^(-s); variant 1: f = log(1/(1-z)).
# ---------------------------------------------------------------------------

_DIAG_TOL2 = 1e-12  # squared |z-w| switchover to the derivative form
_PAIR_BUDGET = 1 << 16  # float64 elements per temporary of the pair pass


def _lift_mid_derivative(zi, zj, s, variant):
    m = 1.0 - 0.5 * (zi + zj)
    if variant == 0:
        return s * m ** (-s - 1.0)
    return 1.0 / m


def _abs_pow(m2, p, out=None):
    """|L|^p from |L|^2: identity, square or sqrt for p = 2, 4, 1."""
    if p == 2.0:
        return m2
    if p == 4.0:
        return np.multiply(m2, m2, out=out)
    if p == 1.0:
        return np.sqrt(m2, out=out)
    return np.power(m2, 0.5 * p, out=out)


def pair_block_sums(z, f, w, ring, n_rings, p, s, variant):
    """Ring-block sums of w_i w_j |L(z_i, z_j)|^p over the full tensor grid,
    where L is the symmetric divided difference of the closed-form family.

    Returns the (n_rings, n_rings) block matrix of the full double sum,
    assembled from one triangular pass (the integrand is symmetric); node
    pairs with |z_i - z_j|^2 under ``_DIAG_TOL2``, the diagonal included,
    take L = f' at their midpoint.  Rings need not be sorted.  The strict
    upper triangle j > i is computed in real arithmetic as
    |L|^2 = |f_i - f_j|^2 / |z_i - z_j|^2, raised to p/2, in row chunks
    of about ``_PAIR_BUDGET`` elements, and each chunk is summed into ring
    blocks by two BLAS products with the weighted one-hot ring matrix.
    """
    z = np.asarray(z, dtype=np.complex128)
    f = np.asarray(f, dtype=np.complex128)
    w = np.asarray(w, dtype=np.float64)
    ring = np.asarray(ring, dtype=np.int64)
    n_rings, p, s = int(n_rings), float(p), float(s)
    zr, zi = z.real.copy(), z.imag.copy()
    fr, fi = f.real.copy(), f.imag.copy()
    N = len(z)
    # weighted one-hot ring matrix: v @ Wr sums w_j v_ij into ring_j
    Wr = np.zeros((N, n_rings))
    Wr[np.arange(N), ring] = w
    S = np.zeros((n_rings, n_rings))
    Ld = _lift_mid_derivative(z, z, s, variant)
    Ld = _abs_pow(Ld.real ** 2 + Ld.imag ** 2, p)
    D = np.bincount(ring, weights=w * w * Ld, minlength=n_rings)
    i0 = 0
    while i0 < N:
        i1 = min(N, i0 + max(1, _PAIR_BUDGET // (N - i0)))
        k = np.arange(i1 - i0)
        # |L|^2 = |f_i - f_j|^2 / |z_i - z_j|^2 over the columns j >= i0
        d2 = np.subtract.outer(zr[i0:i1], zr[i0:])
        d2 *= d2
        t = np.subtract.outer(zi[i0:i1], zi[i0:])
        t *= t
        d2 += t
        d2[k, k] = 1.0  # the diagonal is in D; this keeps its quotient finite
        m2 = np.subtract.outer(fr[i0:i1], fr[i0:])
        m2 *= m2
        np.subtract.outer(fi[i0:i1], fi[i0:], out=t)
        t *= t
        m2 += t
        with np.errstate(divide="ignore", invalid="ignore"):
            m2 /= d2  # a duplicated node gives 0/0 here, replaced below
        if d2.min() < _DIAG_TOL2:  # distinct nodes closer than the switchover
            ii, jj = np.nonzero(d2 < _DIAG_TOL2)
            L = _lift_mid_derivative(z[i0 + ii], z[i0 + jj], s, variant)
            m2[ii, jj] = L.real * L.real + L.imag * L.imag
        v = _abs_pow(m2, p, out=m2)
        v[:, :len(k)][k[:, None] >= k[None, :]] = 0.0  # keep j > i only
        S += Wr[i0:i1].T @ (v @ Wr[i0:])
        i0 = i1
    block = S + S.T
    block[np.diag_indices(n_rings)] += D
    return block


# ---------------------------------------------------------------------------
# kernel 3: ball witness sup of the invariant gradient over pushed samples
# ---------------------------------------------------------------------------

def ball_sup_invgrad(zpts, esamp, f, r):
    """Per point z: max over u = phi_z(r * e), e in ``esamp``, of the
    invariant gradient of the ball polynomial ``f``."""
    out = np.empty(len(zpts))
    for lo in range(0, len(zpts), _BALL_CHUNK):
        hi = lo + _BALL_CHUNK
        u = ball_phi(zpts[lo:hi, None, :], r * esamp[None, :, :], validate=False)
        out[lo:hi] = f.invariant_gradient_at(u).max(axis=1)
    return out
