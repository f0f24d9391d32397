"""Hot inner loops of the witness and lifting layers, in numpy.

All kernels are single-threaded and deterministic, and each works in
chunks so that its temporaries stay a few MB.  The two local-sup kernels
push a fixed sample of the unit disk (ball) onto each local disk and take
the max of a quantity that the function classes compute: (1 - |u|^2)
|f'(u)| through ``derivative_at``, and the invariant gradient through
``BallPoly.invariant_gradient_at``.

The pair sum of the lifted closed forms visits each mirror orbit of node
pairs once.  When the nodes below the real axis are exact mirror images
of those above it, with conjugate values and equal weights and rings (as
``DiskGrid.build_graded`` lays them out, for the two families with real
Taylor coefficients), it runs over the upper half U only and takes two
quotients per pair, L(z_i, z_j) and L(z_i, conj z_j): about N^2 / 4
quotients instead of N (N + 1) / 2.  Any other input runs the same pass
with U = all nodes and the same-side quotient alone.  The pass visits the
strict upper triangle j > i of U, puts both diagonals into a separate
term, forms |L|^2 in real float64 arithmetic, and works in row chunks of
a fixed element budget (``_PAIR_BUDGET`` float64 values per temporary),
reducing each chunk into ring blocks by BLAS products against a weighted
one-hot ring matrix.
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

DIAG_SWITCH = 1e-6  # |z - w| under this: L takes f' at the midpoint
_DIAG_TOL2 = DIAG_SWITCH ** 2  # the switchover on |z - w|^2, exactly 1e-12
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


def _mirror_half(z, f, w, ring):
    """Indices of the nodes with Im z > 0 when the nodes with Im z < 0
    are exactly their mirror images, in the same order, with conjugate f
    and equal weights and rings, and no node lies on the real axis; else
    None."""
    up, lo = z.imag > 0, z.imag < 0
    n_up = np.count_nonzero(up)
    if 2 * n_up != len(z) or np.count_nonzero(lo) != n_up:
        return None
    if (np.array_equal(z[lo], z[up].conj())
            and np.array_equal(f[lo], f[up].conj())
            and np.array_equal(w[lo], w[up])
            and np.array_equal(ring[lo], ring[up])):
        return np.flatnonzero(up)
    return None


def _lift_pow(dx2, dy, dr2, dg, k, zi, zj, p, s, variant):
    """|L|^p = ((dr2 + dg^2) / (dx2 + dy^2))^(p/2), in place in ``dg``, for
    nodes zi (rows) and zj (columns) with squared real-part differences
    dx2, dr2 of z and f and imaginary-part differences dy, dg (``dy`` is
    overwritten).  Cells under the switchover take f' at the midpoint; the
    cells (k, k) are left finite for the caller to discard."""
    dy *= dy
    dy += dx2
    dy[k, k] = 1.0  # the diagonals are in D; this keeps their quotient finite
    dg *= dg
    dg += dr2
    with np.errstate(divide="ignore", invalid="ignore"):
        dg /= dy  # a duplicated node gives 0/0 here, replaced below
    if dy.min() < _DIAG_TOL2:  # distinct nodes closer than the switchover
        ii, jj = np.nonzero(dy < _DIAG_TOL2)
        L = _lift_mid_derivative(zi[ii], zj[jj], s, variant)
        dg[ii, jj] = L.real * L.real + L.imag * L.imag
    return _abs_pow(dg, p, out=dg)


def _pair_chunk(z, parts, i0, i1, p, s, variant, mirrored):
    """Rows i0 <= i < i1 against columns j >= i0 of |L(z_i, z_j)|^p, plus
    |L(z_i, conj z_j)|^p when ``mirrored``, with the cells j <= i zeroed.
    ``parts`` holds the real and imaginary parts of z and f."""
    zr, zi, fr, fi = parts
    k = np.arange(i1 - i0)
    dx2 = np.subtract.outer(zr[i0:i1], zr[i0:])
    dx2 *= dx2
    dr2 = np.subtract.outer(fr[i0:i1], fr[i0:])
    dr2 *= dr2
    v = _lift_pow(dx2, np.subtract.outer(zi[i0:i1], zi[i0:]), dr2,
                  np.subtract.outer(fi[i0:i1], fi[i0:]), k, z[i0:i1], z[i0:],
                  p, s, variant)
    if mirrored:  # z_i - conj z_j and f_i - conj f_j share the real parts
        v += _lift_pow(dx2, np.add.outer(zi[i0:i1], zi[i0:]), dr2,
                       np.add.outer(fi[i0:i1], fi[i0:]), k, z[i0:i1],
                       z[i0:].conj(), p, s, variant)
    v[:, :len(k)][k[:, None] >= k[None, :]] = 0.0  # keep j > i only
    return v


def pair_block_sums(z, f, w, ring, n_rings, p, s, variant):
    """Ring-block sums of w_i w_j |L(z_i, z_j)|^p over the full tensor grid,
    where L is the symmetric divided difference of the closed-form family.

    Returns the (n_rings, n_rings) block matrix of the full double sum.
    Node pairs with |z_i - z_j|^2 under ``_DIAG_TOL2``, the diagonal
    included, take L = f' at their midpoint.  Rings need not be sorted.

    Mirror orbits: when no node lies on the real axis and, in index order,
    ``z[Im < 0] == conj(z[Im > 0])`` with ``f``, ``w`` and ``ring`` matching
    under the same map (checked exactly, in O(N)), let U be the nodes with
    Im z > 0.  Then |L(conj z_i, conj z_j)| = |L(z_i, z_j)| and, L being
    symmetric, |L(z_i, conj z_j)| = |L(z_j, conj z_i)|, so the double sum
    is 2 (S(U, U) + S(U, conj U)), both symmetric sums over U.  One pass
    over the pairs j > i of U forms both quotients, sharing the squared
    differences of the real parts of z and f.  The diagonals go into
    ``D``: f'(z_i) on the same side and |L(z_i, conj z_i)| =
    |Im f_i / Im z_i| across, or f'(Re z_i) where 4 (Im z_i)^2 falls under
    the switchover.  Other inputs take the same pass with U = all nodes
    and no mirrored term, which is the plain triangular double sum.

    Each chunk of about ``_PAIR_BUDGET`` elements is summed into ring
    blocks by two BLAS products with the weighted one-hot ring matrix.
    """
    z = np.asarray(z, dtype=np.complex128)
    f = np.asarray(f, dtype=np.complex128)
    w = np.asarray(w, dtype=np.float64)
    ring = np.asarray(ring, dtype=np.int64)
    n_rings, p, s = int(n_rings), float(p), float(s)
    half = _mirror_half(z, f, w, ring)
    mirrored = half is not None
    if mirrored:
        z, f, w, ring = z[half], f[half], w[half], ring[half]
    parts = (z.real.copy(), z.imag.copy(), f.real.copy(), f.imag.copy())
    N = len(z)
    # weighted one-hot ring matrix: v @ Wr sums w_j v_ij into ring_j
    Wr = np.zeros((N, n_rings))
    Wr[np.arange(N), ring] = w
    S = np.zeros((n_rings, n_rings))
    Ld = _lift_mid_derivative(z, z, s, variant)
    Ld = _abs_pow(Ld.real ** 2 + Ld.imag ** 2, p)
    if mirrored:  # L(z_i, conj z_i) = Im f_i / Im z_i
        Lm = (f.imag / z.imag) ** 2
        near = 4.0 * z.imag ** 2 < _DIAG_TOL2
        if near.any():
            L = _lift_mid_derivative(z[near], z[near].conj(), s, variant)
            Lm[near] = L.real ** 2 + L.imag ** 2
        Ld += _abs_pow(Lm, p)
    D = np.bincount(ring, weights=w * w * Ld, minlength=n_rings)
    i0 = 0
    while i0 < N:
        i1 = min(N, i0 + max(1, _PAIR_BUDGET // (N - i0)))
        v = _pair_chunk(z, parts, i0, i1, p, s, variant, mirrored)
        S += Wr[i0:i1].T @ (v @ Wr[i0:])
        i0 = i1
    block = S + S.T
    block[np.diag_indices(n_rings)] += D
    return 2.0 * block if mirrored else block


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
