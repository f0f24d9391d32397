"""Hot inner loops of the witness and lifting layers, in numpy.

All kernels are single-threaded and deterministic, and each works in
passes sized by one element budget, ``_BUDGET`` = 2^14 sample points
(or node pairs) per pass, so that a pass's temporaries (256 KB each in
complex128) stay in cache.

The two local-sup kernels take the max, over a fixed sample of the unit
disk (ball) mapped onto each local disk, of a quantity that the function
classes compute on a pass of local disks.  On the disk it is
(1 - |u|^2)^2 |f'(u)|^2 at u = c + R e, with |f'|^2 from
``f.local_derivative_sq`` and a table ``f.local_derivative_table(sample)``
formed once per call.  A ``TaylorPoly`` takes f' through its Taylor
coefficients about each centre: beta = V(c) @ M, scaled by R^k, times the
sample's power table E[k] = e^k, two BLAS products in place of a Horner
loop over the pushed sample.  The closed forms take |f'|^2 in real
arithmetic from |1 - u|^2: s^2 |1 - u|^(-2s-2) and 1 / |1 - u|^2.
Rounding in the shifted f' is bounded by about
D eps sum_j |a'_j| (|c| + R)^j for D coefficients a'_j, which is
Horner's bound at |u| <= |c| + R (see ``local_sup_poly``).  In the ball
it is the squared invariant gradient at u = phi_a(r e), the sample pushed
in closed form (see ``ball_sup_invgrad``), from
``BallPoly.invariant_gradient_sq`` and its per-coordinate power tables.
Both kernels take one square root per centre (point), after the max.

A pass takes max(1, _BUDGET // len(sample)) centres (points): 16 centres
of the 993-point disk sample, 16 points of the 1,024-point ball sample.
The budget is measured, one thread on a 2-core Xeon, as the median
kernel time per benchmark round (seed 101; 10 rounds, 6 for lifting;
budgets interleaved round by round in one process):

    budget             2^12   2^13   2^14   2^15   2^16
    disk-witness (s)   0.415  0.297  0.254  0.238  0.461
    ball-witness (s)   0.069  0.058  0.057  0.076  0.099
    lifting (s)        0.543  0.411  0.333  0.334  0.340

The ball kernel keeps about a dozen (points, samples) temporaries per
pass and slows above 2^14; at 2^16 the ``ball-witness`` benchmark's peak
RSS was also 119.9 MB against 110.8 MB at 2^14.  At 2^16 the disk kernel
lost time to the allocator: 3,000 degree-50 centres took 0.10 s, and
0.06 s with glibc's trim and mmap thresholds raised.  Long passes suit the shifted coefficients of a
high-degree Taylor polynomial, whose power table E is read once per
pass: the ``thm6`` suite (witnesses of degree up to 50 on 100,000
pairs) took 18-23 s at 2^14 against 16-18 s at 2^16.

The pair sum of the lifted closed forms visits each mirror orbit of node
pairs once.  When the nodes below the real axis are exact mirror images
of those above it, with conjugate values and equal weights and rings (as
``DiskGrid.build_graded`` lays them out, for the two families with real
Taylor coefficients), it runs over the upper half U only and takes two
quotients per pair, L(z_i, z_j) and L(z_i, conj z_j): about N^2 / 4
quotients instead of N (N + 1) / 2.  Any other input runs the same pass
with U = all nodes and the same-side quotient alone.  The pass visits the
strict upper triangle j > i of U, puts both diagonals into a separate
term, forms |L|^2 in real float64 arithmetic, and works in row passes of
the element budget, each reduced into ring blocks by ``ring_block_sums``:
BLAS products against the weighted one-hot ring matrix.
"""
from __future__ import annotations

import numpy as np

HAVE_NUMBA = False  # read only by two warm-up branches of perfbench/workloads.py

_BUDGET = 1 << 14  # elements per temporary of every kernel pass


def _passes(n, inner):
    """Slices of n rows in order, each of max(1, _BUDGET // inner) rows
    with ``inner`` elements per row, the last one possibly shorter."""
    step = max(1, _BUDGET // inner)
    return [slice(lo, lo + step) for lo in range(0, n, step)]


# ---------------------------------------------------------------------------
# kernel 1: max over local grids of (1 - |u|^2) |f'(u)| for a disk function
# ---------------------------------------------------------------------------

def local_sup_poly(centers, radii, grid, f):
    """For each center c and radius R, max over u = c + R e, e in
    ``grid``, of (1 - |u|^2) |f'(u)|.

    |f'|^2 comes from ``f.local_derivative_sq`` in passes of the element
    budget, with the per-call table ``f.local_derivative_table(grid)``:
    two BLAS products through the shifted coefficients for a
    ``TaylorPoly``, real arithmetic on |1 - u|^2 for the closed forms.  The
    weight 1 - |u|^2 = (1 - |c|^2) - 2R Re c Re e - 2R Im c Im e - R^2 |e|^2
    is one real product of per-centre and per-sample rows of four, taken
    by ``einsum``, whose sums do not depend on the rows of the pass as a
    BLAS product's blocking does.  Each pass keeps the max of
    w^2 |f'|^2; the square root is taken at the end.

    Rounding: the shifted sum bounds the error in f'(u) by about
    D eps sum_j |a'_j| (|c| + R)^j, since sum_k |beta_k| R^k <=
    sum_j |a'_j| (|c| + R)^j; that is Horner's bound at |u| <= |c| + R, so
    the binomials (C(50, 25) ~ 1.3e14) do not enlarge it.  The weight
    carries an absolute error of a few eps from 1 - |c|^2.
    """
    table = f.local_derivative_table(grid)
    e_terms = np.stack([np.ones(len(grid)), grid.real, grid.imag,
                        grid.real ** 2 + grid.imag ** 2])
    c_terms = np.stack([1.0 - (centers.real ** 2 + centers.imag ** 2),
                        -2.0 * radii * centers.real,
                        -2.0 * radii * centers.imag, -radii * radii], axis=1)
    out = np.empty(len(centers))
    for k in _passes(len(centers), len(grid)):
        w = np.einsum("ci,is->cs", c_terms[k], e_terms)
        w *= w
        w *= f.local_derivative_sq(centers[k], radii[k], table)
        out[k] = w.max(axis=1)
    return np.sqrt(out)


# ---------------------------------------------------------------------------
# ring blocks of a weighted pairwise matrix
# ---------------------------------------------------------------------------

def ring_block_sums(rows, w, ring, n_rings, triangular=False):
    """S[a, b] = sum of w_i w_j v_ij over ring_i = a, ring_j = b, for a
    pairwise matrix v formed in row passes of the element budget.

    ``rows(i0, i1)`` returns the rows i0 <= i < i1 of v, over the columns
    j >= i0 when ``triangular`` and over all columns otherwise.  Each pass
    is reduced by two BLAS products with the weighted one-hot ring matrix
    Wr[j, ring_j] = w_j."""
    N = len(ring)
    Wr = np.zeros((N, n_rings))
    Wr[np.arange(N), ring] = w
    S = np.zeros((n_rings, n_rings))
    i0 = 0
    while i0 < N:
        c0 = i0 if triangular else 0
        i1 = min(N, i0 + max(1, _BUDGET // (N - c0)))
        S += Wr[i0:i1].T @ (rows(i0, i1) @ Wr[c0:])
        i0 = i1
    return S


# ---------------------------------------------------------------------------
# kernel 2: symmetric tensor-grid pair sums of |(f(z)-f(w))/(z-w)|^p
# accumulated into ring blocks (for the lifting scans).
# variant 0: f = (1-z)^(-s); variant 1: f = log(1/(1-z)).
# ---------------------------------------------------------------------------

DIAG_SWITCH = 1e-6  # |z - w| under this: L takes f' at the midpoint
_DIAG_TOL2 = DIAG_SWITCH ** 2  # the switchover on |z - w|^2, exactly 1e-12


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

    Each row pass of about ``_BUDGET`` elements is summed into ring
    blocks by ``ring_block_sums``.
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
    S = ring_block_sums(
        lambda i0, i1: _pair_chunk(z, parts, i0, i1, p, s, variant, mirrored),
        w, ring, n_rings, triangular=True)
    block = S + S.T
    block[np.diag_indices(n_rings)] += D
    return 2.0 * block if mirrored else block


# ---------------------------------------------------------------------------
# kernel 3: ball witness sup of the invariant gradient over pushed samples
# ---------------------------------------------------------------------------

def ball_sup_invgrad(zpts, esamp, f, r):
    """Per point a: max over u = phi_a(r e), e in ``esamp``, of the
    invariant gradient of the ball polynomial ``f``.

    The sample is pushed in closed form.  With t = <r e, a> and
    s = sqrt(1 - |a|^2), the automorphism of ``geometry.ball_phi`` is
    u_j = (a_j (1 - t / (1 + s)) - s r e_j) / (1 - t), since its
    (1 - s) / |a|^2 equals 1 / (1 + s); so a = 0 needs no branch.  t is
    one BLAS product of the pass's points against the per-call rows
    r e_j, 1 / (1 - t) is conj(1 - t) / |1 - t|^2 in real arithmetic, and
    each u_j is its own contiguous (points, samples) array.  The weight is
    1 - |u|^2 = (1 - |a|^2)(1 - |r e|^2) / |1 - t|^2 (Rudin, Function
    Theory in the Unit Ball of C^n, 1980, 2.2), not 1 - sum |u_j|^2.
    ``f.invariant_gradient_sq`` gives the squared invariant gradient from
    per-coordinate power tables of the u_j; each pass keeps its max per
    point, and the square root is taken at the end.
    """
    zpts = np.asarray(zpts, dtype=complex)
    re = r * np.asarray(esamp, dtype=complex)
    rows = np.ascontiguousarray(re.T)
    e_weight = 1.0 - np.sum(re.real ** 2 + re.imag ** 2, axis=1)
    out = np.empty(len(zpts))
    for k in _passes(len(zpts), len(re)):
        a = zpts[k]
        aa = np.sum(a.real ** 2 + a.imag ** 2, axis=1)
        s = np.sqrt(1.0 - aa)[:, None]
        t = a.conj() @ rows  # <r e, a>
        inv = (1.0 - t).conj()
        den2 = inv.real ** 2 + inv.imag ** 2  # |1 - t|^2
        inv *= 1.0 / den2  # 1 / (1 - t), without a complex division
        lam = 1.0 - t * (1.0 / (1.0 + s))
        lam *= inv
        inv *= s
        u = [a[:, j, None] * lam - rows[j] * inv for j in range(len(rows))]
        w = (1.0 - aa)[:, None] * e_weight / den2
        out[k] = f.invariant_gradient_sq(u, w).max(axis=1)
    return np.sqrt(out)
