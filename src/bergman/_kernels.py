"""Hot inner loops, JIT-compiled when numba is importable.

Each kernel has a pure-numpy fallback with identical semantics; the
dispatching wrappers at the bottom are the only public surface.  All
kernels are single-threaded and deterministic.

The numpy pair-sum fallback visits only the upper triangle j >= i of the
node pairs, forms |L|^2 in real float64 arithmetic, and works in row
chunks of a fixed element budget (``_PAIR_BUDGET`` float64 values per
temporary, a few MB in all), reducing each chunk into ring blocks by
BLAS products against a weighted one-hot ring matrix.
"""
from __future__ import annotations

import numpy as np

try:
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is an install-time extra
    numba = None
    HAVE_NUMBA = False


# ---------------------------------------------------------------------------
# kernel 1: max over local grids of (1 - |u|^2) |q(u)| for a polynomial q
# ---------------------------------------------------------------------------

def _local_sup_poly_numpy(centers, radii, grid, qcoef, chunk=2048):
    out = np.empty(len(centers))
    for lo in range(0, len(centers), chunk):
        hi = min(lo + chunk, len(centers))
        u = centers[lo:hi, None] + radii[lo:hi, None] * grid[None, :]
        v = np.full(u.shape, qcoef[-1], dtype=np.complex128)
        for k in range(len(qcoef) - 2, -1, -1):
            v *= u
            v += qcoef[k]
        out[lo:hi] = ((1.0 - np.abs(u) ** 2) * np.abs(v)).max(axis=1)
    return out


if HAVE_NUMBA:

    @numba.njit(cache=True, fastmath=True)
    def _local_sup_poly_jit(cre, cim, rad, gre, gim, qre, qim):  # pragma: no cover
        npts = cre.shape[0]
        ng = gre.shape[0]
        nd = qre.shape[0]
        out = np.empty(npts)
        ur = np.empty(ng)
        ui = np.empty(ng)
        w2 = np.empty(ng)
        vr = np.empty(ng)
        vi = np.empty(ng)
        for i in range(npts):
            c_r = cre[i]
            c_i = cim[i]
            R = rad[i]
            for g in range(ng):
                a = c_r + R * gre[g]
                b = c_i + R * gim[g]
                ur[g] = a
                ui[g] = b
                t = 1.0 - (a * a + b * b)
                w2[g] = t * t
            top_r = qre[nd - 1]
            top_i = qim[nd - 1]
            for g in range(ng):
                vr[g] = top_r
                vi[g] = top_i
            for k in range(nd - 2, -1, -1):
                ck_r = qre[k]
                ck_i = qim[k]
                for g in range(ng):
                    tr = vr[g] * ur[g] - vi[g] * ui[g] + ck_r
                    vi[g] = vr[g] * ui[g] + vi[g] * ur[g] + ck_i
                    vr[g] = tr
            best = 0.0
            for g in range(ng):
                m2 = w2[g] * (vr[g] * vr[g] + vi[g] * vi[g])
                if m2 > best:
                    best = m2
            out[i] = np.sqrt(best)
        return out


def local_sup_poly(centers, radii, grid, qcoef):
    """For each center/radius, max over u = center + radius*grid of
    (1 - |u|^2) |q(u)| where q has coefficients ``qcoef`` (Horner)."""
    centers = np.ascontiguousarray(centers, dtype=np.complex128)
    radii = np.ascontiguousarray(radii, dtype=np.float64)
    grid = np.ascontiguousarray(grid, dtype=np.complex128)
    qcoef = np.ascontiguousarray(qcoef, dtype=np.complex128)
    if HAVE_NUMBA:
        return _local_sup_poly_jit(
            np.ascontiguousarray(centers.real), np.ascontiguousarray(centers.imag),
            radii,
            np.ascontiguousarray(grid.real), np.ascontiguousarray(grid.imag),
            np.ascontiguousarray(qcoef.real), np.ascontiguousarray(qcoef.imag))
    return _local_sup_poly_numpy(centers, radii, grid, qcoef)


# ---------------------------------------------------------------------------
# kernel 2: symmetric tensor-grid pair sums of |(f(z)-f(w))/(z-w)|^p
# accumulated into ring blocks (for the lifting scans).
# variant 0: f = (1-z)^(-s); variant 1: f = log(1/(1-z)).
# ---------------------------------------------------------------------------

_DIAG_TOL2 = 1e-12  # squared |z-w| switchover to the derivative form
_PAIR_BUDGET = 1 << 16  # float64 elements per temporary of the numpy pass


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


def _pair_block_sums_numpy(z, f, w, ring, n_rings, p, s, variant):
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
    return S, D


if HAVE_NUMBA:

    @numba.njit(cache=True, fastmath=True)
    def _pair_block_sums_jit(zre, zim, fre, fim, w, ring, n_rings, p, s, variant):  # pragma: no cover
        N = zre.shape[0]
        S = np.zeros((n_rings, n_rings))
        D = np.zeros(n_rings)
        ip = int(p)
        is_int = abs(p - ip) < 1e-12
        half_p = 0.5 * p
        for i in range(N):
            zi_r = zre[i]
            zi_i = zim[i]
            fi_r = fre[i]
            fi_i = fim[i]
            wi = w[i]
            gi = ring[i]
            # diagonal term
            mid = complex(1.0 - zi_r, -zi_i)
            if variant == 0:
                Ld = s * mid ** (-s - 1.0)
            else:
                Ld = 1.0 / mid
            m2 = Ld.real * Ld.real + Ld.imag * Ld.imag
            if is_int and ip == 1:
                v = np.sqrt(m2)
            elif is_int and ip == 2:
                v = m2
            elif is_int and ip == 4:
                v = m2 * m2
            else:
                v = m2 ** half_p
            D[gi] += wi * wi * v
            for j in range(i + 1, N):
                dr = zi_r - zre[j]
                di = zi_i - zim[j]
                d2 = dr * dr + di * di
                if d2 < _DIAG_TOL2:
                    m = complex(1.0 - 0.5 * (zi_r + zre[j]), -0.5 * (zi_i + zim[j]))
                    if variant == 0:
                        L = s * m ** (-s - 1.0)
                    else:
                        L = 1.0 / m
                    Lr = L.real
                    Li = L.imag
                else:
                    nr = fi_r - fre[j]
                    ni = fi_i - fim[j]
                    inv = 1.0 / d2
                    Lr = (nr * dr + ni * di) * inv
                    Li = (ni * dr - nr * di) * inv
                m2 = Lr * Lr + Li * Li
                if is_int and ip == 1:
                    v = np.sqrt(m2)
                elif is_int and ip == 2:
                    v = m2
                elif is_int and ip == 4:
                    v = m2 * m2
                else:
                    v = m2 ** half_p
                S[gi, ring[j]] += wi * w[j] * v
        return S, D


def pair_block_sums(z, f, w, ring, n_rings, p, s, variant):
    """Ring-block sums of w_i w_j |L(z_i, z_j)|^p over the full tensor grid,
    where L is the symmetric divided difference of the closed-form family.

    Returns the (n_rings, n_rings) block matrix of the full double sum,
    assembled from one triangular pass (the integrand is symmetric); node
    pairs with |z_i - z_j|^2 under ``_DIAG_TOL2``, the diagonal included,
    take L = f' at their midpoint.  Rings need not be sorted.  The numpy
    fallback computes the strict upper triangle j > i in real arithmetic
    as |L|^2 = |f_i - f_j|^2 / |z_i - z_j|^2, raised to p/2, in row chunks
    of about ``_PAIR_BUDGET`` elements, and sums each chunk into ring
    blocks by two BLAS products with the weighted one-hot ring matrix.
    """
    z = np.ascontiguousarray(z, dtype=np.complex128)
    f = np.ascontiguousarray(f, dtype=np.complex128)
    w = np.ascontiguousarray(w, dtype=np.float64)
    ring = np.ascontiguousarray(ring, dtype=np.int64)
    if HAVE_NUMBA:
        S, D = _pair_block_sums_jit(
            np.ascontiguousarray(z.real), np.ascontiguousarray(z.imag),
            np.ascontiguousarray(f.real), np.ascontiguousarray(f.imag),
            w, ring, int(n_rings), float(p), float(s), int(variant))
    else:
        S, D = _pair_block_sums_numpy(z, f, w, ring, int(n_rings),
                                      float(p), float(s), int(variant))
    block = S + S.T
    block[np.diag_indices(n_rings)] += D
    return block


# ---------------------------------------------------------------------------
# kernel 3: ball witness sup of the invariant gradient over pushed samples
# ---------------------------------------------------------------------------

def _ball_sup_invgrad_numpy(zpts, esamp, exps, coefs, r, h, chunk=256):
    from .geometry import ball_phi

    def poly(v):
        out = np.zeros(v.shape[:-1], dtype=complex)
        for e, c in zip(exps, coefs):
            t = np.full(v.shape[:-1], c, dtype=complex)
            for k, ek in enumerate(e):
                if ek:
                    t = t * v[..., k] ** ek
            out += t
        return out

    n = zpts.shape[-1]
    out = np.empty(len(zpts))
    for lo in range(0, len(zpts), chunk):
        hi = min(lo + chunk, len(zpts))
        u = ball_phi(zpts[lo:hi, None, :], r * esamp[None, :, :], validate=False)
        acc = np.zeros(u.shape[:-1])
        for k in range(n):
            e = np.zeros(n, dtype=complex)
            e[k] = h
            gp = poly(ball_phi(u, np.broadcast_to(e, u.shape), validate=False))
            gm = poly(ball_phi(u, np.broadcast_to(-e, u.shape), validate=False))
            acc += np.abs((gp - gm) / (2.0 * h)) ** 2
        out[lo:hi] = np.sqrt(acc).max(axis=1)
    return out


if HAVE_NUMBA:

    @numba.njit(cache=True, fastmath=True)
    def _ball_sup_invgrad_jit(zpts, esamp, exps, coefs, r, h):  # pragma: no cover
        P = zpts.shape[0]
        n = zpts.shape[1]
        G = esamp.shape[0]
        T = coefs.shape[0]
        out = np.empty(P)
        u = np.empty(n, dtype=np.complex128)
        vv = np.empty(n, dtype=np.complex128)
        for ipt in range(P):
            zz = 0.0
            for k in range(n):
                zk = zpts[ipt, k]
                zz += zk.real * zk.real + zk.imag * zk.imag
            sz = np.sqrt(1.0 - zz)
            best = 0.0
            for g in range(G):
                # u = phi_z(r * e_g)
                za = 0.0 + 0.0j
                for k in range(n):
                    za += (r * esamp[g, k]) * np.conj(zpts[ipt, k])
                inv_den = 1.0 / (1.0 - za)
                if zz > 0.0:
                    fac = za / zz
                    for k in range(n):
                        Pk = fac * zpts[ipt, k]
                        u[k] = (zpts[ipt, k] - Pk - sz * (r * esamp[g, k] - Pk)) * inv_den
                else:
                    for k in range(n):
                        u[k] = -r * esamp[g, k]
                uu = 0.0
                for k in range(n):
                    uu += u[k].real * u[k].real + u[k].imag * u[k].imag
                su = np.sqrt(max(1.0 - uu, 0.0))
                acc = 0.0
                for kd in range(n):
                    fp = 0.0 + 0.0j
                    fm = 0.0 + 0.0j
                    for sgn in range(2):
                        step = h if sgn == 0 else -h
                        zb = step * np.conj(u[kd])  # <x, u> for x = step*e_kd
                        invd = 1.0 / (1.0 - zb)
                        if uu > 0.0:
                            fac2 = zb / uu
                            for k in range(n):
                                Pk = fac2 * u[k]
                                xk = step if k == kd else 0.0
                                vv[k] = (u[k] - Pk - su * (xk - Pk)) * invd
                        else:
                            for k in range(n):
                                vv[k] = -(step if k == kd else 0.0) + 0.0j
                        fval = 0.0 + 0.0j
                        for t in range(T):
                            term = coefs[t]
                            for k in range(n):
                                ek = exps[t, k]
                                for _ in range(ek):
                                    term = term * vv[k]
                            fval += term
                        if sgn == 0:
                            fp = fval
                        else:
                            fm = fval
                    dq = (fp - fm) / (2.0 * h)
                    acc += dq.real * dq.real + dq.imag * dq.imag
                val = np.sqrt(acc)
                if val > best:
                    best = val
            out[ipt] = best
        return out


def ball_sup_invgrad(zpts, esamp, exps, coefs, r, h):
    """Per point z: max over u = phi_z(r * e) of the invariant gradient of
    the monomial polynomial given by (exps, coefs), FD step ``h``."""
    zpts = np.ascontiguousarray(zpts, dtype=np.complex128)
    esamp = np.ascontiguousarray(esamp, dtype=np.complex128)
    exps = np.ascontiguousarray(exps, dtype=np.int64)
    coefs = np.ascontiguousarray(coefs, dtype=np.complex128)
    if HAVE_NUMBA:
        return _ball_sup_invgrad_jit(zpts, esamp, exps, coefs,
                                     float(r), float(h))
    return _ball_sup_invgrad_numpy(zpts, esamp, exps, coefs, float(r), float(h))
