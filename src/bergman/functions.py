"""Analytic test functions with exact evaluation and differentiation.

Four families are supported: finite Taylor polynomials and the closed
forms (1 - z)^(-s) and log(1/(1 - z)) on the disk, and multi-variable
monomial polynomials on the ball.  Everything evaluates vectorized over
numpy arrays.  The two closed forms own what the other modules know of
them (``_ClosedForm``): their Taylor coefficients, their boundary order
s and the tail exponents it sets.  ``to_json`` describes a function by
its variant and parameters for ``Witness.metadata``; the witness sup
cache keys on the class and the coefficients' bytes or s instead.
"""
from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .errors import ParameterError
from .geometry import BALL_DIMS, ball_metric, beta as beta_metric, \
    rho as rho_metric

SHIFT_MAX_DEGREE = 512  # C(m+k, k) < 2^512 ~ 1e154, far below float64 overflow


class HoloFunction:
    """Base class; concrete variants implement ``__call__`` and, on the
    disk, ``derivative_at`` and either ``_derivative_sq`` (f' a function
    of |1 - u|) or ``local_derivative_sq``."""

    domain = "disk"

    def __call__(self, z):
        raise NotImplementedError

    def derivative_at(self, z):
        raise NotImplementedError

    def local_derivative_table(self, grid):
        """What ``local_derivative_sq`` needs of the unit-disk sample
        ``grid``, formed once per batch of local disks: here the real and
        imaginary parts of the sample."""
        grid = np.asarray(grid, dtype=complex)
        return grid.real.copy(), grid.imag.copy()

    def local_derivative_sq(self, centers, radii, table):
        """|f'(c + R e)|^2 for each centre c and radius R (rows) and each
        sample point e (columns), given ``local_derivative_table(grid)``.

        Here f' depends on |1 - u| alone, as for both closed forms, and
        ``_derivative_sq`` takes it from |1 - u|^2 =
        (1 - Re c - R Re e)^2 + (Im c + R Im e)^2, in real arithmetic."""
        er, ei = table
        x = (1.0 - centers.real)[:, None] - radii[:, None] * er[None, :]
        y = centers.imag[:, None] + radii[:, None] * ei[None, :]
        x *= x
        y *= y
        x += y
        return self._derivative_sq(x)

    def _derivative_sq(self, q):
        """|f'(u)|^2 as a function of q = |1 - u|^2."""
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


class TaylorPoly(HoloFunction):
    """Finite Taylor polynomial sum a_k z^k, evaluated by Horner; f' on
    batches of local disks goes through its shifted coefficients."""

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if c.ndim != 1 or len(c) == 0:
            raise ParameterError("coefficients must be a nonempty 1-d sequence")
        self.coeffs = c

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        v = np.full(z.shape, self.coeffs[-1])
        for c in self.coeffs[-2::-1]:
            v *= z
            v += c
        return v[()]  # a scalar for a scalar z

    def differentiated(self) -> "TaylorPoly":
        if len(self.coeffs) == 1:
            return TaylorPoly([0.0])
        return TaylorPoly(self.coeffs[1:] * np.arange(1, len(self.coeffs)))

    def derivative_at(self, z):
        return self.differentiated()(z)

    def local_derivative_table(self, grid):
        """The shift matrix M and the power table E of the sample e.

        With a'_j (j < D) the coefficients of f', the Taylor coefficients
        of f' about c are beta_k(c) = sum_m C(m+k, k) a'_(m+k) c^m, the
        rows of V(c) @ M for the powers V(c)[m] = c^m and
        M[m, k] = C(m+k, k) a'_(m+k) where m + k < D, 0 elsewhere.
        E[k] = e^k, shape (D, len(grid)).  The degree is capped at
        SHIFT_MAX_DEGREE, so that M and beta stay far from overflow (the
        binomials alone overflow from D = 1,031 on)."""
        if self.degree > SHIFT_MAX_DEGREE:
            raise ParameterError(f"local sups take degrees up to "
                                 f"{SHIFT_MAX_DEGREE}, not {self.degree}")
        da = self.differentiated().coeffs
        D = len(da)
        binom = np.zeros((D, D))  # Pascal's triangle, exact below 2^53
        binom[:, 0] = 1.0
        for j in range(1, D):
            binom[j, 1:] = binom[j - 1, 1:] + binom[j - 1, :-1]
        m, k = np.indices((D, D))
        j = m + k
        inside = j < D
        M = np.zeros((D, D), dtype=complex)
        M[inside] = binom[j[inside], k[inside]] * da[j[inside]]
        grid = np.asarray(grid, dtype=complex)
        return M, _power_rows(grid.tobytes(), D)

    def local_derivative_sq(self, centers, radii, table):
        """|f'(c + R e)|^2, with f'(c + R e) = sum_k beta_k(c) R^k e^k by
        two matrix products, (V(c) @ M) R^k @ E, with M and E from
        ``local_derivative_table``."""
        M, E = table
        D = len(M)
        beta = np.vander(centers, D, increasing=True) @ M
        beta *= np.vander(radii, D, increasing=True)
        d = beta @ E
        return d.real ** 2 + d.imag ** 2

    def to_json(self) -> dict:
        return {"variant": "taylor",
                "coeffs": [[c.real, c.imag] for c in self.coeffs]}


@lru_cache(maxsize=8)
def _power_rows(grid: bytes, D: int) -> np.ndarray:
    """The read-only power table E[k] = e^k, k < D, of the sample e whose
    complex values are the bytes ``grid``: it depends on the sample and
    the degree alone, so the local sups of every polynomial of one degree
    share it (at D = 51 it is 0.8 MB, and its transposed copy costs more
    than a small batch's kernel pass)."""
    E = np.ascontiguousarray(
        np.vander(np.frombuffer(grid, dtype=complex), D, increasing=True).T)
    E.flags.writeable = False
    return E


class _ClosedForm(HoloFunction):
    """A closed form singular at z = 1, the one owner of its facts: its
    Taylor coefficients a_1, ..., a_n (``coefficients``), its boundary
    order ``s`` (|f| ~ |1 - z|^(-s) near 1; 0 for the log kernel) and
    the tail exponents that order sets (``tail_exponents``).  Every
    module reads them from here (Hedenmalm-Korenblum-Zhu, Theory of
    Bergman Spaces, ch. 1)."""

    def tail_exponents(self, p: float, w: float) -> tuple:
        """(edge, corner) = (w + 2 - p s, 2w + 4 - p (s+1)) at weight w.

        The edge is the tail of |f|^p against dA_w: |f|^p ~ delta^(-ps)
        on a region near z = 1 of measure delta^(w+2).  A witness of f
        and ((1-|z|^2)|f'|)^p carry the same one, and so does the lift
        Lf(z, u) = (f(z) - f(u))/(z - u) against dA_w x dA_w along an
        edge, z near 1 and u away from it.  The corner is the lift's tail
        near (1, 1): under z = 1 - delta zeta, u = 1 - delta omega,
        f(z) - f(u) = delta^(-s) (zeta^(-s) - omega^(-s)) and z - u =
        delta (omega - zeta), so |Lf| ~ delta^(-(s+1)) on a region of
        measure delta^(2w+4).  The lifted coefficient series at p = 2
        and 4 have the same two exponents in 1/N.  The lifted norm is
        finite iff both are positive."""
        return w + 2.0 - p * self.s, 2.0 * w + 4.0 - p * (self.s + 1.0)


class PowerSingularity(_ClosedForm):
    """f(z) = (1 - z)^(-s) for s > 0, principal branch."""

    def __init__(self, s: float):
        if not s > 0:
            raise ParameterError("exponent s must be positive")
        self.s = float(s)

    def __call__(self, z):
        return (1.0 - np.asarray(z, dtype=complex)) ** (-self.s)

    def derivative_at(self, z):
        return self.s * (1.0 - np.asarray(z, dtype=complex)) ** (-self.s - 1.0)

    def _derivative_sq(self, q):
        """|f'(u)|^2 = s^2 q^(-s-1), in place in q = |1 - u|^2."""
        q **= -self.s - 1.0
        q *= self.s * self.s
        return q

    def coefficients(self, n: int) -> np.ndarray:
        """a_k = (s)_k / k!, k = 1..n, as the running product of
        (s + k - 1) / k."""
        k = np.arange(1.0, n + 1.0)
        return np.cumprod((self.s + k - 1.0) / k)

    def taylor_section(self, degree: int) -> TaylorPoly:
        """Taylor polynomial of degree ``degree``: a_0 = 1, then
        ``coefficients``."""
        return TaylorPoly(np.concatenate([[1.0], self.coefficients(degree)]))

    def to_json(self) -> dict:
        return {"variant": "power", "s": self.s}


class LogKernel(_ClosedForm):
    """f(z) = log(1/(1 - z)), principal branch; f(0) = 0."""

    s = 0.0  # boundary order: a log, no power

    def __call__(self, z):
        return -np.log(1.0 - np.asarray(z, dtype=complex))

    def derivative_at(self, z):
        return 1.0 / (1.0 - np.asarray(z, dtype=complex))

    def _derivative_sq(self, q):
        """|f'(u)|^2 = 1 / q, in place in q = |1 - u|^2."""
        return np.reciprocal(q, out=q)

    def coefficients(self, n: int) -> np.ndarray:
        """a_k = 1/k, k = 1..n."""
        return 1.0 / np.arange(1.0, n + 1.0)

    def taylor_section(self, degree: int) -> TaylorPoly:
        """Taylor polynomial of degree ``degree``: a_0 = 0, then
        ``coefficients``."""
        return TaylorPoly(np.concatenate([[0.0], self.coefficients(degree)]))

    def to_json(self) -> dict:
        return {"variant": "log"}


class BallPoly(HoloFunction):
    """Polynomial in n complex variables given as a monomial table
    {(e_1, ..., e_n): coefficient}.  f and its partials are evaluated by
    one routine, from one table of powers u_j^e per coordinate."""

    domain = "ball"

    def __init__(self, n: int, terms: dict):
        if n not in BALL_DIMS:
            raise ParameterError(f"ball dimension must be one of {BALL_DIMS}")
        self.n = int(n)
        self.terms = {}
        for idx, c in terms.items():
            idx = tuple(int(e) for e in idx)
            if len(idx) != n or any(e < 0 for e in idx):
                raise ParameterError(f"bad monomial index {idx}")
            if c != 0:
                self.terms[idx] = complex(c)

    def __call__(self, z):
        return self._sums([self.terms], self._coords(z))[0]

    def partial(self, k: int) -> "BallPoly":
        """d/dz_k as another BallPoly."""
        terms = {}
        for idx, c in self.terms.items():
            if idx[k]:
                new = list(idx)
                new[k] -= 1
                terms[tuple(new)] = terms.get(tuple(new), 0.0) + c * idx[k]
        return BallPoly(self.n, terms)

    @cached_property
    def _partial_terms(self):
        """The monomial tables of df/dz_k, k < n."""
        return [self.partial(k).terms for k in range(self.n)]

    def _sums(self, tables, u):
        """[sum of c u^idx over {idx: c} for each monomial table in
        ``tables``] at the points whose coordinates are the arrays u[0],
        ..., u[n-1], from one table of powers u_j^e per coordinate, built
        once for all the tables up to their highest exponent."""
        powers = []
        for j in range(self.n):
            top = max((idx[j] for terms in tables for idx in terms), default=0)
            pj = [None, u[j]]
            for _ in range(top - 1):
                pj.append(pj[-1] * u[j])
            powers.append(pj)
        out = []
        for terms in tables:
            acc = np.zeros(np.shape(u[0]), dtype=complex)
            for idx, c in terms.items():
                t = c
                for j, e in enumerate(idx):
                    if e:
                        t = t * powers[j][e]
                acc += t
            out.append(acc)
        return out

    @staticmethod
    def _coords(z):
        z = np.asarray(z, dtype=complex)
        return [z[..., k] for k in range(z.shape[-1])]

    def radial_derivative_at(self, z):
        """Rf(z) = sum_k z_k df/dz_k."""
        u = self._coords(z)
        d = self._sums(self._partial_terms, u)
        return sum(uk * dk for uk, dk in zip(u, d))

    def gradient_norm_at(self, z):
        """|grad f(z)| = sqrt(sum_k |df/dz_k|^2)."""
        d = self._sums(self._partial_terms, self._coords(z))
        return np.sqrt(sum(dk.real ** 2 + dk.imag ** 2 for dk in d))

    def invariant_gradient_sq(self, u, one_minus):
        """(1 - |u|^2)(|grad f(u)|^2 - |Rf(u)|^2) at the points whose
        coordinates are the arrays u[0], ..., u[n-1], given their weights
        ``one_minus`` = 1 - |u|^2; the difference is >= 0 up to rounding
        and is clipped there."""
        d = self._sums(self._partial_terms, u)
        grad2 = sum(dk.real ** 2 + dk.imag ** 2 for dk in d)
        radial = sum(uk * dk for uk, dk in zip(u, d))
        diff = grad2 - (radial.real ** 2 + radial.imag ** 2)
        return one_minus * np.maximum(diff, 0.0)

    def invariant_gradient_at(self, z):
        """Moebius-invariant gradient |grad(f o phi_z)(0)|, in the closed
        form sqrt((1 - |z|^2)(|grad f(z)|^2 - |Rf(z)|^2)) (Zhu, Spaces of
        Holomorphic Functions in the Unit Ball, 2005)."""
        z = np.asarray(z, dtype=complex)
        one_minus = 1.0 - np.sum(z.real ** 2 + z.imag ** 2, axis=-1)
        return np.sqrt(self.invariant_gradient_sq(self._coords(z), one_minus))

    def to_json(self) -> dict:
        return {"variant": "ball", "n": self.n,
                "terms": [[list(idx), [c.real, c.imag]]
                          for idx, c in sorted(self.terms.items())]}


def radial_metric_ratio(z, metric: str = "rho", h: float = 1e-5):
    """Difference quotient metric(z, w) / |z - w| for the radial inward
    step w = (1 - h/|z|) z; tends to 1 / (1 - |z|^2) as h -> 0.

    Disk points are complex scalars (z = 0 steps along the positive real
    axis); ball points are length-n vectors and require z != 0.
    """
    if metric not in ("rho", "beta"):
        raise ParameterError(f"unknown metric {metric!r}")
    z = np.asarray(z, dtype=complex)
    if z.ndim == 0:  # disk point
        az = abs(complex(z))
        if not 0.0 < h < 1.0 - az:
            raise ParameterError("step h must lie in (0, 1 - |z|)")
        w = complex(z) * (1.0 - h / az) if az > 0 else complex(h)
        dist = rho_metric(z, w) if metric == "rho" else beta_metric(z, w)
        return float(dist / abs(complex(z) - w))
    # ball point
    az = float(np.sqrt(np.sum(np.abs(z) ** 2)))
    if az == 0.0:
        raise ParameterError("ball radial direction undefined at the origin")
    if not 0.0 < h < 1.0 - az:
        raise ParameterError("step h must lie in (0, 1 - |z|)")
    w = z * (1.0 - h / az)
    return float(ball_metric(z, w, kind=metric) / h)
