"""Analytic test functions with exact evaluation and differentiation.

Four families are supported: finite Taylor polynomials and the closed
forms (1 - z)^(-s) and log(1/(1 - z)) on the disk, and multi-variable
monomial polynomials on the ball.  Everything evaluates vectorized over
numpy arrays and round-trips through a small JSON encoding.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import ParameterError
from .geometry import BALL_DIMS

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

    @staticmethod
    def from_json(obj: dict) -> "HoloFunction":
        variant = obj["variant"]
        if variant == "taylor":
            return TaylorPoly([complex(re, im) for re, im in obj["coeffs"]])
        if variant == "power":
            return PowerSingularity(obj["s"])
        if variant == "log":
            return LogKernel()
        if variant == "ball":
            terms = {tuple(idx): complex(re, im) for idx, (re, im) in obj["terms"]}
            return BallPoly(obj["n"], terms)
        raise TypeError(f"unknown function variant {variant!r}")


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
        return M, np.ascontiguousarray(np.vander(grid, D, increasing=True).T)

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


class PowerSingularity(HoloFunction):
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

    def taylor_section(self, degree: int) -> TaylorPoly:
        """Taylor polynomial of degree ``degree``; a_k = (s)_k / k!."""
        c = np.empty(degree + 1, dtype=complex)
        c[0] = 1.0
        for k in range(1, degree + 1):
            c[k] = c[k - 1] * (self.s + k - 1) / k
        return TaylorPoly(c)

    def to_json(self) -> dict:
        return {"variant": "power", "s": self.s}


class LogKernel(HoloFunction):
    """f(z) = log(1/(1 - z)), principal branch; f(0) = 0."""

    def __call__(self, z):
        return -np.log(1.0 - np.asarray(z, dtype=complex))

    def derivative_at(self, z):
        return 1.0 / (1.0 - np.asarray(z, dtype=complex))

    def _derivative_sq(self, q):
        """|f'(u)|^2 = 1 / q, in place in q = |1 - u|^2."""
        return np.reciprocal(q, out=q)

    def taylor_section(self, degree: int) -> TaylorPoly:
        c = np.zeros(degree + 1, dtype=complex)
        c[1:] = 1.0 / np.arange(1, degree + 1)
        return TaylorPoly(c)

    def to_json(self) -> dict:
        return {"variant": "log"}


class BallPoly(HoloFunction):
    """Polynomial in n complex variables given as a monomial table
    {(e_1, ..., e_n): coefficient}."""

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
        z = np.asarray(z, dtype=complex)
        out = np.zeros(z.shape[:-1], dtype=complex)
        for idx, c in self.terms.items():
            t = np.full(z.shape[:-1], c, dtype=complex)
            for k, e in enumerate(idx):
                if e:
                    t = t * z[..., k] ** e
            out += t
        return out

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

    def _partials(self, u):
        """[df/du_k for k < n] at the points whose coordinates are the
        arrays u[0], ..., u[n-1], from one table of powers u_j^e per
        coordinate."""
        parts = self._partial_terms
        powers = []
        for j in range(self.n):
            top = max((idx[j] for terms in parts for idx in terms), default=0)
            pj = [None, u[j]]
            for _ in range(top - 1):
                pj.append(pj[-1] * u[j])
            powers.append(pj)
        out = []
        for terms in parts:
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
        return sum(uk * dk for uk, dk in zip(u, self._partials(u)))

    def gradient_norm_at(self, z):
        """|grad f(z)| = sqrt(sum_k |df/dz_k|^2)."""
        return np.sqrt(sum(d.real ** 2 + d.imag ** 2
                           for d in self._partials(self._coords(z))))

    def invariant_gradient_sq(self, u, one_minus):
        """(1 - |u|^2)(|grad f(u)|^2 - |Rf(u)|^2) at the points whose
        coordinates are the arrays u[0], ..., u[n-1], given their weights
        ``one_minus`` = 1 - |u|^2; the difference is >= 0 up to rounding
        and is clipped there."""
        d = self._partials(u)
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


def derivative(f: HoloFunction, z, kind: str = "complex"):
    """Dispatch the derivative notions: ``complex`` (f', disk variants),
    ``radial``, ``gradient`` and ``invariant-gradient`` (ball variants)."""
    if kind == "complex":
        if f.domain != "disk":
            raise TypeError("complex derivative requires a disk variant")
        return f.derivative_at(z)
    if f.domain != "ball":
        raise TypeError(f"derivative kind {kind!r} requires a ball variant")
    if kind == "radial":
        return f.radial_derivative_at(z)
    if kind == "gradient":
        return f.gradient_norm_at(z)
    if kind == "invariant-gradient":
        return f.invariant_gradient_at(z)
    raise TypeError(f"unknown derivative kind {kind!r}")


def radial_metric_ratio(z, metric: str = "rho", h: float = 1e-5):
    """Difference quotient metric(z, w) / |z - w| for the radial inward
    step w = (1 - h/|z|) z; tends to 1 / (1 - |z|^2) as h -> 0.

    Disk points are complex scalars (z = 0 steps along the positive real
    axis); ball points are length-n vectors and require z != 0.
    """
    z = np.asarray(z, dtype=complex)
    if z.ndim == 0:  # disk point
        az = abs(complex(z))
        if not 0.0 < h < 1.0 - az:
            raise ParameterError("step h must lie in (0, 1 - |z|)")
        w = complex(z) * (1.0 - h / az) if az > 0 else complex(h)
        from .geometry import rho as _rho, beta as _beta
        dist = _rho(z, w) if metric == "rho" else _beta(z, w)
        return float(dist / abs(complex(z) - w))
    # ball point
    from .geometry import ball_metric
    az = float(np.sqrt(np.sum(np.abs(z) ** 2)))
    if az == 0.0:
        raise ParameterError("ball radial direction undefined at the origin")
    if not 0.0 < h < 1.0 - az:
        raise ParameterError("step h must lie in (0, 1 - |z|)")
    w = z * (1.0 - h / az)
    if metric not in ("rho", "beta"):
        raise ParameterError(f"unknown metric {metric!r}")
    return float(ball_metric(z, w, kind=metric) / h)
