"""Symmetric lifting to the bidisk, diagonal restriction, exact series
norms, the log-weight asymptotic, and the boundedness scans."""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._kernels import DIAG_SWITCH
from .errors import ParameterError
from .functions import HoloFunction, LogKernel, PowerSingularity, TaylorPoly
from .quadrature import BidiskGrid, DiskGrid, NormResult, WeightParams, \
    log_ladder


def _divided_difference_matrix(coeffs) -> np.ndarray:
    """c[i, j] = a_(i+j+1), so that sum c_ij z^i w^j = (f(z)-f(w))/(z-w)."""
    a = np.asarray(coeffs, dtype=complex)
    d = len(a) - 1
    if d < 1:
        return np.zeros((1, 1), dtype=complex)
    c = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(d - i):
            c[i, j] = a[i + j + 1]
    return c


class LiftedFunction:
    """L(f)(z, w) = (f(z) - f(w))/(z - w) as a bidisk function.

    Taylor polynomials evaluate through the divided-difference coefficient
    form, which is cancellation-free and valid on the diagonal; closed
    forms use the quotient with a derivative switchover near z = w.
    """

    def __init__(self, f: HoloFunction):
        if f.domain != "disk":
            raise TypeError("lifting requires a disk variant")
        self.f = f
        self._cmat = (_divided_difference_matrix(f.coeffs)
                      if isinstance(f, TaylorPoly) else None)

    def __call__(self, z, w):
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        if self._cmat is not None:
            return np.polynomial.polynomial.polyval2d(z, w, self._cmat)
        diff = z - w
        near = np.abs(diff) < DIAG_SWITCH
        safe = np.where(near, 1.0, diff)
        out = (self.f(z) - self.f(w)) / safe
        if np.any(near):
            mid = 0.5 * (z + w)
            out = np.where(near, self.f.derivative_at(mid), out)
        return out

    def diagonal(self, z):
        """Delta(L f)(z) = f'(z); exact for Taylor polynomials."""
        return self.f.derivative_at(np.asarray(z, dtype=complex))

    @property
    def coefficient_matrix(self):
        return self._cmat


class TensorPoly:
    """Bidisk polynomial sum c_ij z^i w^j from a coefficient matrix."""

    def __init__(self, cmat):
        self.cmat = np.atleast_2d(np.asarray(cmat, dtype=complex))

    def __call__(self, z, w):
        return np.polynomial.polynomial.polyval2d(
            np.asarray(z, dtype=complex), np.asarray(w, dtype=complex),
            self.cmat)

    def diagonal(self, z):
        z = np.asarray(z, dtype=complex)
        dz, dw = self.cmat.shape
        coeffs = np.zeros(dz + dw - 1, dtype=complex)
        for i in range(dz):
            for j in range(dw):
                coeffs[i + j] += self.cmat[i, j]
        return np.polynomial.polynomial.polyval(z, coeffs)


def lift(f: HoloFunction) -> LiftedFunction:
    return LiftedFunction(f)


def lift_eval(f: HoloFunction, z, w):
    return LiftedFunction(f)(z, w)


def diagonal(F, z):
    """Restriction of a bidisk function to z = w."""
    return F.diagonal(z)


def homogeneous_lift_component(k: int) -> TensorPoly:
    """The degree-(k-1) block sum_{i+j=k-1} z^i w^j (the lift of z^k)."""
    if k < 1:
        raise ParameterError("component index must be at least 1")
    c = np.zeros((k, k), dtype=complex)
    for i in range(k):
        c[i, k - 1 - i] = 1.0
    return TensorPoly(c)


# ---------------------------------------------------------------------------
# bidisk norms
# ---------------------------------------------------------------------------

def default_poly_bidisk_grid(alpha: float, degree: int) -> BidiskGrid:
    """Tensor grid for polynomial bidisk integrands: the uniform angular
    count 2*degree + 24 integrates |F|^2 exactly in each angle, and seven
    truncation levels leave enough Richardson stages for the high-degree
    polynomial tails."""
    factor = DiskGrid.build(alpha, eps_stop=2.0 ** -10,
                            n_angular=2 * degree + 24, nodes_per_panel=10)
    return BidiskGrid(factor)


def default_scan_bidisk_grid(alpha: float) -> BidiskGrid:
    """Tensor grid for the boundary-singular scan integrands: angularly
    graded toward z = 1 and eps down to 2^-10."""
    factor = DiskGrid.build_graded(alpha, eps_stop=2.0 ** -10,
                                   nodes_per_panel=12, theta_per_panel=6)
    return BidiskGrid(factor)


def bidisk_norm(F, p: float, alpha: float, grid: BidiskGrid | None = None,
                rtol: float = 0.05) -> NormResult:
    """Protocol integral of |F|^p dA_alpha x dA_alpha on the bidisk."""
    WeightParams(p, alpha)
    if isinstance(F, TensorPoly):
        if grid is None:
            grid = default_poly_bidisk_grid(alpha, max(F.cmat.shape) - 1)
        return grid.coefficient_norm(F.cmat, p, rtol=rtol)
    if isinstance(F, LiftedFunction):
        if F.coefficient_matrix is not None:
            if grid is None:
                grid = default_poly_bidisk_grid(
                    alpha, max(F.coefficient_matrix.shape[0] - 1, 1))
            return grid.coefficient_norm(F.coefficient_matrix, p, rtol=rtol)
        if grid is None:
            grid = default_scan_bidisk_grid(alpha)
        if isinstance(F.f, PowerSingularity):
            return grid.lifted_power_norm(F.f.s, p, variant=0, rtol=rtol)
        if isinstance(F.f, LogKernel):
            return grid.lifted_power_norm(0.0, p, variant=1, rtol=rtol)
    raise TypeError(f"unsupported bidisk function {type(F).__name__}")


def _coefficient_matrix_of(F):
    if isinstance(F, TensorPoly):
        return F.cmat
    if isinstance(F, LiftedFunction) and F.coefficient_matrix is not None:
        return F.coefficient_matrix
    raise TypeError("pairing needs coefficient-matrix bidisk functions")


def bidisk_pairing(F, G, grid: BidiskGrid) -> complex:
    """Weighted inner product int int F conj(G) over the tensor grid.

    Both functions must carry coefficient matrices; the double node sum
    then factors exactly through the per-ring monomial moments
    M_a[k, l] = sum_(i in ring a) w_i z_i^k conj(z_i)^l shared with
    ``BidiskGrid.coefficient_norm`` at p = 2, so no pairwise pass is
    needed: the pairing is the sum of ``grid.pairing_block(A, B)``."""
    A = _coefficient_matrix_of(F)
    B = _coefficient_matrix_of(G)
    return complex(grid.pairing_block(A, B).sum())


def diagonal_norm(F, p: float, alpha: float, grid: DiskGrid | None = None,
                  rtol: float = 0.05) -> NormResult:
    """Protocol integral of |F(z, z)|^p dA_alpha on the disk."""
    if grid is None or abs(grid.alpha - alpha) > 1e-12:
        grid = DiskGrid.build(alpha, eps_stop=2.0 ** -8, n_angular=256,
                              nodes_per_panel=10)
    vals = np.abs(F.diagonal(grid.nodes)) ** p
    return grid.integrate_protocol(vals, rtol=rtol)


# ---------------------------------------------------------------------------
# exact series and the log-weight comparison
# ---------------------------------------------------------------------------

def harmonic_numbers(k_max: int) -> np.ndarray:
    """H_0 = 0, H_k = sum_{j=1}^k 1/j."""
    H = np.zeros(k_max + 1)
    if k_max >= 1:
        H[1:] = np.cumsum(1.0 / np.arange(1, k_max + 1))
    return H


def lift_norm_series_A2(coeffs) -> float:
    """Exact int int |L f|^2 dA dA for f = sum a_k z^k:
    2 sum_k |a_k|^2 H_k / (k+1)."""
    a = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    k = np.arange(len(a))
    H = harmonic_numbers(len(a) - 1) if len(a) > 1 else np.zeros(1)
    return float(2.0 * np.sum(np.abs(a[1:]) ** 2 * H[1:] / (k[1:] + 1.0))) \
        if len(a) > 1 else 0.0


def monomial_log_norm_exact(k: int) -> float:
    """Exact int |z^k|^2 log(1/(1-|z|^2)) dA = H_(k+1) / (k+1)."""
    H = harmonic_numbers(k + 1)
    return float(H[k + 1] / (k + 1))


def log_weighted_norm(f: HoloFunction, grid: DiskGrid | None = None,
                      rtol: float = 0.05) -> NormResult:
    """Protocol integral of |f|^2 log(1/(1 - |z|^2)) dA; the tail carries
    log factors, handled by a repeated-exponent extrapolation ladder."""
    if grid is None:
        grid = DiskGrid.build(0.0, n_angular=(4 * f.degree + 16)
                              if isinstance(f, TaylorPoly) else 256)
    u = np.abs(grid.nodes) ** 2
    vals = np.abs(f(grid.nodes)) ** 2 * np.log(1.0 / (1.0 - u))
    return grid.integrate_protocol(vals, rtol=rtol, ladder=log_ladder())


# ---------------------------------------------------------------------------
# divergence demonstration
# ---------------------------------------------------------------------------

def divergence_coefficients(n_max: int) -> np.ndarray:
    """|a_k|^2 for the borderline demonstration: chosen so that the A^2
    series terms are b_k = |a_k|^2/(k+1) = 1/((k+2) log^2(k+2)), which sum
    finitely while sum b_k H_k diverges."""
    k = np.arange(n_max + 1, dtype=float)
    return (k + 1.0) / ((k + 2.0) * np.log(k + 2.0) ** 2)


def divergence_demo(n_list=(100, 1000, 10000)) -> dict:
    """Partial sums of the A^2 norm series and of the lifted series for
    the borderline coefficient sequence, at the requested truncations."""
    n_list = sorted(int(n) for n in n_list)
    if not n_list or n_list[0] < 1:
        raise ParameterError("truncation degrees must be positive")
    n_max = n_list[-1]
    a2 = divergence_coefficients(n_max)
    k = np.arange(n_max + 1, dtype=float)
    H = harmonic_numbers(n_max)
    a2_terms = a2 / (k + 1.0)
    lift_terms = 2.0 * a2 * H / (k + 1.0)
    a2_cum = np.cumsum(a2_terms)
    lift_cum = np.cumsum(lift_terms)
    return {"N": n_list,
            "a2_partial": [float(a2_cum[n]) for n in n_list],
            "lift_partial": [float(lift_cum[n]) for n in n_list]}


# ---------------------------------------------------------------------------
# boundedness scans
# ---------------------------------------------------------------------------

@dataclass
class LiftingScanRow:
    s: float
    norm_f: float
    norm_lf: float
    ratio: float
    converged: bool


@dataclass
class LiftingScanResult:
    mode: str
    p: float
    alpha: float
    beta: float
    rows: list = field(default_factory=list)

    @property
    def all_converged(self) -> bool:
        return all(r.converged for r in self.rows)

    def to_json(self) -> dict:
        return {"mode": self.mode, "p": self.p, "alpha": self.alpha,
                "beta": self.beta,
                "rows": [{"s": r.s, "norm_f": r.norm_f, "norm_Lf": r.norm_lf,
                          "ratio": r.ratio, "converged": r.converged}
                         for r in self.rows]}

    def to_csv(self, path) -> Path:
        path = Path(path)
        with path.open("w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["s", "norm_f", "norm_Lf", "ratio", "converged"])
            for r in self.rows:
                wr.writerow([r.s, r.norm_f, r.norm_lf, r.ratio, r.converged])
        return path


def lifting_scan(s_values, p: float, alpha: float, mode: str,
                 beta_override: float | None = None) -> LiftingScanResult:
    """Lifted-norm scan over the family (1-z)^(-s).

    ``thm11`` mode (p < alpha+2) integrates the lift against the source
    weight; ``thm12`` mode (p > alpha+2) against the rescued weight
    beta = (p+alpha)/2 - 1.  Every s must satisfy p*s < 2+alpha so the
    source norm is finite.
    """
    WeightParams(p, alpha)
    if mode == "thm11":
        if not p < alpha + 2:
            raise ParameterError("thm11 mode requires p < alpha + 2")
        beta_t = alpha
    elif mode == "thm12":
        if not p > alpha + 2:
            raise ParameterError("thm12 mode requires p > alpha + 2")
        beta_t = (p + alpha) / 2.0 - 1.0
    else:
        raise ParameterError(f"unknown scan mode {mode!r}")
    if beta_override is not None:
        beta_t = float(beta_override)
    if not beta_t > -1:
        raise ParameterError("target weight must exceed -1")
    for s in s_values:
        if not p * s < 2.0 + alpha:
            raise ParameterError(
                f"s = {s} leaves the source space (need p*s < 2+alpha)")
    src_grid = DiskGrid.build_graded(alpha, eps_stop=2.0 ** -11)
    tensor = default_scan_bidisk_grid(beta_t)
    out = LiftingScanResult(mode=mode, p=p, alpha=alpha, beta=beta_t)
    for s in s_values:
        f = PowerSingularity(s)
        nf = src_grid.integrate_protocol(np.abs(f(src_grid.nodes)) ** p,
                                         rule="scan")
        nlf = tensor.lifted_power_norm(s, p)
        ratio = nlf.value / nf.value if nf.value > 0 else float("inf")
        out.rows.append(LiftingScanRow(s=float(s), norm_f=nf.value,
                                       norm_lf=nlf.value, ratio=float(ratio),
                                       converged=bool(nf.converged
                                                      and nlf.converged)))
    return out
