"""Symmetric lifting to the bidisk, diagonal restriction, exact series
norms, the log-weight asymptotic, and the boundedness scans.

The lift Lf(z, w) = (f(z) - f(w))/(z - w) has one representation per
kind of f: a Taylor polynomial sum a_k z^k lifts to the ``TensorPoly``
sum a_(i+j+1) z^i w^j, and a closed form ((1-z)^(-s), log(1/(1-z))) to
the ``LiftedFunction`` quotient, whose lifted norms come from the pair
kernel ``_kernels.pair_block_sums``."""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _kernels
from .errors import ParameterError
from .functions import HoloFunction, LogKernel, PowerSingularity, TaylorPoly
from .quadrature import BidiskGrid, DiskGrid, NormResult, WeightParams, \
    bidisk_ladder, disk_ladder, grid_for, log_ladder, matching_grid


class LiftedFunction:
    """L(f)(z, w) = (f(z) - f(w))/(z - w) as a quotient, the lift of a
    closed form.  Where |z - w|^2 < ``_kernels._DIAG_TOL2`` it takes f' at
    the midpoint, the pair kernel's rule."""

    def __init__(self, f: HoloFunction):
        if f.domain != "disk":
            raise TypeError("lifting requires a disk variant")
        self.f = f

    def __call__(self, z, w):
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        diff = z - w
        near = diff.real ** 2 + diff.imag ** 2 < _kernels._DIAG_TOL2
        out = (self.f(z) - self.f(w)) / np.where(near, 1.0, diff)
        return np.where(near, self.f.derivative_at(0.5 * (z + w)), out)

    def diagonal(self, z):
        """Delta(L f)(z) = f'(z)."""
        return self.f.derivative_at(np.asarray(z, dtype=complex))


class TensorPoly:
    """Bidisk polynomial sum c_ij z^i w^j from a coefficient matrix; the
    lift of a Taylor polynomial, cancellation-free and exact on the
    diagonal."""

    def __init__(self, cmat):
        self.cmat = np.atleast_2d(np.asarray(cmat, dtype=complex))

    def __call__(self, z, w):
        return np.polynomial.polynomial.polyval2d(
            np.asarray(z, dtype=complex), np.asarray(w, dtype=complex),
            self.cmat)

    def diagonal(self, z):
        """F(z, z) = sum_m (sum_(i+j=m) c_ij) z^m."""
        i, j = np.indices(self.cmat.shape)
        coeffs = np.zeros(sum(self.cmat.shape) - 1, dtype=complex)
        np.add.at(coeffs, i + j, self.cmat)
        return np.polynomial.polynomial.polyval(np.asarray(z, dtype=complex),
                                                coeffs)


def lift(f: HoloFunction):
    """Lf for a disk function f: for f = sum_(k<=d) a_k z^k the d x d
    ``TensorPoly`` c_ij = a_(i+j+1) (1 x 1 and zero for d = 0), otherwise
    the ``LiftedFunction`` quotient."""
    if not isinstance(f, TaylorPoly):
        return LiftedFunction(f)
    a = np.concatenate([f.coeffs, np.zeros(len(f.coeffs))])
    k = np.arange(max(f.degree, 1))
    return TensorPoly(a[np.add.outer(k, k) + 1])


def homogeneous_lift_component(k: int) -> TensorPoly:
    """The degree-(k-1) block sum_{i+j=k-1} z^i w^j, the lift of z^k."""
    if k < 1:
        raise ParameterError("component index must be at least 1")
    return lift(TaylorPoly([0.0] * k + [1.0]))


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
    graded toward z = 1 and eps down to 2^-10, 6 radial and 5 angular
    nodes per panel, 6,010 nodes at every alpha.  Over the ``thm11``
    and ``thm12`` scans, the log kernel at p = 1 and 2 and the p = 4
    probes at beta = 0.7 and 0.85, its converged closed-form lifted
    norms lie within 6.3e-8 relative of a 16 x 8 grid's (25,744
    nodes), with the same verdicts."""
    factor = DiskGrid.build_graded(alpha, eps_stop=2.0 ** -10,
                                   nodes_per_panel=6, theta_per_panel=5)
    return BidiskGrid(factor)


def _closed_form_norm(f, p: float, grid: BidiskGrid) -> NormResult:
    """Protocol integral of |(f(z)-f(w))/(z-w)|^p over the tensor grid
    for f = (1-z)^(-s) or log(1/(1-z)), by the pair kernel.

    Tail exponents of (1-z)^(-s), in delta ~ 2 eps.  Under the scaling
    z = 1 - delta zeta, w = 1 - delta omega, (1-z)^(-s) - (1-w)^(-s)
    = delta^(-s) (zeta^(-s) - omega^(-s)) and z - w = delta (omega -
    zeta), so |Lf| ~ delta^(-(s+1)) near the corner (1, 1), on a region
    of dA_beta x dA_beta measure delta^(beta+2) delta^(beta+2): the
    corner adds a tail in delta^(2 beta + 4 - p (s+1)).  Along an
    edge, z near 1 and w away from it, |Lf| ~ |f(z)| ~ delta^(-s) on a
    region of measure delta^(beta+2) times O(1): a tail in
    delta^(beta + 2 - p s).  The ladder puts these two before the
    weight's own ``bidisk_ladder(beta)``; at p = 2, beta = 0 both are
    2 - 2s, and the repeated exponent absorbs the delta^(2-2s) log
    delta of the series 2 sum |a_k|^2 H_k / (k+1).  The log kernel
    keeps ``bidisk_ladder(beta)``."""
    g, b = grid.factor, grid.alpha
    power = isinstance(f, PowerSingularity)
    s = f.s if power else 0.0
    block = _kernels.pair_block_sums(g.nodes, f(g.nodes), g.weights, g.ring,
                                     g.n_levels, p, s, 0 if power else 1)
    ladder = ([b + 2.0 - p * s, 2.0 * b + 4.0 - p * (s + 1.0),
               *bidisk_ladder(b)] if power else None)
    return grid.protocol_from_block(block, rule="scan", ladder=ladder)


def bidisk_norm(F, p: float, alpha: float,
                grid: BidiskGrid | None = None) -> NormResult:
    """Protocol integral of |F|^p dA_alpha x dA_alpha on the bidisk, for a
    ``TensorPoly`` or the lift of a closed form; a given grid must carry
    alpha."""
    WeightParams(p, alpha)
    if isinstance(F, TensorPoly):
        grid = matching_grid(grid, lambda: default_poly_bidisk_grid(
            alpha, max(max(F.cmat.shape) - 1, 1)), alpha)
        return grid.coefficient_norm(F.cmat, p)
    if isinstance(F, LiftedFunction) and isinstance(
            F.f, (PowerSingularity, LogKernel)):
        grid = matching_grid(grid, lambda: default_scan_bidisk_grid(alpha),
                             alpha)
        return _closed_form_norm(F.f, p, grid)
    raise TypeError(f"unsupported bidisk function {type(F).__name__}")


def bidisk_pairing(F, G, grid: BidiskGrid) -> complex:
    """Weighted inner product int int F conj(G) over the tensor grid.

    Both functions must be ``TensorPoly``; the double node sum then
    factors exactly through the per-ring monomial moments
    M_a[k, l] = sum_(i in ring a) w_i z_i^k conj(z_i)^l shared with
    ``BidiskGrid.coefficient_norm`` at p = 2, so no pairwise pass is
    needed: the pairing is the sum of ``grid.pairing_block(A, B)``."""
    if not (isinstance(F, TensorPoly) and isinstance(G, TensorPoly)):
        raise TypeError("pairing needs coefficient-matrix bidisk functions")
    return complex(grid.pairing_block(F.cmat, G.cmat).sum())


def diagonal_norm(F, p: float, alpha: float,
                  grid: DiskGrid | None = None) -> NormResult:
    """Protocol integral of |F(z, z)|^p dA_alpha on the disk; a given
    grid must carry alpha."""
    grid = matching_grid(grid, lambda: DiskGrid.build(
        alpha, eps_stop=2.0 ** -8, n_angular=256, nodes_per_panel=10), alpha)
    vals = np.abs(F.diagonal(grid.nodes)) ** p
    return grid.integrate_protocol(vals)


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


def log_weighted_norm(f: HoloFunction,
                      grid: DiskGrid | None = None) -> NormResult:
    """Protocol integral of |f|^2 log(1/(1 - |z|^2)) dA; the tail carries
    log factors, handled by a repeated-exponent extrapolation ladder.  A
    given grid must carry alpha = 0."""
    grid = matching_grid(grid, lambda: grid_for(
        f if isinstance(f, TaylorPoly) else None, 0.0), 0.0)
    vals = np.abs(f(grid.nodes)) ** 2 * -np.log(grid.one_minus_u)
    return grid.integrate_protocol(vals, ladder=log_ladder())


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
    verdict_f: str
    verdict_lf: str
    estimated_error_f: float
    estimated_error_lf: float


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
                          "ratio": r.ratio, "converged": r.converged,
                          "verdict_f": r.verdict_f, "verdict_Lf": r.verdict_lf,
                          "estimated_error_f": r.estimated_error_f,
                          "estimated_error_Lf": r.estimated_error_lf}
                         for r in self.rows]}

    def csv_block(self) -> tuple[list, list]:
        """(header, rows) of the scan table, with ``converged`` as 0/1."""
        return (["s", "norm_f", "norm_Lf", "ratio", "converged"],
                [[r.s, r.norm_f, r.norm_lf, r.ratio, int(r.converged)]
                 for r in self.rows])

    def to_csv(self, path) -> Path:
        path = Path(path)
        header, rows = self.csv_block()
        with path.open("w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(header)
            wr.writerows(rows)
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
        # |1-z|^(-ps) adds a tail in delta^(alpha+2-ps) to the weight's
        nf = src_grid.integrate_protocol(
            np.abs(f(src_grid.nodes)) ** p, rule="scan",
            ladder=[alpha + 2.0 - p * s, *disk_ladder(alpha)])
        nlf = bidisk_norm(lift(f), p, beta_t, grid=tensor)
        ratio = nlf.value / nf.value if nf.value > 0 else float("inf")
        out.rows.append(LiftingScanRow(
            s=float(s), norm_f=nf.value, norm_lf=nlf.value, ratio=float(ratio),
            converged=bool(nf.converged and nlf.converged),
            verdict_f=nf.verdict, verdict_lf=nlf.verdict,
            estimated_error_f=nf.estimated_error,
            estimated_error_lf=nlf.estimated_error))
    return out
