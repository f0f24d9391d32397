"""Symmetric lifting to the bidisk, diagonal restriction, exact series
norms, the log-weight asymptotic, and the boundedness scans.

The lift Lf(z, w) = (f(z) - f(w))/(z - w) has one representation per
kind of f: a Taylor polynomial sum a_k z^k lifts to the ``TensorPoly``
sum a_(i+j+1) z^i w^j, and a closed form ((1-z)^(-s), log(1/(1-z))) to
the ``LiftedFunction`` quotient.  At p = 2 and p = 4 a lifted norm is a
series in the Taylor coefficients (``lifted_norm_series``): at p = 2
sum |a_k|^2 c_k(beta), at p = 4 the p = 2 norm of (Lf)^2.  It is finite
for a polynomial and extrapolated in the truncation degree N for the
closed forms, whose p = 2 and p = 4 lifted norms it gives.  Their other
lifted norms (the ``thm11`` p = 1 scan) come from the pair kernel
``_kernels.pair_block_sums`` on a tensor grid (``_closed_form_norm``),
which is also the series' check at p = 2 and p = 4.  Both read what
they know of a closed form from it: the series its Taylor coefficients
(``coefficients``), the series and the kernel their tail exponents
(``tail_exponents``), one term builder (``_series_terms``) serving the
closed forms and ``TaylorPoly`` alike.  The p = 4 series and the pair
kernel read their partials under the lenient ``scan`` rule of
``classify_partials``; the p = 2 series under ``strict``."""
from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _kernels
from .errors import ParameterError
from .functions import HoloFunction, PowerSingularity, TaylorPoly, _ClosedForm
from .quadrature import LADDER_LEN, BidiskGrid, DiskGrid, NormResult, \
    WeightParams, bidisk_ladder, classify_partials, grid_for, log_ladder, \
    matching_grid, norm_p, richardson, tail_head


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
    and ``thm12`` scan cases, the log kernel at p = 1 and 2 and the p = 4
    probes at beta = 0.7 and 0.85, all on the pair kernel, its converged
    closed-form lifted norms lie within 6.3e-8 relative of a 16 x 8
    grid's (25,744 nodes), with the same verdicts."""
    factor = DiskGrid.build_graded(alpha, eps_stop=2.0 ** -10,
                                   nodes_per_panel=6, theta_per_panel=5)
    return BidiskGrid(factor)


def _closed_form_norm(f, p: float, grid: BidiskGrid) -> NormResult:
    """Protocol integral of |(f(z)-f(w))/(z-w)|^p over the tensor grid
    for f = (1-z)^(-s) or log(1/(1-z)), by the pair kernel: the lifted
    norm at p other than 2 and 4, and the suites' check of the series
    (``lifted_norm_series``) at p = 2 and 4.

    The ladder puts the edge and then the corner of
    ``f.tail_exponents(p, beta)``, in delta ~ 2 eps, before the weight's
    own ``bidisk_ladder(beta)``; at p = 2, beta = 0 both are 2 - 2s, and
    the repeated exponent absorbs the delta^(2-2s) log delta of the
    series 2 sum |a_k|^2 H_k / (k+1).  The log kernel keeps
    ``bidisk_ladder(beta)`` alone.

    Its verdict takes the lenient ``scan`` rule, as the p = 4 series'
    does: under ``strict`` the lift of (1-z)^(-0.45) at p = 4, beta = 1
    reads undecided."""
    g, b = grid.factor, grid.alpha
    power = isinstance(f, PowerSingularity)
    block = _kernels.pair_block_sums(g.nodes, f(g.nodes), g.weights, g.ring,
                                     g.n_levels, p, f.s, 0 if power else 1)
    return grid.protocol_from_block(block, rule="scan", ladder=[
        *(f.tail_exponents(p, b) if power else ()), *bidisk_ladder(b)])


def bidisk_norm(F, p: float, alpha: float,
                grid: BidiskGrid | None = None) -> NormResult:
    """Integral of |F|^p dA_alpha x dA_alpha on the bidisk, for a
    ``TensorPoly`` or the lift of a closed form.

    A ``TensorPoly`` takes the protocol on its coefficients
    (``BidiskGrid.coefficient_norm``).  The lift of a closed form takes
    its coefficient series at p = 2 and p = 4 (``lifted_norm_series``),
    which needs no grid and refuses one, and at any other p the pair
    kernel's protocol (``_closed_form_norm``) on
    ``default_scan_bidisk_grid(alpha)``.  A given grid must carry
    alpha."""
    WeightParams(p, alpha)
    if isinstance(F, TensorPoly):
        grid = matching_grid(grid, lambda: default_poly_bidisk_grid(
            alpha, max(max(F.cmat.shape) - 1, 1)), alpha)
        return grid.coefficient_norm(F.cmat, p)
    if isinstance(F, LiftedFunction) and isinstance(F.f, _ClosedForm):
        if p in _SERIES_DEGREES:
            if grid is not None:
                raise ParameterError(f"the p = {p:g} lifted norm of a closed "
                                     "form is its coefficient series; it "
                                     "takes no grid")
            return lifted_norm_series(F.f, alpha, p)
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
    needed: the pairing is the sum of ``grid.pairing_block(A, B)``.  The
    grid computes those moments once per shape and keeps them read-only,
    so later pairings of the same shapes on it reuse them."""
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


# truncation degrees N of the lifted series at p = 2 and p = 4, their levels
_SERIES_DEGREES = {2: 2 ** np.arange(6, 15), 4: 2 ** np.arange(4, 11)}


def _monomial_norms(beta: float, n: int) -> np.ndarray:
    """gamma_i = ||z^i||^2 in A^2_beta = Gamma(i+1) Gamma(beta+2) /
    Gamma(i+beta+2), i < n, as the running product gamma_i =
    gamma_(i-1) i / (i+beta+1)."""
    i = np.arange(1.0, n)
    return np.concatenate([[1.0], np.cumprod(i / (i + beta + 1.0))])


def _lift_weights(beta: float, n: int) -> np.ndarray:
    """c_k(beta) = ||sum_(i+j=k-1) z^i w^j||^2 in L^2(dA_beta x dA_beta),
    k = 1..n: sum_(i+j=k-1) gamma_i gamma_j with the monomial norms
    gamma_i (``_monomial_norms``).  At beta = 0 it is 2 H_k / (k+1);
    otherwise one FFT convolution of the gamma_i."""
    if beta == 0.0:
        return 2.0 * harmonic_numbers(n)[1:] / np.arange(2.0, n + 2.0)
    gamma = _monomial_norms(beta, n)
    g = np.fft.rfft(gamma, 2 * len(gamma))
    return np.fft.irfft(g * g, 2 * len(gamma))[:n]


def _square_lift_terms(b, gamma) -> np.ndarray:
    """T_M = sum_(i+j=M) |d_ij|^2 gamma_i gamma_j, M < n = len(b): the
    degree-M part of ||(Lf)^2||^2 in L^2(dA_beta x dA_beta), for
    Lf = sum_m b_m sum_(i+j=m) z^i w^j (b_m = a_(m+1)) and gamma the
    monomial norms of A^2_beta (``_monomial_norms``, length n).

    With g_t = b_t b_(M-t), the coefficient d_ij of (Lf)^2 counts the
    splittings i = i1 + i2, j = j1 + j2 with i1 + j1 = t; for i <= j,
    t < i has t + 1 of them, i <= t <= j has i + 1 and t > j has M - t + 1,
    so by g_t = g_(M-t)
        d_i = 2 P1(i) + (i+1) (S0 - 2 P0(i)),
    P0(i) = sum_(t<i) g_t, P1(i) = sum_(t<i) (t+1) g_t, S0 = sum_t g_t.
    For the closed forms, whose b_m are positive, every term is
    positive, so nothing cancels.  d is symmetric, so only
    i <= M/2 is formed, weighted 2 below M/2 and 1 at it.  Rows of M go
    in passes of about ``_kernels._BUDGET`` elements; b_(M-t) and
    gamma_(M-i) are strided windows of reversed, zero-padded copies, and
    S0 is one direct convolution."""
    n = len(b)
    width = (n - 1) // 2 + 1
    rev_b = sliding_window_view(
        np.concatenate([b[::-1], np.zeros(width, b.dtype)]), width)
    rev_g = sliding_window_view(
        np.concatenate([gamma[::-1], np.zeros(width)]), width)
    s0 = np.convolve(b, b)[:n, None]
    complex_d = np.iscomplexobj(b)
    out = np.empty(n)
    m0 = 0
    while m0 < n:
        # r rows with r (m0 + r + 1) / 2 <= _BUDGET, so a pass of width
        # (m0 + r - 1) // 2 + 1 stays within it
        c = m0 + 1.0
        rows = max(1, min(n - m0, int((sqrt(c * c + 8.0 * _kernels._BUDGET)
                                       - c) / 2.0)))
        m1 = m0 + rows
        w = (m1 - 1) // 2 + 1
        i1 = np.arange(1.0, w + 1.0)
        g = rev_b[n - m1:n - m0, :w][::-1] * b[:w]
        p0 = np.zeros_like(g)
        p1 = np.zeros_like(g)
        np.cumsum(g[:, :-1], axis=1, out=p0[:, 1:])
        np.cumsum(g[:, :-1] * i1[:-1], axis=1, out=p1[:, 1:])
        d = 2.0 * p1 + i1 * (s0[m0:m1] - 2.0 * p0)
        d2 = d.real * d.real + d.imag * d.imag if complex_d else d * d
        half = np.clip(np.arange(m0 + 1, m1 + 1)[:, None]
                       - 2 * np.arange(w), 0, 2)
        wt = half * gamma[:w] * rev_g[n - m1:n - m0, :w][::-1]
        out[m0:m1] = np.einsum("ij,ij->i", d2, wt)
        m0 = m1
    return out


def _series_terms(a, beta: float, p: float) -> np.ndarray:
    """The terms of the p-th power lifted series (p = 2 or 4) of the
    Taylor coefficients a = a_1, ..., a_n, one per degree: at p = 2
    |a_k|^2 c_k(beta) (``_lift_weights``), at p = 4 the degree-M parts
    of ||(Lf)^2||^2, M < n (``_square_lift_terms``; a polynomial's whole
    p = 4 sum needs a zero-padded to length 2n - 1).  The partial sum to
    degree N is the cumulative sum at N - 1."""
    if p == 2.0:
        return np.abs(a) ** 2 * _lift_weights(beta, len(a))
    return _square_lift_terms(a, _monomial_norms(beta, len(a)))


def lifted_norm_series(f, beta: float, p: float) -> NormResult:
    """int int |L f|^p dA_beta x dA_beta for p = 2 or 4, from the Taylor
    coefficients a_k of f.

    At p = 2 it is sum_k |a_k|^2 c_k(beta) (``_lift_weights``: L z^k is
    sum_(i+j=k-1) z^i w^j, and these are orthogonal).  At p = 4 it is
    ||(Lf)^2||_2^2, the sum of |d_ij|^2 gamma_i gamma_j over the
    coefficients d_ij of (Lf)^2 and the monomial norms gamma_i of
    A^2_beta (``_square_lift_terms``, Hedenmalm-Korenblum-Zhu, Theory of
    Bergman Spaces, ch. 1).

    For a ``TaylorPoly`` the sum is finite and exact (at p = 4 with
    complex d_ij): a member whose one level is 1/n for its n terms, with
    n eps value as its error.  For (1-z)^(-s) and log(1/(1-z)) the
    partial sums S_N, over the terms of degree below N (p = 2: k <= N),
    get the verdict of ``classify_partials``, and a member is
    extrapolated by ``richardson`` in 1/N (Sidi, Practical Extrapolation
    Methods, ch. 1).  The coefficients and the tail exponents (edge,
    corner) come from ``f.coefficients`` and ``f.tail_exponents(p,
    beta)``, the pair kernel's exponents in delta; s = 0 for the log
    kernel.

    At p = 2 the levels are N = 2^6, ..., 2^14 under the ``strict`` rule.
    Since |a_k|^2 ~ k^(2s-2) / Gamma(s)^2 and c_k ~ A k^(-beta-1) (one
    index small: the edge) + B k^(-2 beta-1) (both large: the corner),
    I - S_N has the edge exponent beta + 2 - 2s and the corner exponent
    2 beta + 4 - 2(s+1); the ladder takes both, then both shifted by 1, 2
    and 3.  At beta = 0 the two are equal, and each repeat absorbs the
    log N of c_k = 2 H_k / (k+1).  The series converges iff s < min(beta + 1,
    beta/2 + 1); past that the partials grow and read non-member.

    At p = 4 the levels are N = 2^4, ..., 2^10 under the ``scan`` rule of
    the pair kernel's protocol (``strict`` reads s = 0.45, beta = 1
    undecided: its increment ratios fall from 0.94 to 0.88).  The ladder
    is the corner 2 beta + 4 - 4(s+1), the edge beta + 2 - 4s, 1, both
    shifted by 1, then 2; the series converges iff both exponents are
    positive, so the log kernel at beta = 0 reads non-member.

    ``estimated_error`` is the larger of the spread between the full
    extrapolation and the one without the deepest level, and the rounding
    bound N eps |S_N| of the partial sums.  ``eps_values`` holds the
    levels as 1/N."""
    WeightParams(p, beta)
    if p not in _SERIES_DEGREES:
        raise ParameterError(f"the lifted series is for p = 2 and p = 4, "
                             f"not p = {p:g}")
    ulp = np.finfo(float).eps
    if isinstance(f, TaylorPoly):
        a = f.coeffs[1:] if f.degree else np.zeros(1, complex)
        terms = _series_terms(a if p == 2.0 else np.pad(a, (0, len(a) - 1)),
                              beta, p)
        value = float(np.sum(terms))
        n = len(terms)
        return NormResult(value=value, eps_values=np.array([1.0 / n]),
                          partials=np.array([value]),
                          estimated_error=n * ulp * value, verdict="member")
    if not isinstance(f, _ClosedForm):
        raise TypeError(f"no coefficient series for {type(f).__name__}")
    N = _SERIES_DEGREES[p]
    S = np.cumsum(_series_terms(f.coefficients(N[-1]), beta, p))[N - 1]
    levels = 1.0 / N
    verdict = classify_partials(S, rule="strict" if p == 2.0 else "scan")
    if verdict != "member":
        value, err = float(S[-1]), float("inf")
    else:
        edge, corner = f.tail_exponents(p, beta)
        if p == 2.0:
            ladder = [e + m for m in range(LADDER_LEN // 2)
                      for e in (edge, corner)]
        else:
            ladder = [corner, edge, 1.0, corner + 1.0, edge + 1.0, 2.0]
        value = richardson(levels, S, ladder)[0]
        shorter = richardson(levels[:-1], S[:-1], ladder)[0]
        err = max(abs(value - shorter), N[-1] * ulp * abs(value))
    return NormResult(value=value, eps_values=levels, partials=S,
                      estimated_error=err, verdict=verdict)


def monomial_log_norm_exact(k: int) -> float:
    """Exact int |z^k|^2 log(1/(1-|z|^2)) dA = H_(k+1) / (k+1)."""
    H = harmonic_numbers(k + 1)
    return float(H[k + 1] / (k + 1))


def log_weighted_norm(f: HoloFunction,
                      grid: DiskGrid | None = None) -> NormResult:
    """Protocol integral of |f|^2 log(1/(1 - |z|^2)) dA on
    ``grid_for(f, 0)`` unless a grid is given, which must carry
    alpha = 0.  The tail carries log factors, handled by repeated
    exponents: f's ``tail_head`` at p = 2, alpha = 0 twice (the weight's
    log times |f|^2's own tail), then ``log_ladder()``."""
    grid = matching_grid(grid, lambda: grid_for(f, 0.0), 0.0)
    vals = np.abs(f(grid.nodes)) ** 2 * -np.log(grid.one_minus_u)
    head = tail_head(f, 2.0, 0.0)
    return grid.integrate_protocol(vals, ladder=[*head, *head, *log_ladder()])


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
    """The source and lifted norms of (1-z)^(-s); the values, their
    ratio and the joint convergence are read off them."""

    s: float
    f: NormResult
    lf: NormResult

    @property
    def norm_f(self) -> float:
        return self.f.value

    @property
    def norm_lf(self) -> float:
        return self.lf.value

    @property
    def ratio(self) -> float:
        """||Lf||^p / ||f||^p, inf where the lift reads non-member (its
        value is then a truncated partial) or the source norm is 0."""
        if self.lf.verdict == "non-member" or not self.f.value > 0:
            return float("inf")
        return float(self.lf.value / self.f.value)

    @property
    def converged(self) -> bool:
        return bool(self.f.converged and self.lf.converged)


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
                          "verdict_f": r.f.verdict, "verdict_Lf": r.lf.verdict,
                          "estimated_error_f": r.f.estimated_error,
                          "estimated_error_Lf": r.lf.estimated_error}
                         for r in self.rows]}

    def csv_block(self) -> tuple[list, list]:
        """(header, rows) of the scan table, with ``converged`` as 0/1."""
        return (["s", "norm_f", "norm_Lf", "ratio", "converged"],
                [[r.s, r.norm_f, r.norm_lf, r.ratio, int(r.converged)]
                 for r in self.rows])


def lifting_scan(s_values, p: float, alpha: float, mode: str,
                 beta_override: float | None = None) -> LiftingScanResult:
    """Lifted-norm scan over the family (1-z)^(-s).

    ``thm11`` mode (p < alpha+2) integrates the lift against the source
    weight; ``thm12`` mode (p > alpha+2) against the rescued weight
    beta = (p+alpha)/2 - 1.  Every s must satisfy p*s < 2+alpha, a
    positive edge exponent (``tail_exponents``), so the source norm is
    finite.  The source norm is ``norm_p`` on a graded grid to
    eps = 2^-11; the lifted norm is ``bidisk_norm``: the coefficient
    series at p = 2 and p = 4, otherwise the pair kernel on
    ``default_scan_bidisk_grid(beta)``, which is built only then.
    """
    wp = WeightParams(p, alpha)
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
    family = [PowerSingularity(s) for s in s_values]
    for f in family:
        if not f.tail_exponents(p, alpha)[0] > 0:
            raise ParameterError(f"s = {f.s:g} leaves the source space "
                                 "(need p*s < 2+alpha)")
    src_grid = DiskGrid.build_graded(alpha, eps_stop=2.0 ** -11)
    tensor = None if p in _SERIES_DEGREES \
        else default_scan_bidisk_grid(beta_t)
    return LiftingScanResult(mode=mode, p=p, alpha=alpha, beta=beta_t, rows=[
        LiftingScanRow(s=f.s, f=norm_p(f, wp, src_grid),
                       lf=bidisk_norm(lift(f), p, beta_t, grid=tensor))
        for f in family])
