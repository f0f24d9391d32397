"""Tests for the symmetric lifting operator, series norms and scans."""

import numpy as np
import pytest
from scipy.special import gammaln

from bergman.errors import ParameterError
from bergman.functions import (BallPoly, LogKernel, PowerSingularity,
                               TaylorPoly)
from bergman.lifting import (LiftedFunction, TensorPoly, _closed_form_norm,
                             _lift_weights, _series_terms, bidisk_norm,
                             bidisk_pairing,
                             default_poly_bidisk_grid,
                             default_scan_bidisk_grid, diagonal_norm,
                             divergence_coefficients, divergence_demo,
                             harmonic_numbers, homogeneous_lift_component,
                             lift, lifted_norm_series, lifting_scan,
                             log_weighted_norm, monomial_log_norm_exact)
from bergman import _kernels, lifting
from bergman.quadrature import (BidiskGrid, DiskGrid, WeightParams,
                                grid_for, monomial_norm_exact, norm_p,
                                richardson)
from bergman.reporting import ExperimentReport, emit_report
from bergman.sampling import sample_disk


class TestLiftEval:
    def test_identity_lifts_to_one(self):
        rng = np.random.default_rng(1)
        z, w = sample_disk(rng, 50), sample_disk(rng, 50)
        np.testing.assert_allclose(lift(TaylorPoly([0, 1]))(z, w), 1.0,
                                   atol=1e-15)

    def test_square_lifts_to_sum(self):
        rng = np.random.default_rng(2)
        z, w = sample_disk(rng, 50), sample_disk(rng, 50)
        np.testing.assert_allclose(lift(TaylorPoly([0, 0, 1]))(z, w),
                                   z + w, rtol=1e-14)

    def test_diagonal_value_is_derivative(self):
        # z = w = 0.5 for f = z^3 gives 3 * 0.25
        val = lift(TaylorPoly([0, 0, 0, 1]))(0.5, 0.5)
        np.testing.assert_allclose(val, 0.75, rtol=1e-14)

    def test_closed_form_quotient(self):
        f = PowerSingularity(0.8)
        z, w = 0.3 + 0.1j, -0.2 + 0.4j
        np.testing.assert_allclose(lift(f)(z, w),
                                   (f(z) - f(w)) / (z - w), rtol=1e-13)

    def test_closed_form_near_diagonal(self):
        f = LogKernel()
        z = 0.4 + 0.2j
        np.testing.assert_allclose(lift(f)(z, z + 1e-9),
                                   f.derivative_at(z), rtol=1e-6)

    @pytest.mark.parametrize("f", [PowerSingularity(0.4), LogKernel()],
                             ids=["power", "log"])
    def test_closed_form_switchover_is_the_kernels(self, f):
        # the pair kernel's rule (tests/test_kernels.py ``_direct``): f' at
        # the midpoint where |z - w|^2 < _DIAG_TOL2 = 1e-12, the quotient
        # elsewhere.  |z - w| = 5e-7 is under it, 2e-6 above it; a rule on
        # |z - w| itself would take the quotient at 5e-7, ~1e-10 off.
        z = np.array([0.4 + 0.2j, -0.3 + 0.5j, 0.9 - 0.1j])
        for h, near in ((5e-7, True), (2e-6, False)):
            w = z + h * np.exp(0.7j)
            assert np.all((np.abs(z - w) ** 2 < _kernels._DIAG_TOL2) == near)
            want = (f.derivative_at(0.5 * (z + w)) if near
                    else (f(z) - f(w)) / (z - w))
            np.testing.assert_allclose(lift(f)(z, w), want, rtol=1e-15)

    @pytest.mark.parametrize("degree", [0, 1, 2, 20])
    def test_taylor_lift_is_hankel(self, degree):
        a = np.random.default_rng(degree).normal(size=degree + 1) + 1j
        F = lift(TaylorPoly(a))
        assert isinstance(F, TensorPoly)
        d = max(degree, 1)
        want = np.zeros((d, d), dtype=complex)
        for i in range(d):
            for j in range(d):
                if i + j + 1 <= degree:
                    want[i, j] = a[i + j + 1]
        assert np.array_equal(F.cmat, want)

    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_homogeneous_component_is_lift_of_monomial(self, k):
        want = np.fliplr(np.eye(k))  # ones on the antidiagonal i + j = k-1
        assert np.array_equal(homogeneous_lift_component(k).cmat, want)
        assert np.array_equal(lift(TaylorPoly([0] * k + [1])).cmat, want)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        c1 = rng.normal(size=8) + 1j * rng.normal(size=8)
        c2 = rng.normal(size=8) + 1j * rng.normal(size=8)
        z, w = sample_disk(rng, 30), sample_disk(rng, 30)
        lhs = lift(TaylorPoly(2 * c1 - 3j * c2))(z, w)
        rhs = 2 * lift(TaylorPoly(c1))(z, w) \
            - 3j * lift(TaylorPoly(c2))(z, w)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestDiagonal:
    def test_lifted_square(self):
        assert lift(TaylorPoly([0, 0, 1])).diagonal(0.3) == pytest.approx(0.6)

    def test_tensor_constant(self):
        F = TensorPoly([[1.0]])
        np.testing.assert_allclose(F.diagonal(0.77), 1.0)

    def test_tensor_sums_antidiagonals(self):
        # against the double loop over a non-square matrix, in the same
        # order of accumulation
        c = np.random.default_rng(8).normal(size=(3, 5)) + 0.5j
        coeffs = np.zeros(7, dtype=complex)
        for i in range(3):
            for j in range(5):
                coeffs[i + j] += c[i, j]
        z = np.array([0.3 - 0.2j, -0.7j, 0.95])
        assert np.array_equal(TensorPoly(c).diagonal(z),
                              np.polynomial.polynomial.polyval(z, coeffs))

    def test_lifted_quartic(self):
        assert lift(TaylorPoly([0, 0, 0, 0, 1])).diagonal(0.5) \
            == pytest.approx(0.5)

    def test_matches_derivative_everywhere(self):
        rng = np.random.default_rng(4)
        for degree in (14, 20, 0):
            c = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
            f = TaylorPoly(c)
            z = sample_disk(rng, 1000)
            np.testing.assert_allclose(lift(f).diagonal(z),
                                       f.derivative_at(z), rtol=1e-12,
                                       err_msg=f"degree {degree}")


class TestBidiskNorm:
    def test_lift_of_identity(self):
        res = bidisk_norm(lift(TaylorPoly([0, 1])), 2, 0.0)
        assert res.converged
        np.testing.assert_allclose(res.value, 1.0, rtol=1e-8)

    def test_lift_of_square(self):
        # int int |z + w|^2 = 1/2 + 1/2 by orthogonality
        res = bidisk_norm(lift(TaylorPoly([0, 0, 1])), 2, 0.0)
        np.testing.assert_allclose(res.value, 1.0, rtol=1e-8)

    def test_series_agreement_random_polys(self):
        rng = np.random.default_rng(5)
        grid = default_poly_bidisk_grid(0.0, 20)
        for _ in range(8):
            deg = int(rng.integers(2, 21))
            c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            res = bidisk_norm(lift(TaylorPoly(c)), 2, 0.0, grid=grid)
            series = lifted_norm_series(TaylorPoly(c), 0.0, 2).value
            assert res.converged
            np.testing.assert_allclose(res.value, series, rtol=1e-6)

    def test_homogeneous_orthogonality(self):
        grid = default_poly_bidisk_grid(0.0, 10)
        for k, m in [(1, 2), (2, 5), (3, 9), (7, 10)]:
            val = bidisk_pairing(homogeneous_lift_component(k),
                                 homogeneous_lift_component(m), grid)
            assert abs(val) < 1e-10

    def test_only_coefficient_lifts_pair(self):
        grid = default_poly_bidisk_grid(0.0, 4)
        with pytest.raises(TypeError):
            bidisk_pairing(lift(PowerSingularity(0.4)),
                           lift(TaylorPoly([0, 1])), grid)

    def test_taylor_quotient_has_no_norm(self):
        # a Taylor polynomial's lift is its TensorPoly; the quotient form
        # is for the closed forms only
        with pytest.raises(TypeError):
            bidisk_norm(LiftedFunction(TaylorPoly([0, 1, 2])), 2, 0.0)

    def test_refuses_mismatched_grid(self):
        F = lift(TaylorPoly([0, 1, 2]))
        with pytest.raises(ParameterError, match="does not match"):
            bidisk_norm(F, 2, 1.0, grid=default_poly_bidisk_grid(0.0, 4))
        with pytest.raises(ParameterError, match="does not match"):
            diagonal_norm(F, 2, 2.0, grid=DiskGrid.build(0.0, n_angular=16))
        # a matching grid is used as given: |F(z, z)|^2 = |1 + 4z|^2
        res = diagonal_norm(F, 2, 2.0, grid=DiskGrid.build(2.0, n_angular=16))
        np.testing.assert_allclose(
            res.value, 1.0 + 16.0 * monomial_norm_exact(1, 2.0), rtol=1e-10)

    def test_diagonal_map_bounded_into_heavier_weight(self):
        # empirical boundedness of F -> F(z, z) from dA_0 x dA_0 into
        # dA_2; one constant across a small family
        rng = np.random.default_rng(6)
        ratios = []
        for _ in range(5):
            deg = int(rng.integers(1, 9))
            c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            F = lift(TaylorPoly(c))
            num = diagonal_norm(F, 2, 2.0)
            den = bidisk_norm(F, 2, 0.0)
            assert num.converged and den.converged
            ratios.append(num.value / den.value)
        assert max(ratios) < 50.0


def _series(coeffs, beta=0.0):
    return lifted_norm_series(TaylorPoly(coeffs), beta, 2).value


class TestSeriesNorm:
    def test_identity(self):
        assert _series([0, 1]) == pytest.approx(1.0)

    def test_square(self):
        assert _series([0, 0, 1]) == pytest.approx(1.0)

    def test_zero(self):
        assert _series([0.0]) == 0.0
        assert _series([2.0], beta=0.5) == 0.0

    def test_single_high_term(self):
        # k = 2 contribution is 2 |a|^2 H_2 / 3 = |a|^2 for a_2 = 1
        assert _series([0, 0, 1.0]) == pytest.approx(1.0)

    @pytest.mark.parametrize("beta", [-0.25, 0.5, 1.0, 2.0])
    def test_taylor_series_is_the_weighted_quadrature(self, beta):
        # the finite sum against the ring-moment quadrature at weight
        # beta, within the quadrature's own error estimate: 1.2e-6
        # relative at beta = -0.25, 9e-10 at 0.5, and rounding at the
        # integer weights, where the radial rule is exact
        c = np.random.default_rng(11).normal(size=13) + 0.5j
        res = lifted_norm_series(TaylorPoly(c), beta, 2)
        quad = bidisk_norm(lift(TaylorPoly(c)), 2, beta)
        assert res.verdict == quad.verdict == "member"
        assert abs(res.value - quad.value) \
            <= quad.estimated_error + 1e-12 * res.value


def _mpmath_lifted_norm(f):
    """int int |L f|^2 dA dA to 20 digits.  For (1-z)^(-s) it is
    2 sum_k (s)_k^2 H_k / (k! (k+1)!) = 2 int_0^1 (F(1) - F(x)) / (1-x) dx
    with F = 2F1(s, s; 2; .), by H_k = int_0^1 (1 - x^k) / (1-x) dx; F(1)
    is Gamma(2 - 2s) / Gamma(2 - s)^2.  The digits lost to F(1) - F(x) as
    x -> 1 are made up by working at 50.  For log(1/(1-z)) it is
    2 sum H_k / (k^2 (k+1)) = 4 zeta(3) - 2 zeta(2)."""
    import mpmath
    with mpmath.workdps(50):
        if isinstance(f, LogKernel):
            return float(4 * mpmath.zeta(3) - 2 * mpmath.zeta(2))
        s = mpmath.mpf(f.s)
        top = mpmath.gamma(2 - 2 * s) / mpmath.gamma(2 - s) ** 2
        return float(2 * mpmath.quad(
            lambda x: (top - mpmath.hyp2f1(s, s, 2, x)) / (1 - x),
            [0, 0.5, 1]))


class TestLiftedNormSeries:
    @pytest.mark.parametrize("f", [PowerSingularity(0.1),
                                   PowerSingularity(0.2),
                                   PowerSingularity(0.4),
                                   PowerSingularity(0.6),
                                   PowerSingularity(0.8), LogKernel()],
                             ids=["s0.1", "s0.2", "s0.4", "s0.6", "s0.8",
                                  "log"])
    def test_matches_mpmath(self, f):
        # measured: 5e-15 to 1.4e-12; the estimate covers each error
        exact = _mpmath_lifted_norm(f)
        res = lifted_norm_series(f, 0.0, 2)
        assert res.verdict == "member"
        assert abs(res.value - exact) <= 1e-10 * exact
        assert abs(res.value - exact) <= res.estimated_error

    @pytest.mark.parametrize("f", [PowerSingularity(0.4), LogKernel()],
                             ids=["power", "log"])
    def test_is_the_lift_norm_at_p2(self, f):
        res = bidisk_norm(lift(f), 2, 0.0)
        assert res.value == lifted_norm_series(f, 0.0, 2).value
        with pytest.raises(ParameterError, match="no grid"):
            bidisk_norm(lift(f), 2, 0.0, grid=default_scan_bidisk_grid(0.0))

    @pytest.mark.parametrize("s", [1.0, 1.2])
    def test_non_member_at_and_past_the_threshold(self, s):
        res = lifted_norm_series(PowerSingularity(s), 0.0, 2)
        assert res.verdict == "non-member"
        assert res.estimated_error == float("inf")

    @pytest.mark.parametrize("beta", [-0.25, 0.5, 1.0])
    def test_weights_are_the_convolution(self, beta):
        # the monomial norms as an extended-precision running product
        # (``monomial_norm_exact`` through gammaln is 2e-12 off at
        # i = 2^14), then the direct convolution
        n = 2 ** 14
        i = np.arange(1, n, dtype=np.longdouble)
        gamma = np.concatenate([[1.0], np.cumprod(i / (i + beta + 1))])
        np.testing.assert_allclose(gamma[:40].astype(float), [
            monomial_norm_exact(k, beta) for k in range(40)], rtol=1e-12)
        gamma = gamma.astype(float)
        want = np.convolve(gamma, gamma)[:n]
        np.testing.assert_allclose(_lift_weights(beta, n), want,
                                   rtol=1e-13, atol=1e-15 * want[0])

    @pytest.mark.parametrize("beta", [-0.25, 0.5, 1.0])
    @pytest.mark.parametrize("s", [0.2, 0.4])
    def test_matches_the_pair_kernel_off_beta_zero(self, s, beta):
        # measured: 2.8e-9 to 5.4e-6, largest at beta = -0.25, where the
        # corner exponent 1.5 - 2s is smallest
        f = PowerSingularity(s)
        quad = _closed_form_norm(f, 2.0, default_scan_bidisk_grid(beta))
        res = lifted_norm_series(f, beta, 2)
        assert quad.verdict == res.verdict == "member"
        np.testing.assert_allclose(res.value, quad.value, rtol=1e-5)

    def test_refuses_other_functions(self):
        with pytest.raises(TypeError):
            lifted_norm_series(BallPoly(2, {(1, 0): 1.0}), 0.0, 2)

    @pytest.mark.parametrize("p", [1.0, 3.0, 6.0])
    def test_refuses_other_p(self, p):
        with pytest.raises(ParameterError, match="p = 2 and p = 4"):
            lifted_norm_series(PowerSingularity(0.2), 0.0, p)


class TestLogWeightedNorm:
    def test_constant(self):
        res = log_weighted_norm(TaylorPoly([1.0]))
        assert res.converged
        np.testing.assert_allclose(res.value, 1.0, rtol=1e-6)

    def test_monomials_match_harmonic_formula(self):
        grid = DiskGrid.build(0.0, n_angular=16)
        for k in (0, 3, 10, 25):
            f = TaylorPoly([0] * k + [1])
            res = log_weighted_norm(f, grid=grid)
            np.testing.assert_allclose(res.value, monomial_log_norm_exact(k),
                                       rtol=1e-6)

    def test_zero_function(self):
        res = log_weighted_norm(TaylorPoly([0.0]))
        assert res.value == pytest.approx(0.0, abs=1e-15)

    def test_singularity_matches_series(self):
        # sum |a_k|^2 H_(k+1) / (k+1) for (1-z)^(-0.3), 2^20 terms plus
        # the integral of the asymptotic tail k^(2s-3) (log k + gamma)
        # / Gamma(s)^2 (4.0e-9 of the sum).  The protocol is within
        # 1.9e-10 with the tail exponent 2 - 2s twice in its ladder; with
        # log_ladder() alone it is off by 1.5e-6, and on the uniform grid
        # by 1.8e-3
        s, n = 0.3, 2 ** 20
        k = np.arange(n, dtype=float)
        K, e = float(n), 2.0 - 2.0 * s
        series = np.sum(_power_coefficients(s, n) ** 2
                        * harmonic_numbers(n)[1:] / (k + 1.0)) \
            + np.exp(-2.0 * gammaln(s)) * K ** (-e) * (
                (np.log(K) + np.euler_gamma) / e + 1.0 / e ** 2)
        res = log_weighted_norm(PowerSingularity(s))
        assert res.verdict == "member"
        np.testing.assert_allclose(res.value, series, rtol=1e-7)


class TestDivergenceDemo:
    def test_a2_series_settles(self):
        out = divergence_demo([1000, 10000])
        a2 = out["a2_partial"]
        assert (a2[1] - a2[0]) < 0.02 * a2[0]

    def test_lift_series_keeps_growing(self):
        out = divergence_demo([100, 10000])
        lifted = out["lift_partial"]
        assert lifted[1] > 1.35 * lifted[0]  # observed growth factor ~1.42

    def test_coefficients_give_finite_a2_terms(self):
        a2 = divergence_coefficients(100)
        k = np.arange(101.0)
        terms = a2 / (k + 1)
        np.testing.assert_allclose(terms,
                                   1.0 / ((k + 2) * np.log(k + 2) ** 2),
                                   rtol=1e-12)

    def test_bad_input(self):
        with pytest.raises(ParameterError):
            divergence_demo([])


def _power_coefficients(s, n):
    """a_k = (s)_k / k! of (1 - z)^(-s), k < n."""
    k = np.arange(n, dtype=float)
    return np.exp(gammaln(k + s) - gammaln(s) - gammaln(k + 1.0))


def _lifted_square_partials(s, beta, degrees):
    """Partial sums over i + j < N, for N in ``degrees``, of
    int int |Lf|^4 dA_beta dA_beta for f = (1-z)^(-s) (s = None: the log
    kernel), the norm of (Lf)^2 = sum d_ij z^i w^j: sum |d_ij|^2 B(i) B(j),
    with B(k) = Gamma(beta+2) k! / Gamma(k+beta+2).

    Lf = sum_m b_m h_m with b_m = a_(m+1) and h_m = sum_(i+j=m) z^i w^j, so
    for i + j = M, d_ij = sum_t g_t #{i1 <= min(t, i), i1 >= t - j} with
    g_t = b_t b_(M-t), that is sum_t g_t (t + 1 - (t-i)_+ - (t-j)_+): one
    weighted sum less two ramp sums R(k) = sum_(t>k) (t-k) g_t.  a_k and
    B(k) are extended-precision running products (``gammaln`` is about
    5e-12 off by k = 2^11)."""
    N = max(degrees)
    k = np.arange(1, N + 1, dtype=np.longdouble)
    b = (1.0 / k if s is None
         else np.cumprod((s + k - 1) / k)).astype(float)
    B = np.concatenate([[1.0], np.cumprod(k[:-1] / (k[:-1] + beta + 1))])
    B = B.astype(float)
    terms = np.empty(N)
    for M in range(N):
        t = np.arange(M + 1)
        g = b[:M + 1] * b[M::-1]
        above = np.append(np.cumsum(g[::-1])[::-1][1:], 0.0)
        t_above = np.append(np.cumsum((t * g)[::-1])[::-1][1:], 0.0)
        ramp = t_above - t * above
        d = np.sum((t + 1) * g) - ramp - ramp[::-1]
        terms[M] = np.sum(d * d * B[:M + 1] * B[M::-1])
    return np.cumsum(terms)[np.asarray(degrees) - 1]


@pytest.fixture(scope="module")
def thm12_scan():
    return lifting_scan((0.1, 0.3, 0.45), 4.0, 0.0, "thm12")


def test_lifted_square_series_is_the_convolution():
    # the ramp sums and the library's prefix sums against the 2-d
    # convolution of c_ij = a_(i+j+1), summed over i + j < N without
    # extrapolation
    s, beta, N = 0.3, 1.0, 12
    a = _power_coefficients(s, 2 * N + 2)
    c = a[np.add.outer(np.arange(N), np.arange(N)) + 1]
    d = np.zeros((2 * N - 1, 2 * N - 1))
    for i in range(N):
        for j in range(N):
            d[i:i + N, j:j + N] += c[i, j] * c
    k = np.arange(2 * N - 1, dtype=float)
    B = np.exp(gammaln(beta + 2.0) + gammaln(k + 1.0)
               - gammaln(k + beta + 2.0))
    inside = np.add.outer(k, k) < N
    want = np.sum((d ** 2 * np.outer(B, B))[inside])
    np.testing.assert_allclose(_lifted_square_partials(s, beta, [N]), [want],
                               rtol=1e-13)
    np.testing.assert_allclose(
        np.sum(_series_terms(PowerSingularity(s).coefficients(N), beta,
                             4.0)), want,
        rtol=1e-13)


def _deep_p4_reference(f, beta):
    """The p = 4 lifted norm from the library's partials at N = 2^7, ...,
    2^13, extrapolated with this file's own ladder: the corner
    2 beta + 4 - 4 (s+1) and the edge beta + 2 - 4s of the quadrature's
    tail exponents, each also shifted by 1, and the integer powers 1 and
    2 of the truncated double sum."""
    s = f.s if isinstance(f, PowerSingularity) else 0.0
    corner, edge = 2.0 * beta + 4.0 - 4.0 * (s + 1.0), beta + 2.0 - 4.0 * s
    N = 2 ** np.arange(7, 14)
    S = np.cumsum(_series_terms(f.coefficients(N[-1]), beta, 4.0))[N - 1]
    return richardson(1.0 / N, S, [corner, edge, 1.0, corner + 1.0,
                                   edge + 1.0, 2.0])[0]


def _fitted_exponent(terms) -> float:
    """e with terms ~ k^-(e+1), so that the tail I - S_N ~ N^-e, from the
    log-log slope of the terms between k = n/2 and k = n."""
    n = len(terms)
    return float(np.log2(terms[n // 2 - 1] / terms[n - 1]) - 1.0)


class TestSeriesTailExponents:
    # the exponent the series' terms show, against the one the closed
    # form's owner predicts and the ladders take: min(edge, corner).  At
    # p = 2, beta > 0, the edge binds (measured within 1.04e-3); at p = 4,
    # beta = 0.7, the corner (within 9.6e-3, 1.1e-2 with the log kernel's
    # log factor)
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("f", [PowerSingularity(0.3),
                                   PowerSingularity(0.8), LogKernel()],
                             ids=["s0.3", "s0.8", "log"])
    def test_p2_edge(self, f, beta):
        edge, corner = f.tail_exponents(2.0, beta)
        assert edge < corner
        e = _fitted_exponent(_series_terms(f.coefficients(2 ** 14), beta, 2.0))
        assert abs(e - edge) < 2e-3

    @pytest.mark.parametrize("f", [PowerSingularity(0.1),
                                   PowerSingularity(0.2),
                                   PowerSingularity(0.3), LogKernel()],
                             ids=["s0.1", "s0.2", "s0.3", "log"])
    def test_p4_corner(self, f):
        edge, corner = f.tail_exponents(4.0, 0.7)
        assert corner < edge
        e = _fitted_exponent(_series_terms(f.coefficients(2 ** 11), 0.7, 4.0))
        assert abs(e - corner) < 1.5e-2


class TestP4LiftedNormSeries:
    @pytest.mark.parametrize("beta", [0.7, 1.0])
    @pytest.mark.parametrize("s", [0.1, 0.45, None], ids=["s0.1", "s0.45",
                                                          "log"])
    def test_partials_match_the_ramp_sums(self, s, beta):
        # the prefix-sum passes against the per-degree ramp-sum loop at
        # N = 2^4, ..., 2^11: measured within 4.4e-15
        f = LogKernel() if s is None else PowerSingularity(s)
        N = 2 ** np.arange(4, 12)
        got = np.cumsum(_series_terms(f.coefficients(N[-1]), beta,
                                      4.0))[N - 1]
        np.testing.assert_allclose(got, _lifted_square_partials(s, beta, N),
                                   rtol=1e-13, atol=0)
        # the public partials are these sums, to 2^10
        np.testing.assert_array_equal(
            lifted_norm_series(f, beta, 4).partials, got[:-1])

    @pytest.mark.parametrize("f,rtol", [(PowerSingularity(0.1), 2e-7),
                                        (PowerSingularity(0.3), 2.5e-5),
                                        (PowerSingularity(0.45), 1e-4),
                                        (LogKernel(), 2e-7)],
                             ids=["s0.1", "s0.3", "s0.45", "log"])
    def test_within_estimated_error_of_deep_reference(self, f, rtol):
        # measured at beta = 1: errors 4.6e-8, 6.0e-6, 2.6e-5 and 4.2e-8
        # of the value, estimates 1.0e-6, 2.2e-5, 3.5e-4 and 4.9e-7.
        # Without the edge exponent the errors are 1.6e-6, 1.5e-5, 2.1e-4
        # and 4.8e-7, still inside their estimates, so each case also
        # has a bar of about four times its error.  (The pair kernel on
        # the scan grid: 2.7e-6, 1.2e-4, 2.4e-3.)  The reference moves by
        # at most 6.5e-7 from 2^13 to 2^14 levels.
        res = lifted_norm_series(f, 1.0, 4)
        ref = _deep_p4_reference(f, 1.0)
        assert res.verdict == "member"
        assert abs(res.value - ref) <= res.estimated_error
        assert abs(res.value - ref) <= rtol * ref
        assert res.estimated_error <= 1e-3 * res.value

    @pytest.mark.parametrize("f,beta", [(PowerSingularity(0.45), 0.7),
                                        (PowerSingularity(0.45), 0.85),
                                        (PowerSingularity(0.55), 1.0),
                                        (LogKernel(), 0.0)],
                             ids=["s0.45-b0.7", "s0.45-b0.85", "s0.55-b1",
                                  "log-b0"])
    def test_non_member_past_the_threshold(self, f, beta):
        # the corner exponent 2 beta - 4s is -0.4, -0.1, -0.2 and 0: the
        # partials grow like N^0.4, N^0.1, N^0.2 and log N
        res = lifted_norm_series(f, beta, 4)
        assert res.verdict == "non-member"
        assert res.estimated_error == float("inf")
        assert res.value == res.partials[-1]

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_taylor_is_the_coefficient_quadrature(self, beta):
        # complex d_ij: the finite sum against the p = 4 protocol on the
        # coefficients, whose angular rule (4 degree + 16 angles) is
        # exact for |(Lf)^2|^2 = |Lf|^4
        c = np.random.default_rng(12).normal(size=9) \
            + 1j * np.random.default_rng(13).normal(size=9)
        F = lift(TaylorPoly(c))
        grid = BidiskGrid(DiskGrid.build(beta, eps_stop=2.0 ** -10,
                                         n_angular=4 * 8 + 16,
                                         nodes_per_panel=10))
        quad = grid.coefficient_norm(F.cmat, 4)
        res = lifted_norm_series(TaylorPoly(c), beta, 4)
        assert res.verdict == quad.verdict == "member"
        assert abs(res.value - quad.value) \
            <= quad.estimated_error + 1e-12 * res.value

    def test_taylor_low_degrees(self):
        # z: Lf = 1; z^2: (Lf)^2 = z^2 + 2 z w + w^2, whose norm is
        # 2 gamma_2 + 4 gamma_1^2 = 2/3 + 1 at beta = 0
        assert lifted_norm_series(TaylorPoly([3.0]), 0.0, 4).value == 0.0
        assert lifted_norm_series(TaylorPoly([0, 1]), 0.5, 4).value == 1.0
        assert lifted_norm_series(TaylorPoly([0, 0, 1]), 0.0, 4).value \
            == pytest.approx(2.0 / 3.0 + 4.0 / 4.0, rel=1e-15)

    @pytest.mark.parametrize("f", [PowerSingularity(0.3), LogKernel(),
                                   TaylorPoly(np.arange(1.0, 40.0) - 2j)],
                             ids=["power", "log", "taylor"])
    def test_passes_do_not_move_the_sums(self, f, monkeypatch):
        # at a budget of 2^6 a pass holds 10 rows at first and one row
        # from about degree 60: every pass edge moves, and each degree's
        # sum is formed the same way
        want = lifted_norm_series(f, 1.0, 4)
        monkeypatch.setattr(_kernels, "_BUDGET", 2 ** 6)
        got = lifted_norm_series(f, 1.0, 4)
        np.testing.assert_allclose(got.partials, want.partials, rtol=1e-14)

    def test_scan_and_norm_call_no_kernel(self, monkeypatch):
        # the p = 4 lifts of the closed forms take the series: no pair
        # kernel call and no tensor grid, so no silent fallback
        def refuse(*args, **kwargs):
            raise AssertionError("the pair kernel path was taken")
        monkeypatch.setattr(_kernels, "pair_block_sums", refuse)
        monkeypatch.setattr(lifting, "default_scan_bidisk_grid", refuse)
        row = lifting_scan((0.3,), 4.0, 0.0, "thm12").rows[0]
        assert row.converged
        assert row.lf.value == lifted_norm_series(PowerSingularity(0.3),
                                                  1.0, 4).value
        assert bidisk_norm(lift(LogKernel()), 4, 1.0).converged
        with pytest.raises(ParameterError, match="no grid"):
            bidisk_norm(lift(LogKernel()), 4, 1.0,
                        grid=BidiskGrid(DiskGrid.build(1.0, n_angular=8)))


class TestLiftingScan:
    def test_thm11_mode_converges(self):
        res = lifting_scan([0.5, 1.0], 1.0, 0.0, "thm11")
        assert res.beta == 0.0
        assert res.all_converged
        for row in res.rows:
            assert np.isfinite(row.ratio) and row.ratio > 0
        # each row records both integrals' verdicts and error estimates
        for row in res.to_json()["rows"]:
            assert row["verdict_f"] == row["verdict_Lf"] == "member"
            assert 0 <= row["estimated_error_f"] < 1e-3 * row["norm_f"]
            assert 0 <= row["estimated_error_Lf"] < 1e-3 * row["norm_Lf"]

    @pytest.mark.parametrize("mode,p,s_values", [
        ("thm11", 1.0, (0.5, 1.0, 1.5)), ("thm12", 4.0, (0.1, 0.3, 0.45))])
    def test_source_norms_match_gamma_ratio(self, mode, p, s_values):
        # int |1-z|^(-ps) dA = Gamma(2) Gamma(2-ps) / Gamma(2-ps/2)^2
        res = lifting_scan(s_values, p, 0.0, mode)
        for row in res.rows:
            ps = p * row.s
            exact = np.exp(gammaln(2.0) + gammaln(2.0 - ps)
                           - 2.0 * gammaln(2.0 - ps / 2.0))
            np.testing.assert_allclose(row.norm_f, exact, rtol=1e-4,
                                       err_msg=f"s={row.s}")

    @pytest.mark.parametrize("s,rtol", [(0.1, 2e-5), (0.3, 1e-3),
                                        (0.45, 1e-2)])
    def test_p4_lifted_norms_match_even_p_series(self, thm12_scan, s, rtol):
        # the scan's lifts are the series; the pair kernel's quadrature on
        # the scan grid, which bidisk_norm no longer takes at p = 4, is
        # 2.7e-6, 1.2e-4 and 2.4e-3 off them
        row = next(r for r in thm12_scan.rows if r.s == s)
        assert row.converged
        quad = _closed_form_norm(PowerSingularity(s), 4.0,
                                 default_scan_bidisk_grid(1.0))
        assert quad.converged
        np.testing.assert_allclose(quad.value, row.norm_lf, rtol=rtol)

    def test_non_member_lift_has_no_ratio(self):
        # beta' = 0.7 is lighter than the rescued weight: the source is a
        # member and the lift is not, so its truncated value has no ratio
        row = lifting_scan((0.45,), 4.0, 0.0, "thm12",
                           beta_override=0.7).rows[0]
        assert (row.f.verdict, row.lf.verdict) == ("member", "non-member")
        assert row.ratio == float("inf") and not row.converged

    @pytest.mark.parametrize("s", [0.2, 0.4, 0.6])
    def test_p2_lifted_norms_match_series(self, s):
        # the pair kernel's quadrature, which bidisk_norm no longer takes
        # at p = 2: 1.0e-7, 5.3e-7 and 7.7e-8 off; without the ladder the
        # errors are 1.8e-4, 2.2e-3 and 2.4e-2
        f = PowerSingularity(s)
        res = _closed_form_norm(f, 2.0, default_scan_bidisk_grid(0.0))
        assert res.converged
        np.testing.assert_allclose(res.value,
                                   lifted_norm_series(f, 0.0, 2).value,
                                   rtol=1e-5)

    @pytest.mark.parametrize("s,p,beta", [(1.5, 1.0, 0.0), (0.6, 2.0, 0.0),
                                          (0.1, 4.0, 1.0)])
    def test_scan_grid_resolves_closed_form_lifts(self, s, p, beta):
        # the default scan grid (6 x 5 panels) against the 12 x 6 graded
        # grid: deviations 2.1e-8 to 3.3e-8; with 4 x 5 panels up to
        # 4.0e-7, with 6 x 4 up to 1.2e-6
        # (the quadrature itself: at p = 2 bidisk_norm takes the series)
        fine = BidiskGrid(DiskGrid.build_graded(
            beta, eps_stop=2.0 ** -10, nodes_per_panel=12, theta_per_panel=6))
        f = PowerSingularity(s)
        np.testing.assert_allclose(
            _closed_form_norm(f, p, default_scan_bidisk_grid(beta)).value,
            _closed_form_norm(f, p, fine).value, rtol=1e-7)

    def test_mode_preconditions(self):
        with pytest.raises(ParameterError):
            lifting_scan([0.5], 3.0, 0.0, "thm11")
        with pytest.raises(ParameterError):
            lifting_scan([0.1], 1.0, 0.0, "thm12")

    def test_source_membership_required(self):
        with pytest.raises(ParameterError):
            lifting_scan([3.0], 1.0, 0.0, "thm11")

    def test_csv_emission(self, tmp_path):
        # the scan's block as the suites write it, with converged as 0/1
        res = lifting_scan([0.5], 1.0, 0.0, "thm11")
        rep = ExperimentReport(suite="thm11", version="", seed=0)
        rep.csv_blocks["scan"] = res.csv_block()
        path = emit_report(rep, tmp_path)[1]
        lines = path.read_text().strip().splitlines()
        assert path.name == "thm11_scan.csv"
        assert lines[0] == "s,norm_f,norm_Lf,ratio,converged"
        assert len(lines) == 2
        header, rows = res.csv_block()
        assert lines[0].split(",") == header
        assert lines[1].split(",") == [str(v) for v in rows[0]]
        assert lines[1].split(",")[-1] == str(int(res.rows[0].converged))


class TestNormAgainstSourceNorm:
    def test_ratio_reported_against_quadrature_norm(self):
        f = PowerSingularity(0.5)
        res = norm_p(f, WeightParams(1, 0.0), grid_for(f, 0.0))
        assert res.converged
        scan = lifting_scan([0.5], 1.0, 0.0, "thm11")
        np.testing.assert_allclose(scan.rows[0].norm_f, res.value, rtol=5e-3)
