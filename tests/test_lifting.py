"""Tests for the symmetric lifting operator, series norms and scans."""

import numpy as np
import pytest
from scipy.special import gammaln

from bergman.errors import ParameterError
from bergman.functions import LogKernel, PowerSingularity, TaylorPoly
from bergman.lifting import (LiftedFunction, TensorPoly, bidisk_norm,
                             bidisk_pairing, diagonal_norm,
                             divergence_coefficients, divergence_demo,
                             homogeneous_lift_component, lift,
                             lift_norm_series_A2, lifting_scan,
                             log_weighted_norm, monomial_log_norm_exact,
                             default_poly_bidisk_grid)
from bergman import _kernels
from bergman.quadrature import (BidiskGrid, DiskGrid, WeightParams,
                                grid_for, monomial_norm_exact, norm_p,
                                richardson)
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
            series = lift_norm_series_A2(c)
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


class TestSeriesNorm:
    def test_identity(self):
        assert lift_norm_series_A2([0, 1]) == pytest.approx(1.0)

    def test_square(self):
        assert lift_norm_series_A2([0, 0, 1]) == pytest.approx(1.0)

    def test_zero(self):
        assert lift_norm_series_A2([0.0]) == 0.0

    def test_single_high_term(self):
        # k = 2 contribution is 2 |a|^2 H_2 / 3 = |a|^2 for a_2 = 1
        assert lift_norm_series_A2([0, 0, 1.0]) == pytest.approx(1.0)


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


def _lifted_series_of_power(s, n_terms=2 ** 20):
    """int int |Lf|^2 dA dA = 2 sum_k |a_k|^2 H_k / (k+1) for (1-z)^(-s),
    0 < s < 1: ``n_terms`` terms plus the integral of the asymptotic tail
    2 k^(2s-3) (log k + gamma) / Gamma(s)^2."""
    head = lift_norm_series_A2(_power_coefficients(s, n_terms))
    K, e = float(n_terms), 2.0 - 2.0 * s
    return head + 2.0 * np.exp(-2.0 * gammaln(s)) * K ** (-e) * (
        (np.log(K) + np.euler_gamma) / e + 1.0 / e ** 2)


def _lifted_square_partials(s, beta, degrees):
    """Partial sums over i + j < N, for N in ``degrees``, of
    int int |Lf|^4 dA_beta dA_beta for f = (1-z)^(-s), the norm of
    (Lf)^2 = sum d_ij z^i w^j: sum |d_ij|^2 B(i) B(j), with
    B(k) = Gamma(beta+2) k! / Gamma(k+beta+2).

    Lf = sum_m b_m h_m with b_m = a_(m+1) and h_m = sum_(i+j=m) z^i w^j, so
    for i + j = M, d_ij = sum_t g_t #{i1 <= min(t, i), i1 >= t - j} with
    g_t = b_t b_(M-t), that is sum_t g_t (t + 1 - (t-i)_+ - (t-j)_+): one
    weighted sum less two ramp sums R(k) = sum_(t>k) (t-k) g_t."""
    N = max(degrees)
    b = _power_coefficients(s, N + 1)[1:]
    k = np.arange(N, dtype=float)
    B = np.exp(gammaln(beta + 2.0) + gammaln(k + 1.0)
               - gammaln(k + beta + 2.0))
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


def _lifted_square_series(s, beta, degrees=(128, 256, 512, 1024, 2048)):
    """The partial sums extrapolated in 1/N with the exponents e, e + 1
    and 1, where e = 2 beta + 4 - 4 (s+1)."""
    e = 2.0 * beta + 4.0 - 4.0 * (s + 1.0)
    return richardson(1.0 / np.asarray(degrees, float),
                      _lifted_square_partials(s, beta, degrees),
                      [e, e + 1.0, 1.0])[0]


@pytest.fixture(scope="module")
def thm12_scan():
    return lifting_scan((0.1, 0.3, 0.45), 4.0, 0.0, "thm12")


def test_lifted_square_series_is_the_convolution():
    # the ramp sums against the 2-d convolution of c_ij = a_(i+j+1),
    # summed over i + j < N without extrapolation
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
        # the series is settled to about 1e-6, 4e-5 and 2e-4 of itself;
        # without the edge and corner exponents the errors are 2.4e-4,
        # 1.9e-2 and 0.40
        row = next(r for r in thm12_scan.rows if r.s == s)
        assert row.converged
        np.testing.assert_allclose(row.norm_lf, _lifted_square_series(s, 1.0),
                                   rtol=rtol)

    @pytest.mark.parametrize("s", [0.2, 0.4, 0.6])
    def test_p2_lifted_norms_match_series(self, s):
        # without the ladder the errors are 1.8e-4, 2.2e-3 and 2.4e-2
        res = bidisk_norm(lift(PowerSingularity(s)), 2, 0.0)
        assert res.converged
        np.testing.assert_allclose(res.value, _lifted_series_of_power(s),
                                   rtol=1e-5)

    @pytest.mark.parametrize("s,p,beta", [(1.5, 1.0, 0.0), (0.6, 2.0, 0.0),
                                          (0.1, 4.0, 1.0)])
    def test_scan_grid_resolves_closed_form_lifts(self, s, p, beta):
        # the default scan grid (6 x 5 panels) against the 12 x 6 graded
        # grid: deviations 2.1e-8 to 3.3e-8; with 4 x 5 panels up to
        # 4.0e-7, with 6 x 4 up to 1.2e-6
        fine = BidiskGrid(DiskGrid.build_graded(
            beta, eps_stop=2.0 ** -10, nodes_per_panel=12, theta_per_panel=6))
        F = lift(PowerSingularity(s))
        np.testing.assert_allclose(bidisk_norm(F, p, beta).value,
                                   bidisk_norm(F, p, beta, grid=fine).value,
                                   rtol=1e-7)

    def test_mode_preconditions(self):
        with pytest.raises(ParameterError):
            lifting_scan([0.5], 3.0, 0.0, "thm11")
        with pytest.raises(ParameterError):
            lifting_scan([0.1], 1.0, 0.0, "thm12")

    def test_source_membership_required(self):
        with pytest.raises(ParameterError):
            lifting_scan([3.0], 1.0, 0.0, "thm11")

    def test_csv_emission(self, tmp_path):
        res = lifting_scan([0.5], 1.0, 0.0, "thm11")
        path = res.to_csv(tmp_path / "scan.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "s,norm_f,norm_Lf,ratio,converged"
        assert len(lines) == 2
        # the same block the suites write, with converged as 0/1
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
