"""Tests for the symmetric lifting operator, series norms and scans."""

import numpy as np
import pytest
from scipy.special import gammaln

from bergman.errors import ParameterError
from bergman.functions import LogKernel, PowerSingularity, TaylorPoly
from bergman.lifting import (LiftedFunction, TensorPoly, bidisk_norm,
                             bidisk_pairing, diagonal, diagonal_norm,
                             divergence_coefficients, divergence_demo,
                             homogeneous_lift_component, lift, lift_eval,
                             lift_norm_series_A2, lifting_scan,
                             log_weighted_norm, monomial_log_norm_exact,
                             default_poly_bidisk_grid)
from bergman.quadrature import WeightParams, grid_for, norm_p
from bergman.sampling import sample_disk


class TestLiftEval:
    def test_identity_lifts_to_one(self):
        rng = np.random.default_rng(1)
        z, w = sample_disk(rng, 50), sample_disk(rng, 50)
        np.testing.assert_allclose(lift_eval(TaylorPoly([0, 1]), z, w), 1.0,
                                   atol=1e-15)

    def test_square_lifts_to_sum(self):
        rng = np.random.default_rng(2)
        z, w = sample_disk(rng, 50), sample_disk(rng, 50)
        np.testing.assert_allclose(lift_eval(TaylorPoly([0, 0, 1]), z, w),
                                   z + w, rtol=1e-14)

    def test_diagonal_value_is_derivative(self):
        # z = w = 0.5 for f = z^3 gives 3 * 0.25
        val = lift_eval(TaylorPoly([0, 0, 0, 1]), 0.5, 0.5)
        np.testing.assert_allclose(val, 0.75, rtol=1e-14)

    def test_closed_form_quotient(self):
        f = PowerSingularity(0.8)
        z, w = 0.3 + 0.1j, -0.2 + 0.4j
        np.testing.assert_allclose(lift_eval(f, z, w),
                                   (f(z) - f(w)) / (z - w), rtol=1e-13)

    def test_closed_form_near_diagonal(self):
        f = LogKernel()
        z = 0.4 + 0.2j
        np.testing.assert_allclose(lift_eval(f, z, z + 1e-9),
                                   f.derivative_at(z), rtol=1e-6)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        c1 = rng.normal(size=8) + 1j * rng.normal(size=8)
        c2 = rng.normal(size=8) + 1j * rng.normal(size=8)
        z, w = sample_disk(rng, 30), sample_disk(rng, 30)
        lhs = lift_eval(TaylorPoly(2 * c1 - 3j * c2), z, w)
        rhs = 2 * lift_eval(TaylorPoly(c1), z, w) \
            - 3j * lift_eval(TaylorPoly(c2), z, w)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestDiagonal:
    def test_lifted_square(self):
        assert diagonal(lift(TaylorPoly([0, 0, 1])), 0.3) == pytest.approx(0.6)

    def test_tensor_constant(self):
        F = TensorPoly([[1.0]])
        np.testing.assert_allclose(diagonal(F, 0.77), 1.0)

    def test_lifted_quartic(self):
        assert diagonal(lift(TaylorPoly([0, 0, 0, 0, 1])),
                        0.5) == pytest.approx(0.5)

    def test_matches_derivative_everywhere(self):
        rng = np.random.default_rng(4)
        c = rng.normal(size=15) + 1j * rng.normal(size=15)
        f = TaylorPoly(c)
        z = sample_disk(rng, 1000)
        np.testing.assert_allclose(diagonal(lift(f), z), f.derivative_at(z),
                                   rtol=1e-12)


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
        from bergman.quadrature import DiskGrid
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


class TestLiftingScan:
    def test_thm11_mode_converges(self):
        res = lifting_scan([0.5, 1.0], 1.0, 0.0, "thm11")
        assert res.beta == 0.0
        assert res.all_converged
        for row in res.rows:
            assert np.isfinite(row.ratio) and row.ratio > 0

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
