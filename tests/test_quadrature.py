"""Tests for the weighted quadrature grids, the eps protocol, membership
decisions and the growth-exponent machinery."""

import numpy as np
import pytest
from scipy.integrate import quad

from bergman.errors import ParameterError
from bergman.functions import LogKernel, PowerSingularity, TaylorPoly
from bergman.geometry import pseudo_disk
from bergman.quadrature import (BallGrid, BidiskGrid, DiskGrid, WeightParams,
                                build_grid, derivative_seminorm,
                                fit_growth_exponent, forelli_rudin_exact,
                                forelli_rudin_integral, forelli_rudin_sup,
                                grid_for, membership, monomial_norm_exact,
                                norm_p, region_integral)
from bergman.sampling import sample_disk

ALPHAS = (-0.5, 0.0, 1.0, 2.5)


@pytest.fixture(scope="module")
def grids():
    return {a: DiskGrid.build(a, n_angular=64) for a in ALPHAS}


class TestGridBasics:
    def test_weights_nonnegative(self, grids):
        for g in grids.values():
            assert np.all(g.weights >= 0)

    def test_normalization(self, grids):
        for a, g in grids.items():
            res = g.integrate_protocol(np.ones(g.node_count))
            assert res.converged
            np.testing.assert_allclose(res.value, 1.0, rtol=1e-8)

    def test_partials_monotone_for_nonnegative(self, grids):
        g = grids[0.0]
        vals = np.abs(g.nodes) ** 2
        F = g.partials(vals)
        assert np.all(np.diff(F) >= 0)

    def test_build_grid_dispatcher(self):
        assert build_grid("disk", 0.0, n_angular=16).node_count > 0
        assert build_grid("bidisk", 0.0, n_angular=16).node_count > 0
        with pytest.raises(ParameterError):
            build_grid("triangle", 0.0)

    def test_alpha_validation(self):
        with pytest.raises(ParameterError):
            DiskGrid.build(-1.0)
        with pytest.raises(ParameterError):
            WeightParams(0.0, 0.0)


class TestMonomialExactness:
    """Quadrature of |z^k|^2 dA_alpha against the Gamma-function formula."""

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_all_degrees(self, grids, alpha):
        g = grids[alpha]
        u = np.abs(g.nodes) ** 2
        for k in range(31):
            res = g.integrate_protocol(u ** k)
            assert res.converged
            np.testing.assert_allclose(res.value, monomial_norm_exact(k, alpha),
                                       rtol=1e-8)

    def test_exact_oracle_by_quadrature(self):
        # independent check of the closed form itself
        for k, alpha in [(0, 0.3), (3, 0.0), (2, 1.0), (7, -0.5)]:
            val, _ = quad(lambda u: (alpha + 1) * (1 - u) ** alpha * u ** k,
                          0, 1)
            np.testing.assert_allclose(monomial_norm_exact(k, alpha), val,
                                       rtol=1e-10)

    def test_known_values(self):
        assert monomial_norm_exact(0, 1.7) == pytest.approx(1.0)
        assert monomial_norm_exact(3, 0.0) == pytest.approx(0.25)
        assert monomial_norm_exact(2, 1.0) == pytest.approx(1.0 / 6.0)


class TestOrthogonality:
    def test_mixed_monomials_vanish(self, grids):
        g = grids[1.0]
        for k, m in [(0, 1), (1, 2), (2, 5), (3, 4)]:
            val = np.sum(g.weights * g.nodes ** k * np.conj(g.nodes) ** m)
            assert abs(val) < 1e-10


class TestNormP:
    def test_monomial_alpha0(self, grids):
        for k in (1, 4, 9):
            res = norm_p(TaylorPoly([0] * k + [1]), WeightParams(2, 0.0),
                         grids[0.0])
            np.testing.assert_allclose(res.value, 1.0 / (k + 1), rtol=1e-8)

    def test_constant(self, grids):
        res = norm_p(TaylorPoly([1.0]), WeightParams(0.7, 2.5), grids[2.5])
        np.testing.assert_allclose(res.value, 1.0, rtol=1e-8)

    def test_monomial_alpha1(self, grids):
        for k in (1, 2, 6):
            res = norm_p(TaylorPoly([0] * k + [1]), WeightParams(2, 1.0),
                         grids[1.0])
            np.testing.assert_allclose(res.value, 2.0 / ((k + 1) * (k + 2)),
                                       rtol=1e-8)

    def test_grid_for_polynomial_angular(self):
        g = grid_for(TaylorPoly(np.ones(11)), 0.0)
        res = norm_p(TaylorPoly(np.ones(11)), WeightParams(2, 0.0), g)
        expect = sum(monomial_norm_exact(k, 0.0) for k in range(11))
        np.testing.assert_allclose(res.value, expect, rtol=1e-8)


class TestMembership:
    def test_integrable_singularity(self):
        verdict, res = membership(PowerSingularity(0.9), WeightParams(2, 0.0))
        assert verdict == "member"
        assert res.converged

    def test_nonintegrable_singularity(self):
        verdict, res = membership(PowerSingularity(1.1), WeightParams(2, 0.0))
        assert verdict == "non-member"
        assert not res.converged

    def test_polynomial_always_member(self):
        verdict, _ = membership(TaylorPoly([1, 2, 3]), WeightParams(0.5, 1.0))
        assert verdict == "member"

    def test_log_kernel_member(self):
        verdict, _ = membership(LogKernel(), WeightParams(2, 0.0))
        assert verdict == "member"


class TestDerivativeSeminorm:
    def test_constant(self, grids):
        res = derivative_seminorm(TaylorPoly([3.0]), WeightParams(2, 0.0),
                                  grids[0.0])
        np.testing.assert_allclose(res.value, 9.0, rtol=1e-10)

    def test_identity_function(self, grids):
        # int (1-u)^2 du = 1/3 computed independently
        oracle, _ = quad(lambda u: (1 - u) ** 2, 0, 1)
        res = derivative_seminorm(TaylorPoly([0, 1]), WeightParams(2, 0.0),
                                  grids[0.0])
        np.testing.assert_allclose(res.value, oracle, rtol=1e-8)

    def test_singular_family_ratio_finite(self):
        f = PowerSingularity(0.4)
        wp = WeightParams(2, 0.0)
        g = DiskGrid.build(0.0, n_angular=256)
        semi = derivative_seminorm(f, wp, g)
        full = norm_p(f, wp, g)
        assert semi.converged and full.converged
        ratio = semi.value / full.value
        assert 1e-3 < ratio < 1e3


class TestSubharmonicBound:
    def test_single_empirical_constant(self):
        # |f(z)|^2 (1-|z|^2)^2 <= C int_{D(z,r)} |f|^2 dA across a family
        rng = np.random.default_rng(8)
        r = 0.5
        zs = sample_disk(rng, 100, rmax=0.95)
        worst = 0.0
        for deg in (1, 4, 10):
            c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            f = TaylorPoly(c)
            for z in zs:
                d = pseudo_disk(complex(z), r)
                num = abs(f(z)) ** 2 * (1 - abs(z) ** 2) ** 2
                den = region_integral(lambda u: np.abs(f(u)) ** 2, d)
                worst = max(worst, num / den)
        assert np.isfinite(worst)
        assert worst < 100.0


class TestForelliRudin:
    def test_value_at_origin(self):
        for s in (0.0, 0.5, 1.0):
            res = forelli_rudin_integral(0.0, s, 1.0)
            np.testing.assert_allclose(res.value, 1.0 / (s + 1), rtol=1e-6)

    def test_growth_when_positive_exponent(self):
        # I(x) (1 - x^2) approaches a positive constant for t = 1
        v1 = forelli_rudin_integral(0.99, 0.0, 1.0).value * (1 - 0.99 ** 2)
        v2 = forelli_rudin_integral(0.999, 0.0, 1.0).value * (1 - 0.999 ** 2)
        assert v1 > 0 and v2 > 0
        np.testing.assert_allclose(v1, v2, rtol=0.05)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            forelli_rudin_integral(0.5, -1.5, 0.0)
        with pytest.raises(ParameterError):
            forelli_rudin_integral(1.0, 0.0, 0.0)

    def test_closed_form_matches_quadrature(self):
        # the growing cases carry ~1e-3 of truncated-tail extrapolation
        for x, s, t in ((0.5, 0.0, -0.5), (0.9, 0.5, 1.0), (0.99, 0.0, 0.5)):
            np.testing.assert_allclose(
                forelli_rudin_integral(x, s, t).value,
                forelli_rudin_exact(x, s, t), rtol=5e-3)

    def test_bounded_case_supremum(self):
        # Gauss's value: Gamma(1/2) / Gamma(5/4)^2 for s = 0, t = -1/2
        sup = forelli_rudin_sup(0.0, -0.5)
        np.testing.assert_allclose(sup, 2.157410404753517, rtol=1e-12)
        assert forelli_rudin_exact(0.99999, 0.0, -0.5) < sup
        with pytest.raises(ParameterError):
            forelli_rudin_sup(0.0, 0.0)


class TestGrowthExponentFit:
    def test_exact_power_law(self):
        xs = np.array([0.9, 0.95, 0.99, 0.999])
        Is = (1 - xs ** 2) ** -2.0
        np.testing.assert_allclose(fit_growth_exponent(zip(xs, Is)), 2.0,
                                   atol=1e-6)

    def test_slope_from_quadrature(self):
        xs = [0.99, 0.995, 0.999, 0.9995, 0.9999]
        Is = [forelli_rudin_integral(x, 0.0, 1.0).value for x in xs]
        slope = fit_growth_exponent(zip(xs, Is))
        assert abs(slope - 1.0) <= 0.05

    def test_needs_four_deep_samples(self):
        with pytest.raises(ParameterError):
            fit_growth_exponent([(0.91, 1.0), (0.95, 1.0), (0.99, 1.0)])




@pytest.fixture(scope="module")
def small_bidisk():
    return BidiskGrid(DiskGrid.build(0.0, eps_stop=2.0 ** -6, n_angular=16,
                                     nodes_per_panel=4))


def _pair_values(grid, cmat):
    """sum c_ij z^i w^j at every node pair (z, w) of the tensor grid."""
    g = grid.factor
    Z, W = np.meshgrid(g.nodes, g.nodes, indexing="ij")
    return np.polynomial.polynomial.polyval2d(Z, W, cmat)


def _ring_blocks(grid, vals):
    """sum_ij w_i w_j vals_ij over z_i in ring a and z_j in ring b."""
    g = grid.factor
    wr = g.weights[:, None] * np.eye(g.n_levels)[g.ring]
    return wr.T @ vals @ wr


class TestCoefficientNorm:
    @pytest.fixture(scope="class")
    def cmat(self):
        rng = np.random.default_rng(11)
        return rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))

    def test_grid_spans_rings_and_chunks(self, small_bidisk):
        from bergman import _kernels
        assert small_bidisk.factor.n_levels == 3
        assert small_bidisk.node_count > 2 * _kernels._PAIR_BUDGET

    @pytest.mark.parametrize("p", [2.0, 3.0])  # ring moments, BLAS pass
    def test_partials_match_double_sum(self, small_bidisk, cmat, p):
        block = _ring_blocks(small_bidisk,
                             np.abs(_pair_values(small_bidisk, cmat)) ** p)
        got = small_bidisk.coefficient_norm(cmat, p).partials
        np.testing.assert_allclose(got, small_bidisk.block_partials(block),
                                   rtol=1e-12)

    def test_pairing_blocks_match_double_sum(self, small_bidisk, cmat):
        rng = np.random.default_rng(12)
        other = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        want = _ring_blocks(small_bidisk, _pair_values(small_bidisk, cmat)
                            * np.conj(_pair_values(small_bidisk, other)))
        np.testing.assert_allclose(small_bidisk.pairing_block(cmat, other),
                                   want, atol=1e-12 * np.abs(want).max())


@pytest.fixture(scope="module")
def ball_grid():
    return BallGrid(2, 0.0, log2_count=18)


class TestBallGrid:

    def test_normalization(self, ball_grid):
        res = ball_grid.integrate_protocol(np.ones(ball_grid.node_count))
        np.testing.assert_allclose(res.value, 1.0, atol=1e-3)

    def test_monomial_moment(self, ball_grid):
        # int |z_1|^2 dv over the 2-ball is 1/3
        vals = np.abs(ball_grid.nodes[:, 0]) ** 2
        res = ball_grid.integrate_protocol(vals)
        np.testing.assert_allclose(res.value, 1.0 / 3.0, rtol=1e-2)

    def test_weighted_monomial_moment(self):
        g = BallGrid(2, 1.5, log2_count=18)
        # exact: m! Gamma(n+alpha+1) / Gamma(n+|m|+alpha+1), m = (1, 0)
        from scipy.special import gammaln
        expect = np.exp(gammaln(2) + gammaln(2 + 1.5 + 1)
                        - gammaln(2 + 1 + 1.5 + 1))
        vals = np.abs(g.nodes[:, 0]) ** 2
        res = g.integrate_protocol(vals)
        np.testing.assert_allclose(res.value, expect, rtol=1e-2)


class TestNormResultSerialization:
    def test_json_carries_eps_sequence(self, grids):
        res = norm_p(TaylorPoly([0, 1]), WeightParams(2, 0.0), grids[0.0])
        obj = res.to_json()
        assert len(obj["eps"]) == len(obj["partials"]) == 9
        assert obj["converged"] is True
        assert obj["verdict"] == "member"
