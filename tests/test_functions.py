"""Tests for the analytic test-function families and their derivatives."""

import numpy as np
import pytest
from scipy.special import gammaln

from bergman.errors import ParameterError
from bergman.functions import (BallPoly, HoloFunction, LogKernel,
                               PowerSingularity, TaylorPoly, derivative,
                               radial_metric_ratio)
from bergman.geometry import ball_phi
from bergman.sampling import sample_ball, sample_disk

# polynomials with mixed monomials and a constant term, on C^2 and C^3
MIXED_BALL_POLYS = [
    BallPoly(2, {(0, 0): 0.3 - 0.2j, (1, 0): 1.0, (1, 1): -0.7 + 0.4j,
                 (0, 3): 0.5j, (2, 1): 0.25}),
    BallPoly(2, {(0, 0): -1.1, (0, 1): 0.2 + 0.9j, (3, 0): -0.6,
                 (1, 2): 0.8 - 0.1j}),
    BallPoly(3, {(0, 0, 0): 1.2, (1, 0, 0): 0.4j, (0, 1, 1): -0.8,
                 (2, 0, 1): 0.3 + 0.3j, (1, 1, 1): 0.6, (0, 0, 3): -0.45j}),
    BallPoly(3, {(0, 0, 0): 0.5j, (0, 0, 1): -0.3, (1, 2, 0): 0.7 + 0.2j,
                 (0, 1, 2): -0.4j}),
]


def fd_invariant_gradient(f, z, h=1e-5):
    """|grad(f o phi_z)(0)| by central differences of f o phi_z along
    each complex coordinate axis: the defining formula."""
    acc = np.zeros(z.shape[:-1])
    for k in range(f.n):
        e = np.zeros(f.n, dtype=complex)
        e[k] = h
        gp = f(ball_phi(z, np.broadcast_to(e, z.shape), validate=False))
        gm = f(ball_phi(z, np.broadcast_to(-e, z.shape), validate=False))
        acc += np.abs((gp - gm) / (2.0 * h)) ** 2
    return np.sqrt(acc)


class TestEvaluation:
    def test_identity_poly(self):
        f = TaylorPoly([0, 1])
        assert f(0.3) == pytest.approx(0.3)

    def test_power_singularity(self):
        f = PowerSingularity(1.0)
        assert f(0.5) == pytest.approx(2.0)

    def test_log_kernel_at_zero(self):
        assert LogKernel()(0j) == 0.0

    def test_horner_matches_direct_sum(self):
        rng = np.random.default_rng(0)
        c = rng.normal(size=12) + 1j * rng.normal(size=12)
        f = TaylorPoly(c)
        z = sample_disk(rng, 50)
        direct = sum(c[k] * z ** k for k in range(12))
        np.testing.assert_allclose(f(z), direct, rtol=1e-13)


class TestDerivatives:
    def test_square_derivative(self):
        f = TaylorPoly([0, 0, 1])
        assert derivative(f, 0.5, "complex") == pytest.approx(1.0)

    def test_power_derivative(self):
        f = PowerSingularity(0.7)
        z = 0.3 + 0.2j
        np.testing.assert_allclose(f.derivative_at(z),
                                   0.7 * (1 - z) ** -1.7, rtol=1e-14)

    def test_taylor_matches_finite_difference(self):
        rng = np.random.default_rng(4)
        c = rng.normal(size=9) + 1j * rng.normal(size=9)
        f = TaylorPoly(c)
        z = sample_disk(rng, 100, rmax=0.9)
        h = 1e-6
        fd = (f(z + h) - f(z - h)) / (2 * h)
        np.testing.assert_allclose(f.derivative_at(z), fd, rtol=1e-7)

    def test_radial_derivative(self):
        f = BallPoly(2, {(1, 0): 1.0})
        z = np.array([0.3, 0.4j])
        assert derivative(f, z, "radial") == pytest.approx(0.3)

    def test_gradient_of_coordinate(self):
        f = BallPoly(2, {(1, 0): 1.0})
        rng = np.random.default_rng(5)
        z = sample_ball(rng, 100, 2)
        np.testing.assert_allclose(derivative(f, z, "gradient"), 1.0,
                                   rtol=1e-14)

    def test_invariant_gradient_at_origin(self):
        # phi_0 = -identity, so the invariant gradient matches |grad f(0)|
        f = BallPoly(2, {(1, 0): 1.0})
        z = np.zeros((1, 2), dtype=complex)
        np.testing.assert_allclose(derivative(f, z, "invariant-gradient"),
                                   1.0, rtol=1e-9)

    @pytest.mark.parametrize("f", MIXED_BALL_POLYS)
    def test_invariant_gradient_closed_form(self, f):
        # sqrt((1 - |z|^2)(|grad f|^2 - |Rf|^2)) against its definition
        z = sample_ball(np.random.default_rng(8 + f.n), 200, f.n, rmax=0.95)
        np.testing.assert_allclose(f.invariant_gradient_at(z),
                                   fd_invariant_gradient(f, z), rtol=1e-6)

    @pytest.mark.parametrize("f", MIXED_BALL_POLYS)
    def test_power_table_partials_match_partial_polys(self, f):
        # the three derivative quantities take their partials from one
        # table of powers per coordinate; against each partial evaluated
        # as its own BallPoly, at the origin and out to |z| = 0.999
        z = sample_ball(np.random.default_rng(11 + f.n), 200, f.n,
                        rmax=0.999)
        z[0] = 0.0
        d = [f.partial(k)(z) for k in range(f.n)]
        grad2 = sum(np.abs(dk) ** 2 for dk in d)
        radial = sum(z[:, k] * d[k] for k in range(f.n))
        one_minus = 1.0 - np.sum(np.abs(z) ** 2, axis=-1)
        np.testing.assert_allclose(f.radial_derivative_at(z), radial,
                                   rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(f.gradient_norm_at(z), np.sqrt(grad2),
                                   rtol=1e-13)
        np.testing.assert_allclose(
            f.invariant_gradient_at(z),
            np.sqrt(one_minus * (grad2 - np.abs(radial) ** 2)), rtol=1e-12)
        assert f.radial_derivative_at(z[5]) == pytest.approx(radial[5],
                                                             rel=1e-13)

    def test_radial_matches_euler_identity(self):
        # for a homogeneous polynomial of degree d, Rf = d f
        f = BallPoly(2, {(2, 1): 0.7 - 0.2j})
        rng = np.random.default_rng(6)
        z = sample_ball(rng, 50, 2)
        np.testing.assert_allclose(f.radial_derivative_at(z), 3 * f(z),
                                   rtol=1e-12)

    def test_kind_mismatch(self):
        with pytest.raises(TypeError):
            derivative(TaylorPoly([1]), 0.1, "radial")
        with pytest.raises(TypeError):
            derivative(BallPoly(2, {(1, 0): 1}), np.zeros(2, complex),
                       "complex")


class TestTaylorSections:
    def test_power_coefficients(self):
        s = 0.4
        sec = PowerSingularity(s).taylor_section(30)
        k = np.arange(31)
        expect = np.exp(gammaln(k + s) - gammaln(s) - gammaln(k + 1))
        np.testing.assert_allclose(sec.coeffs.real, expect, rtol=1e-12)

    def test_section_approximates_function(self):
        f = PowerSingularity(0.6)
        sec = f.taylor_section(60)
        z = 0.4 + 0.3j
        np.testing.assert_allclose(sec(z), f(z), rtol=1e-8)

    def test_log_section(self):
        sec = LogKernel().taylor_section(80)
        np.testing.assert_allclose(sec(0.3), -np.log(0.7), rtol=1e-12)


class TestRadialMetricRatio:
    def test_disk_interior_point(self):
        val = radial_metric_ratio(0.5 + 0j, "rho", h=1e-5)
        np.testing.assert_allclose(val, 4.0 / 3.0, rtol=1e-3)

    def test_disk_origin(self):
        np.testing.assert_allclose(radial_metric_ratio(0j, "beta", h=1e-5),
                                   1.0, rtol=1e-3)

    def test_ball_point(self):
        z = np.array([0.6, 0j])
        np.testing.assert_allclose(radial_metric_ratio(z, "rho", h=1e-5),
                                   1.0 / (1.0 - 0.36), rtol=1e-3)

    def test_error_decays_linearly(self):
        # log-log slope of |ratio - limit| against h should be near 1
        z = 0.55 + 0.2j
        limit = 1.0 / (1.0 - abs(z) ** 2)
        hs = np.array([1e-2, 1e-3, 1e-4, 1e-5])
        for metric in ("rho", "beta"):
            errs = np.array([abs(radial_metric_ratio(z, metric, h) - limit)
                             for h in hs])
            slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
            assert slope >= 0.9

    def test_step_too_large(self):
        with pytest.raises(ParameterError):
            radial_metric_ratio(0.9 + 0j, "rho", h=0.5)

    def test_ball_origin_rejected(self):
        with pytest.raises(ParameterError):
            radial_metric_ratio(np.zeros(2, complex), "rho", h=1e-5)


class TestSerialization:
    @pytest.mark.parametrize("f", [
        TaylorPoly([1.0, 2.0 - 1.0j, 0.5j]),
        PowerSingularity(0.9),
        LogKernel(),
        BallPoly(2, {(1, 0): 1.0, (2, 1): -0.5j}),
    ])
    def test_round_trip(self, f):
        g = HoloFunction.from_json(f.to_json())
        assert type(g) is type(f)
        if isinstance(f, BallPoly):
            pt = np.array([0.2 + 0.1j, -0.3j])
            np.testing.assert_allclose(g(pt), f(pt), rtol=1e-15)
        else:
            np.testing.assert_allclose(g(0.3 + 0.2j), f(0.3 + 0.2j),
                                       rtol=1e-15)

    def test_unknown_variant(self):
        with pytest.raises(TypeError):
            HoloFunction.from_json({"variant": "mystery"})


class TestValidation:
    def test_power_needs_positive_exponent(self):
        with pytest.raises(ParameterError):
            PowerSingularity(0.0)

    def test_ball_dimension(self):
        with pytest.raises(ParameterError):
            BallPoly(4, {(0, 0, 0, 0): 1.0})

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParameterError):
            BallPoly(2, {(-1, 0): 1.0})
