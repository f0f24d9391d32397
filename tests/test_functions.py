"""Tests for the analytic test-function families and their derivatives."""

import json

import mpmath
import numpy as np
import pytest
from scipy.special import gammaln

from bergman.errors import ParameterError
from bergman.functions import (BallPoly, LogKernel, PowerSingularity,
                               TaylorPoly, radial_metric_ratio)
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


def monomial_sum(terms, z):
    """sum c z_1^e_1 ... z_n^e_n over the table, term by term with numpy
    powers: the reference for ``BallPoly``'s power tables."""
    out = np.zeros(z.shape[:-1], dtype=complex)
    for idx, c in terms.items():
        t = np.full(z.shape[:-1], c, dtype=complex)
        for k, e in enumerate(idx):
            t = t * z[..., k] ** e
        out += t
    return out


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

    @pytest.mark.parametrize("f", MIXED_BALL_POLYS)
    def test_ball_power_tables_match_monomial_sum(self, f):
        z = sample_ball(np.random.default_rng(9 + f.n), 200, f.n, rmax=0.999)
        z[0] = 0.0
        np.testing.assert_allclose(f(z), monomial_sum(f.terms, z),
                                   rtol=1e-13, atol=1e-15)
        assert f(z[5]) == pytest.approx(monomial_sum(f.terms, z[5]),
                                        rel=1e-13)


class TestDerivatives:
    def test_square_derivative(self):
        f = TaylorPoly([0, 0, 1])
        assert f.derivative_at(0.5) == pytest.approx(1.0)

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
        assert f.radial_derivative_at(z) == pytest.approx(0.3)

    def test_gradient_of_coordinate(self):
        f = BallPoly(2, {(1, 0): 1.0})
        rng = np.random.default_rng(5)
        z = sample_ball(rng, 100, 2)
        np.testing.assert_allclose(f.gradient_norm_at(z), 1.0, rtol=1e-14)

    def test_invariant_gradient_at_origin(self):
        # phi_0 = -identity, so the invariant gradient matches |grad f(0)|
        f = BallPoly(2, {(1, 0): 1.0})
        z = np.zeros((1, 2), dtype=complex)
        np.testing.assert_allclose(f.invariant_gradient_at(z), 1.0,
                                   rtol=1e-9)

    @pytest.mark.parametrize("f", MIXED_BALL_POLYS)
    def test_invariant_gradient_closed_form(self, f):
        # sqrt((1 - |z|^2)(|grad f|^2 - |Rf|^2)) against its definition
        z = sample_ball(np.random.default_rng(8 + f.n), 200, f.n, rmax=0.95)
        np.testing.assert_allclose(f.invariant_gradient_at(z),
                                   fd_invariant_gradient(f, z), rtol=1e-6)

    @pytest.mark.parametrize("f", MIXED_BALL_POLYS)
    def test_power_table_partials_match_partial_polys(self, f):
        # the three derivative quantities take their partials from one
        # table of powers per coordinate; against each partial's monomial
        # sum, at the origin and out to |z| = 0.999
        z = sample_ball(np.random.default_rng(11 + f.n), 200, f.n,
                        rmax=0.999)
        z[0] = 0.0
        d = [monomial_sum(f.partial(k).terms, z) for k in range(f.n)]
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

    @pytest.mark.parametrize("s", [0.1, 0.45, 0.8, 1.5, 2.5])
    def test_power_coefficients_to_deep_degree(self, s):
        # the running product against (s)_k / k! in 30 digits at every
        # k <= 64 and 64 geometric k up to 2^14 (measured within 4.0e-13),
        # and against gammaln, whose own error grows with k, to k = 256
        n = 2 ** 14
        a = PowerSingularity(s).coefficients(n)
        assert a.shape == (n,)
        k = np.unique(np.concatenate([
            np.arange(1, 65), np.geomspace(1, n, 64).round().astype(int)]))
        with mpmath.workdps(30):
            want = [float(mpmath.rf(mpmath.mpf(s), int(j))
                          / mpmath.factorial(int(j))) for j in k]
        np.testing.assert_allclose(a[k - 1], want, rtol=1e-12, atol=0)
        j = np.arange(1.0, 257.0)
        np.testing.assert_allclose(
            a[:256], np.exp(gammaln(j + s) - gammaln(s) - gammaln(j + 1.0)),
            rtol=1e-12, atol=0)

    def test_log_coefficients(self):
        assert LogKernel.s == 0.0  # its boundary order: a log, no power
        np.testing.assert_array_equal(LogKernel().coefficients(5),
                                      [1.0, 0.5, 1.0 / 3.0, 0.25, 0.2])

    @pytest.mark.parametrize("f,a0", [(PowerSingularity(0.3), 1.0),
                                      (PowerSingularity(1.7), 1.0),
                                      (LogKernel(), 0.0)],
                             ids=["s0.3", "s1.7", "log"])
    def test_section_is_the_coefficients(self, f, a0):
        # bit for bit: one recurrence serves the sections and the series
        for d in (0, 1, 50, 300):
            sec = f.taylor_section(d)
            assert sec.degree == d and sec.coeffs[0] == a0
            assert np.array_equal(sec.coeffs[1:], f.coefficients(d))
            assert not sec.coeffs.imag.any()


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

    @pytest.mark.parametrize("z", [0.3 + 0j, np.array([0.3, 0j])],
                             ids=["disk", "ball"])
    def test_unknown_metric_rejected(self, z):
        with pytest.raises(ParameterError, match="unknown metric"):
            radial_metric_ratio(z, "euclid", h=1e-5)


def _key(f):
    """The function's part of the witness sup-cache key."""
    return json.dumps(f.to_json())


class TestSerialization:
    """``to_json`` keys the witness sup cache: equal content must give
    one key, and any change of variant, coefficient (real or imaginary
    part) or exponent another."""

    # (a function, a copy built apart from it, the same variant changed
    # in one coefficient's imaginary part or in s)
    CASES = [
        (TaylorPoly([1.0, 2.0 - 1.0j, 0.5j]),
         TaylorPoly(np.array([1.0, 2.0 - 1.0j, 0.5j])),
         TaylorPoly([1.0, 2.0 + 1.0j, 0.5j])),
        (PowerSingularity(0.9), PowerSingularity(0.9),
         PowerSingularity(0.8)),
        (LogKernel(), LogKernel(), None),
        (BallPoly(2, {(1, 0): 1.0, (2, 1): 0.3 - 0.5j}),
         BallPoly(2, {(2, 1): 0.3 - 0.5j, (1, 0): 1.0}),
         BallPoly(2, {(1, 0): 1.0, (2, 1): 0.3 + 0.5j})),
    ]

    @pytest.mark.parametrize("f,same,changed", CASES,
                             ids=["taylor", "power", "log", "ball"])
    def test_key_identifies_content(self, f, same, changed):
        assert _key(same) == _key(f)
        others = {_key(g) for g, _, _ in self.CASES if g is not f}
        assert len(others) == len(self.CASES) - 1
        assert _key(f) not in others
        if changed is not None:
            assert _key(changed) != _key(f)

    def test_key_tracks_real_parts_exponents_and_indices(self):
        assert _key(TaylorPoly([1.0, 2.0])) != _key(TaylorPoly([1.0, 2.5]))
        assert _key(PowerSingularity(0.5)) \
            != _key(PowerSingularity(0.5 + 1e-15))
        assert _key(BallPoly(2, {(1, 0): 1.0})) \
            != _key(BallPoly(2, {(0, 1): 1.0}))


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
