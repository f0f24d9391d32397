"""Tests of the benchmark's reference formulas against values known by
hand or computed by plain numerical integration.

Run from the root of the repository: python3 -m pytest perfbench/test_reference.py
"""
import math

import numpy as np
import pytest
from scipy import integrate

import reference as ref


def polar_integral(fn, alpha=0.0):
    """int fn(z) dA_alpha(z) by adaptive quadrature in polar coordinates."""
    val, _ = integrate.dblquad(
        lambda th, r: fn(r * np.exp(1j * th)) * (alpha + 1.0)
        * (1.0 - r * r) ** alpha * r / np.pi,
        0.0, 1.0, 0.0, 2.0 * np.pi, epsabs=1e-11, epsrel=1e-10)
    return val


class TestDiskNorms:
    def test_monomial_norm_unweighted(self):
        assert ref.disk_monomial_norm(7, 0.0) == pytest.approx(1.0 / 8.0)

    def test_norm_matches_integration(self):
        c = np.array([1.0 - 0.5j, 0.3, 0.0, 2.0j])
        want = polar_integral(lambda z: abs(np.polyval(c[::-1], z)) ** 2, 1.5)
        assert ref.disk_norm_sq(c, 1.5) == pytest.approx(want, rel=1e-8)

    def test_log_weighted_norm_of_one(self):
        # int log(1/(1-|z|^2)) dA = int_0^1 -log(1-u) du = 1 = H_1 / 1
        assert ref.log_weighted_norm_sq([1.0]) == pytest.approx(1.0)

    def test_log_weighted_norm_matches_integration(self):
        c = np.array([0.5, -1.0, 0.25j])
        want, _ = integrate.quad(
            lambda u: sum(abs(a) ** 2 * u ** k for k, a in enumerate(c))
            * -np.log(1.0 - u), 0.0, 1.0)
        assert ref.log_weighted_norm_sq(c) == pytest.approx(want, rel=1e-9)

    def test_seminorm_matches_integration(self):
        c = np.array([2.0, 1.0 + 1.0j, -0.5, 0.75])
        dc = c[1:] * np.arange(1, len(c))
        inner = polar_integral(
            lambda z: (1 - abs(z) ** 2) ** 2 * abs(np.polyval(dc[::-1], z)) ** 2, 0.5)
        assert ref.seminorm_sq(c, 0.5) == pytest.approx(4.0 + inner, rel=1e-8)


class TestForelliRudin:
    def test_at_origin(self):
        assert ref.forelli_rudin(0.0, 0.5, 1.0) == pytest.approx(1.0 / 1.5)

    def test_near_one_against_gauss(self):
        # bounded case s = 0, t = -1/2: 2F1(3/4, 3/4; 2; x^2) tends to
        # Gauss's value Gamma(2) Gamma(1/2) / Gamma(5/4)^2, with a gap of
        # about 2.3 sqrt(1 - x^2)
        x = math.sqrt(1.0 - 1e-12)
        gauss = ref.gauss_value(0.75, 0.75, 2.0)
        assert gauss == pytest.approx(math.gamma(0.5) / math.gamma(1.25) ** 2)
        assert ref.forelli_rudin(x, 0.0, -0.5) == pytest.approx(gauss, rel=1e-5)

    def test_matches_integration(self):
        x, s, t = 0.6, 0.5, 1.0
        want = polar_integral(
            lambda w: (1 - abs(w) ** 2) ** s / abs(1 - x * w) ** (2 + s + t))
        assert ref.forelli_rudin(x, s, t) == pytest.approx(want, rel=1e-8)

    def test_source_norm_is_the_limit(self):
        # int |1-z|^(-ps) dA_alpha = (alpha+1) I(1) with I's s = alpha and
        # lam = ps/2, which is 2F1(lam, lam; alpha+2; 1)
        s, p, alpha = 0.3, 2.0, 0.5
        lam = p * s / 2.0
        assert ref.source_norm(s, p, alpha) == pytest.approx(
            ref.gauss_value(lam, lam, alpha + 2.0))

    def test_source_norm_matches_integration(self):
        s, p = 0.3, 1.0
        want = polar_integral(lambda z: abs(1 - z) ** (-p * s))
        assert ref.source_norm(s, p, 0.0) == pytest.approx(want, rel=1e-7)

    def test_source_norm_of_the_failing_scan(self):
        assert ref.source_norm(0.45, 4.0, 0.0) == pytest.approx(
            math.gamma(0.2) / math.gamma(1.1) ** 2)


class TestLiftedSeries:
    def test_z_squared(self):
        # L(z^2) = z + w, whose norm is 2 * H_2 / 3 = 1
        assert ref.lifted_series_sq([0, 0, 1]) == pytest.approx(1.0)

    def test_constant_lifts_to_zero(self):
        assert ref.lifted_series_sq([3.0]) == 0.0

    def test_power_series_tail(self):
        # the tail integral makes the sum independent of the cut-off
        for s in (0.2, 0.4, 0.6):
            a = ref.power_lift_series_sq(s, 2 ** 14)
            b = ref.power_lift_series_sq(s, 2 ** 20)
            assert a == pytest.approx(b, rel=1e-6)

    def test_pair_block_two_nodes(self):
        z = np.array([0.2, -0.3j])
        w = np.array([0.5, 2.0])
        s, p = 0.5, 2.0
        f = (1 - z) ** -s
        L01 = abs((f[0] - f[1]) / (z[0] - z[1])) ** p
        d = [abs(s * (1 - zi) ** (-s - 1)) ** p for zi in z]
        got = ref.pair_block_direct(z, w, [0, 1], 2, p, s)
        want = np.array([[w[0] ** 2 * d[0], w[0] * w[1] * L01],
                         [w[0] * w[1] * L01, w[1] ** 2 * d[1]]])
        np.testing.assert_allclose(got, want, rtol=1e-14)


class TestDiskLocalSup:
    def test_pseudo_disk_boundary(self):
        z, r = 0.6 - 0.3j, 0.5
        c, rad = ref.pseudo_disk(np.array([z]), r)
        u = c[0] + rad[0] * np.exp(1j * np.linspace(0, 2 * np.pi, 50))
        np.testing.assert_allclose(np.abs((z - u) / (1 - np.conj(z) * u)), r,
                                   rtol=1e-12)

    def test_identity_at_origin(self):
        # f = z: (1-|u|^2) on |u| <= 1/2 peaks at u = 0, which is sampled
        assert ref.local_sup_direct([0, 1], np.array([0j]), 0.5)[0] == 1.0

    def test_square_near_brute_force(self):
        # f = z^2 on D(1/2, 1/2) = the disk |u - 0.4| < 0.4
        t = np.linspace(0.0, 0.8, 100_001)
        sup = np.max(2 * t * (1 - t ** 2))
        got = ref.local_sup_direct([0, 0, 1], np.array([0.5 + 0j]), 0.5)[0]
        assert got == pytest.approx(sup, rel=1e-2)
        assert got <= sup

    def test_disk_constant(self):
        assert ref.disk_constant(0.5) == pytest.approx(6.0)


class TestBall:
    def test_monomial_z1(self):
        assert ref.ball_moment((1, 0), 0.0) == pytest.approx(1.0 / 3.0)

    def test_weighted_moment_of_one(self):
        # int (1-|z|^2)^2 dv on the ball of C^2 = 2 int_0^1 u (1-u)^2 du = 1/6
        assert ref.ball_moment((0, 0), 0.0, 2) == pytest.approx(1.0 / 6.0)

    def test_quantities_of_z1(self):
        q = ref.ball_quantities({(1, 0): 1.0}, 0.0)
        assert q["norm"] == pytest.approx(1.0 / 3.0)
        # |grad~ z1|^2 = (1-|z|^2)(1-|z1|^2): 1/3 - 1/12
        assert q["invariant_gradient"] == pytest.approx(0.25)
        assert q["gradient"] == pytest.approx(1.0 / 6.0)

    def test_quantities_match_monte_carlo(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(400_000, 4))
        x *= rng.uniform(size=(len(x), 1)) ** 0.25 / np.linalg.norm(x, axis=1,
                                                                   keepdims=True)
        z = x[:, :2] + 1j * x[:, 2:]
        terms = {(2, 1): 1.0 - 0.5j, (0, 1): 0.7, (1, 1): -0.2j}
        grad = ref.ball_gradient(terms, z)
        radial = np.sum(z * grad, axis=-1)
        om = 1 - np.sum(np.abs(z) ** 2, axis=-1)
        q = ref.ball_quantities(terms, 0.0)
        mc = {"norm": np.abs(ref.ball_eval(terms, z)) ** 2,
              "radial": (om * np.abs(radial)) ** 2,
              "gradient": om ** 2 * np.sum(np.abs(grad) ** 2, axis=-1),
              "invariant_gradient": ref.invariant_gradient_sq(terms, z)}
        for k, v in mc.items():
            assert np.mean(v) == pytest.approx(q[k], rel=0.02), k

    def test_phi_involution_and_origin(self):
        a = np.array([0.3 + 0.1j, -0.2j])
        z = np.array([[0.1, 0.5j], [-0.4, 0.2 + 0.2j]])
        np.testing.assert_allclose(ref.ball_phi(a, ref.ball_phi(a, z)), z,
                                   atol=1e-14)
        np.testing.assert_allclose(ref.ball_phi(a, np.zeros(2)), a, atol=1e-15)

    def test_invariant_gradient_against_finite_differences(self):
        terms = {(2, 1): 1.0 - 0.5j, (0, 1): 0.7, (0, 0): 2.0}
        u = np.array([0.3 - 0.2j, 0.1 + 0.4j])
        h = 1e-6
        acc = 0.0
        for k in range(2):
            e = np.zeros(2, complex)
            e[k] = h
            d = (ref.ball_eval(terms, ref.ball_phi(u, e))
                 - ref.ball_eval(terms, ref.ball_phi(u, -e))) / (2 * h)
            acc += abs(d) ** 2
        assert ref.invariant_gradient_sq(terms, u) == pytest.approx(acc, rel=1e-8)

    def test_sobol_sample_in_ball(self):
        e = ref.sobol_ball_sample(2, 1024, 1023)
        assert e.shape == (1024, 2)
        assert np.all(np.sum(np.abs(e) ** 2, axis=1) < 1.0)
