"""Tests for disk/ball metrics, pseudo-hyperbolic disks and automorphisms."""

from fractions import Fraction

import numpy as np
import pytest

from bergman.errors import DomainError, ParameterError
from bergman.geometry import (EuclideanDisk, ball_metric, ball_phi, beta,
                              double_radius, mobius, pseudo_disk,
                              pseudo_disk_params, rho)
from bergman.sampling import sample_ball, sample_disk


class TestRho:
    def test_from_origin(self):
        w = np.array([0.3 + 0.1j, -0.5j, 0.9])
        np.testing.assert_allclose(rho(0j, w), np.abs(w), rtol=1e-14)

    def test_identity(self):
        assert rho(0.5, 0.5) == 0.0

    def test_direct_evaluation(self):
        # |(0.5 - (-0.5)) / (1 + 0.25)| = 1 / 1.25
        np.testing.assert_allclose(rho(0.5, -0.5), 0.8, rtol=1e-15)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(3)
        z = sample_disk(rng, 200)
        w = sample_disk(rng, 200)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi, 200))
        np.testing.assert_allclose(rho(z * phase, w * phase), rho(z, w),
                                   atol=1e-14)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            rho(1.2, 0.0)
        with pytest.raises(DomainError):
            rho(0.0, 1.0)


class TestBeta:
    def test_half_log_three(self):
        np.testing.assert_allclose(beta(0j, 0.5), 0.5 * np.log(3.0),
                                   rtol=1e-14)

    def test_identity(self):
        assert beta(0.3 + 0.2j, 0.3 + 0.2j) == 0.0

    def test_near_boundary_value(self):
        np.testing.assert_allclose(beta(0j, 0.99), 0.5 * np.log(1.99 / 0.01),
                                   rtol=1e-12)

    def test_equals_artanh_rho(self):
        rng = np.random.default_rng(5)
        z = sample_disk(rng, 5000)
        w = sample_disk(rng, 5000)
        np.testing.assert_allclose(beta(z, w), np.arctanh(rho(z, w)),
                                   atol=1e-13)

    def test_dominates_rho(self):
        rng = np.random.default_rng(6)
        z = sample_disk(rng, 2000)
        w = sample_disk(rng, 2000)
        assert np.all(beta(z, w) >= rho(z, w))


@pytest.fixture(scope="module")
def triples():
    rng = np.random.default_rng(42)
    return (sample_disk(rng, 100_000), sample_disk(rng, 100_000),
            sample_disk(rng, 100_000))


class TestMetricAxioms:
    """Symmetry, identity and the triangle inequality on 1e5 triples."""

    @pytest.mark.parametrize("metric", [rho, beta])
    def test_symmetry(self, triples, metric):
        z, w, _ = triples
        np.testing.assert_allclose(metric(z, w), metric(w, z), atol=1e-12)

    @pytest.mark.parametrize("metric", [rho, beta])
    def test_triangle(self, triples, metric):
        z, w, v = triples
        lhs = metric(z, w)
        rhs = metric(z, v) + metric(v, w)
        assert np.max(lhs - rhs) <= 1e-12

    @pytest.mark.parametrize("metric", [rho, beta])
    def test_identity_of_indiscernibles(self, triples, metric):
        z, w, _ = triples
        assert np.all(metric(z, z) == 0.0)
        sep = np.abs(z - w) > 1e-8
        assert np.all(metric(z[sep], w[sep]) > 0.0)


class TestPseudoDisk:
    def test_centered_at_origin(self):
        d = pseudo_disk(0j, 0.37)
        assert d.center == 0j
        np.testing.assert_allclose(d.radius, 0.37)

    def test_half_half(self):
        d = pseudo_disk(0.5, 0.5)
        np.testing.assert_allclose(d.center, 0.4, rtol=1e-15)
        np.testing.assert_allclose(d.radius, 0.4, rtol=1e-15)

    def test_off_center(self):
        d = pseudo_disk(0.9, 0.5)
        np.testing.assert_allclose(d.center, 0.75 * 0.9 / 0.7975, rtol=1e-15)
        np.testing.assert_allclose(d.radius, 0.5 * 0.19 / 0.7975, rtol=1e-15)

    def test_boundary_has_constant_rho(self):
        rng = np.random.default_rng(9)
        for z in sample_disk(rng, 25):
            for r in (0.2, 0.5, 0.8):
                bd = pseudo_disk(z, r).boundary(64)
                np.testing.assert_allclose(rho(np.full(64, z), bd), r,
                                           atol=1e-11)

    def test_contained_in_unit_disk(self):
        rng = np.random.default_rng(10)
        for z in sample_disk(rng, 50):
            d = pseudo_disk(z, 0.7)
            assert abs(d.center) + d.radius < 1.0

    def test_parameter_error(self):
        with pytest.raises(ParameterError):
            pseudo_disk(0.1, 1.0)

    @staticmethod
    def _exact(mod: Fraction, r: float):
        """Centre factor (1 - r^2) / d and radius r (1 - |z|^2) / d,
        d = 1 - r^2 |z|^2, in exact rationals."""
        R = Fraction(r)
        den = 1 - R * R * mod * mod
        return (1 - R * R) / den, R * (1 - mod * mod) / den

    @pytest.mark.parametrize("r", [0.2, 0.5, 0.9])
    def test_near_boundary_axes_match_exact_rationals(self, r):
        # on the axes |z| is exact, and so are centre and radius as
        # rationals; from the rounded |z|^2 the radius was up to
        # eps / (1 - |z|^2) off, 3.5e-11 relative at |z| = 0.999997
        mods = 1.0 - 3e-6 * (1.0 + np.arange(40) / 7.0)
        z = np.concatenate([mods, -mods, 1j * mods, -1j * mods])
        centers, radii = pseudo_disk_params(z, r)
        tol = 8 * np.finfo(float).eps
        for zi, c, rad in zip(z, centers, radii):
            factor, want = self._exact(Fraction(abs(zi.real + zi.imag)), r)
            assert abs(Fraction(float(rad)) - want) <= tol * want
            for got, part in ((c.real, zi.real), (c.imag, zi.imag)):
                exact = factor * Fraction(part)
                assert abs(Fraction(float(got)) - exact) <= tol * abs(exact)

    def test_near_boundary_exact_at_numpys_modulus(self):
        # off the axes |z| is rounded once (numpy's abs); the radius is
        # then within a few ulps of the exact one at that modulus
        rng = np.random.default_rng(12)
        gap = 10.0 ** rng.uniform(-6, -3, 200)
        z = (1.0 - gap) * np.exp(2j * np.pi * rng.uniform(size=200))
        r = 0.5
        _, radii = pseudo_disk_params(z, r)
        tol = 8 * np.finfo(float).eps
        for zi, rad in zip(z, radii):
            _, want = self._exact(Fraction(float(np.abs(zi))), r)
            assert abs(Fraction(float(rad)) - want) <= tol * want


class TestDoubleRadius:
    def test_values(self):
        np.testing.assert_allclose(double_radius(0.5), 0.8, rtol=1e-15)
        np.testing.assert_allclose(double_radius(0.9), 1.8 / 1.81, rtol=1e-15)

    def test_small_radius(self):
        np.testing.assert_allclose(double_radius(1e-6), 2e-6, rtol=1e-6)

    def test_matches_hyperbolic_doubling(self):
        for r in (0.1, 0.4, 0.7, 0.95):
            np.testing.assert_allclose(double_radius(r),
                                       np.tanh(2 * np.arctanh(r)), rtol=1e-14)

    def test_containment(self):
        # rho(z,u) < r and rho(u,v) < r imply rho(z,v) < r' on 1e3 triples
        rng = np.random.default_rng(77)
        r = 0.55
        z = sample_disk(rng, 1000)
        u = mobius(z, sample_disk(rng, 1000, rmax=r))
        v = mobius(u, sample_disk(rng, 1000, rmax=r))
        assert np.all(rho(z, v) < double_radius(r))


@pytest.fixture(scope="module", params=[2, 3])
def points(request):
    n = request.param
    rng = np.random.default_rng(100 + n)
    return sample_ball(rng, 10_000, n), sample_ball(rng, 10_000, n)


class TestBallPhi:

    def test_maps_origin_to_a(self, points):
        a, _ = points
        np.testing.assert_allclose(ball_phi(a, np.zeros_like(a)), a,
                                   atol=1e-14)

    def test_involution_at_a(self, points):
        a, _ = points
        assert np.max(np.abs(ball_phi(a, a))) < 1e-10

    def test_involution(self, points):
        a, z = points
        assert np.max(np.abs(ball_phi(a, ball_phi(a, z)) - z)) < 1e-10

    def test_norm_identity(self, points):
        # (1 - |phi_z(w)|^2) |1 - <z,w>|^2 = (1 - |z|^2)(1 - |w|^2)
        z, w = points
        zw = np.sum(z * np.conj(w), axis=-1)
        lhs = (1.0 - np.sum(np.abs(ball_phi(z, w)) ** 2, axis=-1)) \
            * np.abs(1.0 - zw) ** 2
        rhs = (1.0 - np.sum(np.abs(z) ** 2, -1)) \
            * (1.0 - np.sum(np.abs(w) ** 2, -1))
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_zero_base_point(self):
        z = np.array([[0.2 + 0.1j, -0.3j]])
        np.testing.assert_allclose(ball_phi(np.zeros_like(z), z), -z)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            ball_phi(np.array([0.8 + 0.0j, 0.8]), np.array([0.0j, 0.0]))


@pytest.fixture(scope="module")
def pairs():
    rng = np.random.default_rng(55)
    return sample_ball(rng, 10_000, 2), sample_ball(rng, 10_000, 2)


class TestBallMetric:

    def test_rho_from_origin(self, pairs):
        _, w = pairs
        np.testing.assert_allclose(
            ball_metric(np.zeros_like(w), w, "rho"),
            np.sqrt(np.sum(np.abs(w) ** 2, -1)), atol=1e-12)

    def test_rho_below_d(self, pairs):
        z, w = pairs
        assert np.all(ball_metric(z, w, "rho")
                      <= ball_metric(z, w, "d") + 1e-12)

    def test_d_direct_value(self):
        z = np.array([0.3 + 0j, 0j])
        w = np.array([0j, 0.4 + 0j])
        # <z, w> = 0 here, so d = |z - w|
        np.testing.assert_allclose(ball_metric(z, w, "d"), 0.5, rtol=1e-14)

    @pytest.mark.parametrize("kind", ["rho", "beta", "d"])
    def test_symmetry(self, pairs, kind):
        z, w = pairs
        np.testing.assert_allclose(ball_metric(z, w, kind),
                                   ball_metric(w, z, kind), atol=1e-11)

    def test_beta_dominates_rho(self, pairs):
        z, w = pairs
        assert np.all(ball_metric(z, w, "beta") >= ball_metric(z, w, "rho"))


class TestComparabilityBounds:
    """Explicit two-sided bounds on 1e5 pairs with rho(z, w) <= r."""

    @pytest.mark.parametrize("r", [0.3, 0.6, 0.9])
    def test_bounds(self, r):
        rng = np.random.default_rng(123)
        n = 100_000
        z = sample_disk(rng, n)
        w = mobius(z, sample_disk(rng, n, rmax=r))
        lo = (1 - r) / (1 + r)
        one_z = 1.0 - np.abs(z) ** 2
        q1 = one_z / np.abs(1.0 - np.conj(z) * w)
        assert np.all(q1 >= lo - 1e-12) and np.all(q1 <= 2.0 + 1e-12)
        q2 = one_z / (1.0 - np.abs(w) ** 2)
        assert np.all(q2 >= lo - 1e-12)
        assert np.all(q2 <= (1 + r) / (1 - r) + 1e-12)


class TestEuclideanDisk:
    def test_polar_grid_inside(self):
        d = EuclideanDisk(0.3 + 0.1j, 0.2)
        g = d.polar_grid(8, 8)
        assert np.all(np.abs(g - d.center) <= d.radius + 1e-15)
        assert g.shape == (1 + 7 * 8,)  # the center once

    @pytest.mark.parametrize("n_r,n_a", [(32, 32), (8, 8), (2, 5)])
    def test_polar_grid_holds_center_once(self, n_r, n_a):
        """The same point set as the n_r x n_a outer product of radii
        and angles, whose radius-0 row repeats the center n_a times."""
        d = EuclideanDisk(0.3 + 0.1j, 0.2)
        g = d.polar_grid(n_r, n_a)
        assert g.shape == (1 + (n_r - 1) * n_a,)
        assert np.count_nonzero(g == d.center) == 1
        sig = np.linspace(0.0, 1.0, n_r)
        ang = np.exp(2j * np.pi * (np.arange(n_a) + 0.5) / n_a)
        full = d.center + d.radius * sig[:, None] * ang[None, :]
        assert set(g.tolist()) == set(full.ravel().tolist())
        assert len(set(g.tolist())) == len(g)
