"""Tests for Lipschitz witness construction and verification."""

import itertools
import json
from collections import OrderedDict

import numpy as np
import pytest

from bergman import _kernels, suites, witness
from bergman.errors import ParameterError
from bergman.functions import BallPoly, LogKernel, PowerSingularity, \
    TaylorPoly
from bergman.geometry import ball_metric, ball_phi, pseudo_disk_params, rho
from bergman.quadrature import BallGrid, DiskGrid, disk_ladder
from bergman.sampling import ball_pairs_stratified, disk_pairs_stratified, \
    sample_ball, sample_disk
from bergman.witness import (SAFETY, Witness, build_witness,
                             build_witness_ball, ball_witness_constant,
                             derivative_bound_check, disk_constant,
                             local_sup_h, verify_lipschitz,
                             witness_integrability)

N_PAIRS = 20_000  # verification pair count for unit tests


@pytest.fixture(scope="module")
def section_04():
    return PowerSingularity(0.4).taylor_section(50)


class TestLocalSup:
    def test_constant_function(self):
        assert local_sup_h(TaylorPoly([2.0]), 0.3 + 0.1j, 0.5) == 0.0

    def test_identity_at_origin(self):
        # sup of (1-|u|^2)*1 over |u| <= 0.5 is 1, times C(0.5) = 6
        assert local_sup_h(TaylorPoly([0, 1]), 0j, 0.5) == pytest.approx(6.0)

    def test_square_off_center(self):
        # f = z^2: maximize 2|u|(1-|u|^2) over the Euclidean image of
        # D(0.5, 0.5), which is the real interval [0, 0.8]
        t = np.linspace(0.0, 0.8, 200_001)
        oracle = np.max(2 * t * (1 - t ** 2))
        val = local_sup_h(TaylorPoly([0, 0, 1]), 0.5 + 0j, 0.5)
        np.testing.assert_allclose(val, 6.0 * oracle, rtol=1e-3)

    def test_constant_factor(self):
        assert disk_constant(0.5) == pytest.approx(6.0)

    @pytest.mark.parametrize("f", [
        PowerSingularity(0.4), LogKernel(),
        TaylorPoly(np.random.default_rng(13).normal(size=(51, 2)) @ [1, 1j]),
    ])
    def test_closed_forms_match_direct_max(self, f):
        # the full 32 x 32 polar sample, the center 32 times, mapped onto
        # each D(z, r) and maximized directly
        r = 0.5
        z = sample_disk(11, 3000, rmax=0.99)
        centers, radii = pseudo_disk_params(z, r)
        sig = np.linspace(0.0, 1.0, 32)
        ang = np.exp(2j * np.pi * (np.arange(32) + 0.5) / 32)
        sample = (sig[:, None] * ang[None, :]).ravel()
        u = centers[:, None] + radii[:, None] * sample[None, :]
        direct = ((1.0 - np.abs(u) ** 2) * np.abs(f.derivative_at(u))).max(axis=1)
        np.testing.assert_allclose(local_sup_h(f, z, r),
                                   disk_constant(r) * direct, rtol=1e-14)

    def test_rejects_ball_function(self):
        with pytest.raises(TypeError, match="disk variant"):
            local_sup_h(BallPoly(2, {(1, 0): 1.0}), np.zeros((3, 2), complex),
                        0.5)

    def test_cache_keeps_one_bit_apart(self, monkeypatch):
        # two polynomials whose coefficients differ in the last bit of one
        # of them get two cache entries; an equal copy hits the first
        monkeypatch.setattr(witness, "_H_CACHE", OrderedDict())
        c = np.array([0.3, 1.0 - 0.5j, 0.25j, 0.7])
        bumped = c.copy()
        bumped[2] = complex(0.0, np.nextafter(0.25, 1.0))
        assert not np.array_equal(bumped, c)
        z = sample_disk(np.random.default_rng(3), 40)
        for coeffs in (c, bumped, c.copy()):
            local_sup_h(TaylorPoly(coeffs), z, 0.5)
        assert len(witness._H_CACHE) == 2
        keys = [witness._function_key(TaylorPoly(a)) for a in (c, bumped)]
        assert keys[0] != keys[1]
        assert keys[0] == witness._function_key(TaylorPoly(c.copy()))
        assert witness._function_key(PowerSingularity(0.4)) \
            != witness._function_key(PowerSingularity(np.nextafter(0.4, 1)))
        # both closed forms key as their class and boundary order
        assert witness._function_key(PowerSingularity(0.4)) \
            == (PowerSingularity, 0.4)
        assert witness._function_key(LogKernel()) == (LogKernel, 0.0)


class TestBuildWitness:
    def test_zero_function(self):
        w = build_witness(TaylorPoly([0.0]), "rho", 0.5)
        z = sample_disk(1, 100)
        assert np.all(w.g_values(z) == 0.0)

    def test_identity_structure(self):
        w = build_witness(TaylorPoly([0, 1]), "rho", 0.5)
        z = sample_disk(2, 200)
        h = SAFETY * 6.0 * np.asarray(
            [local_sup_h(w.f, complex(p), 0.5) / 6.0 for p in z])
        np.testing.assert_allclose(w.g_values(z), 2 * np.abs(z) + h,
                                   rtol=1e-12)

    def test_scale_covariance(self, section_04):
        c = 3.7
        w1 = build_witness(section_04, "rho", 0.5)
        scaled = TaylorPoly(c * section_04.coeffs)
        w2 = build_witness(scaled, "rho", 0.5)
        z = sample_disk(3, 500)
        np.testing.assert_allclose(w2.g_values(z), c * w1.g_values(z),
                                   rtol=1e-12)

    def test_euclid_divides_by_boundary_gap(self, section_04):
        wr = build_witness(section_04, "rho", 0.5)
        we = build_witness(section_04, "euclid", 0.5)
        z = sample_disk(4, 300)
        np.testing.assert_allclose(we.g_values(z),
                                   wr.g_values(z) / (1 - np.abs(z)),
                                   rtol=1e-12)


class TestVerifyLipschitz:
    def test_constant_witness_for_identity(self):
        # |z - w| <= 2 rho(z, w), so g = 1 works for f = z
        rep = verify_lipschitz(TaylorPoly([0, 1]),
                               lambda z: np.ones(len(z)), metric="rho",
                               n_pairs=N_PAIRS, seed=7, r=0.5)
        assert rep.max_violation <= 0.0
        assert rep.n_exact == 2 * N_PAIRS

    @pytest.mark.parametrize("metric", ["rho", "beta", "euclid"])
    def test_section_witness(self, section_04, metric):
        w = build_witness(section_04, metric, 0.5)
        rep = verify_lipschitz(section_04, w, n_pairs=N_PAIRS, seed=11)
        assert rep.max_violation <= 0.0

    def test_polynomial_witness(self):
        rng = np.random.default_rng(12)
        f = TaylorPoly(rng.normal(size=13) + 1j * rng.normal(size=13))
        w = build_witness(f, "rho", 0.5)
        rep = verify_lipschitz(f, w, n_pairs=N_PAIRS, seed=13)
        assert rep.max_violation <= 0.0

    def test_beta_accepts_rho_witness(self, section_04):
        # rho <= beta, so the rho-witness verifies under beta unchanged
        w = build_witness(section_04, "rho", 0.5)
        rep = verify_lipschitz(section_04, w, metric="beta",
                               n_pairs=N_PAIRS, seed=17)
        assert rep.max_violation <= 0.0

    def test_stratification_counts(self, section_04):
        w = build_witness(section_04, "rho", 0.5)
        rep = verify_lipschitz(section_04, w, n_pairs=1001, seed=3)
        assert rep.n_near >= 0.4 * 1001
        assert rep.n_far >= 0.4 * 1001

    def test_deterministic_replay(self, section_04):
        w = build_witness(section_04, "rho", 0.5)
        r1 = verify_lipschitz(section_04, w, n_pairs=2000, seed=5)
        r2 = verify_lipschitz(section_04, w, n_pairs=2000, seed=5)
        assert r1.max_violation == r2.max_violation
        assert r1.argmax_pair == r2.argmax_pair

    def test_report_serializes(self, section_04):
        w = build_witness(section_04, "rho", 0.5)
        rep = verify_lipschitz(section_04, w, n_pairs=500, seed=5)
        obj = json.loads(json.dumps(rep.to_json()))
        assert obj["n_pairs"] == 500
        assert "max_violation" in obj
        # the witness is pruned: 2 exact sups per pair taken, 1 pair here
        assert obj["n_exact"] == 2
        # a plain callable is evaluated at every point
        plain = verify_lipschitz(section_04, w.g_values, metric="rho",
                                 n_pairs=500, seed=5, r=0.5)
        assert plain.to_json()["n_exact"] == 1000
        assert plain.max_violation == rep.max_violation


class TestStratifiedPairs:
    @pytest.mark.parametrize("kind", ["disk", "ball2", "ball3"])
    @pytest.mark.parametrize("r", [0.2, 0.5, 0.8])
    def test_near_then_far_and_replay(self, kind, r):
        for seed in range(4):
            for n_pairs in (1, 2, 501, 2000):
                if kind == "disk":
                    z, w = disk_pairs_stratified(seed, n_pairs, r)
                    z2, w2 = disk_pairs_stratified(seed, n_pairs, r)
                    d = rho(z, w)
                else:
                    n = int(kind[-1])
                    z, w = ball_pairs_stratified(seed, n_pairs, r, n=n)
                    z2, w2 = ball_pairs_stratified(seed, n_pairs, r, n=n)
                    assert z.shape == w.shape == (n_pairs, n)
                    d = ball_metric(z, w, kind="rho")
                assert np.array_equal(z, z2) and np.array_equal(w, w2)
                assert len(d) == n_pairs
                assert np.all(d[:n_pairs // 2] < r)
                assert np.all(d[n_pairs // 2:] >= r)


class TestDerivativeBound:
    def test_constant_function(self):
        w = build_witness(TaylorPoly([1.5]), "rho", 0.5)
        assert derivative_bound_check(TaylorPoly([1.5]), w) <= 0.0

    @pytest.mark.parametrize("metric", ["rho", "beta"])
    def test_identity(self, metric):
        f = TaylorPoly([0, 1])
        w = build_witness(f, metric, 0.5)
        assert derivative_bound_check(f, w, metric) <= 0.0

    def test_cube_euclid(self):
        f = TaylorPoly([0, 0, 0, 1])
        w = build_witness(f, "euclid", 0.5)
        assert derivative_bound_check(f, w, "euclid") <= 0.0

    def test_explicit_witness_chain(self, section_04):
        # any verified witness dominates the limiting derivative bound
        w = build_witness(section_04, "rho", 0.5)
        assert verify_lipschitz(section_04, w, n_pairs=5000,
                                seed=2).max_violation <= 0.0
        assert derivative_bound_check(section_04, w) <= 0.0

    def test_rejects_ball_witness(self):
        f = BallPoly(2, {(1, 0): 1.0})
        with pytest.raises(TypeError, match="disk variant"):
            derivative_bound_check(f, build_witness_ball(f, 0.5))

    def test_rejects_empty_grid(self, section_04):
        with pytest.raises(ParameterError, match="at least one point"):
            derivative_bound_check(section_04,
                                   build_witness(section_04, "rho", 0.5),
                                   n_grid=0)


class TestIntegrability:
    def test_polynomial_bounded_witness(self):
        f = TaylorPoly([1, 0.5, -0.25])
        w = build_witness(f, "rho", 0.5)
        res = witness_integrability(w, 2, 0.0)
        assert res.converged

    @staticmethod
    def _fine_graded_value(w, measure_alpha):
        """g^2 of a witness of (1-z)^(-0.7) on a graded grid to 2^-14
        with 16 x 8 nodes per panel (43,216 nodes), extrapolated with the
        source tail 2 - 2 * 0.7 ahead of the measure's ladder."""
        g = DiskGrid.build_graded(measure_alpha, eps_stop=2.0 ** -14,
                                  nodes_per_panel=16, theta_per_panel=8)
        return g.integrate_protocol(w.g_values(g.nodes) ** 2, ladder=[
            2.0 - 2 * 0.7, *disk_ladder(measure_alpha)]).value

    def test_singular_function_rho(self):
        # on the default graded grid the value is within 4.2e-5 of the
        # finer one; on the uniform grid without the tail exponent it
        # read 8.0% low (279.66 against 303.98)
        w = build_witness(PowerSingularity(0.7), "rho", 0.5)
        res = witness_integrability(w, 2, 0.0)
        assert res.converged
        np.testing.assert_allclose(res.value, self._fine_graded_value(w, 0.0),
                                   rtol=2e-4)

    def test_singular_function_euclid(self):
        # euclid witnesses integrate against the shifted weight p + alpha,
        # with the tail of the source weight: within 6.1e-5 of the finer
        # grid, 1.1% low with the tail taken at the measure's alpha
        w = build_witness(PowerSingularity(0.7), "euclid", 0.5)
        res = witness_integrability(w, 2, 0.0)
        assert res.converged
        np.testing.assert_allclose(res.value, self._fine_graded_value(w, 2.0),
                                   rtol=2e-4)

    @pytest.mark.parametrize("metric,grid_alpha", [("rho", 0.0),
                                                   ("euclid", 1.0)])
    def test_disk_integrability_rejects_mismatched_grid(
            self, metric, grid_alpha, monkeypatch):
        # the request is p = 2, alpha = 1: rho integrates against dA_1 and
        # euclid against dA_3, so these grids are refused before the
        # witness is evaluated, and no other grid is built in their place
        w = build_witness(TaylorPoly([1, 0.5, -0.25]), metric, 0.5)

        def no_eval(self, z):
            raise AssertionError("witness evaluated on a mismatched grid")

        monkeypatch.setattr(Witness, "g_values", no_eval)
        with pytest.raises(ParameterError, match="does not match"):
            witness_integrability(w, 2, 1.0,
                                  grid=DiskGrid.build(grid_alpha, n_angular=16))

    def test_norm_ratio_finite(self, section_04):
        from bergman.quadrature import WeightParams, grid_for, norm_p
        w = build_witness(section_04, "rho", 0.5)
        gnorm = witness_integrability(w, 2, 0.0)
        fnorm = norm_p(section_04, WeightParams(2, 0.0),
                       grid_for(section_04, 0.0))
        assert np.isfinite(gnorm.value / fnorm.value)


def _seeded_ball_poly(n, k, count=5, degree=3):
    mons = [m for m in itertools.product(range(degree + 1), repeat=n)
            if sum(m) <= degree]
    rng = np.random.default_rng([n, k])
    idx = rng.choice(len(mons), count, replace=False)
    return BallPoly(n, {mons[i]: complex(*rng.normal(size=2)) for i in idx})


class TestBallWitness:
    def test_constant_is_closed_form(self):
        # n_pairs and seed are ignored
        for n, r in itertools.product((2, 3), (0.2, 0.5, 0.8)):
            for k, seed in ((200, 202), (1000, 0), (10_000, 7)):
                assert ball_witness_constant(n, r, n_pairs=k, seed=seed) \
                    == 1.0 / (1.0 - r ** 2)
            assert ball_witness_constant(n, r) == 1.0 / (1.0 - r ** 2)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("r", [0.2, 0.5, 0.8])
    def test_near_pairs_within_closed_form_bound(self, n, r):
        # |f(z) - f(w)| <= rho C sup_{D(z, r)} |invariant gradient| for
        # rho(z, w) < r, with the sampled sup and no safety factor
        for k in range(4):
            f = _seeded_ball_poly(n, k, count=10, degree=5)
            z, w = ball_pairs_stratified(k, 1000, r, n=n)
            z, w = z[:500], w[:500]
            d = ball_metric(z, w, kind="rho")
            bound = d * witness._raw_local_sup(f, z, r) \
                * ball_witness_constant(n, r)
            assert np.all(np.abs(f(z) - f(w)) <= bound)

    def test_held_out_cubic_verifies(self):
        # a degree-3 polynomial without constant term that needed C = 0.295
        # on 250 pairs under the former pair-sampled calibration, more than
        # the 0.283 that calibration gave on 1,000 pairs
        rng = np.random.default_rng(16)
        f = BallPoly(2, {(i, j): complex(*rng.normal(size=2))
                         for i in range(4) for j in range(4)
                         if 1 <= i + j <= 3})
        w = build_witness_ball(f, 0.5)
        for seed, n_pairs in ((4, 250), (5, 4000)):
            assert verify_lipschitz(f, w, n_pairs=n_pairs,
                                    seed=seed).max_violation <= 0.0

    def test_build_uses_closed_form_and_safety(self):
        w = build_witness_ball(BallPoly(3, {(1, 0, 0): 1.0}), 0.5)
        assert w.C == 4.0 / 3.0 and w.safety == SAFETY

    def test_safety_scales_sup_term(self):
        f = BallPoly(2, {(1, 1): 1.0, (2, 0): 0.5j})
        z = sample_ball(3, 50, 2, rmax=0.9)
        base = np.abs(f(z)) / 0.5
        g1 = Witness(f=f, metric="ball-rho", r=0.5, C=1.0,
                     safety=1.0).g_values(z)
        g2 = Witness(f=f, metric="ball-rho", r=0.5, C=1.0,
                     safety=2.0).g_values(z)
        assert np.all(g1 > base)
        np.testing.assert_allclose(g2 - base, 2.0 * (g1 - base), rtol=1e-12)

    def test_constant_function(self):
        f = BallPoly(2, {(0, 0): 2.0 + 1.0j})
        w = Witness(f=f, metric="ball-rho", r=0.5, C=1.0, safety=1.0)
        rep = verify_lipschitz(f, w, n_pairs=2000, seed=31)
        assert rep.max_violation <= 0.0

    @pytest.mark.parametrize("terms", [
        {(1, 0): 1.0},
        {(1, 1): 1.0, (2, 0): 1.0},
    ])
    def test_calibrated_witness_verifies(self, terms):
        f = BallPoly(2, terms)
        w = build_witness_ball(f, 0.5)
        rep = verify_lipschitz(f, w, n_pairs=4000, seed=37)
        assert rep.max_violation <= 0.0

    def test_ball_integrability(self):
        f = BallPoly(2, {(1, 0): 1.0})
        w = build_witness_ball(f, 0.5)
        res = witness_integrability(w, 2, 0.0,
                                    grid=BallGrid(2, 0.0))
        assert res.converged

    @pytest.mark.parametrize("grid_n,grid_alpha", [(2, 0.0), (3, 1.0)])
    def test_integrability_rejects_mismatched_grid(self, grid_n, grid_alpha,
                                                   monkeypatch):
        # the request is n = 2, alpha = 1: a dv_0 grid, or a grid of C^3,
        # is refused before the witness is evaluated
        w = build_witness_ball(BallPoly(2, {(1, 0): 1.0}), 0.5)
        grid = BallGrid(grid_n, grid_alpha)

        def no_eval(self, z):
            raise AssertionError("witness evaluated on a mismatched grid")

        monkeypatch.setattr(Witness, "g_values", no_eval)
        with pytest.raises(ParameterError, match="does not match"):
            witness_integrability(w, 2, 1.0, grid=grid)

    def test_sup_values_match_finite_differences(self):
        # max over the images phi_z(r e) of |grad(f o phi_u)(0)| taken by
        # central differences along each coordinate axis, step 1e-5
        f = BallPoly(2, {(0, 0): 0.4 - 0.3j, (1, 0): 1.0, (1, 1): -0.7j,
                         (0, 3): 0.5 + 0.2j})
        r, h = 0.5, 1e-5
        z = sample_ball(13, 40, 2, rmax=0.95)
        u = ball_phi(z[:, None, :], r * witness._ball_sup_sample(2)[None, :, :],
                     validate=False)
        acc = np.zeros(u.shape[:-1])
        for k in range(2):
            e = np.zeros(2, dtype=complex)
            e[k] = h
            gp = f(ball_phi(u, np.broadcast_to(e, u.shape), validate=False))
            gm = f(ball_phi(u, np.broadcast_to(-e, u.shape), validate=False))
            acc += np.abs((gp - gm) / (2.0 * h)) ** 2
        np.testing.assert_allclose(witness._raw_local_sup(f, z, r),
                                   np.sqrt(acc).max(axis=1), rtol=1e-8)

    def test_g_values_is_closed_form_sum_at_each_radius(self, monkeypatch):
        # the same f and points at two radii: the cache keeps them apart
        monkeypatch.setattr(witness, "_H_CACHE", OrderedDict())
        f = BallPoly(2, {(0, 0): 0.4 - 0.3j, (1, 0): 1.0, (1, 1): -0.7j,
                         (0, 3): 0.5 + 0.2j})
        z = sample_ball(17, 60, 2, rmax=0.95)
        for r in (0.3, 0.6):
            w = build_witness_ball(f, r)
            h = _kernels.ball_sup_invgrad(z, witness._ball_sup_sample(2), f, r)
            want = np.abs(f(z)) / r + SAFETY * w.C * h
            assert np.array_equal(w.g_values(z), want)

    def test_repeat_sup_comes_from_cache(self, monkeypatch):
        monkeypatch.setattr(witness, "_H_CACHE", OrderedDict())
        calls = []
        kernel = _kernels.ball_sup_invgrad

        def counting(*args):
            calls.append(1)
            return kernel(*args)

        monkeypatch.setattr(_kernels, "ball_sup_invgrad", counting)
        f = BallPoly(2, {(1, 1): 1.0, (2, 0): 0.5j})
        w = build_witness_ball(f, 0.5)
        z = sample_ball(19, 40, 2, rmax=0.9)
        first = w.g_values(z)
        assert np.array_equal(build_witness_ball(f, 0.5).g_values(z.copy()),
                              first)
        assert len(calls) == 1

    def test_metadata_round_trip(self):
        f = BallPoly(2, {(1, 0): 1.0})
        w = build_witness_ball(f, 0.5)
        meta = json.loads(json.dumps(w.metadata()))
        assert meta["metric"] == "ball-rho"
        assert meta["C"] == pytest.approx(w.C)


def _full_residual(f, w, n_pairs, seed, pairs=ball_pairs_stratified):
    """The residual at every pair, with g from ``Witness.g_values``."""
    z, zw = pairs(seed, n_pairs, w.r, n=w.f.n)
    resid = np.abs(f(z) - f(zw)) - ball_metric(z, zw, kind="rho") \
        * (w.g_values(z) + w.g_values(zw))
    return z, zw, resid


def _assert_same_as_full(f, w, n_pairs, seed, pairs=ball_pairs_stratified):
    rep = verify_lipschitz(f, w, n_pairs=n_pairs, seed=seed)
    z, zw, resid = _full_residual(f, w, n_pairs, seed, pairs)
    i = int(np.argmax(resid))
    assert rep.max_violation == resid[i]
    assert np.array_equal(rep.argmax_pair[0], z[i])
    assert np.array_equal(rep.argmax_pair[1], zw[i])
    return rep


def _equal_rho_pairs(seed, n_pairs, r, n=2):
    """Pairs at one pseudo-hyperbolic distance: w = phi_z(0.3 u), |u| = 1."""
    z = sample_ball(seed, n_pairs, n, rmax=0.9)
    u = sample_ball(seed + 1, n_pairs, n)
    u /= np.linalg.norm(u, axis=1)[:, None]
    return z, ball_phi(z, 0.3 * u, validate=False)


class TestBallBoundAndPrune:
    """The pruned ball verification against the residual at every pair."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("r", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("n_pairs", [2, 150, 4000])
    def test_bit_identical_to_full_evaluation(self, n, r, n_pairs):
        # one function at 4,000 pairs, whose brute force takes 0.5 s
        for k in range(1 if n_pairs == 4000 else 3):
            f = _seeded_ball_poly(n, k)
            rep = _assert_same_as_full(f, build_witness_ball(f, r), n_pairs, k)
            assert 2 <= rep.n_exact <= 2 * n_pairs

    @pytest.mark.parametrize("n", [2, 3])
    def test_constant_function(self, n):
        f = BallPoly(n, {(0,) * n: 2.0 + 1.0j})
        for r in (0.2, 0.5, 0.8):
            rep = _assert_same_as_full(f, build_witness_ball(f, r), 150, 3)
            assert rep.max_violation < 0.0

    @pytest.mark.parametrize("n", [2, 3])
    def test_zero_function_takes_one_pass(self, n):
        # every bound and exact residual is 0: pair 0 comes first and wins,
        # and no equal bound at a higher index can displace it; the first
        # pass takes one pair
        f = BallPoly(n, {})
        rep = _assert_same_as_full(f, build_witness_ball(f, 0.5), 4000, 3)
        assert rep.max_violation == 0.0
        assert rep.n_exact == 2

    def test_weak_screen_takes_several_batches(self, monkeypatch):
        # f = 0 against the witness of p, on pairs at one distance, leaves
        # the residual order to g alone; a one-point screen then leaves
        # candidates for several kernel passes (23 to 31 pairs measured)
        monkeypatch.setattr(witness, "_H_CACHE", OrderedDict())
        monkeypatch.setattr(witness, "BALL_SCREEN_COUNT", 1)
        monkeypatch.setattr(witness, "ball_pairs_stratified", _equal_rho_pairs)
        batch = _kernels._BUDGET // witness.BALL_SUP_COUNT
        for n, k in ((2, 1), (2, 2), (3, 2)):
            w = build_witness_ball(_seeded_ball_poly(n, k), 0.5)
            rep = _assert_same_as_full(BallPoly(n, {}), w, 400, 9,
                                       _equal_rho_pairs)
            assert rep.n_exact > batch

    def test_single_pair_bit_identical(self):
        # the full path takes each point's sup alone, which the kernel
        # call pads to two points, so it equals the exact pass's two-point
        # call bit for bit
        for n, k in itertools.product((2, 3), range(10)):
            f = _seeded_ball_poly(n, k)
            rep = _assert_same_as_full(f, build_witness_ball(f, 0.5), 1, k)
            assert rep.n_exact == 2

    def test_ties_go_to_the_lowest_index(self, monkeypatch):
        # f = 0 and a full sup of 0 make every exact residual 0.  A screen
        # of -1 everywhere except at pair 0, where it is 0, puts pair 0 last
        # in bound order, on a bound equal to the best exact residual; with
        # 48 pairs it opens the eighth pass (of 1, 2, 4, then 8 pairs) on
        # its own, and the pass must still take it, since np.argmax picks
        # the first maximum
        kernel = _kernels.ball_sup_invgrad

        def fake(zpts, esamp, f, r):
            if len(esamp) == witness.BALL_SUP_COUNT:
                return np.zeros(len(zpts))
            return kernel(zpts, esamp, f, r)

        def screen(f, z, r):
            lo = -np.ones(len(z))
            lo[[0, len(z) // 2]] = 0.0
            return lo

        monkeypatch.setattr(witness, "_H_CACHE", OrderedDict())
        monkeypatch.setattr(_kernels, "ball_sup_invgrad", fake)
        monkeypatch.setattr(witness, "_screen_sup", screen)
        f = BallPoly(2, {})
        rep = verify_lipschitz(f, build_witness_ball(f, 0.5), n_pairs=48,
                               seed=1)
        z, _ = ball_pairs_stratified(1, 48, 0.5, n=2)
        assert rep.max_violation == 0.0
        assert np.array_equal(rep.argmax_pair[0], z[0])
        assert rep.n_exact == 96

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("r", [0.2, 0.5, 0.8])
    def test_screen_is_a_lower_bound(self, n, r):
        # bit for bit at every point, without slack
        for k in range(4):
            f = _seeded_ball_poly(n, k, count=8, degree=4)
            z, zw = ball_pairs_stratified(k, 500, r, n=n)
            pts = np.concatenate([z, zw])
            assert np.all(witness._screen_sup(f, pts, r)
                          <= witness._raw_local_sup(f, pts, r))

    def test_thm13_family_work_count(self):
        # 16 exact sups per function were measured; a screen that stopped
        # pruning would take up to 20,000
        for _, f in suites._ball_family():
            w = build_witness_ball(f, suites.WITNESS_RADIUS)
            rep = verify_lipschitz(f, w, n_pairs=10_000, seed=42)
            assert rep.n_exact <= 64


def _seeded_taylor(degree):
    rng = np.random.default_rng(degree)
    return TaylorPoly(rng.normal(size=degree + 1)
                      + 1j * rng.normal(size=degree + 1))


DISK_FAMILY = [*(_seeded_taylor(d) for d in (1, 2, 5, 13, 30, 50)),
               PowerSingularity(0.4).taylor_section(50),
               PowerSingularity(0.7), LogKernel()]
# (witness metric, verification metric): a rho witness also under beta
DISK_CASES = (("rho", "rho"), ("beta", "beta"), ("euclid", "euclid"),
              ("rho", "beta"))


def _full_disk_residual(f, w, metric, n_pairs, seed):
    """The residual at every pair, with g from ``Witness.g_values``."""
    z, zw = disk_pairs_stratified(seed, n_pairs, w.r)
    resid = np.abs(f(z) - f(zw)) - witness._metric_values(metric, z, zw) \
        * (w.g_values(z) + w.g_values(zw))
    return z, zw, resid


def _full_bound(f, w, metric, n_grid, seed):
    """The derivative-bound residual's max, with g from ``g_values``."""
    z = sample_disk(seed, n_grid)
    fp = np.abs(f.derivative_at(z))
    lead = fp if metric == "euclid" else (1.0 - np.abs(z) ** 2) * fp
    return float(np.max(lead - 2.0 * w.g_values(z)))


def _assert_disk_same_as_full(monkeypatch, f, r, n_pairs, seed):
    """Both pruned checks of every case, in one fresh cache as a suite
    shares it, against the full evaluation in another; returns n_exact."""
    monkeypatch.setattr(witness, "_H_CACHE", OrderedDict())
    got = []
    for wm, vm in DISK_CASES:
        w = build_witness(f, wm, r)
        got.append((verify_lipschitz(f, w, metric=vm, n_pairs=n_pairs,
                                     seed=seed),
                    derivative_bound_check(f, w, vm, n_grid=n_pairs,
                                           seed=seed + 1)))
    monkeypatch.setattr(witness, "_H_CACHE", OrderedDict())
    for (wm, vm), (rep, bound) in zip(DISK_CASES, got):
        w = build_witness(f, wm, r)
        z, zw, resid = _full_disk_residual(f, w, vm, n_pairs, seed)
        i = int(np.argmax(resid))
        assert rep.max_violation == resid[i]
        assert rep.argmax_pair[0] == z[i] and rep.argmax_pair[1] == zw[i]
        assert bound == _full_bound(f, w, vm, n_pairs, seed + 1)
        assert 2 <= rep.n_exact <= 2 * n_pairs
    return [rep.n_exact for rep, _ in got]


class TestDiskBoundAndPrune:
    """The pruned disk verification and derivative-bound check against
    the full evaluation at every pair and point."""

    @pytest.mark.parametrize("n_pairs", [1, 2, 150, 4000])
    def test_bit_identical_to_full_evaluation(self, monkeypatch, n_pairs):
        for k, f in enumerate(DISK_FAMILY):
            _assert_disk_same_as_full(monkeypatch, f, (0.2, 0.5, 0.8)[k % 3],
                                      n_pairs, k)

    @pytest.mark.parametrize("f", [TaylorPoly([0.0]), TaylorPoly([2.0 + 1j])])
    def test_zero_and_constant_take_one_pair(self, monkeypatch, f):
        # f = 0: every bound and residual is 0, and pair 0 wins at once;
        # a constant: every sup is 0, so the screen is exact
        assert _assert_disk_same_as_full(monkeypatch, f, 0.5, 150, 3) \
            == [2] * len(DISK_CASES)

    def test_weak_screen_takes_several_batches(self, monkeypatch):
        # the centre and the innermost ring: a lower bound as well, but a
        # loose one, which leaves candidates for several kernel passes
        monkeypatch.setattr(witness, "_DISK_SCREEN", witness._UNIT_GRID[:33])
        counts = []
        for k, f in enumerate(DISK_FAMILY):
            counts += _assert_disk_same_as_full(monkeypatch, f, 0.5, 400, k)
        assert max(counts) > 2 * (1 + 2)  # more than two passes

    def test_ties_go_to_the_lowest_index(self, monkeypatch):
        # as on the ball: every exact residual 0, and a screen that puts
        # pair 0 last in bound order, alone in the eighth pass
        kernel = _kernels.local_sup_poly

        def fake(centers, radii, grid, f):
            if len(grid) == len(witness._UNIT_GRID):
                return np.zeros(len(centers))
            return kernel(centers, radii, grid, f)

        def screen(f, z, r):
            lo = -np.ones(len(z))
            lo[[0, len(z) // 2]] = 0.0
            return lo

        monkeypatch.setattr(witness, "_H_CACHE", OrderedDict())
        monkeypatch.setattr(_kernels, "local_sup_poly", fake)
        monkeypatch.setattr(witness, "_screen_sup", screen)
        f = TaylorPoly([0.0])
        rep = verify_lipschitz(f, build_witness(f, "rho", 0.5), n_pairs=48,
                               seed=1)
        z, _ = disk_pairs_stratified(1, 48, 0.5)
        assert rep.max_violation == 0.0
        assert rep.argmax_pair[0] == z[0]
        assert rep.n_exact == 96

    @pytest.mark.parametrize("r", [0.2, 0.5, 0.8])
    def test_screen_is_a_lower_bound(self, r):
        # bit for bit at every point, without slack
        for k, f in enumerate(DISK_FAMILY):
            pts = np.concatenate(disk_pairs_stratified(k, 500, r))
            assert np.all(witness._screen_sup(f, pts, r)
                          <= witness._raw_local_sup(f, pts, r))

    def test_centre_value_is_no_lower_bound(self):
        # z is not a sample node: at two of these points (1 - |z|^2)|f'(z)|
        # exceeds the sampled sup, and the screen stays below it
        f = dict(suites._witness_family(42))["poly_deg5"]
        z = sample_disk(0, 20_000)
        raw = witness._raw_local_sup(f, z, 0.5)
        assert np.any((1.0 - np.abs(z) ** 2) * np.abs(f.derivative_at(z))
                      > raw)
        assert np.all(witness._screen_sup(f, z, 0.5) <= raw)

    def test_single_points_are_padded(self):
        # a one-point kernel call would round differently in the last bit;
        # padded, each point takes its batched values
        z = sample_disk(7, 40, rmax=0.95)
        for f in DISK_FAMILY:
            for sup in (witness._raw_local_sup, witness._screen_sup):
                alone = [sup(f, z[i:i + 1], 0.5)[0] for i in range(len(z))]
                assert np.array_equal(alone, sup(f, z, 0.5))

    def test_thm6_family_work_count(self):
        # 2 exact sups per function were measured; the full evaluation
        # takes 200,000
        for _, f in suites._witness_family(42):
            w = build_witness(f, "rho", suites.WITNESS_RADIUS)
            rep = verify_lipschitz(f, w, n_pairs=100_000, seed=42)
            assert rep.n_exact <= 64
