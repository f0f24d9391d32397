"""Tests for the weighted quadrature grids, the eps protocol, membership
verdicts and the growth-exponent machinery."""

import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from bergman import quadrature, suites
from bergman.errors import ParameterError
from bergman.functions import BallPoly, LogKernel, PowerSingularity, TaylorPoly
from bergman.geometry import pseudo_disk
from bergman.lifting import (TensorPoly, bidisk_norm, bidisk_pairing, lift,
                             log_weighted_norm)
from bergman.quadrature import (BallGrid, BidiskGrid, DiskGrid, WeightParams,
                                ball_norm_p, bidisk_ladder, classify_partials,
                                derivative_seminorm, disk_ladder,
                                fit_growth_exponent, forelli_rudin_exact,
                                forelli_rudin_scan, forelli_rudin_sup,
                                grid_for, log_ladder,
                                monomial_norm_exact, norm_p,
                                richardson, tail_head)
from bergman.sampling import sample_disk

ALPHAS = (-0.5, 0.0, 1.0, 2.5)


def _load_reference():
    """perfbench's closed-form oracle, which imports nothing of bergman."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("_perfbench_reference", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


reference = _load_reference()


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

    def test_alpha_validation(self):
        with pytest.raises(ParameterError):
            DiskGrid.build(-1.0)
        with pytest.raises(ParameterError):
            WeightParams(0.0, 0.0)


def _loop_halvings(t_min):
    """Reference halving count: halve pi until it is at most t_min."""
    brk = [np.pi]
    while brk[-1] > t_min:
        brk.append(brk[-1] / 2)
    return len(brk) - 1


def _fresh_radial_rule(alpha, eps_stop, nodes_per_panel):
    """The radial rule computed afresh, past the cache: halve EPS_START
    while it exceeds eps_stop, then run the uncached panel builder."""
    halvings, eps = 0, quadrature.EPS_START
    while eps > eps_stop * (1 + 1e-12):
        halvings, eps = halvings + 1, eps / 2
    return quadrature._radial_panels.__wrapped__(float(alpha), halvings,
                                                 nodes_per_panel)


def _graded_by_radius(alpha, eps_stop, nodes_per_panel=12,
                      theta_per_panel=6):
    """Reference graded layout, one radius at a time: the angular panels
    halve from pi down to max((1 - r)/4, 1e-7), then mirror to negative
    angles.  Returns (nodes, weights, ring)."""
    _, u, wu, rg = _fresh_radial_rule(alpha, eps_stop, nodes_per_panel)
    gx, gw = np.polynomial.legendre.leggauss(theta_per_panel)
    nodes, weights, ring = [], [], []
    for ui, wi, gi in zip(u, wu, rg):
        r = np.sqrt(ui)
        t_min = max((1.0 - r) / 4.0, 1e-7)
        brk = [np.pi]
        while brk[-1] > t_min:
            brk.append(brk[-1] / 2)
        th_nodes, th_w = [], []
        for a, b in zip(brk[1:], brk[:-1]):
            th_nodes.append(0.5 * (a + b) + 0.5 * (b - a) * gx)
            th_w.append(0.5 * (b - a) * gw)
        th_nodes.append(0.5 * brk[-1] + 0.5 * brk[-1] * gx)
        th_w.append(0.5 * brk[-1] * gw)
        th_nodes = np.concatenate(th_nodes)
        th_w = np.concatenate(th_w) / (2.0 * np.pi)
        th_all = np.concatenate([th_nodes, -th_nodes])
        w_all = np.concatenate([th_w, th_w])
        nodes.append(r * np.exp(1j * th_all))
        weights.append(wi * w_all)
        ring.append(np.full(len(th_all), gi, dtype=np.int64))
    return np.concatenate(nodes), np.concatenate(weights), np.concatenate(ring)


# truncation depths from the default down past the 1e-7 angular floor
LAYOUT_EPS = (2.0 ** -6, 2.0 ** -12, 1e-2 / 16, 1e-3 / 16, 1e-5 / 16,
              1e-5 / 256)
LAYOUTS = ([(a, e, 12, 6) for a in ALPHAS for e in LAYOUT_EPS]
           + [(0.0, 1e-5 / 16, 6, 3), (0.0, 1e-5 / 16, 8, 4)])


class TestGradedGrid:
    """``DiskGrid.build_graded`` builds one halving class at a time; the
    layout must be exactly the one-radius-at-a-time reference."""

    @pytest.mark.parametrize("alpha,eps_stop,npp,tpp", LAYOUTS)
    def test_layout_matches_per_radius_reference(self, alpha, eps_stop, npp,
                                                 tpp):
        g = DiskGrid.build_graded(alpha, eps_stop=eps_stop,
                                  nodes_per_panel=npp, theta_per_panel=tpp)
        nodes, weights, ring = _graded_by_radius(alpha, eps_stop, npp, tpp)
        assert np.array_equal(g.nodes, nodes)
        assert np.array_equal(g.weights, weights)
        assert np.array_equal(g.ring, ring)
        assert g.ring.dtype == ring.dtype

    def test_halving_counts_match_loop(self):
        rungs = np.pi / 2.0 ** np.arange(26)
        deep = DiskGrid.build_graded(0.0, eps_stop=1e-5 / 256)
        t = np.concatenate([
            rungs, np.nextafter(rungs, 0.0), np.nextafter(rungs, np.inf),
            [1e-7, np.nextafter(1e-7, np.inf), 0.25],
            np.random.default_rng(3).uniform(1e-7, 0.25, 200),
            np.maximum((1.0 - np.sqrt(1.0 - deep.one_minus_u)) / 4.0, 1e-7)])
        got = quadrature._halving_counts(t)
        assert got.tolist() == [_loop_halvings(x) for x in t]
        # on or just above rung k takes k halvings, just below takes k + 1
        assert got[:26].tolist() == list(range(26))
        assert got[26:52].tolist() == list(range(1, 27))
        assert got[52:78].tolist() == list(range(26))
        assert quadrature._halving_counts(np.array([1e-7]))[0] == 25

    @pytest.mark.parametrize("eps_stop", [2.0 ** -12, 1e-5 / 16])
    def test_partials_of_radial_monomials(self, eps_stop):
        # int_{|z| <= 1 - eps} |z|^(2k) dA = (1 - delta)^(k+1) / (k+1)
        g = DiskGrid.build_graded(0.0, eps_stop=eps_stop)
        inner = (1.0 - g.eps_values) ** 2
        for k in range(12):
            np.testing.assert_allclose(g.partials(np.abs(g.nodes) ** (2 * k)),
                                       inner ** (k + 1) / (k + 1),
                                       rtol=1e-13, atol=0)

    @pytest.mark.parametrize("graded", [False, True])
    def test_one_minus_u_is_exact(self, graded):
        # 1 - u from the Gauss node in u, repeated over each radius's angles
        eps_stop = 1e-5 / 16
        u = quadrature._radial_rule(0.3, eps_stop, 12)[1]
        if graded:
            g = DiskGrid.build_graded(0.3, eps_stop=eps_stop)
            counts = [12 * (_loop_halvings(max((1.0 - np.sqrt(x)) / 4.0,
                                               1e-7)) + 1) for x in u]
        else:
            g = DiskGrid.build(0.3, eps_stop=eps_stop, nodes_per_panel=12,
                               n_angular=16)
            counts = 16
        assert np.array_equal(g.one_minus_u, np.repeat(1.0 - u, counts))
        np.testing.assert_allclose(g.one_minus_u, 1.0 - np.abs(g.nodes) ** 2,
                                   rtol=0, atol=1e-15)

    def test_shared_rules_reject_writes(self):
        gx, gw = quadrature._gauss_legendre(6)
        assert quadrature._gauss_legendre(6)[0] is gx
        ref = np.polynomial.legendre.leggauss(6)
        assert np.array_equal(gx, ref[0]) and np.array_equal(gw, ref[1])
        g = DiskGrid.build_graded(0.0, eps_stop=2.0 ** -6)
        for arr in (gx, gw, g.eps_values, BallGrid(2, 0.0).eps_values):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @pytest.mark.parametrize("build", [
        lambda: DiskGrid.build(0.0, eps_stop=2.0 ** -6, n_angular=16),
        lambda: DiskGrid.build_graded(0.0, eps_stop=2.0 ** -6),
        lambda: BallGrid(2, 0.0)], ids=["build", "build_graded", "ball"])
    def test_grid_arrays_reject_writes(self, build):
        g = build()
        for name in ("nodes", "weights", "ring", "one_minus_u"):
            with pytest.raises(ValueError):
                getattr(g, name)[0] = 0

    def test_results_share_the_grid_levels(self):
        g = DiskGrid.build_graded(0.0, eps_stop=2.0 ** -6)
        res = g.integrate_protocol(np.ones(g.node_count))
        assert res.eps_values is g.eps_values
        assert res.partials.dtype == np.float64
        assert res.to_json()["eps"] == g.eps_values.tolist()


class TestCachedRules:
    """Every one-dimensional rule a grid is made from is cached and
    read-only; grids are assembled from them anew on every build."""

    def test_radial_cache_keys_on_the_halving_count(self):
        # a new eps_stop with a known halving count is a hit: the key
        # never holds eps_stop itself
        rng = np.random.default_rng(11)
        stops = 10.0 ** rng.uniform(-8.0, np.log10(quadrature.EPS_START),
                                    2000)
        before = quadrature._radial_panels.cache_info()
        counts = set()
        for e in stops:
            eps = quadrature._radial_rule(0.125, e, 7)[0]
            counts.add(len(eps) - 1)
        after = quadrature._radial_panels.cache_info()
        assert after.misses - before.misses == len(counts)
        assert after.hits - before.hits == len(stops) - len(counts)
        assert len(counts) == 23  # 1 to 23 halvings

    def test_cached_arrays_reject_writes(self):
        rules = [*quadrature._radial_rule(0.3, 2.0 ** -9, 12),
                 *quadrature._graded_angles(5, 6),
                 quadrature._uniform_phases(16),
                 *quadrature._sphere_rule(2, 4, 7),
                 *quadrature._gauss_legendre(8)]
        for arr in rules:
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_cached_rules_match_fresh_ones(self):
        # a cached rule handed out twice is one object, equal to a fresh
        # computation
        got = quadrature._radial_rule(0.3, 1e-5 / 16, 12)
        assert quadrature._radial_rule(0.3, 1e-5 / 16 * 1.1, 12)[1] is got[1]
        for a, b in zip(got, _fresh_radial_rule(0.3, 1e-5 / 16, 12)):
            assert np.array_equal(a, b) and a.dtype == b.dtype
        phases, w = quadrature._graded_angles(5, 6)
        assert quadrature._graded_angles(5, 6)[0] is phases
        fresh = quadrature._graded_angles.__wrapped__(5, 6)
        assert np.array_equal(phases, fresh[0])
        assert np.array_equal(w, fresh[1])
        assert np.all(phases[:36].imag > 0)
        assert np.array_equal(phases[36:], np.conj(phases[:36]))
        np.testing.assert_allclose(w.sum(), 1.0, rtol=1e-14)

    def test_ball_grid_leaves_the_radial_rule_intact(self):
        # BallGrid scales its radial weights out of place: the disk grid
        # of the same radial layout built next is the uncached reference
        for n in (2, 3):
            per_panel = quadrature._BALL_RULES[n][0]
            BallGrid(n, 0.5)
            g = DiskGrid.build_graded(0.5, eps_stop=quadrature.EPS_STOP,
                                      nodes_per_panel=per_panel)
            nodes, weights, ring = _graded_by_radius(
                0.5, quadrature.EPS_STOP, per_panel)
            assert np.array_equal(g.nodes, nodes)
            assert np.array_equal(g.weights, weights)
            assert np.array_equal(g.ring, ring)

    def test_grids_of_one_layout_share_their_levels(self):
        a = DiskGrid.build_graded(0.0, eps_stop=2.0 ** -9)
        b = DiskGrid.build_graded(0.0, eps_stop=2.0 ** -9 * 1.5)
        c = DiskGrid.build(0.0, eps_stop=2.0 ** -9, nodes_per_panel=12,
                           n_angular=16)
        assert a.eps_values is b.eps_values is c.eps_values
        assert a.nodes is not b.nodes
        assert a.eps_values.dtype == np.float64
        assert BallGrid(2, 0.0).eps_values is BallGrid(2, 0.0).eps_values
        first, second = (forelli_rudin_scan([0.999], [(0.0, 1.0)])[
            (0.0, 1.0)][0] for _ in range(2))
        assert first.eps_values is second.eps_values
        assert first.partials is not second.partials

    @pytest.mark.parametrize("build,sizes", [
        *[(DiskGrid.build, {"n_angular": v})
          for v in (0, -3, 2.5, 16.0, True, "16")],
        *[(DiskGrid.build, {"nodes_per_panel": v}) for v in (0, -1, 1.5)],
        *[(DiskGrid.build_graded, {"nodes_per_panel": v})
          for v in (0, -2, 6.5)],
        *[(DiskGrid.build_graded, {"theta_per_panel": v})
          for v in (0, -1, 4.0)],
    ])
    def test_rule_sizes_must_be_positive_integers(self, build, sizes):
        # refused before any rule is built or looked up; 0 angles built
        # an empty grid whose integral of 1 read 0 under ``member``
        caches = (quadrature._radial_panels, quadrature._uniform_phases,
                  quadrature._graded_angles, quadrature._gauss_legendre)
        before = [c.cache_info() for c in caches]
        name = next(iter(sizes))
        with pytest.raises(ParameterError, match=name):
            build(0.0, **sizes)
        assert [c.cache_info() for c in caches] == before

    def test_product_grids_record_their_angular_count(self):
        # nodes run radius by radius, n_angular angles each; a numpy
        # integer count is taken, and one angle still integrates 1
        g = DiskGrid.build(0.5, eps_stop=2.0 ** -6, n_angular=np.int64(36))
        assert g.n_angular == 36 and type(g.n_angular) is int
        radii = np.abs(g.nodes).reshape(-1, 36)
        np.testing.assert_allclose(
            radii, np.broadcast_to(radii[:, :1], radii.shape), rtol=1e-15)
        np.testing.assert_allclose(
            g.nodes[:36], radii[0, 0] * quadrature._uniform_phases(36),
            rtol=1e-15)
        assert DiskGrid.build_graded(0.5, eps_stop=2.0 ** -6).n_angular \
            is None
        assert grid_for(TaylorPoly(np.ones(8)), 0.0).n_angular == 44
        assert grid_for(LogKernel(), 0.0).n_angular is None
        one = DiskGrid.build(0.0, eps_stop=2.0 ** -6, n_angular=1)
        res = one.integrate_protocol(np.ones(one.node_count))
        np.testing.assert_allclose(res.value, 1.0, rtol=1e-12)

    def test_depth_bound(self):
        # at EPS_MIN = 2^-50 every ring keeps its nodes, the radii stay
        # distinct and below 1, and the constant 1 integrates to 1; below
        # it rings go empty (2^-51 on) and radii round to 1 (2^-54 on)
        g = DiskGrid.build_graded(0.0, eps_stop=quadrature.EPS_MIN)
        assert g.n_levels == 47
        assert np.all(np.bincount(g.ring, minlength=g.n_levels) > 0)
        radii = 1.0 - g.eps_values
        assert np.all(np.diff(radii) > 0) and radii[-1] < 1.0
        res = g.integrate_protocol(np.ones(g.node_count))
        assert res.verdict == "member"
        np.testing.assert_allclose(res.value, 1.0, rtol=1e-14)
        before = quadrature._radial_panels.cache_info()
        for e in (np.nextafter(quadrature.EPS_MIN, 0.0),
                  quadrature.EPS_MIN / 2, 1.1e-16, 1e-17, 0.0, -1.0):
            with pytest.raises(ParameterError, match="EPS_MIN"):
                DiskGrid.build_graded(0.0, eps_stop=e)
            with pytest.raises(ParameterError, match="EPS_MIN"):
                quadrature._radial_rule(0.0, e, 12)
        with pytest.raises(ParameterError, match="EPS_MIN"):
            DiskGrid.build(0.0, eps_stop=2.0 * quadrature.EPS_START)
        assert quadrature._radial_panels.cache_info() == before


def _ring_values(grid, masses):
    """Node values whose integral over ring a is masses[a]."""
    per_ring = np.bincount(grid.ring, weights=grid.weights,
                           minlength=grid.n_levels)
    return (np.asarray(masses, float) / per_ring)[grid.ring]


# exactly geometric truncation depths, ratio 2
GEOMETRIC_DELTAS = 2.0 ** -np.arange(4, 13)


class TestProtocol:
    """The truncation protocol against closed forms of its three steps:
    verdict, Richardson extrapolation, the levels a ladder reads."""

    @pytest.mark.parametrize("ladder", [
        disk_ladder(-0.5), disk_ladder(1.0), bidisk_ladder(-0.5),
        bidisk_ladder(0.3)], ids=["disk-0.5", "disk1", "bidisk-0.5",
                                  "bidisk0.3"])
    def test_richardson_removes_power_tails(self, ladder):
        # F_i = I - sum_j c_j delta_i^(a_j): one stage per exponent
        d = GEOMETRIC_DELTAS
        c = np.random.default_rng(5).normal(size=len(ladder))
        F = 1.7 - sum(cj * d ** a for cj, a in zip(c, ladder))
        value, _ = richardson(d, F, ladder)
        np.testing.assert_allclose(value, 1.7, rtol=1e-12)

    def test_log_ladder_removes_log_tails(self):
        # each repeated exponent absorbs a delta^a log(delta) term
        d = GEOMETRIC_DELTAS
        F = (1.7 - 0.8 * d * np.log(d) - 0.5 * d + 0.3 * d ** 2 * np.log(d)
             - 0.2 * d ** 2 + 0.1 * d ** 3 * np.log(d))
        value, _ = richardson(d, F, log_ladder())
        np.testing.assert_allclose(value, 1.7, rtol=1e-12)

    @pytest.mark.parametrize("alpha", [-0.5, 1.5])
    def test_ball_extrapolates_with_disk_ladder(self, alpha):
        g = BallGrid(2, alpha)
        vals = np.abs(g.nodes[:, 0]) ** 2
        res = g.integrate_protocol(vals)
        want = quadrature._protocol(g.partials(vals), g.eps_values,
                                    disk_ladder(alpha), "strict")
        assert res.converged
        assert res.value == want.value
        assert res.estimated_error == want.estimated_error
        assert np.array_equal(res.partials, want.partials)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_ladder_of_m_reads_deepest_m_plus_1_levels(self, grids, m):
        g = grids[0.0]
        vals = _ring_values(g, 0.5 ** np.arange(g.n_levels))
        F = g.partials(vals)
        d = 1.0 - (1.0 - g.eps_values) ** 2
        ladder = disk_ladder(0.0)[:m]
        res = g.integrate_protocol(vals, ladder=ladder)
        assert res.verdict == "member"
        assert (res.value, res.estimated_error) == richardson(
            d[-(m + 1):], F[-(m + 1):], ladder)
        # a ladder may be any sequence, a numpy array included
        assert g.integrate_protocol(vals, ladder=np.array(ladder)).value \
            == res.value
        assert np.array_equal(res.partials, F)
        assert len(res.eps_values) == g.n_levels

        def moved(level):
            G = F.copy()
            G[level] += 1e-4 * (F[level] - F[level - 1])
            return quadrature._protocol(G, g.eps_values, ladder, "strict")

        outside, inside = moved(-(m + 2)), moved(-(m + 1))
        assert outside.verdict == inside.verdict == "member"
        assert (outside.value, outside.estimated_error) == \
            (res.value, res.estimated_error)
        assert inside.value != res.value
        assert inside.estimated_error != res.estimated_error

    def test_short_ladder_verdict_reads_every_level(self, grids):
        # the last three levels alone decay fast, the whole sequence
        # does not: a two-exponent ladder reads three levels, the verdict
        # reads all of them
        g = grids[0.0]
        vals = _ring_values(g, [1.0] * (g.n_levels - 1) + [0.5])
        res = g.integrate_protocol(vals, ladder=disk_ladder(0.0)[:2])
        assert classify_partials(res.partials[-3:]) == "member"
        assert res.verdict == "undecided"
        assert not res.converged
        assert res.value == res.partials[-1]

    def test_disk_and_ball_strict_closed_form_lifts_scan(self):
        # increments decaying at ratio 0.93 pass only the lenient rule:
        # disk and ball integrals read undecided, a closed-form lift's
        # ``scan`` protocol reads member
        disk = DiskGrid.build(0.0, n_angular=16)
        ball = BallGrid(2, 0.0)
        masses = 0.93 ** np.arange(disk.n_levels)
        for g in (disk, ball):
            res = g.integrate_protocol(_ring_values(g, masses))
            np.testing.assert_allclose(
                np.diff(res.partials)[1:] / np.diff(res.partials)[:-1], 0.93,
                rtol=1e-12)
            assert res.verdict == "undecided"
            assert not res.converged
        bidisk = BidiskGrid(disk)
        block = np.diag(masses)
        assert bidisk.protocol_from_block(block, rule="scan").verdict \
            == "member"
        assert bidisk.protocol_from_block(block, rule="strict").verdict \
            == "undecided"

    @pytest.mark.parametrize("partials", [[1.0], [1.0, 1.5], [1.0, 1.0],
                                          [1.0, 5.0]],
                             ids=["one", "two", "two-equal", "two-growing"])
    @pytest.mark.parametrize("rule", ["strict", "scan"])
    def test_fewer_than_three_partials_undecided(self, partials, rule):
        assert classify_partials(partials, rule=rule) == "undecided"

    @pytest.mark.parametrize("eps_stop,levels", [(2.0 ** -4, 1),
                                                 (2.0 ** -5, 2)])
    def test_too_few_levels_leave_divergent_norm_undecided(self, eps_stop,
                                                           levels):
        # |1 - z|^(-3) is not dA-integrable, and one or two levels show
        # no increment ratio to tell that from a converging tail
        g = DiskGrid.build_graded(0.0, eps_stop=eps_stop)
        assert g.n_levels == levels
        res = norm_p(PowerSingularity(1.5), WeightParams(2, 0.0), g)
        assert res.verdict == "undecided"
        assert not res.converged
        assert res.value == res.partials[-1] > 0
        assert res.estimated_error == float("inf")

    @pytest.mark.parametrize("ratio,strict,scan", [
        (0.5, "member", "member"), (1.1, "non-member", "non-member"),
        (0.93, "undecided", "member"), (1.0, "non-member", "non-member"),
        (0.0, "member", "member")])
    def test_classify_geometric_increments(self, ratio, strict, scan):
        F = np.cumsum(ratio ** np.arange(9))
        assert classify_partials(F, rule="strict") == strict
        assert classify_partials(F, rule="scan") == scan

    @pytest.mark.parametrize("rule", ["strict", "scan"])
    def test_classify_oscillating_growth(self, rule):
        # ratios alternate 0.8 and 5: not all >= 1, but their geometric
        # mean of 2 says the increments grow
        F = np.cumsum(2.0 ** np.arange(9) * np.where(np.arange(9) % 2, 0.4, 1.0))
        assert classify_partials(F, rule=rule) == "non-member"

    @pytest.mark.parametrize("rule", ["strict", "scan"])
    def test_slow_tail_is_undecided(self, rule):
        # increments 0.3 * 0.98^k from F_0 = 10 tend to 25; nine levels
        # show too little of the tail to extrapolate, which would read
        # 12.65 with an estimated error of 1e-3
        F = 10.0 + np.concatenate([[0.0], np.cumsum(0.3 * 0.98 ** np.arange(8))])
        eps = quadrature.EPS_START / 2.0 ** np.arange(9)
        res = quadrature._protocol(F, eps, disk_ladder(0.0), rule)
        assert res.verdict == "undecided"
        assert not res.converged
        assert res.value == F[-1]
        assert res.estimated_error == float("inf")


# The numpy protocol that ``classify_partials`` and ``richardson`` replaced
# with float loops, kept as the reference they must reproduce.
def _numpy_richardson(deltas, partials, ladder):
    d = np.asarray(deltas, float)
    T = np.asarray(partials, float).copy()
    stages = min(len(ladder), len(T) - 1)
    prev_last = T[-1]
    for j in range(stages):
        a = ladder[j]
        m = len(T)
        ratio = (d[: m - 1] / d[1:m]) ** a
        T = T[1:] + (T[1:] - T[:-1]) / (ratio - 1.0)
        d = d[1:]
        if j == stages - 2:
            prev_last = T[-1]
    return float(T[-1]), float(abs(T[-1] - prev_last))


def _numpy_classify_partials(partials, rule="strict"):
    F = np.asarray(partials, float)
    if len(F) < 3:
        return "undecided"
    scale = max(abs(F[-1]), 1e-300)
    inc = np.diff(F)
    if np.all(np.abs(inc) <= 1e-13 * scale):
        return "member"
    pos = np.maximum(inc, 1e-300)
    ratios = pos[1:] / pos[:-1]
    last = ratios[-4:] if len(ratios) >= 4 else ratios
    gm = float(np.exp(np.mean(np.log(last))))
    if np.all(last < quadrature.MEMBER_RATIO):
        return "member"
    if gm >= quadrature.DIVERGE_RATIO or np.all(last >= 1.0):
        return "non-member"
    if rule == "scan" and np.all(last < 1.0) \
            and last[-1] <= quadrature.SCAN_RATIO:
        return "member"
    return "undecided"


def _seeded_sequence(rng):
    """(deltas, partials, ladder): 3-25 levels, halving eps or a
    geometric depth ladder, a tail of up to four power terms (growing in
    about a third of the cases), relative noise 1e-16 to 1e-8, and a
    ladder of 1-8 exponents in [0.01, 8] with repeats in about half."""
    n = int(rng.integers(3, 26))
    if rng.random() < 0.5:
        eps = rng.uniform(0.02, 0.1) / 2.0 ** np.arange(n)
        d = 1.0 - (1.0 - eps) ** 2
    else:
        d = rng.uniform(0.05, 0.5) * rng.uniform(0.2, 0.8) ** np.arange(n)
    low = -1.0 if rng.random() < 0.3 else 0.01
    tail = rng.uniform(low, 8.0, int(rng.integers(1, 5)))
    value = rng.normal()
    F = value - sum(rng.normal() * d ** e for e in tail)
    F = F + 10.0 ** rng.uniform(-16, -8) * max(1.0, abs(value)) \
        * rng.normal(size=n)
    ladder = list(rng.uniform(0.01, 8.0, int(rng.integers(1, 9))))
    if len(ladder) > 1 and rng.random() < 0.5:
        i, j = rng.choice(len(ladder), 2, replace=False)
        ladder[j] = ladder[i]
    return d, F, ladder


class TestProtocolOnFloats:
    """``classify_partials`` and ``richardson`` run on Python floats; the
    numpy versions they replaced are the reference."""

    def test_matches_numpy_on_seeded_sequences(self):
        rng = np.random.default_rng(31)
        seen = set()
        for _ in range(10_000):
            d, F, ladder = _seeded_sequence(rng)
            for rule in ("strict", "scan"):
                verdict = classify_partials(F, rule=rule)
                assert verdict == _numpy_classify_partials(F, rule), \
                    (F, rule)
                seen.add((rule, verdict))
            got = richardson(d, F, ladder)
            want = _numpy_richardson(d, F, ladder)
            scale = max(abs(want[0]), abs(want[1]))
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-13 * scale, (d, F, ladder)
        assert seen == {(rule, v) for rule in ("strict", "scan")
                        for v in ("member", "non-member", "undecided")}

    def test_protocol_matches_numpy(self):
        rng = np.random.default_rng(32)
        eps = quadrature.EPS_START / 2.0 ** np.arange(7)
        d = 1.0 - (1.0 - eps) ** 2
        for _ in range(200):
            F = 1.0 - 0.3 * d ** rng.uniform(0.5, 4.0) \
                + 1e-12 * rng.normal(size=7)
            ladder = bidisk_ladder(rng.uniform(-0.5, 1.0))
            res = quadrature._protocol(F, eps, ladder, "strict")
            assert res.verdict == _numpy_classify_partials(F)
            if res.verdict == "member":
                value, err = _numpy_richardson(d, F, ladder)
                assert abs(res.value - value) <= 1e-13 * abs(value)
                assert abs(res.estimated_error - err) <= 1e-13 * abs(value)

    @pytest.mark.parametrize("rule", ["strict", "scan"])
    def test_all_zero_increments_read_member(self, rule):
        for F in ([2.5] * 5, [0.0] * 4, [1.0, 1.0 + 1e-14, 1.0]):
            assert classify_partials(F, rule=rule) == "member"
            assert _numpy_classify_partials(F, rule) == "member"

    def test_zero_exponent_gives_inf_or_nan_without_raising(self):
        d = GEOMETRIC_DELTAS
        F = 1.0 - d
        for ladder in ([0.0, 1.0], [1.0, 0.0, 2.0]):
            with pytest.warns(RuntimeWarning):
                got = richardson(d, F, ladder)
            with np.errstate(divide="ignore", invalid="ignore"):
                want = _numpy_richardson(d, F, ladder)
            assert not np.isfinite(got[0])
            np.testing.assert_array_equal(got, want)
        # equal partials over a zero denominator: 0/0 is nan
        with np.errstate(invalid="ignore"):
            got = richardson(d, np.ones(len(d)), [0.0])
        assert np.isnan(got[0])

    def test_ladder_longer_than_levels(self):
        # one stage per level pair: the extra exponents go unread
        d = GEOMETRIC_DELTAS[:4]
        F = 1.7 - 0.5 * d - 0.2 * d ** 2 + 0.1 * d ** 3
        ladder = disk_ladder(0.0)
        assert len(ladder) > len(d)
        got = richardson(d, F, ladder)
        assert got == _numpy_richardson(d, F, ladder)
        assert got == richardson(d, F, ladder[: len(d) - 1])
        np.testing.assert_allclose(got[0], 1.7, rtol=1e-13)
        # one level: no stage, the partial itself
        assert richardson(d[:1], F[:1], ladder) == (F[0], 0.0)

    def test_deltas_must_cover_the_partials(self):
        with pytest.raises(ParameterError):
            richardson(GEOMETRIC_DELTAS[:3], np.ones(4), [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 3, -1])
    @pytest.mark.parametrize("rule", ["strict", "scan"])
    def test_non_finite_partials(self, bad, where, rule):
        F = np.cumsum(0.5 ** np.arange(7))
        F[where] = bad
        with np.errstate(all="ignore"):
            want = _numpy_classify_partials(F, rule)
        assert classify_partials(F, rule=rule) == want
        got = richardson(GEOMETRIC_DELTAS[:7], F, disk_ladder(0.0))
        with np.errstate(all="ignore"):
            ref = _numpy_richardson(GEOMETRIC_DELTAS[:7], F, disk_ladder(0.0))
        np.testing.assert_array_equal(got, ref)

    def test_extreme_increment_ratios(self):
        # increments from 1e300 down to the 1e-300 floor and back: ratios
        # that underflow to 0 and overflow to inf
        for F in ([0.0, 1e300, 1e300, 1e300 + 1e290, 2e300],
                  [0.0, 1e-300, 1e-300, 1e300, 1e300],
                  [0.0, 1e300, 1.0, 1e300, 2e300]):
            for rule in ("strict", "scan"):
                with np.errstate(all="ignore"):
                    want = _numpy_classify_partials(F, rule)
                assert classify_partials(F, rule=rule) == want, (F, rule)

    @pytest.mark.parametrize("make", [lambda: disk_ladder(0.5),
                                      lambda: bidisk_ladder(0.5),
                                      lambda: log_ladder()],
                             ids=["disk", "bidisk", "log"])
    def test_callers_cannot_mutate_cached_ladders(self, make):
        first = make()
        kept = list(first)
        first[0] = -99.0
        first.append(123.0)
        assert make() == kept
        assert make() is not make()


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
        res = norm_p(PowerSingularity(0.9), WeightParams(2, 0.0), None)
        assert res.verdict == "member"
        assert res.converged

    def test_nonintegrable_singularity(self):
        res = norm_p(PowerSingularity(1.1), WeightParams(2, 0.0), None)
        assert res.verdict == "non-member"
        assert not res.converged

    def test_polynomial_always_member(self):
        res = norm_p(TaylorPoly([1, 2, 3]), WeightParams(0.5, 1.0), None)
        assert res.verdict == "member"

    def test_log_kernel_member(self):
        assert norm_p(LogKernel(), WeightParams(2, 0.0), None).verdict \
            == "member"

    @pytest.mark.parametrize("p,alpha,s", [
        (2, 0.0, 0.5), (2, 0.0, 0.7), (2, 0.0, 0.8), (2, 0.0, 0.9),
        (4, 0.0, 0.4), (4, 0.0, 0.45), (1, 1.0, 2.5)])
    def test_singularity_matches_gamma_ratio(self, p, alpha, s):
        # int |1-z|^(-ps) dA_alpha = Gamma(alpha+2) Gamma(alpha+2-ps)
        # / Gamma(alpha+2-ps/2)^2.  With the tail delta^(alpha+2-ps) first
        # in the ladder the errors are at most 8.0e-7; on disk_ladder
        # alone they reach 0.17 and still read member
        res = norm_p(PowerSingularity(s), WeightParams(p, alpha), None)
        assert res.verdict == "member"
        np.testing.assert_allclose(
            res.value, reference.source_norm(s, p, alpha), rtol=2e-6)


    def test_refuses_mismatched_grid(self, monkeypatch):
        # a dA_0 grid for a dA_1 request is refused, not replaced by a
        # freshly built dA_1 grid
        def no_build(*args, **kwargs):
            raise AssertionError("a grid was built in place of the given one")

        monkeypatch.setattr(quadrature, "grid_for", no_build)
        with pytest.raises(ParameterError, match="does not match"):
            norm_p(PowerSingularity(0.4), WeightParams(2, 1.0),
                   DiskGrid.build(0.0, n_angular=16))
        g = DiskGrid.build(1.0, n_angular=16)
        res = norm_p(TaylorPoly([1.0, 2.0]), WeightParams(2, 1.0), g)
        np.testing.assert_allclose(
            res.value, 1.0 + 4.0 * monomial_norm_exact(1, 1.0), rtol=1e-10)
        # the norm, the seminorm and the log-weighted norm refuse a grid
        # of another alpha too: on it they read 0.5, 1/3 and 0.2778 where
        # the answers are 1/3, 1/2 and 3/4
        z, wp1 = TaylorPoly([0.0, 1.0]), WeightParams(2, 1.0)
        g0 = DiskGrid.build(0.0, n_angular=16)
        for call in (lambda: norm_p(z, wp1, g0),
                     lambda: derivative_seminorm(z, wp1, g0),
                     lambda: log_weighted_norm(z, grid=g)):
            with pytest.raises(ParameterError, match="does not match"):
                call()
        np.testing.assert_allclose(norm_p(z, wp1, g).value, 1.0 / 3.0,
                                   rtol=1e-10)
        np.testing.assert_allclose(derivative_seminorm(z, wp1, g).value, 0.5,
                                   rtol=1e-10)
        np.testing.assert_allclose(log_weighted_norm(z, grid=g0).value, 0.75,
                                   rtol=1e-6)


class TestTailHead:
    def test_closed_forms(self):
        assert tail_head(PowerSingularity(0.7), 2, 0.0) == [2.0 - 2 * 0.7]
        assert tail_head(PowerSingularity(2.5), 1, 1.0) == [0.5]
        assert tail_head(LogKernel(), 2, 0.0) == []
        assert tail_head(TaylorPoly([1.0, 2.0]), 2, 0.0) == []

    def test_edge_and_corner(self):
        # (w + 2 - ps, 2w + 4 - p(s+1)), worked by hand at dyadic values
        assert PowerSingularity(0.5).tail_exponents(2, 0.0) == (1.0, 1.0)
        assert PowerSingularity(0.25).tail_exponents(4, 1.0) == (2.0, 1.0)
        assert PowerSingularity(1.5).tail_exponents(1, -0.5) == (0.0, 0.5)
        assert PowerSingularity(0.45).tail_exponents(4, 0.75)[1] \
            == pytest.approx(-0.3, abs=1e-15)
        # the log kernel at s = 0: its lift's series use both exponents
        assert LogKernel().tail_exponents(2, 0.0) == (2.0, 2.0)
        assert LogKernel().tail_exponents(4, 1.0) == (3.0, 2.0)
        assert LogKernel().tail_exponents(4, 0.0) == (2.0, 0.0)
        # tail_head is the edge, for the power alone
        assert tail_head(PowerSingularity(0.25), 4, 1.0) == [2.0]


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

    def test_weight_taken_from_exact_one_minus_u(self):
        # (1 - |z|^2) comes from the grid's exact 1 - u, not the nodes
        f = PowerSingularity(0.9)
        wp = WeightParams(2, 0.0)
        g = DiskGrid.build_graded(0.0, eps_stop=1e-5 / 16)
        res = derivative_seminorm(f, wp, g)
        at0 = float(np.abs(f(np.array(0j))) ** 2)
        ladder = [2.0 - 2 * 0.9, *disk_ladder(0.0)]
        dabs = np.abs(f.derivative_at(g.nodes))
        want, rounded = (
            quadrature._protocol(g.partials((omu * dabs) ** 2) + at0,
                                 g.eps_values, ladder, "strict")
            for omu in (g.one_minus_u, 1.0 - np.abs(g.nodes) ** 2))
        assert res.converged
        assert res.value == want.value
        assert np.array_equal(res.partials, want.partials)
        assert res.value != rounded.value

    def test_one_grid_protocol_call(self, monkeypatch):
        # the integral is one DiskGrid.integrate_protocol call, the only
        # protocol run, with f's tail head ahead of the weight's ladder;
        # |f(0)|^p = 1 is added to its value and partials
        grid_calls, protocol_calls = [], []
        integrate, protocol = DiskGrid.integrate_protocol, quadrature._protocol

        def spy_integrate(grid, values, ladder=None):
            res = integrate(grid, values, ladder)
            grid_calls.append((ladder, res.value, res.partials.copy()))
            return res

        def spy_protocol(*args):
            protocol_calls.append(args)
            return protocol(*args)

        monkeypatch.setattr(DiskGrid, "integrate_protocol", spy_integrate)
        monkeypatch.setattr(quadrature, "_protocol", spy_protocol)
        g = DiskGrid.build_graded(0.0, eps_stop=2.0 ** -10)
        res = derivative_seminorm(PowerSingularity(0.7), WeightParams(2, 0.0),
                                  g)
        assert len(grid_calls) == len(protocol_calls) == 1
        ladder, value, partials = grid_calls[0]
        assert ladder == [2.0 - 2 * 0.7, *disk_ladder(0.0)]
        assert res.value == value + 1.0
        assert np.array_equal(res.partials, partials + 1.0)

    @pytest.mark.parametrize("s,rtol", [(0.4, 1e-6), (0.7, 2e-5),
                                        (0.9, 2e-5)])
    def test_singularity_matches_closed_form(self, s, rtol):
        # for f = (1-z)^(-s), p = 2, alpha = 0: int ((1-|z|^2)|f'|)^2 dA
        # = ||f||^2 2s^2/(2-s)^2, and f(0) = 1.  The errors are 2.6e-10,
        # 2.1e-7 and 6.8e-6; without the tail exponent 1.7e-6, 2.1e-3
        # and 0.16
        res = derivative_seminorm(PowerSingularity(s), WeightParams(2, 0.0),
                                  None)
        assert res.verdict == "member"
        exact = 1.0 + reference.source_norm(s, 2.0, 0.0) \
            * 2.0 * s * s / (2.0 - s) ** 2
        np.testing.assert_allclose(res.value, exact, rtol=rtol)

    def test_singular_family_ratio_finite(self):
        f = PowerSingularity(0.4)
        wp = WeightParams(2, 0.0)
        g = DiskGrid.build(0.0, n_angular=256)
        semi = derivative_seminorm(f, wp, g)
        full = norm_p(f, wp, g)
        assert semi.converged and full.converged
        ratio = semi.value / full.value
        assert 1e-3 < ratio < 1e3


def region_integral(values_fn, disk, n_radial=48, n_angular=64):
    """Integral of a function over a Euclidean disk against the normalized
    area measure of the unit disk (area / pi): Gauss-Legendre in the
    squared radius times a uniform angular rule."""
    gx, gw = np.polynomial.legendre.leggauss(n_radial)
    u = 0.5 + 0.5 * gx
    th = np.exp(2j * np.pi * (np.arange(n_angular) + 0.5) / n_angular)
    pts = disk.center + disk.radius * np.sqrt(u)[:, None] * th[None, :]
    vals = values_fn(pts.ravel()).reshape(pts.shape)
    return float(disk.radius ** 2
                 * np.sum(0.5 * gw[:, None] * vals.real / n_angular))


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
        pairs = [(s, 1.0) for s in (0.0, 0.5, 1.0)]
        scan = forelli_rudin_scan([0.0], pairs)
        for s, t in pairs:
            np.testing.assert_allclose(scan[(s, t)][0].value, 1.0 / (s + 1),
                                       rtol=1e-6)

    def test_growth_when_positive_exponent(self):
        # I(x) (1 - x^2) approaches a positive constant for t = 1
        r1, r2 = forelli_rudin_scan([0.99, 0.999], [(0.0, 1.0)])[(0.0, 1.0)]
        v1 = r1.value * (1 - 0.99 ** 2)
        v2 = r2.value * (1 - 0.999 ** 2)
        assert v1 > 0 and v2 > 0
        np.testing.assert_allclose(v1, v2, rtol=0.05)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            forelli_rudin_scan([0.5], [(-1.5, 0.0)])
        with pytest.raises(ParameterError):
            forelli_rudin_scan([1.0], [(0.0, 0.0)])
        with pytest.raises(ParameterError, match="exceed -1"):
            forelli_rudin_scan([0.5], [(0.0, 1.0), (-1.5, 0.0)])
        with pytest.raises(ParameterError, match="must lie in"):
            forelli_rudin_scan([0.5, 1.0], [(0.0, 0.0)])

    def test_closed_form_matches_quadrature(self):
        # every radius and (s, t) of the growth benchmark, bounded and
        # growing alike, converges to the 2F1 closed form
        radii = (0.5, 0.9, 0.99, 0.995, 0.999, 0.9995, 0.9999, 0.99999)
        pairs = [(s, t) for s in (0.0, 0.5)
                 for t in (-0.5, 0.0, 0.5, 1.0, 2.0)]
        scan = forelli_rudin_scan(radii, pairs)
        for s, t in pairs:
            for x, res in zip(radii, scan[(s, t)]):
                assert res.verdict == "member", (x, s, t)
                np.testing.assert_allclose(
                    res.value, forelli_rudin_exact(x, s, t), rtol=1e-5,
                    err_msg=f"x={x} s={s} t={t}")

    def test_weight_taken_from_exact_one_minus_u(self):
        # near the boundary 1 - |w|^2 from the rounded nodes moves the
        # value; the scan must take the exact 1 - u the grid stores
        x, s, t = 0.99999, -0.5, 0.3
        g = DiskGrid.build_graded(0.0, eps_stop=(1.0 - x) / 256.0,
                                  nodes_per_panel=8, theta_per_panel=4)
        kernel = np.abs(1.0 - x * g.nodes) ** (-(2.0 + s + t))
        exact, rounded = (
            g.integrate_protocol(omu ** s * kernel,
                                 ladder=disk_ladder(s)).value
            for omu in (g.one_minus_u, 1.0 - np.abs(g.nodes) ** 2))
        assert exact != rounded
        assert forelli_rudin_scan([x], [(s, t)])[(s, t)][0].value == exact

    def test_radii_beyond_the_angular_floor_are_refused(self):
        # the finest graded panel is floored at 1e-7: every accepted radius
        # of the sweep is within 1e-5 of the closed form for the growth
        # benchmark's (s, t), and every refused one raises
        pairs = [(s, t) for s in (0.0, 0.5)
                 for t in (-0.5, 0.0, 0.5, 1.0, 2.0)]
        accepted = []
        for gap in 10.0 ** -np.linspace(5.0, 10.0, 21):
            x = 1.0 - gap
            if x > 1.0 - quadrature._T_FLOOR:
                with pytest.raises(ParameterError, match="angular panel"):
                    forelli_rudin_scan([x], pairs)
                continue
            accepted.append(gap)
            scan = forelli_rudin_scan([x], pairs)
            for s, t in pairs:
                res = scan[(s, t)][0]
                assert res.verdict == "member"
                np.testing.assert_allclose(
                    res.value, forelli_rudin_exact(x, s, t), rtol=1e-5,
                    err_msg=f"1-x={gap:.3g} s={s} t={t}")
        assert accepted[-1] == 1e-7 and len(accepted) == 9
        with pytest.raises(ParameterError, match="angular panel"):
            forelli_rudin_scan([0.5, 1.0 - 1e-8], [(0.0, 1.0)])

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
        scan = forelli_rudin_scan(xs, [(0.0, 1.0)])[(0.0, 1.0)]
        Is = [r.value for r in scan]
        slope = fit_growth_exponent(zip(xs, Is))
        assert abs(slope - 1.0) <= 0.05

    def test_needs_four_deep_samples(self):
        with pytest.raises(ParameterError):
            fit_growth_exponent([(0.91, 1.0), (0.95, 1.0), (0.99, 1.0)])




@pytest.fixture(scope="module")
def small_bidisk():
    """One grid for the module: its ring moment tables, once computed,
    serve every later test of the same shape.  Tests of that cache wrap
    its factor in a fresh ``BidiskGrid``."""
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
        assert small_bidisk.node_count > 2 * _kernels._BUDGET

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


class TestRingMoments:
    """The per-grid moment tables: computed once per shape, read-only,
    and independent of what the grid served before."""

    @pytest.fixture
    def power_calls(self, monkeypatch):
        calls = []
        powers = quadrature._powers

        def counting(z, d):
            calls.append(d)
            return powers(z, d)

        monkeypatch.setattr(quadrature, "_powers", counting)
        return calls

    def test_repeat_shape_builds_no_power_table(self, small_bidisk,
                                                 power_calls):
        rng = np.random.default_rng(13)
        A, B = (rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
                for _ in range(2))
        grid = BidiskGrid(small_bidisk.factor)
        first = grid.coefficient_norm(A, 2.0)
        built = len(power_calls)
        assert built == 4  # the (4, 4) and (6, 6) tables, two each
        again = grid.coefficient_norm(A, 2.0)
        pairing = bidisk_pairing(TensorPoly(A), TensorPoly(B), grid)
        assert len(power_calls) == built
        assert np.array_equal(again.partials, first.partials)
        assert again.value == first.value
        assert pairing == complex(BidiskGrid(small_bidisk.factor)
                                  .pairing_block(A, B).sum())

    def test_tables_do_not_depend_on_call_order(self, small_bidisk):
        used = BidiskGrid(small_bidisk.factor)
        for shape in ((21, 21), (3, 5), (5, 3)):
            used.ring_moments(*shape)
        fresh = BidiskGrid(small_bidisk.factor)
        assert np.array_equal(used.ring_moments(5, 5),
                              fresh.ring_moments(5, 5))
        F = lift(TaylorPoly(np.random.default_rng(14).normal(size=6)))
        assert F.cmat.shape == (5, 5)
        got = bidisk_norm(F, 2, 0.0, grid=used)
        want = bidisk_norm(F, 2, 0.0, grid=BidiskGrid(small_bidisk.factor))
        assert np.array_equal(got.partials, want.partials)
        assert (got.value, got.estimated_error, got.verdict) == \
            (want.value, want.estimated_error, want.verdict)

    def test_tables_are_read_only(self, small_bidisk):
        grid = BidiskGrid(small_bidisk.factor)
        M = grid.ring_moments(3, 4)
        assert M.shape == (small_bidisk.factor.n_levels, 3, 4)
        assert grid.ring_moments(3, 4) is M
        with pytest.raises(ValueError):
            M[0, 0, 0] = 0.0


@pytest.fixture(scope="module")
def ball_grid():
    return BallGrid(2, 0.0)


# measured worst relative errors of the moments: 4.0e-10, 1.3e-14 and
# 2.2e-11 (n = 2); 1.6e-8, 5.9e-14 and 2.7e-9 (n = 3)
BALL_MOMENT_RTOL = {(2, -0.5): 1e-9, (2, 0.0): 1e-13, (2, 1.5): 1e-10,
                    (3, -0.5): 5e-8, (3, 0.0): 3e-13, (3, 1.5): 1e-8}


class TestBallGrid:
    """The product rule against the closed-form moments of dv_alpha."""

    def test_normalization(self, ball_grid):
        res = ball_grid.integrate_protocol(np.ones(ball_grid.node_count))
        np.testing.assert_allclose(res.value, 1.0, rtol=0, atol=1e-13)

    def test_monomial_moment(self, ball_grid):
        # int |z_1|^2 dv over the 2-ball is 1/3
        vals = np.abs(ball_grid.nodes[:, 0]) ** 2
        res = ball_grid.integrate_protocol(vals)
        np.testing.assert_allclose(res.value, 1.0 / 3.0, rtol=1e-13)

    def test_weighted_monomial_moment(self):
        g = BallGrid(2, 1.5)
        vals = np.abs(g.nodes[:, 0]) ** 2
        res = g.integrate_protocol(vals)
        np.testing.assert_allclose(
            res.value, reference.ball_moment((1, 0), 1.5), rtol=1e-10)

    @pytest.mark.parametrize("n,alpha", sorted(BALL_MOMENT_RTOL))
    def test_moments_match_closed_form(self, n, alpha):
        # every m with m_k <= 3 (n = 2) or m_k <= 2 (n = 3)
        g = BallGrid(n, alpha)
        top = 3 if n == 2 else 2
        for m in itertools.product(range(top + 1), repeat=n):
            vals = np.prod(np.abs(g.nodes) ** (2 * np.array(m)), axis=1)
            res = g.integrate_protocol(vals)
            assert res.verdict == "member"
            np.testing.assert_allclose(
                res.value, reference.ball_moment(m, alpha),
                rtol=BALL_MOMENT_RTOL[n, alpha], err_msg=f"m = {m}")

    @pytest.mark.parametrize("n", [2, 3])
    def test_cross_moments_vanish(self, n):
        # int z^m conj(z^m') dv_alpha = 0 for m != m', each phase axis
        g = BallGrid(n, 0.5)
        top = 3 if n == 2 else 2
        Z = np.stack([np.prod(g.nodes ** np.array(m), axis=1)
                      for m in itertools.product(range(top + 1), repeat=n)],
                     axis=1)
        gram = (Z * g.weights[:, None]).T @ np.conj(Z)
        assert np.abs(gram - np.diag(np.diag(gram))).max() < 1e-15

    def test_log2_count_and_seed_are_ignored(self, ball_grid):
        g = BallGrid(2, 0.0, log2_count=12, seed=7)
        for attr in ("nodes", "weights", "ring", "one_minus_u"):
            assert np.array_equal(getattr(g, attr), getattr(ball_grid, attr))
        assert g.node_count == 6 * 12 * 4 * 7 ** 2

    def test_one_minus_u_matches_nodes(self):
        g = BallGrid(3, 0.0)
        np.testing.assert_allclose(
            g.one_minus_u, 1.0 - np.sum(np.abs(g.nodes) ** 2, axis=1),
            rtol=0, atol=1e-15)
        # every node lies inside the deepest truncation radius
        assert g.one_minus_u.min() > 1.0 - (1.0 - g.eps_values[-1]) ** 2

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0])
    def test_thm13_integrals_match_moment_sums(self, alpha):
        # the radial, gradient and invariant-gradient integrands of the
        # ball-thm13 suite, against sums of closed-form moments
        g = BallGrid(2, alpha)
        z, om = g.nodes, g.one_minus_u
        for name, f in suites._ball_family():
            want = reference.ball_quantities(f.terms, alpha)
            got = {
                "norm": ball_norm_p(f, WeightParams(2, alpha), g),
                "radial": g.integrate_protocol(
                    (om * np.abs(f.radial_derivative_at(z))) ** 2),
                "gradient": g.integrate_protocol(
                    (om * f.gradient_norm_at(z)) ** 2),
                "invariant_gradient": g.integrate_protocol(
                    f.invariant_gradient_at(z) ** 2)}
            for key, res in got.items():
                assert res.verdict == "member"
                np.testing.assert_allclose(res.value, want[key], rtol=1e-9,
                                           err_msg=f"{name} {key}")

    def test_thm13_closed_form_ratios(self):
        # the suite's own moment derivation against the benchmark's
        # reference sums, and z1's ratios worked by hand: with
        # M(m, j) = 2! j! m! / (3 + j)!, radial 4 M(m, 2) / M(m, 0) = 1/10,
        # gradient 5 M(m, 2) / M(m, 0) = 1/2, invariant 3 M(m, 1) / M(m, 0)
        # = 3/4
        for name, f in suites._ball_family():
            want = reference.ball_quantities(f.terms, 0.0)
            got = suites._ball_closed_form_ratios(f)
            assert set(got) == {"radial", "gradient", "invariant_gradient"}
            for key, ratio in got.items():
                np.testing.assert_allclose(ratio, want[key] / want["norm"],
                                           rtol=1e-14, err_msg=name)
        z1 = suites._ball_closed_form_ratios(BallPoly(2, {(1, 0): 1.0}))
        assert z1 == pytest.approx({"radial": 0.1, "gradient": 0.5,
                                    "invariant_gradient": 0.75}, rel=1e-15)
        # a constant term enters as |f(0)|^2 over the norm
        c = suites._ball_closed_form_ratios(
            BallPoly(2, {(0, 0): 2.0, (1, 0): 1.0}))
        assert c["radial"] == pytest.approx((4.0 + 1.0 / 30.0)
                                            / (4.0 + 1.0 / 3.0), rel=1e-15)

    @pytest.mark.parametrize("grid_n,grid_alpha", [(2, 0.0), (3, 1.0)])
    def test_norm_refuses_mismatched_grid(self, grid_n, grid_alpha):
        # a dv_0 grid would give the dv_0 moment 1/3 for the dv_1 request,
        # and a grid of C^3 a number for neither
        f = BallPoly(2, {(1, 0): 1.0})
        with pytest.raises(ParameterError, match="does not match"):
            ball_norm_p(f, WeightParams(2, 1.0), BallGrid(grid_n, grid_alpha))


class TestNormResultSerialization:
    def test_json_carries_eps_sequence(self, grids):
        res = norm_p(TaylorPoly([0, 1]), WeightParams(2, 0.0), grids[0.0])
        obj = res.to_json()
        assert len(obj["eps"]) == len(obj["partials"]) == 9
        assert obj["converged"] is True
        assert obj["verdict"] == "member"
