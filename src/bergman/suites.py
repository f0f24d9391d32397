"""Named experiment suites: each one checks a block of the theory as
quantitative pass/fail records and plot-ready data series."""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ._version import __version__
from .errors import ParameterError
from .functions import BallPoly, PowerSingularity, TaylorPoly, \
    radial_metric_ratio
from .geometry import ball_metric, ball_phi, beta, double_radius, mobius, \
    pseudo_disk, rho
from .lifting import bidisk_norm, bidisk_pairing, default_poly_bidisk_grid, \
    diagonal_norm, divergence_coefficients, divergence_demo, \
    harmonic_numbers, homogeneous_lift_component, lift, \
    lift_norm_series_A2, lifting_scan
from .quadrature import BallGrid, DiskGrid, WeightParams, ball_norm_p, \
    fit_growth_exponent, forelli_rudin_exact, forelli_rudin_scan, \
    forelli_rudin_sup, grid_for, log_ladder, monomial_norm_exact, norm_p
from .reporting import ExperimentReport, check, check_true
from .sampling import sample_ball, sample_disk
from .witness import ball_witness_constant, build_witness, \
    build_witness_ball, derivative_bound_check, verify_lipschitz, \
    witness_integrability

WITNESS_RADIUS = 0.5
SECTION_DEGREE = 50
SECTION_EXPONENTS = (0.2, 0.4, 0.6)
INTEGRABILITY_CASES = ((2, 0.0), (1, 0.0), (0.5, 1.0), (4, 2.5))
SLOPE_RADII = (0.99, 0.995, 0.999, 0.9995, 0.9999)
# 2F1(3/4, 3/4; 2; x^2) gaps its sup by ~2.3 sqrt(1-x^2): under 5% from 0.999
BOUNDED_RADII = (0.999, 0.9999, 0.99999)


@dataclass
class SuiteConfig:
    """Parsed configuration of one suite run."""

    suite: str
    seed: int = 42
    out: str | None = None
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.suite not in SUITES:
            raise ParameterError(
                f"unknown suite {self.suite!r}; known: {sorted(SUITES)}")

    def opt(self, key: str, default):
        return self.overrides.get(key, default)

    def echo(self) -> dict:
        return {"suite": self.suite, "seed": self.seed,
                "overrides": dict(self.overrides)}


def run_suite(config: SuiteConfig) -> ExperimentReport:
    """Execute one suite; deterministic for a fixed config echo."""
    func, _ = SUITES[config.suite]
    report = ExperimentReport(suite=config.suite, version=__version__,
                              seed=config.seed, config=config.echo())
    t0 = time.perf_counter()
    func(config, report)
    report.wall_time_s = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# suite: geometry
# ---------------------------------------------------------------------------

def _suite_geometry(cfg: SuiteConfig, rep: ExperimentReport):
    rng = np.random.default_rng(cfg.seed)
    n_tri = int(cfg.opt("n_triples", 100_000))
    z, w, v = (sample_disk(rng, n_tri) for _ in range(3))
    for name, metric in (("rho", rho), ("beta", beta)):
        rep.checks.append(check(
            f"{name}_symmetry_max_defect",
            np.max(np.abs(metric(z, w) - metric(w, z))), 1e-12, "<="))
        rep.checks.append(check(
            f"{name}_triangle_max_violation",
            np.max(metric(z, w) - metric(z, v) - metric(v, w)), 1e-12, "<="))
    rs = np.linspace(1e-3, 1.0 - 1e-6, 4001)
    back = np.tanh(np.arctanh(rs))
    rep.checks.append(check("radius_round_trip_max_error",
                            np.max(np.abs(back - rs)), 1e-14, "<="))
    worst_bd = 0.0
    for zc in sample_disk(rng, 20, rmax=0.97):
        for r in (0.2, 0.5, 0.8):
            bd = pseudo_disk(complex(zc), r).boundary(64)
            worst_bd = max(worst_bd,
                           np.max(np.abs(rho(np.full(64, zc), bd) - r)))
    rep.checks.append(check("pseudo_disk_boundary_residual", worst_bd,
                            1e-11, "<"))
    # containment under radius doubling
    r = 0.55
    zz = sample_disk(rng, 1000)
    uu = mobius(zz, sample_disk(rng, 1000, rmax=r))
    vv = mobius(uu, sample_disk(rng, 1000, rmax=r))
    rep.checks.append(check("radius_doubling_containment_margin",
                            np.max(rho(zz, vv)) - double_radius(r), 0.0, "<"))

    n_ball = int(cfg.opt("n_ball_pairs", 10_000))
    a = sample_ball(rng, n_ball, 2)
    b = sample_ball(rng, n_ball, 2)
    ab = np.sum(a * np.conj(b), axis=-1)
    lhs = (1.0 - np.sum(np.abs(ball_phi(a, b)) ** 2, -1)) * np.abs(1 - ab) ** 2
    rhs = (1 - np.sum(np.abs(a) ** 2, -1)) * (1 - np.sum(np.abs(b) ** 2, -1))
    rep.checks.append(check("ball_identity_max_residual",
                            np.max(np.abs(lhs - rhs)), 1e-12, "<"))
    rep.checks.append(check(
        "ball_involution_max_error",
        np.max(np.abs(ball_phi(a, ball_phi(a, b)) - b)), 1e-10, "<="))
    rep.checks.append(check(
        "ball_phi_swaps_origin",
        max(np.max(np.abs(ball_phi(a, np.zeros_like(a)) - a)),
            np.max(np.abs(ball_phi(a, a)))), 1e-10, "<="))
    rep.checks.append(check(
        "ball_rho_below_d_max_excess",
        np.max(ball_metric(a, b, "rho") - ball_metric(a, b, "d")),
        1e-12, "<="))
    # the quotient d is not assumed to be a metric: report, don't assert
    c = sample_ball(rng, n_ball, 2)
    tri = ball_metric(a, b, "d") - ball_metric(a, c, "d") \
        - ball_metric(c, b, "d")
    rep.notes["d_triangle_max_violation_observed"] = float(np.max(tri))


# ---------------------------------------------------------------------------
# suite: lemma4 (difference-quotient limits of the metrics)
# ---------------------------------------------------------------------------

def _suite_lemma4(cfg: SuiteConfig, rep: ExperimentReport):
    rng = np.random.default_rng(cfg.seed)
    h = float(cfg.opt("step", 1e-5))
    n_pts = int(cfg.opt("n_points", 100))
    zs = sample_disk(rng, n_pts, rmax=0.9)
    for metric in ("rho", "beta"):
        devs = []
        for z in zs:
            limit = 1.0 / (1.0 - abs(z) ** 2)
            devs.append(abs(radial_metric_ratio(complex(z), metric, h)
                            - limit) / limit)
        rep.checks.append(check(f"disk_{metric}_ratio_max_rel_dev",
                                max(devs), 1e-3, "<="))
    balls = sample_ball(rng, n_pts, 2, rmax=0.9)
    keep = np.sqrt(np.sum(np.abs(balls) ** 2, -1)) > 1e-3
    balls = balls[keep]
    for metric in ("rho", "beta"):
        devs = []
        for z in balls:
            limit = 1.0 / (1.0 - float(np.sum(np.abs(z) ** 2)))
            devs.append(abs(radial_metric_ratio(z, metric, h) - limit) / limit)
        rep.checks.append(check(f"ball_{metric}_ratio_max_rel_dev",
                                max(devs), 1e-3, "<="))


# ---------------------------------------------------------------------------
# suite: quadrature
# ---------------------------------------------------------------------------

def _suite_quadrature(cfg: SuiteConfig, rep: ExperimentReport):
    alphas = (-0.5, 0.0, 1.0, 2.5)
    worst = 0.0
    for alpha in alphas:
        grid = DiskGrid.build(alpha, n_angular=64)
        ones = grid.integrate_protocol(np.ones(grid.node_count))
        rep.checks.append(check(f"normalization_alpha_{alpha}",
                                abs(ones.value - 1.0), 1e-8, "<="))
        u = np.abs(grid.nodes) ** 2
        for k in range(31):
            res = grid.integrate_protocol(u ** k)
            exact = monomial_norm_exact(k, alpha)
            worst = max(worst, abs(res.value - exact) / exact)
    rep.checks.append(check("monomial_norm_max_rel_error_k_le_30", worst,
                            1e-8, "<="))

    tensor = default_poly_bidisk_grid(0.0, 6)
    worst_t = 0.0
    for i in range(7):
        for j in range(7):
            c = np.zeros((i + 1, j + 1), dtype=complex)
            c[i, j] = 1.0
            from .lifting import TensorPoly
            res = bidisk_norm(TensorPoly(c), 2, 0.0, grid=tensor)
            exact = 1.0 / ((i + 1) * (j + 1))
            worst_t = max(worst_t, abs(res.value - exact) / exact)
    rep.checks.append(check("bidisk_tensor_max_rel_error", worst_t,
                            1e-8, "<="))

    ball = BallGrid(2, 0.0)
    res = ball.integrate_protocol(np.ones(ball.node_count))
    rep.checks.append(check("ball_normalization_abs_error",
                            abs(res.value - 1.0), 1e-12, "<="))


# ---------------------------------------------------------------------------
# suite: lemma5 (derivative seminorm equivalence)
# ---------------------------------------------------------------------------

def _lemma5_family(rng, max_degree: int):
    fam = []
    k = 1
    while k <= max_degree:
        fam.append(TaylorPoly([0] * k + [1]))
        k *= 2
    for _ in range(3):
        c = rng.normal(size=max_degree + 1) \
            + 1j * rng.normal(size=max_degree + 1)
        fam.append(TaylorPoly(c))
    sec_deg = int(2.5 * max_degree)
    for s in SECTION_EXPONENTS:
        fam.append(PowerSingularity(s).taylor_section(sec_deg))
    return fam


def _lemma5_equivalence_constant(family, p, alpha):
    from .quadrature import derivative_seminorm

    ratios = []
    wp = WeightParams(p, alpha)
    for f in family:
        grid = grid_for(f, alpha)
        semi = derivative_seminorm(f, wp, grid)
        full = norm_p(f, wp, grid)
        ratios.append(semi.value / full.value)
    ratios = np.asarray(ratios)
    return float(max(ratios.max(), 1.0 / ratios.min())), ratios


def _suite_lemma5(cfg: SuiteConfig, rep: ExperimentReport):
    base_deg = int(cfg.opt("max_degree", 20))
    for p, alpha in ((2, 0.0), (0.5, 1.0)):
        rng = np.random.default_rng(cfg.seed)
        fam1 = _lemma5_family(rng, base_deg)
        rng = np.random.default_rng(cfg.seed)
        fam2 = _lemma5_family(rng, 2 * base_deg)
        K1, r1 = _lemma5_equivalence_constant(fam1, p, alpha)
        K2, _ = _lemma5_equivalence_constant(fam2, p, alpha)
        tag = f"p{p}_alpha{alpha}"
        rep.checks.append(check(f"equivalence_constant_finite_{tag}", K1,
                                1e3, "<="))
        rep.checks.append(check(f"constant_stability_under_doubling_{tag}",
                                abs(K2 / K1 - 1.0), 0.10, "<=",
                                info={"K_base": K1, "K_doubled": K2}))
        rep.notes[f"ratios_{tag}"] = [float(x) for x in r1]


# ---------------------------------------------------------------------------
# witness suites (thm6 / thm7 / thm8)
# ---------------------------------------------------------------------------

def _witness_family(seed: int):
    rng = np.random.default_rng(seed)
    fam = []
    for deg in (5, 10, 20):
        c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        fam.append((f"poly_deg{deg}", TaylorPoly(c)))
    for s in SECTION_EXPONENTS:
        fam.append((f"section_s{s}",
                    PowerSingularity(s).taylor_section(SECTION_DEGREE)))
    return fam


def _integrability_grid(measure_alpha: float) -> DiskGrid:
    # one node layout for every measure weight, so witness values are
    # computed once per function and reused across (p, alpha) cases
    return DiskGrid.build(measure_alpha, n_angular=128, nodes_per_panel=16)


def _witness_suite(cfg: SuiteConfig, rep: ExperimentReport, metric: str,
                   integrability: bool):
    n_pairs = int(cfg.opt("n_pairs", 100_000))
    fam = _witness_family(cfg.seed)
    worst_violation = -np.inf
    worst_bound = -np.inf
    details = {}
    cases = {}
    conv_all = True
    for name, f in fam:
        w = build_witness(f, metric, WITNESS_RADIUS)
        vrep = verify_lipschitz(f, w, n_pairs=n_pairs, seed=cfg.seed)
        worst_violation = max(worst_violation, vrep.max_violation)
        bound = derivative_bound_check(f, w, metric, seed=cfg.seed + 1)
        worst_bound = max(worst_bound, bound)
        details[name] = {"max_violation": vrep.max_violation,
                         "derivative_bound_residual": bound}
        if integrability:
            conv, cases[name] = {}, {}
            for p, alpha in INTEGRABILITY_CASES:
                measure = alpha + (p if metric == "euclid" else 0.0)
                res = witness_integrability(w, p, alpha,
                                            grid=_integrability_grid(measure))
                conv[f"p{p}_alpha{alpha}"] = bool(res.converged)
                cases[name][f"p{p}_alpha{alpha}"] = {
                    "verdict": res.verdict,
                    "estimated_error": res.estimated_error}
                conv_all = conv_all and res.converged
            details[name]["integrability_converged"] = conv
    rep.checks.append(check(f"{metric}_max_lipschitz_violation",
                            worst_violation, 0.0, "<=", info=details))
    rep.checks.append(check(f"{metric}_derivative_bound_max_residual",
                            worst_bound, 0.0, "<="))
    if integrability:
        rep.checks.append(check_true(f"{metric}_integrability_all_converged",
                                     conv_all, info=cases))
    # empirical witness-to-function norm ratio (finiteness only)
    name, f = fam[-1]
    w = build_witness(f, metric, WITNESS_RADIUS)
    gnorm = witness_integrability(w, 2, 0.0, grid=_integrability_grid(
        2.0 if metric == "euclid" else 0.0))
    fnorm = norm_p(f, WeightParams(2, 0.0), grid_for(f, 0.0))
    rep.notes["witness_norm_ratio_example"] = {
        "function": name, "g_norm_sq": gnorm.value, "f_norm_sq": fnorm.value,
        "ratio": gnorm.value / fnorm.value}


def _suite_thm6(cfg, rep):
    _witness_suite(cfg, rep, "rho", integrability=True)


def _suite_thm7(cfg, rep):
    # rho <= beta, so the rho-witness itself must verify under beta
    _witness_suite(cfg, rep, "beta", integrability=False)


def _suite_thm8(cfg, rep):
    _witness_suite(cfg, rep, "euclid", integrability=True)


# ---------------------------------------------------------------------------
# suite: lemma10 (growth of the kernel moment integrals)
# ---------------------------------------------------------------------------

def _suite_lemma10(cfg: SuiteConfig, rep: ExperimentReport):
    slope_radii = tuple(cfg.opt("slope_radii", SLOPE_RADII))
    bounded_radii = tuple(cfg.opt("bounded_radii", BOUNDED_RADII))
    st_slope = [(0.0, 0.5), (0.5, 0.5), (0.0, 1.0), (0.5, 1.0),
                (0.0, 2.0), (0.5, 2.0)]
    all_radii = sorted(set(slope_radii) | set(bounded_radii))
    st_all = st_slope + [(0.0, -0.5), (0.0, 0.0)]
    scan = forelli_rudin_scan(all_radii, st_all)

    def results(st, radii):
        return [scan[st][all_radii.index(x)] for x in radii]

    rows, slope_converged = [], {}
    for s, t in st_slope:
        res = results((s, t), slope_radii)
        flags = slope_converged[f"s{s}_t{t}"] = [bool(r.converged)
                                                 for r in res]
        Is = [r.value for r in res]
        slope = fit_growth_exponent(zip(slope_radii, Is))
        # the fit does not gate on convergence (slope_points_all_converged
        # does); the verdicts and error estimates show how far to trust
        # each of its points
        rep.checks.append(check(f"slope_error_s{s}_t{t}", abs(slope - t),
                                0.05, "<=",
                                info={"slope": slope,
                                      "radii": list(slope_radii),
                                      "converged": flags,
                                      "verdict": [r.verdict for r in res],
                                      "estimated_error": [
                                          r.estimated_error for r in res]}))
        rows += [[s, t, x, I, -np.log(1 - x ** 2), np.log(I)]
                 for x, I in zip(slope_radii, Is)]
    rep.checks.append(check_true(
        "slope_points_all_converged",
        all(all(flags) for flags in slope_converged.values()),
        info={"radii": list(slope_radii), "converged": slope_converged}))
    rep.csv_blocks["growth"] = (
        ["s", "t", "abs_z", "I", "neg_log_one_minus_z2", "log_I"], rows)

    bounded_res = results((0.0, -0.5), bounded_radii)
    bounded = [r.value for r in bounded_res]
    exact = [forelli_rudin_exact(x, 0.0, -0.5) for x in bounded_radii]
    rel_err = max(abs(v - e) / e for v, e in zip(bounded, exact))
    rep.checks.append(check("bounded_case_closed_form_max_rel_error",
                            rel_err, 1e-3, "<=",
                            info={"radii": list(bounded_radii),
                                  "closed_form": exact,
                                  "verdict": [r.verdict for r in bounded_res],
                                  "supremum": forelli_rudin_sup(0.0, -0.5)}))
    spread = (max(bounded) - min(bounded)) / max(bounded)
    rep.checks.append(check("bounded_case_relative_variation", spread,
                            0.05, "<",
                            info={"radii": list(bounded_radii),
                                  "values": bounded}))
    # the t = 0 borderline: slope reported without a target
    Is0 = [r.value for r in results((0.0, 0.0), slope_radii)]
    rep.notes["borderline_t0_slope"] = fit_growth_exponent(
        zip(slope_radii, Is0))


# ---------------------------------------------------------------------------
# suites: thm11 / thm12 (lifting boundedness)
# ---------------------------------------------------------------------------

def _suite_thm11(cfg: SuiteConfig, rep: ExperimentReport):
    rng = np.random.default_rng(cfg.seed)
    n_polys = int(cfg.opt("n_polys", 50))
    grid = default_poly_bidisk_grid(0.0, 20)
    worst = 0.0
    for _ in range(n_polys):
        deg = int(rng.integers(1, 21))
        c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        quad = bidisk_norm(lift(TaylorPoly(c)), 2, 0.0, grid=grid)
        series = lift_norm_series_A2(c)
        worst = max(worst, abs(quad.value - series) / series)
    rep.checks.append(check("series_vs_quadrature_max_rel_dev", worst,
                            1e-6, "<="))

    zs = sample_disk(rng, 1000)
    worst_diag = 0.0
    for deg in (3, 9, 17):
        c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        f = TaylorPoly(c)
        fp = f.derivative_at(zs)
        scale = np.max(np.abs(fp)) + 1.0
        worst_diag = max(worst_diag, np.max(
            np.abs(lift(f).diagonal(zs) - fp)) / scale)
    rep.checks.append(check("diagonal_equals_derivative_max_residual",
                            worst_diag, 1e-12, "<="))

    ortho_grid = default_poly_bidisk_grid(0.0, 10)
    worst_orth = 0.0
    for k in range(1, 11):
        for m in range(k + 1, 11):
            val = bidisk_pairing(homogeneous_lift_component(k),
                                 homogeneous_lift_component(m), ortho_grid)
            worst_orth = max(worst_orth, abs(val))
    rep.checks.append(check("homogeneous_orthogonality_max_abs", worst_orth,
                            1e-10, "<="))

    # linearity of the lifting operator
    z, w = sample_disk(rng, 300), sample_disk(rng, 300)
    c1 = rng.normal(size=9) + 1j * rng.normal(size=9)
    c2 = rng.normal(size=9) + 1j * rng.normal(size=9)
    lin = np.max(np.abs(
        lift(TaylorPoly(2.0 * c1 - 1.5j * c2))(z, w)
        - 2.0 * lift(TaylorPoly(c1))(z, w)
        + 1.5j * lift(TaylorPoly(c2))(z, w)))
    rep.checks.append(check("lifting_linearity_max_defect", lin, 1e-12, "<="))

    # diagonal restriction lands boundedly in the heavier weight
    ratios = []
    for _ in range(5):
        deg = int(rng.integers(1, 9))
        c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        F = lift(TaylorPoly(c))
        num = diagonal_norm(F, 2, 2.0)
        den = bidisk_norm(F, 2, 0.0)
        ratios.append(num.value / den.value)
    rep.checks.append(check("diagonal_restriction_empirical_constant",
                            max(ratios), 1e3, "<="))
    rep.notes["diagonal_restriction_ratios"] = [float(x) for x in ratios]

    scan = lifting_scan(tuple(cfg.opt("s_values", (0.5, 1.0, 1.5))),
                        p=1.0, alpha=0.0, mode="thm11")
    rep.checks.append(check_true("scan_p1_alpha0_all_converged",
                                 scan.all_converged,
                                 info=scan.to_json()))
    rep.csv_blocks["scan"] = scan.csv_block()


def _suite_thm12(cfg: SuiteConfig, rep: ExperimentReport):
    scan = lifting_scan(tuple(cfg.opt("s_values", (0.1, 0.3, 0.45))),
                        p=4.0, alpha=0.0, mode="thm12")
    rep.checks.append(check("target_weight_beta", scan.beta, 1.0, "=="))
    rep.checks.append(check_true("scan_p4_alpha0_beta1_all_converged",
                                 scan.all_converged, info=scan.to_json()))
    rep.csv_blocks["scan"] = scan.csv_block()
    # sharpness probe: the same family against lighter target weights,
    # reported without an assertion
    trend = {}
    for beta_probe in (0.7, 0.85):
        probe = lifting_scan((0.45,), p=4.0, alpha=0.0, mode="thm12",
                             beta_override=beta_probe)
        trend[str(beta_probe)] = {"ratio": probe.rows[0].ratio,
                                  "converged": probe.rows[0].converged}
    rep.notes["lighter_weight_trend"] = trend


# ---------------------------------------------------------------------------
# suite: a2-diverge (borderline of the lifting theorems)
# ---------------------------------------------------------------------------

def _suite_a2_diverge(cfg: SuiteConfig, rep: ExperimentReport):
    demo = divergence_demo([100, 316, 1000, 3162, 10000])
    idx = {n: i for i, n in enumerate(demo["N"])}
    a2 = demo["a2_partial"]
    lifted = demo["lift_partial"]
    inc = (a2[idx[10000]] - a2[idx[1000]]) / a2[idx[1000]]
    rep.checks.append(check("a2_partial_sum_increment_1e3_to_1e4", inc,
                            0.02, "<"))
    n1, n2 = 100, 10000
    growth = lifted[idx[n2]] / lifted[idx[n1]]
    # H_k >= log(k+2) for k > n1, so the lifted tail adds >= 2 log log N
    loglog_gain = 2.0 * np.log(np.log(n2 + 3.0) / np.log(n1 + 3.0))
    rep.checks.append(check("lift_partial_sum_growth_1e2_to_1e4", growth,
                            1.0 + loglog_gain / lifted[idx[n1]], ">=",
                            info={"lift_partial_n1": lifted[idx[n1]],
                                  "loglog_increment_bound": loglog_gain}))
    rep.csv_blocks["partial_sums"] = (
        ["N", "a2_partial", "lift_partial"],
        [[n, a2[idx[n]], lifted[idx[n]]] for n in demo["N"]])

    # term-wise match with the log-weight integrals, k in [10, 100]; the
    # monomial mass sits near the boundary, so integrate deep and
    # extrapolate only from levels with k * delta small
    grid = DiskGrid.build(0.0, eps_stop=2.0 ** -18, n_angular=16)
    u = np.abs(grid.nodes) ** 2
    logw = -np.log(grid.one_minus_u)
    a2k = divergence_coefficients(100)
    H = harmonic_numbers(101)
    ratios = []
    for k in range(10, 101):
        res = grid.integrate_protocol(u ** k * logw, ladder=log_ladder(),
                                      window=6)
        lift_term = 2.0 * a2k[k] * H[k] / (k + 1.0)
        ratios.append(lift_term / (a2k[k] * res.value))
    rep.checks.append(check("termwise_ratio_min", min(ratios), 0.5, ">="))
    rep.checks.append(check("termwise_ratio_max", max(ratios), 2.0, "<="))
    rep.csv_blocks["termwise"] = (
        ["k", "ratio"], [[k, r] for k, r in zip(range(10, 101), ratios)])


# ---------------------------------------------------------------------------
# suite: ball-thm13
# ---------------------------------------------------------------------------

def _ball_family():
    return [("z1", BallPoly(2, {(1, 0): 1.0})),
            ("z1z2", BallPoly(2, {(1, 1): 1.0})),
            ("z1sq_plus_z2sq", BallPoly(2, {(2, 0): 1.0, (0, 2): 1.0})),
            ("z2", BallPoly(2, {(0, 1): 1.0})),
            ("mixed_quadratic",
             BallPoly(2, {(2, 0): 1.0, (1, 1): -0.5, (0, 2): 0.3}))]


def _suite_ball_thm13(cfg: SuiteConfig, rep: ExperimentReport):
    n_pairs = int(cfg.opt("n_pairs", 10_000))
    family = _ball_family()
    details = {}
    worst = -np.inf
    for name, f in family:
        w = build_witness_ball(f, WITNESS_RADIUS)
        vrep = verify_lipschitz(f, w, n_pairs=n_pairs, seed=cfg.seed)
        details[name] = vrep.max_violation
        worst = max(worst, vrep.max_violation)
    rep.checks.append(check("ball_max_lipschitz_violation", worst, 0.0,
                            "<=", info=details))
    rep.notes["witness_constant"] = ball_witness_constant(2, WITNESS_RADIUS)

    # derivative-notion p-integrals comparable across the family
    grid = BallGrid(2, 0.0)
    one_minus, z = grid.one_minus_u, grid.nodes
    ratios, cases = {}, {}
    for name, f in family:
        head = float(np.abs(f(np.zeros(2, dtype=complex))) ** 2)
        res = {"base": ball_norm_p(f, WeightParams(2, 0.0), grid),
               "radial": grid.integrate_protocol(
                   (one_minus * np.abs(f.radial_derivative_at(z))) ** 2),
               "gradient": grid.integrate_protocol(
                   (one_minus * f.gradient_norm_at(z)) ** 2),
               "invariant_gradient": grid.integrate_protocol(
                   f.invariant_gradient_at(z) ** 2)}
        cases[name] = {k: {"converged": r.converged, "verdict": r.verdict,
                           "estimated_error": r.estimated_error}
                       for k, r in res.items()}
        base = res.pop("base").value
        ratios[name] = {k: (head + r.value) / base for k, r in res.items()}
    worst_ratio = max(max(v, 1.0 / v) for fam in ratios.values()
                      for v in fam.values())
    rep.checks.append(check("derivative_norm_equivalence_empirical_constant",
                            worst_ratio, 100.0, "<=", info=ratios))
    rep.checks.append(check_true("ball_norm_integrals_converged", all(
        q["converged"] for fam in cases.values() for q in fam.values()),
        info=cases))


SUITES = {
    "geometry": (_suite_geometry,
                 "metric axioms, radius conversions, pseudo-hyperbolic "
                 "disks, ball automorphism identities"),
    "lemma4": (_suite_lemma4,
               "difference-quotient limits of rho and beta against "
               "1/(1-|z|^2) on disk and ball"),
    "quadrature": (_suite_quadrature,
                   "weighted-moment exactness, normalization, bidisk "
                   "tensor values, ball normalization"),
    "lemma5": (_suite_lemma5,
               "derivative-seminorm equivalence constant and its "
               "stability under degree doubling"),
    "thm6": (_suite_thm6,
             "pseudo-hyperbolic Lipschitz witnesses: verification, "
             "integrability, derivative bounds"),
    "thm7": (_suite_thm7,
             "the same witnesses verified under the hyperbolic metric"),
    "thm8": (_suite_thm8,
             "Euclidean-metric witnesses with the shifted weight"),
    "lemma10": (_suite_lemma10,
                "growth exponents of the kernel moment integrals"),
    "thm11": (_suite_thm11,
              "lifting into the same weight for small p: series oracle, "
              "diagonal identity, orthogonality, scan"),
    "thm12": (_suite_thm12,
              "lifting into the rescued weight for large p, with a "
              "lighter-weight trend probe"),
    "a2-diverge": (_suite_a2_diverge,
                   "borderline p = 2: divergence of the lifted series "
                   "against the convergent source series"),
    "ball-thm13": (_suite_ball_thm13,
                   "ball witnesses with the closed-form constant plus "
                   "derivative-norm equivalence"),
}
