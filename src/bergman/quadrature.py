"""Quadrature against the weighted area measures, with an eps-truncation
convergence protocol.

Disk grids put Gauss-Legendre nodes in the squared-radius variable
u = |z|^2 on panels aligned with the truncation radii 1 - eps_i (eps
halving from 2^-4), times a uniform angular rule; near-boundary panels
are dyadically refined so each partial integral is quadrature-exact and
the only error is the truncation itself.  Truncated values are then
extrapolated to the full disk with a Richardson scheme that knows the
tail exponents alpha+1, alpha+2, ... of the weight.

Convergence / membership verdicts come from the decay pattern of the
partial-integral increments, never from the extrapolated number alone.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, hyp2f1

from .errors import ParameterError
from .functions import BallPoly, HoloFunction, TaylorPoly
from .geometry import EuclideanDisk
from . import _kernels

EPS_START = 2.0 ** -4
EPS_STOP = 2.0 ** -12

MEMBER_RATIO = 0.9    # increments must decay faster than this, last 4 ratios
DIVERGE_RATIO = 1.05  # geometric-mean ratio at/above this flags divergence
SCAN_RATIO = 0.95     # lenient final-ratio bound for slowly decaying tails


@dataclass(frozen=True)
class WeightParams:
    """Integrability exponent p > 0 and weight exponent alpha > -1."""

    p: float
    alpha: float

    def __post_init__(self):
        if not self.p > 0:
            raise ParameterError("exponent p must be positive")
        if not self.alpha > -1:
            raise ParameterError("weight alpha must exceed -1")


@dataclass
class NormResult:
    """Outcome of one protocol integration (the p-th power integral)."""

    value: float
    converged: bool
    eps_values: list = field(default_factory=list)
    partials: list = field(default_factory=list)
    estimated_error: float = float("inf")
    rtol: float = 0.05
    verdict: str = ""

    def to_json(self) -> dict:
        return {"value": self.value, "converged": self.converged,
                "eps": list(map(float, self.eps_values)),
                "partials": list(map(float, self.partials)),
                "estimated_error": self.estimated_error,
                "rtol": self.rtol, "verdict": self.verdict}


def eps_sequence(eps_start: float = EPS_START, eps_stop: float = EPS_STOP):
    """Halving eps values from eps_start down to (at most) eps_stop."""
    if not 0 < eps_stop <= eps_start < 0.5:
        raise ParameterError("need 0 < eps_stop <= eps_start < 0.5")
    out = [eps_start]
    while out[-1] > eps_stop * (1 + 1e-12):
        out.append(out[-1] / 2)
    return np.array(out)


def disk_ladder(alpha: float, n: int = 8):
    return [alpha + 1.0 + m for m in range(n)]


def bidisk_ladder(alpha: float, n: int = 8):
    cand = sorted({round(alpha + 1.0 + m, 12) for m in range(n)}
                  | {round(2.0 * (alpha + 1.0) + m, 12) for m in range(n)})
    out = []
    for a in cand:
        if not out or a - out[-1] > 1e-9:
            out.append(a)
    return out[:n]


def log_ladder(n: int = 8):
    """Repeated integer exponents; each repeat absorbs one log factor."""
    out = []
    m = 1
    while len(out) < n:
        out.extend([float(m), float(m)])
        m += 1
    return out[:n]


def richardson(deltas, partials, ladder, max_stage: int | None = None):
    """Sequential elimination of the given tail exponents.

    Returns (estimate, error_estimate); the error estimate is the change
    introduced by the last elimination stage.
    """
    d = np.asarray(deltas, float)
    T = np.asarray(partials, float).copy()
    n = len(T)
    stages = min(len(ladder), n - 1)
    if max_stage is not None:
        stages = min(stages, max_stage)
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


def classify_partials(partials, rtol: float = 0.05, rule: str = "strict"):
    """Verdict from the increment decay pattern.

    ``strict``: member iff the last 4 increment ratios all fall below
    MEMBER_RATIO; non-member iff increments grow (geometric-mean ratio at
    least DIVERGE_RATIO, or all of them >= 1); otherwise undecided.
    ``scan``: additionally accepts slowly decaying tails whose ratios are
    below 1 with the final ratio at most SCAN_RATIO.
    """
    F = np.asarray(partials, float)
    scale = max(abs(F[-1]), 1e-300)
    inc = np.diff(F)
    if np.all(np.abs(inc) <= 1e-13 * scale):
        return "member", True
    pos = np.maximum(inc, 1e-300)
    ratios = pos[1:] / pos[:-1]
    last = ratios[-4:] if len(ratios) >= 4 else ratios
    settled = abs(inc[-1]) < rtol * scale and inc[-1] <= inc[0] + 1e-13 * scale
    gm = float(np.exp(np.mean(np.log(last))))
    if np.all(last < MEMBER_RATIO) or (settled and gm < 1.0):
        return "member", True
    if gm >= DIVERGE_RATIO or np.all(last >= 1.0):
        return "non-member", False
    if rule == "scan" and np.all(last < 1.0) and last[-1] <= SCAN_RATIO:
        return "member", True
    return "undecided", False


# ---------------------------------------------------------------------------
# disk grids
# ---------------------------------------------------------------------------

def _radial_panels(deltas, nodes_per_panel, coarse_splits):
    """GL nodes in u on panels with breakpoints at the truncation radii.

    Returns (u, base_w, ring) where ring[i] is the index of the deepest
    truncation level whose region |z| <= 1 - eps contains the node.
    """
    edges = [1.0 - d for d in deltas]
    brk = sorted({0.0, *(c for c in coarse_splits if c < edges[0]), *edges})
    gx, gw = np.polynomial.legendre.leggauss(nodes_per_panel)
    ring_edges = np.asarray(edges)
    us, ws, rg = [], [], []
    for a, b in zip(brk[:-1], brk[1:]):
        us.append(0.5 * (a + b) + 0.5 * (b - a) * gx)
        ws.append(0.5 * (b - a) * gw)
        rg.append(np.full(nodes_per_panel,
                          np.searchsorted(ring_edges, b - 1e-15), dtype=np.int64))
    return np.concatenate(us), np.concatenate(ws), np.concatenate(rg)


class DiskGrid:
    """Nodes and weights realizing dA_alpha on |z| <= 1 - eps, with the
    whole halving eps-sequence embedded as nested node rings."""

    def __init__(self, nodes, weights, ring, eps_values, alpha, kind):
        self.nodes = nodes
        self.weights = weights
        self.ring = ring
        self.eps_values = np.asarray(eps_values, float)
        self.deltas = 1.0 - (1.0 - self.eps_values) ** 2
        self.alpha = float(alpha)
        self.kind = kind
        if np.any(weights < 0):
            raise ParameterError("grid weights must be nonnegative")

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def n_levels(self) -> int:
        return len(self.eps_values)

    @classmethod
    def build(cls, alpha: float, eps_start: float = EPS_START,
              eps_stop: float = EPS_STOP, n_angular: int = 256,
              nodes_per_panel: int = 20,
              coarse_splits=(0.25, 0.5, 0.75)) -> "DiskGrid":
        """Product grid: radial GL panels times a uniform angular rule
        (angles offset by half a spacing so no node sits on the real axis)."""
        if not alpha > -1:
            raise ParameterError("weight alpha must exceed -1")
        eps = eps_sequence(eps_start, eps_stop)
        deltas = 1.0 - (1.0 - eps) ** 2
        u, wu, rg = _radial_panels(deltas, nodes_per_panel, coarse_splits)
        wu = wu * (alpha + 1.0) * (1.0 - u) ** alpha
        th = np.exp(2j * np.pi * (np.arange(n_angular) + 0.5) / n_angular)
        nodes = (np.sqrt(u)[:, None] * th[None, :]).ravel()
        weights = np.repeat(wu / n_angular, n_angular)
        ring = np.repeat(rg, n_angular)
        return cls(nodes, weights, ring, eps, alpha, "uniform")

    @classmethod
    def build_graded(cls, alpha: float, eps_start: float = EPS_START,
                     eps_stop: float = EPS_STOP, nodes_per_panel: int = 12,
                     theta_per_panel: int = 6, weight_exponent=None,
                     coarse_splits=(0.25, 0.5, 0.75)) -> "DiskGrid":
        """Variant with angular GL panels dyadically refined toward the
        positive real axis, for integrands peaking at z = 1.  With
        ``weight_exponent`` set, the radial weight is the unnormalized
        (1 - u)^weight_exponent instead of dA_alpha.

        Guaranteed layout: every angle lies strictly inside (0, pi), so no
        node is on the real axis, and each radius lists its angles and
        then their negatives, so ``nodes[Im < 0] == conj(nodes[Im > 0])``
        element by element, with equal weights and rings.
        ``_kernels.pair_block_sums`` relies on this exact mirror to halve
        the lifted-norm pair pass."""
        if not alpha > -1:
            raise ParameterError("weight alpha must exceed -1")
        eps = eps_sequence(eps_start, eps_stop)
        deltas = 1.0 - (1.0 - eps) ** 2
        u, wu, rg = _radial_panels(deltas, nodes_per_panel, coarse_splits)
        if weight_exponent is None:
            wu = wu * (alpha + 1.0) * (1.0 - u) ** alpha
        else:
            wu = wu * (1.0 - u) ** weight_exponent
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
            # mirror to negative angles (the layout the docstring promises)
            th_all = np.concatenate([th_nodes, -th_nodes])
            w_all = np.concatenate([th_w, th_w])
            nodes.append(r * np.exp(1j * th_all))
            weights.append(wi * w_all)
            ring.append(np.full(len(th_all), gi, dtype=np.int64))
        return cls(np.concatenate(nodes), np.concatenate(weights),
                   np.concatenate(ring), eps, alpha, "graded")

    def partials(self, values) -> np.ndarray:
        """Cumulative truncated integrals over |z| <= 1 - eps_i."""
        sums = np.bincount(self.ring, weights=self.weights * values,
                           minlength=self.n_levels)
        return np.cumsum(sums)

    def integrate_protocol(self, values, rtol: float = 0.05, ladder="alpha",
                           rule: str = "strict", shift: float = 0.0,
                           window: int | None = None) -> NormResult:
        """Full protocol: partials, verdict, extrapolated value.

        ``window`` restricts the extrapolation to the deepest levels
        (useful when the integrand is concentrated near the boundary and
        the shallow truncations sit outside the tail's asymptotic regime);
        the verdict always uses the whole sequence.
        """
        F = self.partials(values) + shift
        verdict, conv = classify_partials(F, rtol=rtol, rule=rule)
        if ladder == "alpha":
            ladder = disk_ladder(self.alpha)
        if conv and ladder is not None:
            if window is not None and window < len(F):
                value, err = richardson(self.deltas[-window:], F[-window:],
                                        ladder)
            else:
                value, err = richardson(self.deltas, F, ladder)
        elif conv:
            inc = np.diff(F)
            r = float(np.clip(inc[-1] / max(inc[-2], 1e-300), 0.0, 0.97))
            value = float(F[-1] + inc[-1] * r / (1.0 - r))
            err = float(inc[-1] * r / (1.0 - r))
        else:
            value, err = float(F[-1]), float("inf")
        return NormResult(value=value, converged=conv,
                          eps_values=list(self.eps_values), partials=list(F),
                          estimated_error=err, rtol=rtol, verdict=verdict)


def grid_for(f: HoloFunction | None, alpha: float, **kw) -> DiskGrid:
    """Disk grid matched to the integrand: for a Taylor polynomial of
    degree d, 4d + 16 uniform angles integrate |f|^2 exactly; the closed
    forms blow up at z = 1, where only the angularly graded rule resolves
    the peak at every truncation depth."""
    if isinstance(f, TaylorPoly):
        kw.setdefault("n_angular", 4 * f.degree + 16)
        return DiskGrid.build(alpha, **kw)
    if f is not None:
        kw.pop("n_angular", None)
        return DiskGrid.build_graded(alpha, **kw)
    return DiskGrid.build(alpha, **kw)


# ---------------------------------------------------------------------------
# bidisk tensor grids
# ---------------------------------------------------------------------------

def _powers(z, d: int) -> np.ndarray:
    """Columns z^0, ..., z^(d-1) of the nodes z, shape (len(z), d)."""
    return z[:, None] ** np.arange(d)[None, :]


class BidiskGrid:
    """Tensor square of a disk grid; partial integrals truncate both
    factors at the same eps."""

    def __init__(self, factor: DiskGrid):
        self.factor = factor
        self.alpha = factor.alpha

    @property
    def node_count(self) -> int:
        return self.factor.node_count ** 2

    def block_partials(self, block) -> np.ndarray:
        return np.cumsum(np.cumsum(block, axis=0), axis=1).diagonal().copy()

    def protocol_from_block(self, block, rtol: float = 0.05,
                            rule: str = "scan") -> NormResult:
        F = self.block_partials(block)
        verdict, conv = classify_partials(F, rtol=rtol, rule=rule)
        if conv:
            value, err = richardson(self.factor.deltas, F,
                                    bidisk_ladder(self.alpha))
        else:
            value, err = float(F[-1]), float("inf")
        return NormResult(value=value, converged=conv,
                          eps_values=list(self.factor.eps_values),
                          partials=list(F), estimated_error=err, rtol=rtol,
                          verdict=verdict)

    def lifted_power_norm(self, s: float, p: float, variant: int = 0,
                          rtol: float = 0.05) -> NormResult:
        """Protocol integral of |(f(z)-f(w))/(z-w)|^p over the tensor grid
        for f = (1-z)^(-s) (variant 0) or log(1/(1-z)) (variant 1)."""
        g = self.factor
        f = (1.0 - g.nodes) ** (-s) if variant == 0 else -np.log(1.0 - g.nodes)
        block = _kernels.pair_block_sums(g.nodes, f, g.weights, g.ring,
                                         g.n_levels, p, s, variant)
        return self.protocol_from_block(block, rtol=rtol, rule="scan")

    def ring_moments(self, d1: int, d2: int) -> np.ndarray:
        """Per-ring monomial moments M[a, k, l] = sum_(i in ring a)
        w_i z_i^k conj(z_i)^l of the factor grid, shape (levels, d1, d2)."""
        g = self.factor
        wz = g.weights[:, None] * _powers(g.nodes, d1)
        cz = _powers(np.conj(g.nodes), d2)
        M = np.empty((g.n_levels, d1, d2), dtype=complex)
        for a in range(g.n_levels):
            m = g.ring == a
            M[a] = wz[m].T @ cz[m]
        return M

    def pairing_block(self, A, B) -> np.ndarray:
        """Ring blocks of the weighted pairing of sum A_km z^k w^m with
        sum B_ln z^l w^n: block[a, b] = sum A_km conj(B_ln) Mz_a[k, l]
        Mw_b[m, n], from the ring moments alone (no pass over node pairs).
        The blocks sum to the pairing over the whole tensor grid."""
        A = np.asarray(A, dtype=complex)
        B = np.asarray(B, dtype=complex)
        Mz = self.ring_moments(A.shape[0], B.shape[0])
        Mw = (Mz if (A.shape[1], B.shape[1]) == Mz.shape[1:]
              else self.ring_moments(A.shape[1], B.shape[1]))
        # P[b, k, l] = sum_(m, n) A_km Mw_b[m, n] conj(B_ln)
        P = A @ Mw @ np.conj(B).T
        return np.einsum("akl,bkl->ab", Mz, P)

    def coefficient_norm(self, cmat, p: float = 2.0, rtol: float = 0.05,
                         rule: str = "strict") -> NormResult:
        """Protocol integral of |sum_ij c_ij z^i w^j|^p.

        At p = 2 the node double sum factors exactly by ring through the
        ring moments (``pairing_block`` of C with itself), O(levels N d^2)
        instead of O(N^2 d).  Otherwise the bidisk function is evaluated
        as Zpow @ C @ Wpow^T in row chunks of a fixed element budget and
        |.|^p is summed into ring blocks by BLAS products against the
        weighted one-hot ring matrix."""
        cmat = np.asarray(cmat, dtype=complex)
        if p == 2.0:
            block = self.pairing_block(cmat, cmat).real
            return self.protocol_from_block(block, rtol=rtol, rule=rule)
        g = self.factor
        N = g.node_count
        zp = _powers(g.nodes, cmat.shape[0])
        right = cmat @ _powers(g.nodes, cmat.shape[1]).T
        Wr = np.zeros((N, g.n_levels))
        Wr[np.arange(N), g.ring] = g.weights
        block = np.zeros((g.n_levels, g.n_levels))
        rows = max(1, _kernels._PAIR_BUDGET // N)
        for lo in range(0, N, rows):
            hi = min(lo + rows, N)
            v = np.abs(zp[lo:hi] @ right) ** p
            block += Wr[lo:hi].T @ (v @ Wr)
        return self.protocol_from_block(block, rtol=rtol, rule=rule)


# ---------------------------------------------------------------------------
# ball grids
# ---------------------------------------------------------------------------

def ball_weight_constant(n: int, alpha: float) -> float:
    """c_alpha with dv_alpha = c_alpha (1-|z|^2)^alpha dv a probability
    measure on the complex n-ball."""
    return float(np.exp(gammaln(n + alpha + 1) - gammaln(n + 1)
                        - gammaln(alpha + 1)))


class BallGrid:
    """Scrambled-Sobol rejection sample of the ball with dv_alpha weights."""

    def __init__(self, n: int, alpha: float, log2_count: int = 20,
                 eps_start: float = EPS_START, eps_stop: float = 2.0 ** -15,
                 seed: int = 0):
        if not alpha > -1:
            raise ParameterError("weight alpha must exceed -1")
        import math

        from scipy.stats import qmc

        self.n = int(n)
        self.alpha = float(alpha)
        self.eps_values = eps_sequence(eps_start, eps_stop)
        raw = 2.0 * qmc.Sobol(d=2 * n, scramble=True, seed=seed).random_base2(log2_count) - 1.0
        keep = np.sum(raw * raw, axis=1) < 1.0
        pts = raw[keep]
        z = pts[:, :n] + 1j * pts[:, n:]
        norm2 = np.sum(np.abs(z) ** 2, axis=1)
        az = np.sqrt(norm2)
        inside = az <= 1.0 - self.eps_values[-1]
        z, norm2, az = z[inside], norm2[inside], az[inside]
        # weight per kept node: (box volume / N_raw) / V_n * c_alpha (1-|z|^2)^alpha
        vol_ball = np.pi ** n / math.factorial(n)
        w = (2.0 ** (2 * n) / raw.shape[0]) / vol_ball
        self.nodes = z
        self.weights = w * ball_weight_constant(n, alpha) * (1.0 - norm2) ** alpha
        edges = 1.0 - self.eps_values
        self.ring = np.searchsorted(edges, az).astype(np.int64)
        self.ring = np.minimum(self.ring, len(self.eps_values) - 1)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def n_levels(self) -> int:
        return len(self.eps_values)

    def partials(self, values) -> np.ndarray:
        sums = np.bincount(self.ring, weights=self.weights * values,
                           minlength=self.n_levels)
        return np.cumsum(sums)

    def integrate_protocol(self, values, rtol: float = 0.02,
                           rule: str = "scan") -> NormResult:
        F = self.partials(values)
        verdict, conv = classify_partials(F, rtol=rtol, rule=rule)
        if conv:
            # one elimination stage only: deeper stages amplify the
            # quasi-Monte-Carlo noise of the outer rings
            value, err = richardson(1.0 - (1.0 - self.eps_values) ** 2, F,
                                    disk_ladder(self.alpha, n=2), max_stage=1)
        else:
            value, err = float(F[-1]), float("inf")
        return NormResult(value=value, converged=conv,
                          eps_values=list(self.eps_values), partials=list(F),
                          estimated_error=err, rtol=rtol, verdict=verdict)


def build_grid(domain: str, alpha: float, eps: float = EPS_STOP, **kw):
    """Convenience dispatcher over the three grid families."""
    if domain == "disk":
        return DiskGrid.build(alpha, eps_stop=eps, **kw)
    if domain == "bidisk":
        return BidiskGrid(DiskGrid.build(alpha, eps_stop=eps, **kw))
    if domain == "ball":
        return BallGrid(kw.pop("n", 2), alpha, **kw)
    raise ParameterError(f"unknown domain {domain!r}")


# ---------------------------------------------------------------------------
# norms, membership, seminorms
# ---------------------------------------------------------------------------

def monomial_norm_exact(k: int, alpha: float) -> float:
    """Exact int |z^k|^2 dA_alpha = Gamma(alpha+2) k! / Gamma(k+alpha+2)."""
    if k < 0:
        raise ParameterError("monomial degree must be nonnegative")
    if not alpha > -1:
        raise ParameterError("weight alpha must exceed -1")
    return float(np.exp(gammaln(alpha + 2) + gammaln(k + 1)
                        - gammaln(k + alpha + 2)))


def norm_p(f: HoloFunction, wp: WeightParams, grid: DiskGrid,
           rtol: float = 0.05) -> NormResult:
    """Protocol integral of |f|^p against the grid's dA_alpha."""
    if isinstance(f, BallPoly):
        raise TypeError("disk norm requires a disk variant")
    values = np.abs(f(grid.nodes)) ** wp.p
    return grid.integrate_protocol(values, rtol=rtol)


def ball_norm_p(f: BallPoly, wp: WeightParams, grid: BallGrid,
                rtol: float = 0.02) -> NormResult:
    if not isinstance(f, BallPoly):
        raise TypeError("ball norm requires a ball variant")
    values = np.abs(f(grid.nodes)) ** wp.p
    return grid.integrate_protocol(values, rtol=rtol)


def membership(f: HoloFunction, wp: WeightParams,
               grid: DiskGrid | None = None):
    """Decide f in A^p_alpha from the increment decay of the truncated
    integrals; returns (verdict, NormResult)."""
    if grid is None or abs(grid.alpha - wp.alpha) > 1e-12:
        grid = grid_for(f, wp.alpha)
    res = norm_p(f, wp, grid)
    return res.verdict, res


def derivative_seminorm(f: HoloFunction, wp: WeightParams, grid: DiskGrid,
                        rtol: float = 0.05) -> NormResult:
    """|f(0)|^p + the protocol integral of ((1-|z|^2)|f'|)^p dA_alpha."""
    vals = ((1.0 - np.abs(grid.nodes) ** 2)
            * np.abs(f.derivative_at(grid.nodes))) ** wp.p
    head = float(np.abs(f(np.array(0j))) ** wp.p)
    return grid.integrate_protocol(vals, rtol=rtol, shift=head)


# ---------------------------------------------------------------------------
# Forelli-Rudin growth integrals and exponent fitting
# ---------------------------------------------------------------------------

def forelli_rudin_integral(x: float, s: float, t: float,
                           rtol: float = 0.05) -> NormResult:
    """I(x) = int (1-|w|^2)^s / |1 - x w|^(2+s+t) dA(w) for 0 <= x < 1.

    By rotation invariance only |z| = x matters.  Uses an angularly
    graded grid (the kernel peaks at w = 1) and an eps-sequence deep
    enough to pass under the kernel scale 1 - x.
    """
    if not s > -1:
        raise ParameterError("radial exponent s must exceed -1")
    if not 0 <= x < 1:
        raise ParameterError("|z| must lie in [0, 1)")
    eps_stop = min(EPS_STOP, (1.0 - x) / 16.0)
    grid = DiskGrid.build_graded(0.0, eps_stop=eps_stop, weight_exponent=s)
    vals = np.abs(1.0 - x * grid.nodes) ** (-(2.0 + s + t))
    return grid.integrate_protocol(vals, rtol=rtol, ladder=None, rule="scan")


def forelli_rudin_exact(x: float, s: float, t: float) -> float:
    """Closed form of I(x): 2F1(lam, lam; s+2; x^2) / (s+1) with
    lam = (2+s+t)/2, from the Taylor expansion of the kernel."""
    if not s > -1:
        raise ParameterError("radial exponent s must exceed -1")
    if not 0 <= x < 1:
        raise ParameterError("|z| must lie in [0, 1)")
    lam = (2.0 + s + t) / 2.0
    return float(hyp2f1(lam, lam, s + 2.0, x * x) / (s + 1.0))


def forelli_rudin_sup(s: float, t: float) -> float:
    """sup_x I(x) = Gamma(1+s) Gamma(-t) / Gamma(1+(s-t)/2)^2, finite
    exactly in the bounded case t < 0 (Gauss's value of 2F1 at 1)."""
    if not (s > -1 and t < 0):
        raise ParameterError("the supremum is finite only for s > -1, t < 0")
    return float(np.exp(gammaln(1.0 + s) + gammaln(-t)
                        - 2.0 * gammaln(1.0 + (s - t) / 2.0)))


def forelli_rudin_scan(radii, st_pairs, rtol: float = 0.05) -> dict:
    """I(x) for every |z| in ``radii`` and (s, t) in ``st_pairs``, sharing
    one graded grid per radius; returns {(s, t): [NormResult, ...]}."""
    out = {st: [] for st in st_pairs}
    for x in radii:
        eps_stop = min(EPS_STOP, (1.0 - x) / 16.0)
        grid = DiskGrid.build_graded(0.0, eps_stop=eps_stop, weight_exponent=0.0)
        one_minus_u = 1.0 - np.abs(grid.nodes) ** 2
        for s, t in st_pairs:
            vals = one_minus_u ** s * np.abs(1.0 - x * grid.nodes) ** (-(2.0 + s + t))
            out[(s, t)].append(grid.integrate_protocol(vals, rtol=rtol,
                                                       ladder=None,
                                                       rule="scan"))
    return out


def fit_growth_exponent(samples) -> float:
    """Least-squares slope of log I against -log(1 - |z|^2).

    ``samples`` is an iterable of (|z|, I(|z|)) with at least four
    entries at |z| >= 0.9.
    """
    pts = [(float(a), float(b)) for a, b in samples]
    good = [p for p in pts if p[0] >= 0.9]
    if len(good) < 4:
        raise ParameterError("need at least 4 samples with |z| >= 0.9")
    xs = np.array([-np.log(1.0 - a * a) for a, _ in good])
    ys = np.array([np.log(b) for _, b in good])
    return float(np.polyfit(xs, ys, 1)[0])


def region_integral(values_fn, disk: EuclideanDisk, n_radial: int = 48,
                    n_angular: int = 64) -> float:
    """Integral of a function over a Euclidean disk against the normalized
    area measure of the unit disk (area / pi)."""
    gx, gw = np.polynomial.legendre.leggauss(n_radial)
    u = 0.5 + 0.5 * gx
    wu = 0.5 * gw
    th = np.exp(2j * np.pi * (np.arange(n_angular) + 0.5) / n_angular)
    pts = disk.center + disk.radius * np.sqrt(u)[:, None] * th[None, :]
    vals = values_fn(pts.ravel()).reshape(pts.shape)
    return float(disk.radius ** 2 * np.sum(wu[:, None] * vals.real / n_angular))
