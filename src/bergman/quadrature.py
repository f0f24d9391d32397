"""Quadrature against the weighted area measures, with an eps-truncation
convergence protocol.

Disk grids put Gauss-Legendre nodes in the squared-radius variable
u = |z|^2 on panels aligned with the truncation radii 1 - eps_i (eps
halving from 2^-4), times an angular rule; near-boundary panels are
dyadically refined so each partial integral is quadrature-exact and the
only error is the truncation itself.  The angular rule is uniform
(``DiskGrid.build``) or refined dyadically toward z = 1
(``DiskGrid.build_graded``), where a radius's rule depends only on how
many halvings of pi reach its finest panel, so all radii with one
halving count share one rule.  Every disk grid keeps 1 - u per node,
exact for u >= 1/2, for weights (1-|z|^2)^s that the rounding of |z|^2
would spoil near the boundary.  ``BallGrid`` takes the same radial rule.

Every grid family runs one truncation protocol, ``_protocol``: the
partial integrals over |z| <= 1 - eps_i give the verdict
(``classify_partials``), and a converged sequence is extrapolated to the
full domain by ``richardson`` with the tail-exponent ladder its family
passes:

- disk: ``disk_ladder(alpha)`` = alpha+1, alpha+2, ..., or the caller's;
  closed-form disk integrands put ``tail_head`` first;
- ball: ``disk_ladder(alpha)``, as its radial factor is the disk's;
- log weight log(1/(1-|z|^2)) dA: ``log_ladder()`` = 1, 1, 2, 2, ...;
- bidisk: ``bidisk_ladder(alpha)``, the merged alpha+1+m and 2(alpha+1)+m,
  or the caller's (``lifting`` puts the edge and corner exponents of
  (1-z)^(-s) first for its lifted norms);
- Forelli-Rudin integrals: ``disk_ladder(s)`` for their (1-|w|^2)^s
  weight, on graded grids down to eps = (1-x)/256.

Every exponent a closed form adds, ``tail_head``'s edge and the lifts'
edge and corner, comes from one place, the closed form's
``tail_exponents(p, weight)``.

Verdicts come from the increment decay of the partials alone, never
from the extrapolated number, and are stored once, as
``NormResult.verdict``.  Every disk and ball integral and every Taylor
lift takes ``classify_partials``'s ``strict`` rule; only the closed-form
lifts take the lenient ``scan`` rule: the pair kernel's
(``lifting._closed_form_norm``) and the p = 4 series'.

The same two functions serve ``lifting.lifted_norm_series``, whose
levels are truncation degrees N of a series rather than radii: at p = 2
N = 2^6, ..., 2^14 under the ``strict`` rule, at p = 4 N = 2^4, ...,
2^10 under ``scan``, with ``richardson`` in delta = 1/N and the same
edge and corner exponents as the pair kernel's in delta; its
``NormResult.eps_values`` hold those 1/N.

The protocol runs on Python floats.  Its sequences are short (7-9
levels on most grids), and on them each numpy call costs more in
dispatch than in arithmetic: on arrays, the verdict and extrapolation
of a p = 2 Taylor lift would take longer than its ring blocks.  The
float loops keep numpy's operation order.  ``richardson``'s
eliminations are bit for bit the array ones: the ladders and the
per-stage denominators of each level set are computed once, by numpy,
and cached (ladders are handed out as fresh lists).
``classify_partials`` takes the geometric mean of its ratios through
``math``'s log and exp, which may differ from numpy's in the last bit;
that moves a verdict only for a mean within an ulp of DIVERGE_RATIO.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import (beta as beta_function, gammaln, hyp2f1,
                           roots_jacobi)

from .errors import ParameterError
from .functions import BallPoly, HoloFunction, PowerSingularity, TaylorPoly
from .geometry import BALL_DIMS
from . import _kernels

EPS_START = 2.0 ** -4
EPS_STOP = 2.0 ** -12

MEMBER_RATIO = 0.9    # increments must decay faster than this, last 4 ratios
DIVERGE_RATIO = 1.05  # geometric-mean ratio at/above this flags divergence
SCAN_RATIO = 0.95     # lenient final-ratio bound for slowly decaying tails
LADDER_LEN = 8        # tail exponents per extrapolation ladder
_CACHE_SIZE = 256     # entries per ladder and denominator cache


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


@dataclass(slots=True)
class NormResult:
    """Outcome of one protocol integration (the p-th power integral)."""

    value: float
    eps_values: np.ndarray
    partials: np.ndarray
    estimated_error: float
    verdict: str

    @property
    def converged(self) -> bool:
        return self.verdict == "member"

    def to_json(self) -> dict:
        return {"value": self.value, "converged": self.converged,
                "eps": list(map(float, self.eps_values)),
                "partials": list(map(float, self.partials)),
                "estimated_error": self.estimated_error,
                "verdict": self.verdict}


def disk_ladder(alpha: float):
    return list(_disk_ladder(alpha))


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _disk_ladder(alpha: float) -> tuple:
    return tuple([alpha + 1.0 + m for m in range(LADDER_LEN)])


def bidisk_ladder(alpha: float):
    return list(_bidisk_ladder(alpha))


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _bidisk_ladder(alpha: float) -> tuple:
    a = alpha + 1.0
    cand = sorted({round(e, 12) for m in range(LADDER_LEN)
                   for e in (a + m, 2.0 * a + m)})
    out = []
    for e in cand:
        if not out or e - out[-1] > 1e-9:
            out.append(e)
    return tuple(out[:LADDER_LEN])


_LOG_LADDER = tuple([float(1 + m // 2) for m in range(LADDER_LEN)])


def log_ladder():
    """Repeated integer exponents 1, 1, 2, 2, ...; each repeat absorbs
    one log factor."""
    return list(_LOG_LADDER)


def _float_key(values) -> tuple:
    """``values`` as a tuple of Python floats, a cache key.  Every tuple
    the protocol builds is built from a list: one grown from an iterator
    is resized, and on release it stays on the interpreter's tuple free
    list of its final size, which then holds up to 2,000 of them."""
    return tuple(np.asarray(values, float).tolist())


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _richardson_denominators(deltas: tuple, ladder: tuple) -> tuple:
    """Per stage j the tuple (d_i / d_(i+1))^(a_j) - 1 over the levels
    still in play, by numpy's power as an array, so the floats equal the
    ones an array elimination divides by.  A zero denominator (a zero
    exponent) is kept as a numpy float: dividing by it gives inf or nan
    under numpy's warning, where a Python float would raise."""
    d = np.array(deltas)
    stages = []
    for a in ladder[: len(d) - 1]:
        q = ((d[:-1] / d[1:]) ** a - 1.0).tolist()
        stages.append(tuple([x if x else np.float64(x) for x in q]))
        d = d[1:]
    return tuple(stages)


def richardson(deltas, partials, ladder):
    """Sequential elimination of the given tail exponents.

    ``partials`` F_i are the integrals truncated at delta_i = 1 - (1 -
    eps_i)^2, and the tail I - F_i is taken as sum_j c_j delta_i^(a_j)
    with a_j = ``ladder[j]``; one stage per exponent, at most one fewer
    than the number of levels.  The ladder is the family's (see the
    module docstring); a repeated exponent absorbs a delta^a log delta
    term.  Returns (estimate, error_estimate); the error estimate is the
    change introduced by the last elimination stage.

    Each stage's denominators depend only on the levels and the ladder
    and are computed once per pair (``_richardson_denominators``)."""
    T = np.asarray(partials, float).tolist()
    if len(deltas) < len(T):
        raise ParameterError("need a truncation depth for every partial")
    den = _richardson_denominators(_float_key(deltas), _float_key(ladder))
    stages = min(len(den), len(T) - 1)
    prev_last = T[-1]
    for j in range(stages):
        T = [t1 + (t1 - t0) / q for t0, t1, q in zip(T, T[1:], den[j])]
        if j == stages - 2:
            prev_last = T[-1]
    return float(T[-1]), float(abs(T[-1] - prev_last))


def classify_partials(partials, rule: str = "strict") -> str:
    """Verdict from the increment decay pattern: undecided from fewer
    than three partials (no increment ratio to read), member if every
    increment is zero to rounding.

    ``strict``: member iff the last 4 increment ratios all fall below
    MEMBER_RATIO; non-member iff increments grow (geometric-mean ratio at
    least DIVERGE_RATIO, or all of them >= 1); otherwise undecided.
    ``scan``: additionally accepts slowly decaying tails whose ratios are
    below 1 with the final ratio at most SCAN_RATIO.
    """
    F = np.asarray(partials, float).tolist()
    if len(F) < 3:
        return "undecided"
    scale = max(abs(F[-1]), 1e-300)
    inc = [b - a for a, b in zip(F, F[1:])]
    if all(abs(x) <= 1e-13 * scale for x in inc):
        return "member"
    pos = [max(x, 1e-300) for x in inc]  # a nan stays nan
    last = [b / a for a, b in zip(pos, pos[1:])][-4:]
    if all(r < MEMBER_RATIO for r in last):
        return "member"
    log_sum = 0.0  # summed in order, as numpy reduces four terms
    for r in last:  # a ratio underflows to 0 past a 1e-300 floor
        log_sum += math.log(r) if r != 0.0 else -math.inf
    gm = math.exp(log_sum / len(last))
    if gm >= DIVERGE_RATIO or all(r >= 1.0 for r in last):
        return "non-member"
    if rule == "scan" and all(r < 1.0 for r in last) \
            and last[-1] <= SCAN_RATIO:
        return "member"
    return "undecided"


def _protocol(F, eps_values, ladder, rule: str) -> NormResult:
    """The truncation protocol shared by every grid family: verdict by
    ``rule`` from every partial ``F`` at the levels ``eps_values``, then,
    for a member, the value extrapolated by ``richardson`` with the tail
    exponents ``ladder``.  A ladder of m exponents reads only the deepest
    m + 1 levels, so a shorter ladder extrapolates from fewer levels."""
    verdict = classify_partials(F, rule=rule)
    if verdict != "member":
        value, err = float(F[-1]), float("inf")
    else:
        deltas = 1.0 - (1.0 - np.asarray(eps_values, float)) ** 2
        value, err = richardson(deltas, F, ladder)
    return NormResult(value=value, eps_values=eps_values,
                      partials=np.asarray(F, float), estimated_error=err,
                      verdict=verdict)


# ---------------------------------------------------------------------------
# disk grids
# ---------------------------------------------------------------------------

def _read_only(*arrays):
    """Mark arrays read-only: the shared Gauss rules, every grid's arrays
    and the bidisk ring moments.  Read-only grid arrays keep the cached
    moments from going stale through an in-place edit."""
    for a in arrays:
        a.flags.writeable = False


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """The n-point Gauss-Legendre rule on [-1, 1], as read-only arrays
    shared by every caller."""
    gx, gw = np.polynomial.legendre.leggauss(n)
    _read_only(gx, gw)
    return gx, gw


def _radial_rule(alpha: float, eps_stop: float, nodes_per_panel: int):
    """The radial factor of every disk and ball grid: GL nodes in
    u = |z|^2 on panels with breakpoints at the truncation radii, weighted
    for (alpha+1)(1-u)^alpha du.

    Returns (eps, u, w, ring) where ring[i] is the index of the deepest
    truncation level whose region |z| <= 1 - eps contains the node.
    """
    if not alpha > -1:
        raise ParameterError("weight alpha must exceed -1")
    if not 0 < eps_stop <= EPS_START:
        raise ParameterError("need 0 < eps_stop <= EPS_START")
    # halving down to (at most) eps_stop; each halving is exact
    halvings = np.count_nonzero(EPS_START / 2.0 ** np.arange(64)
                                > eps_stop * (1 + 1e-12))
    eps = EPS_START / 2.0 ** np.arange(halvings + 1)
    _read_only(eps)
    edges = 1.0 - (1.0 - (1.0 - eps) ** 2)  # u at the truncation radii
    # fixed breakpoints below the first truncation radius
    brk = sorted({0.0, *(c for c in (0.25, 0.5, 0.75) if c < edges[0]), *edges})
    gx, gw = _gauss_legendre(nodes_per_panel)
    us, ws, rg = [], [], []
    for a, b in zip(brk[:-1], brk[1:]):
        us.append(0.5 * (a + b) + 0.5 * (b - a) * gx)
        ws.append(0.5 * (b - a) * gw)
        rg.append(np.full(nodes_per_panel,
                          np.searchsorted(edges, b - 1e-15), dtype=np.int64))
    u, w = np.concatenate(us), np.concatenate(ws)
    return eps, u, w * (alpha + 1.0) * (1.0 - u) ** alpha, np.concatenate(rg)


# the exact halving ladder pi / 2^k of the graded angular panels, and the
# floor on the finest panel (pi / 2^25 is the first rung below it)
_T_FLOOR = 1e-7
_HALVINGS = np.pi / 2.0 ** np.arange(32)


def _halving_counts(t_min):
    """Per finest-panel bound t_min >= 1e-7, the number m of halvings of
    pi that first reach it: the least m with pi / 2^m <= t_min.  Halving
    is exact in binary floating point, so each rung equals the value
    that repeated halving produces."""
    return np.count_nonzero(_HALVINGS[None, :] > t_min[:, None], axis=1)


def _graded_angles(m: int, theta_per_panel: int):
    """Angles and weights (normalized to dtheta / 2pi) of the graded rule
    with m halvings: GL panels on [pi/2^(j+1), pi/2^j] for j < m, then
    [0, pi/2^m], followed by the mirror images at negative angles."""
    gx, gw = _gauss_legendre(theta_per_panel)
    b = _HALVINGS[: m + 1]
    a = np.append(_HALVINGS[1: m + 1], 0.0)
    th = ((0.5 * (a + b))[:, None] + (0.5 * (b - a))[:, None] * gx).ravel()
    w = ((0.5 * (b - a))[:, None] * gw).ravel() / (2.0 * np.pi)
    return np.concatenate([th, -th]), np.concatenate([w, w])


class DiskGrid:
    """Nodes and weights realizing dA_alpha on |z| <= 1 - eps, with the
    whole halving eps-sequence embedded as nested node rings.
    ``one_minus_u`` holds 1 - |z|^2 per node, taken from the Gauss node
    in u (exact for u >= 1/2 by Sterbenz's lemma).  ``nodes``,
    ``weights``, ``ring``, ``one_minus_u`` and ``eps_values`` are
    read-only."""

    def __init__(self, nodes, weights, ring, one_minus_u, eps_values, alpha):
        self.nodes = nodes
        self.weights = weights
        self.ring = ring
        self.one_minus_u = one_minus_u
        self.eps_values = np.array(eps_values, float)
        _read_only(nodes, weights, ring, one_minus_u, self.eps_values)
        self.alpha = float(alpha)
        if np.any(weights < 0):
            raise ParameterError("grid weights must be nonnegative")

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def n_levels(self) -> int:
        return len(self.eps_values)

    @classmethod
    def build(cls, alpha: float, eps_stop: float = EPS_STOP,
              n_angular: int = 256, nodes_per_panel: int = 20) -> "DiskGrid":
        """Product grid: radial GL panels times a uniform angular rule
        (angles offset by half a spacing so no node sits on the real axis)."""
        eps, u, wu, rg = _radial_rule(alpha, eps_stop, nodes_per_panel)
        th = np.exp(2j * np.pi * (np.arange(n_angular) + 0.5) / n_angular)
        nodes = (np.sqrt(u)[:, None] * th[None, :]).ravel()
        weights = np.repeat(wu / n_angular, n_angular)
        ring = np.repeat(rg, n_angular)
        return cls(nodes, weights, ring, np.repeat(1.0 - u, n_angular), eps,
                   alpha)

    @classmethod
    def build_graded(cls, alpha: float, eps_stop: float = EPS_STOP,
                     nodes_per_panel: int = 12,
                     theta_per_panel: int = 6) -> "DiskGrid":
        """Variant with angular GL panels dyadically refined toward the
        positive real axis, for integrands peaking at z = 1.

        At radius r the panels halve from pi until the finest one is at
        most max((1 - r)/4, 1e-7) wide, so the angular rule depends only
        on the halving count m.  Radii are built one class of equal m at
        a time (22 classes for the 200 radii of the Forelli-Rudin grid at
        |z| = 0.99999), each as one outer product of its radii and
        its rule; a 19,128-node grid builds in ~0.9 ms, a 47,100-node
        one in ~1.5 ms (one thread, 2-core Xeon).

        Guaranteed layout: nodes are listed radius by radius in
        increasing |z|; every angle lies strictly inside (0, pi), so no
        node is on the real axis, and each radius lists its angles and
        then their negatives, so ``nodes[Im < 0] == conj(nodes[Im > 0])``
        element by element, with equal weights and rings.
        ``_kernels.pair_block_sums`` relies on this exact mirror to halve
        the lifted-norm pair pass."""
        eps, u, wu, rg = _radial_rule(alpha, eps_stop, nodes_per_panel)
        r = np.sqrt(u)
        m = _halving_counts(np.maximum((1.0 - r) / 4.0, _T_FLOOR))
        # u ascends, so m does too and each class is one run of radii
        cuts = [0, *(np.flatnonzero(np.diff(m)) + 1), len(m)]
        nodes, weights = [], []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            th, w = _graded_angles(int(m[lo]), theta_per_panel)
            nodes.append((r[lo:hi, None] * np.exp(1j * th)[None, :]).ravel())
            weights.append((wu[lo:hi, None] * w[None, :]).ravel())
        per_radius = 2 * theta_per_panel * (m + 1)
        return cls(np.concatenate(nodes), np.concatenate(weights),
                   np.repeat(rg, per_radius), np.repeat(1.0 - u, per_radius),
                   eps, alpha)

    def partials(self, values) -> np.ndarray:
        """Cumulative truncated integrals over |z| <= 1 - eps_i (any grid
        with per-node ``weights``, ``ring`` and ``n_levels``)."""
        sums = np.bincount(self.ring, weights=self.weights * values,
                           minlength=self.n_levels)
        return np.cumsum(sums)

    def integrate_protocol(self, values, ladder=None) -> NormResult:
        """Protocol integral of ``values`` under the ``strict`` rule, with
        the weight's ladder ``disk_ladder(alpha)`` unless the caller
        passes one.  A ladder of m exponents extrapolates from the
        deepest m + 1 levels; the verdict reads every level."""
        if ladder is None:
            ladder = disk_ladder(self.alpha)
        return _protocol(self.partials(values), self.eps_values, ladder,
                         "strict")


def grid_for(f: HoloFunction, alpha: float) -> DiskGrid:
    """Disk grid matched to the integrand f or one built from it (|f|^p,
    its derivative, its witness): for a Taylor polynomial of degree d,
    4d + 16 uniform angles integrate |f|^2 exactly; the closed forms blow
    up at z = 1, where only the angularly graded rule resolves the peak
    at every truncation depth.  ``tail_head`` gives the closed forms'
    extra tail exponent."""
    if isinstance(f, TaylorPoly):
        return DiskGrid.build(alpha, n_angular=4 * f.degree + 16)
    return DiskGrid.build_graded(alpha)


def tail_head(f: HoloFunction, p: float, alpha: float) -> list:
    """Tail exponents that |f|^p adds ahead of the weight's ladder
    against dA_alpha: for f = (1-z)^(-s) the edge alpha + 2 - ps of
    ``f.tail_exponents``, which a witness g^p of f and
    ((1-|z|^2)|f'|)^p carry too.  A Taylor polynomial adds none; neither
    does the log kernel, whose log^p factor sits at the weight's own
    alpha + 2 (its p = 2 norm is within 1.3e-7 on ``disk_ladder``)."""
    return [f.tail_exponents(p, alpha)[0]] \
        if isinstance(f, PowerSingularity) else []


# ---------------------------------------------------------------------------
# bidisk tensor grids
# ---------------------------------------------------------------------------

def _powers(z, d: int) -> np.ndarray:
    """Columns z^0, ..., z^(d-1) of the nodes z, shape (len(z), d)."""
    return z[:, None] ** np.arange(d)[None, :]


class BidiskGrid:
    """Tensor square of a disk grid; partial integrals truncate both
    factors at the same eps.

    The factor's per-ring monomial moments are computed once per grid
    and shape (``ring_moments``) and kept read-only, so every Taylor
    lift and pairing on one grid after the first of its shape is BLAS on
    the coefficients alone."""

    def __init__(self, factor: DiskGrid):
        self.factor = factor
        self.alpha = factor.alpha
        self._moments = {}  # (d1, d2) -> read-only ring moment tables

    @property
    def node_count(self) -> int:
        return self.factor.node_count ** 2

    def block_partials(self, block) -> np.ndarray:
        """Diagonal partials S_i = sum_(a, b <= i) block[a, b]: the
        diagonal of the doubly accumulated blocks, as a strided view."""
        acc = np.add.accumulate(np.add.accumulate(block, 0), 1)
        return acc.ravel()[:: len(acc) + 1]

    def protocol_from_block(self, block, rule: str,
                            ladder=None) -> NormResult:
        """The protocol on the diagonal partials of ring blocks, with the
        tail exponents ``ladder``, by default ``bidisk_ladder(alpha)``."""
        if ladder is None:
            ladder = bidisk_ladder(self.alpha)
        return _protocol(self.block_partials(block), self.factor.eps_values,
                         ladder, rule)

    def ring_moments(self, d1: int, d2: int) -> np.ndarray:
        """Per-ring monomial moments M[a, k, l] = sum_(i in ring a)
        w_i z_i^k conj(z_i)^l of the factor grid, shape (levels, d1, d2).

        Computed on the first request for (d1, d2) and returned, read-only,
        on every later one; the factor's arrays are read-only, so the
        table cannot go stale.  A table is levels * d1 * d2 complex: 45 KB
        at 7 levels and d1 = d2 = 20, kept twice (``_moment_tables``)."""
        return self._moment_tables(d1, d2)[0]

    def _moment_tables(self, d1: int, d2: int):
        """``ring_moments(d1, d2)`` and the same table laid out
        [k, a, l], both read-only and kept per shape: ``pairing_block``
        contracts each layout with one flat GEMM."""
        tables = self._moments.get((d1, d2))
        if tables is None:
            g = self.factor
            wz = g.weights[:, None] * _powers(g.nodes, d1)
            cz = _powers(np.conj(g.nodes), d2)
            M = np.empty((g.n_levels, d1, d2), dtype=complex)
            for a in range(g.n_levels):
                m = g.ring == a
                M[a] = wz[m].T @ cz[m]
            tables = M, np.ascontiguousarray(M.transpose(1, 0, 2))
            _read_only(*tables)
            self._moments[(d1, d2)] = tables
        return tables

    def pairing_block(self, A, B) -> np.ndarray:
        """Ring blocks of the weighted pairing of sum A_km z^k w^m with
        sum B_ln z^l w^n: block[a, b] = sum A_km conj(B_ln) Mz_a[k, l]
        Mw_b[m, n], from the ring moments alone (no pass over node pairs).
        The blocks sum to the pairing over the whole tensor grid.

        Three plain 2-D GEMMs on flattened tables, in O(levels d^3 +
        levels^2 d^2): A against the w-table laid out [m, b, n], then
        conj(B) against n, giving P[k, b, l] = (A Mw_b B^H)[k, l]; one
        transposing copy of P to [b, (k, l)]; then the z-table as
        [a, (k, l)] against it."""
        A = np.asarray(A, dtype=complex)
        B = np.asarray(B, dtype=complex)
        (k, m), (l, n) = A.shape, B.shape
        Mz = self._moment_tables(k, l)[0]
        Mw = self._moment_tables(m, n)[1]
        levels = len(Mz)
        P = (A @ Mw.reshape(m, -1)).reshape(-1, n) @ np.conj(B).T
        P = P.reshape(k, levels, l).transpose(1, 0, 2).reshape(levels, -1)
        return Mz.reshape(levels, -1) @ P.T

    def coefficient_norm(self, cmat, p: float) -> NormResult:
        """Protocol integral of |sum_ij c_ij z^i w^j|^p.

        At p = 2 the node double sum factors exactly by ring through the
        ring moments (``pairing_block`` of C with itself, three flat
        GEMMs): O(levels N d^2) for the first matrix of its shape on this
        grid, then O(levels d^3) from the grid's read-only moment tables,
        instead of O(N^2 d).  Otherwise the bidisk function is evaluated
        as Zpow @ C @ Wpow^T in row passes of the kernels' element budget
        and |.|^p is summed into ring blocks by
        ``_kernels._ring_block_sums``."""
        cmat = np.asarray(cmat, dtype=complex)
        if p == 2.0:
            block = self.pairing_block(cmat, cmat).real
            return self.protocol_from_block(block, rule="strict")
        g = self.factor
        zp = _powers(g.nodes, cmat.shape[0])
        right = cmat @ _powers(g.nodes, cmat.shape[1]).T
        block = _kernels._ring_block_sums(
            lambda lo, hi: np.abs(zp[lo:hi] @ right) ** p,
            g.weights, g.ring, g.n_levels)
        return self.protocol_from_block(block, rule="strict")


# ---------------------------------------------------------------------------
# ball grids
# ---------------------------------------------------------------------------

# per n: radial GL nodes per panel, simplex points and phases per axis
_BALL_RULES = dict(zip(BALL_DIMS, ((6, 4, 7), (5, 4, 5))))


def _sphere_rule(n: int, k: int, phases: int):
    """Points zeta_j = sqrt(tau_j) e^(i theta_j) and weights of the
    normalized measure on the unit sphere of C^n: tau uniform on the
    simplex, by stick-breaking tau_j = s_j prod_(i<j) (1 - s_i) with
    s_j ~ Beta(1, n-j) at k Gauss-Jacobi(n-1-j, 0) points, times
    ``phases`` uniform angles per coordinate."""
    gj = [roots_jacobi(k, n - 1 - j, 0.0) for j in range(1, n)]
    s = np.array(list(itertools.product(*[0.5 * (1.0 + x) for x, _ in gj])))
    w = np.prod(list(itertools.product(*[v / v.sum() for _, v in gj])), 1)
    ones = np.ones((len(s), 1))
    tau = np.cumprod(np.hstack([ones, 1.0 - s]), axis=1) * np.hstack([s, ones])
    e = np.exp(2j * np.pi * (np.arange(phases) + 0.5) / phases)
    ph = np.array(list(itertools.product(e, repeat=n)))
    zeta = np.sqrt(tau)[:, None, :] * ph[None, :, :]
    return zeta.reshape(-1, n), np.repeat(w / phases ** n, phases ** n)


class BallGrid:
    """Polar product rule for dv_alpha on the ball of C^n, truncated at
    the disk's eps levels; ``one_minus_u`` is 1 - |z|^2 per node.  Its
    node, weight, ring and ``one_minus_u`` arrays are read-only.

    In u = |z|^2, dv_alpha = u^(n-1) (1-u)^alpha du dsigma / B(n, alpha+1):
    the disk's ``_radial_rule`` times ``_sphere_rule``, sized by
    ``_BALL_RULES`` (14,112 nodes for n = 2, 120,000 for n = 3).  Phases
    integrate z^m conj(z)^m' exactly while |m_j - m'_j| < phases, the
    simplex and radial panels polynomials below twice their point counts;
    only (1-u)^alpha is not polynomial.  Moments of degree <= 3 per
    variable are within 5e-10 (n = 2), of degree <= 2 within 2e-8
    (n = 3), for alpha in {-0.5, 0, 1.5}.  ``integrate_protocol`` runs
    the disk's protocol: ``disk_ladder(alpha)``, as the radial factor is
    the disk's, and the ``strict`` rule.  ``estimated_error`` covers only
    the truncation tail: where the integrand is not smooth on the sphere
    (|f|^p at zeros of f, p != 2; the sampled witness g) the rule itself
    can be off by far more.  ``log2_count`` and ``seed`` are ignored; they
    are kept for callers of the former quasi-Monte-Carlo grid.
    """

    def __init__(self, n: int, alpha: float, log2_count: int = 20,
                 seed: int = 0):
        if n not in _BALL_RULES:
            raise ParameterError(f"ball dimension must be one of {BALL_DIMS}")
        per_panel, k, phases = _BALL_RULES[n]
        self.n = int(n)
        self.alpha = float(alpha)
        self.eps_values, u, wu, rg = _radial_rule(alpha, EPS_STOP, per_panel)
        wu *= u ** (n - 1) / ((alpha + 1.0) * beta_function(n, alpha + 1.0))
        zeta, ws = _sphere_rule(n, k, phases)
        self.nodes = (np.sqrt(u)[:, None, None] * zeta).reshape(-1, n)
        self.weights = np.outer(wu, ws).ravel()
        self.ring = np.repeat(rg, len(ws))
        self.one_minus_u = np.repeat(1.0 - u, len(ws))
        _read_only(self.nodes, self.weights, self.ring, self.one_minus_u)

    node_count = DiskGrid.node_count
    n_levels = DiskGrid.n_levels

    def partials(self, values) -> np.ndarray:
        return DiskGrid.partials(self, values)

    def integrate_protocol(self, values) -> NormResult:
        return _protocol(self.partials(values), self.eps_values,
                         disk_ladder(self.alpha), "strict")


def matching_grid(grid, build, alpha: float, **fixed):
    """``grid``, or ``build()`` if it is None.  A grid whose alpha, or any
    attribute named in ``fixed``, differs from the request is refused,
    never replaced."""
    if grid is None:
        return build()
    want = {**fixed, "alpha": alpha}
    have = {k: getattr(grid, k) for k in want}
    if any(abs(have[k] - v) > 1e-12 for k, v in want.items()):
        raise ParameterError(f"{type(grid).__name__} {have} does not match "
                             f"the request {want}")
    return grid


# ---------------------------------------------------------------------------
# norms and seminorms
# ---------------------------------------------------------------------------

def monomial_norm_exact(k: int, alpha: float) -> float:
    """Exact int |z^k|^2 dA_alpha = Gamma(alpha+2) k! / Gamma(k+alpha+2)."""
    if k < 0:
        raise ParameterError("monomial degree must be nonnegative")
    if not alpha > -1:
        raise ParameterError("weight alpha must exceed -1")
    return float(np.exp(gammaln(alpha + 2) + gammaln(k + 1)
                        - gammaln(k + alpha + 2)))


def norm_p(f: HoloFunction, wp: WeightParams,
           grid: DiskGrid | None) -> NormResult:
    """Protocol integral of |f|^p dA_alpha on a grid of alpha, or on
    ``grid_for(f, alpha)`` if ``grid`` is None, extrapolated with f's
    ``tail_head`` ahead of ``disk_ladder(alpha)``.  Its verdict decides
    f in A^p_alpha."""
    if isinstance(f, BallPoly):
        raise TypeError("disk norm requires a disk variant")
    grid = matching_grid(grid, lambda: grid_for(f, wp.alpha), wp.alpha)
    return grid.integrate_protocol(np.abs(f(grid.nodes)) ** wp.p, ladder=[
        *tail_head(f, wp.p, wp.alpha), *disk_ladder(wp.alpha)])


def ball_norm_p(f: BallPoly, wp: WeightParams, grid: BallGrid) -> NormResult:
    """Protocol integral of |f|^p dv_alpha on a grid of f's n and alpha."""
    if not isinstance(f, BallPoly):
        raise TypeError("ball norm requires a ball variant")
    grid = matching_grid(grid, lambda: BallGrid(f.n, wp.alpha), wp.alpha,
                         n=f.n)
    return grid.integrate_protocol(np.abs(f(grid.nodes)) ** wp.p)


def derivative_seminorm(f: HoloFunction, wp: WeightParams,
                        grid: DiskGrid | None) -> NormResult:
    """|f(0)|^p + the protocol integral of ((1-|z|^2)|f'|)^p dA_alpha:
    the grid's ``integrate_protocol``, with |f(0)|^p added to its value
    and partials.  The integrand carries the tail of |f|^p, so it is
    extrapolated with f's ``tail_head`` ahead of ``disk_ladder(alpha)``."""
    grid = matching_grid(grid, lambda: grid_for(f, wp.alpha), wp.alpha)
    vals = (grid.one_minus_u * np.abs(f.derivative_at(grid.nodes))) ** wp.p
    res = grid.integrate_protocol(vals, ladder=[
        *tail_head(f, wp.p, wp.alpha), *disk_ladder(wp.alpha)])
    head = float(np.abs(f(np.array(0j))) ** wp.p)
    res.value += head
    res.partials += head
    return res


# ---------------------------------------------------------------------------
# Forelli-Rudin growth integrals and exponent fitting
# ---------------------------------------------------------------------------

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


def forelli_rudin_scan(radii, st_pairs) -> dict:
    """I(x) = int (1-|w|^2)^s / |1 - x w|^(2+s+t) dA(w) for every
    0 <= x < 1 in ``radii`` and (s, t) in ``st_pairs``, sharing one graded
    grid per radius; returns {(s, t): [NormResult, ...]}.

    By rotation invariance only |z| = x matters.  The grid is angularly
    graded (the kernel peaks at w = 1), carries dA = dA_0 with
    (1-|w|^2)^s in the integrand, formed from the grid's exact
    ``one_minus_u``.  Its eps-sequence runs down to (1 - x)/256, far
    enough under the kernel scale 1 - x that the tail is the weight's,
    so it is extrapolated with ``disk_ladder(s)``.
    """
    for s, _ in st_pairs:
        if not s > -1:
            raise ParameterError("radial exponent s must exceed -1")
    for x in radii:
        if not 0 <= x < 1:
            raise ParameterError("|z| must lie in [0, 1)")
    out = {st: [] for st in st_pairs}
    for x in radii:
        eps_stop = min(EPS_STOP, (1.0 - x) / 256.0)
        grid = DiskGrid.build_graded(0.0, eps_stop=eps_stop,
                                     nodes_per_panel=8, theta_per_panel=4)
        for s, t in st_pairs:
            vals = grid.one_minus_u ** s * np.abs(1.0 - x * grid.nodes) ** (-(2.0 + s + t))
            out[(s, t)].append(grid.integrate_protocol(
                vals, ladder=disk_ladder(s)))
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
