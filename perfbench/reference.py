"""Closed forms and direct evaluations the benchmark checks bergman against.

Nothing here imports bergman: every value is computed from the formula
the theory gives (or from the definition, for the direct evaluations),
with numpy and scipy only.  ``test_reference.py`` checks these formulas
against values known by hand, so a wrong reference cannot pass a wrong
program.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, hyp2f1

EULER_GAMMA = 0.5772156649015329


def harmonic(k_max: int) -> np.ndarray:
    """H_0 = 0, H_k = 1 + 1/2 + ... + 1/k for k = 0 .. k_max."""
    H = np.zeros(k_max + 1)
    H[1:] = np.cumsum(1.0 / np.arange(1, k_max + 1))
    return H


# ---------------------------------------------------------------------------
# disk norms of f = sum a_k z^k (orthogonality of the monomials)
# ---------------------------------------------------------------------------

def disk_monomial_norm(k, alpha: float):
    """int |z^k|^2 dA_alpha = Gamma(alpha+2) k! / Gamma(k+alpha+2)."""
    k = np.asarray(k, dtype=float)
    return np.exp(gammaln(alpha + 2.0) + gammaln(k + 1.0)
                  - gammaln(k + alpha + 2.0))


def disk_norm_sq(coeffs, alpha: float) -> float:
    """int |f|^2 dA_alpha."""
    a2 = np.abs(np.asarray(coeffs, dtype=complex)) ** 2
    return float(np.sum(a2 * disk_monomial_norm(np.arange(len(a2)), alpha)))


def log_weighted_norm_sq(coeffs) -> float:
    """int |f|^2 log(1/(1-|z|^2)) dA = sum |a_k|^2 H_(k+1) / (k+1)."""
    a2 = np.abs(np.asarray(coeffs, dtype=complex)) ** 2
    k = np.arange(len(a2))
    return float(np.sum(a2 * harmonic(len(a2))[k + 1] / (k + 1.0)))


def seminorm_sq(coeffs, alpha: float) -> float:
    """|f(0)|^2 + int (1-|z|^2)^2 |f'|^2 dA_alpha; the k-th term is
    k^2 |a_k|^2 (alpha+1) (k-1)! Gamma(alpha+3) / Gamma(k+alpha+3)."""
    a2 = np.abs(np.asarray(coeffs, dtype=complex)) ** 2
    k = np.arange(1, len(a2), dtype=float)
    terms = k * k * a2[1:] * (alpha + 1.0) * np.exp(
        gammaln(k) + gammaln(alpha + 3.0) - gammaln(k + alpha + 3.0))
    return float(a2[0] + np.sum(terms))


# ---------------------------------------------------------------------------
# Forelli-Rudin integrals and the source norm of (1-z)^(-s)
# ---------------------------------------------------------------------------

def forelli_rudin(x: float, s: float, t: float) -> float:
    """I(x) = int (1-|w|^2)^s |1 - x w|^-(2+s+t) dA(w)
    = 2F1(lam, lam; s+2; x^2) / (s+1), lam = (2+s+t)/2."""
    lam = (2.0 + s + t) / 2.0
    return float(hyp2f1(lam, lam, s + 2.0, x * x) / (s + 1.0))


def gauss_value(a: float, b: float, c: float) -> float:
    """2F1(a, b; c; 1) = Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b))
    for c - a - b > 0."""
    return float(np.exp(gammaln(c) + gammaln(c - a - b)
                        - gammaln(c - a) - gammaln(c - b)))


def source_norm(s: float, p: float, alpha: float) -> float:
    """int |1-z|^(-ps) dA_alpha = Gamma(alpha+2) Gamma(alpha+2-ps)
    / Gamma(alpha+2-ps/2)^2 (Gauss's value at x = 1), for ps < alpha+2."""
    ps = p * s
    return float(np.exp(gammaln(alpha + 2.0) + gammaln(alpha + 2.0 - ps)
                        - 2.0 * gammaln(alpha + 2.0 - ps / 2.0)))


# ---------------------------------------------------------------------------
# lifted norms on the bidisk
# ---------------------------------------------------------------------------

def lifted_series_sq(coeffs) -> float:
    """int int |(f(z)-f(w))/(z-w)|^2 dA dA = 2 sum_k |a_k|^2 H_k / (k+1)."""
    a2 = np.abs(np.asarray(coeffs, dtype=complex)) ** 2
    k = np.arange(len(a2))
    return float(2.0 * np.sum(a2 * harmonic(len(a2) - 1) / (k + 1.0)))


def power_lift_series_sq(s: float, n_terms: int = 2 ** 20) -> float:
    """The lifted series for f = (1-z)^(-s), a_k = (s)_k / k!, summed to
    ``n_terms`` terms plus the integral of its asymptotic tail
    2 k^(2s-3) (log k + gamma) / Gamma(s)^2 (0 < s < 1)."""
    k = np.arange(n_terms, dtype=float)
    a2 = np.exp(2.0 * (gammaln(k + s) - gammaln(s) - gammaln(k + 1.0)))
    head = 2.0 * np.sum(a2 * harmonic(n_terms - 1) / (k + 1.0))
    K = float(n_terms)
    e = 2.0 - 2.0 * s
    tail = 2.0 * np.exp(-2.0 * gammaln(s)) * K ** (-e) * (
        (np.log(K) + EULER_GAMMA) / e + 1.0 / e ** 2)
    return float(head + tail)


def pair_block_direct(z, w, ring, n_rings: int, p: float, s: float):
    """Ring blocks of w_i w_j |L(z_i, z_j)|^p by a double loop, with
    L(z, w) = ((1-z)^(-s) - (1-w)^(-s)) / (z - w) and L(z, z) = s (1-z)^(-s-1)."""
    block = np.zeros((n_rings, n_rings))
    for i in range(len(z)):
        for j in range(len(z)):
            if i == j:
                L = s * (1.0 - z[i]) ** (-s - 1.0)
            else:
                L = ((1.0 - z[i]) ** (-s) - (1.0 - z[j]) ** (-s)) / (z[i] - z[j])
            block[ring[i], ring[j]] += w[i] * w[j] * abs(L) ** p
    return block


# ---------------------------------------------------------------------------
# disk local sups
# ---------------------------------------------------------------------------

def pseudo_disk(z, r: float):
    """Euclidean centre (1-r^2) z / (1-r^2|z|^2) and radius
    r (1-|z|^2) / (1-r^2|z|^2) of {u : |(z-u)/(1-conj(z)u)| < r}."""
    z = np.asarray(z, dtype=complex)
    den = 1.0 - r * r * np.abs(z) ** 2
    return (1.0 - r * r) * z / den, r * (1.0 - np.abs(z) ** 2) / den


def polar_sample(n_radial: int = 32, n_angular: int = 32) -> np.ndarray:
    """The unit-disk sample the local sups are documented to use: radii
    linspace(0, 1, n_radial) times angles 2 pi (j + 1/2) / n_angular."""
    sig = np.linspace(0.0, 1.0, n_radial)
    ang = np.exp(2j * np.pi * (np.arange(n_angular) + 0.5) / n_angular)
    return (sig[:, None] * ang[None, :]).ravel()


def local_sup_direct(coeffs, z, r: float) -> np.ndarray:
    """max over the polar sample of D(z, r) of (1-|u|^2) |f'(u)|."""
    a = np.asarray(coeffs, dtype=complex)
    da = a[1:] * np.arange(1, len(a))
    centre, radius = pseudo_disk(z, r)
    u = centre[:, None] + radius[:, None] * polar_sample()[None, :]
    fp = np.polynomial.polynomial.polyval(u, da) if len(da) else 0.0 * u
    return np.max((1.0 - np.abs(u) ** 2) * np.abs(fp), axis=1)


# ---------------------------------------------------------------------------
# the unit ball of C^n; polynomials are {multi-index: coefficient}
# ---------------------------------------------------------------------------

def ball_weight_constant(n: int, alpha: float) -> float:
    """c_alpha with c_alpha (1-|z|^2)^alpha dv a probability measure."""
    return math.exp(gammaln(n + alpha + 1.0) - gammaln(n + 1.0)
                    - gammaln(alpha + 1.0))


def ball_moment(m, alpha: float, j: int = 0) -> float:
    """int (1-|z|^2)^j |z^m|^2 dv_alpha
    = (c_alpha / c_(alpha+j)) m! Gamma(n+alpha+j+1) / Gamma(n+|m|+alpha+j+1)."""
    n, beta = len(m), alpha + j
    mfact = sum(gammaln(mk + 1.0) for mk in m)
    return (ball_weight_constant(n, alpha) / ball_weight_constant(n, beta)
            * math.exp(mfact + gammaln(n + beta + 1.0)
                       - gammaln(n + sum(m) + beta + 1.0)))


def _lower(m, k):
    return tuple(mi - (i == k) for i, mi in enumerate(m))


def ball_quantities(terms: dict, alpha: float) -> dict:
    """Integrals against dv_alpha of |f|^2 ("norm"), (1-|z|^2)^2 |Rf|^2
    ("radial"), (1-|z|^2)^2 |grad f|^2 ("gradient") and
    (1-|z|^2)(|grad f|^2 - |Rf|^2) ("invariant_gradient")."""
    n = len(next(iter(terms)))
    out = {"norm": 0.0, "radial": 0.0, "gradient": 0.0,
           "invariant_gradient": 0.0}
    for m, c in terms.items():
        c2 = abs(c) ** 2
        deg2 = float(sum(m)) ** 2
        out["norm"] += c2 * ball_moment(m, alpha)
        out["radial"] += c2 * deg2 * ball_moment(m, alpha, 2)
        out["invariant_gradient"] -= c2 * deg2 * ball_moment(m, alpha, 1)
        for k in range(n):
            if m[k]:
                g2 = c2 * m[k] ** 2
                out["gradient"] += g2 * ball_moment(_lower(m, k), alpha, 2)
                out["invariant_gradient"] += g2 * ball_moment(_lower(m, k),
                                                              alpha, 1)
    return out


def ball_eval(terms: dict, z) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    out = np.zeros(z.shape[:-1], dtype=complex)
    for m, c in terms.items():
        out = out + c * np.prod(z ** np.asarray(m), axis=-1)
    return out


def ball_gradient(terms: dict, z) -> np.ndarray:
    """(df/dz_1, ..., df/dz_n), stacked on the last axis."""
    z = np.asarray(z, dtype=complex)
    n = z.shape[-1]
    parts = []
    for k in range(n):
        dk = {_lower(m, k): c * m[k] for m, c in terms.items() if m[k]}
        parts.append(ball_eval(dk, z) if dk else np.zeros(z.shape[:-1], complex))
    return np.stack(parts, axis=-1)


def invariant_gradient_sq(terms: dict, u) -> np.ndarray:
    """|grad~ f(u)|^2 = (1-|u|^2) (|grad f(u)|^2 - |Rf(u)|^2)."""
    u = np.asarray(u, dtype=complex)
    grad = ball_gradient(terms, u)
    radial = np.sum(u * grad, axis=-1)
    uu = np.sum(np.abs(u) ** 2, axis=-1)
    return (1.0 - uu) * (np.sum(np.abs(grad) ** 2, axis=-1)
                         - np.abs(radial) ** 2)


def ball_phi(a, z) -> np.ndarray:
    """phi_a(z) = (a - P_a z - sqrt(1-|a|^2) Q_a z) / (1 - <z, a>), with
    P_a z = <z, a> a / |a|^2 and Q_a = I - P_a; a != 0."""
    a = np.asarray(a, dtype=complex)
    z = np.asarray(z, dtype=complex)
    aa = np.sum(np.abs(a) ** 2, axis=-1, keepdims=True)
    za = np.sum(z * np.conj(a), axis=-1, keepdims=True)
    P = za / aa * a
    return (a - P - np.sqrt(1.0 - aa) * (z - P)) / (1.0 - za)


def sobol_ball_sample(n: int, count: int, seed: int) -> np.ndarray:
    """First ``count`` points inside the ball of one scrambled Sobol batch
    of max(4096, 2 count) points in [-1, 1]^(2n), as complex n-vectors."""
    from scipy.stats import qmc

    raw = 2.0 * qmc.Sobol(d=2 * n, scramble=True, seed=seed).random(
        max(4096, 2 * count)) - 1.0
    pts = raw[np.sum(raw * raw, axis=1) < 1.0][:count]
    if len(pts) < count:
        raise ValueError("one Sobol batch holds too few ball points")
    return pts[:, :n] + 1j * pts[:, n:]


def ball_sup_direct(terms: dict, z, r: float, esamp) -> np.ndarray:
    """Per point z: max over u = phi_z(r e), e in ``esamp``, of
    |grad~ f(u)|, from the closed form."""
    z = np.atleast_2d(np.asarray(z, dtype=complex))
    u = ball_phi(z[:, None, :], r * np.asarray(esamp)[None, :, :])
    return np.sqrt(np.max(invariant_gradient_sq(terms, u), axis=1))


def disk_constant(r: float) -> float:
    """(1+r)/(1-r)^2, the factor local_sup_h puts on the sampled sup."""
    return (1.0 + r) / (1.0 - r) ** 2
