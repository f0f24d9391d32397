"""Seeded samplers for disk/ball points and stratified verification pairs."""
from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .geometry import ball_phi, mobius, rho, ball_metric


def _rng(seed_or_rng):
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def sample_disk(seed_or_rng, size: int, rmax: float = 1.0) -> np.ndarray:
    """Area-uniform sample of the disk |z| < rmax."""
    rng = _rng(seed_or_rng)
    rad = rmax * np.sqrt(rng.uniform(0.0, 1.0, size))
    ang = rng.uniform(0.0, 2.0 * np.pi, size)
    return rad * np.exp(1j * ang)


def sample_ball(seed_or_rng, size: int, n: int = 2, rmax: float = 1.0) -> np.ndarray:
    """Volume-uniform sample of the complex n-ball, shape (size, n)."""
    rng = _rng(seed_or_rng)
    x = rng.normal(size=(size, 2 * n))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    x *= rmax * rng.uniform(0.0, 1.0, (size, 1)) ** (1.0 / (2 * n))
    return x[:, :n] + 1j * x[:, n:]


def sobol_ball(n: int, count: int, seed: int = 0) -> np.ndarray:
    """First ``count`` points of a scrambled Sobol stream rejected to the
    complex n-ball; shape (count, n).  scipy.stats is imported here, not
    with the module: it is most of the time of ``import bergman``."""
    from scipy.stats import qmc

    sob = qmc.Sobol(d=2 * n, scramble=True, seed=seed)
    out = []
    have = 0
    while have < count:
        raw = 2.0 * sob.random(max(4096, 2 * count)) - 1.0
        keep = raw[np.sum(raw * raw, axis=1) < 1.0]
        out.append(keep)
        have += len(keep)
    pts = np.concatenate(out)[:count]
    return pts[:, :n] + 1j * pts[:, n:]


def _pairs_stratified(seed: int, n_pairs: int, r: float, sample, phi,
                      distance):
    """(z, w) pairs from ``sample(rng, size, rmax)``: the first half has
    w = phi(z, e) with |e| < r, so distance(z, w) < r; the second half
    is rejection sampled to distance(z, w) >= r."""
    if n_pairs < 1:
        raise ParameterError("need at least one pair")
    rng = _rng(seed)
    z = sample(rng, n_pairs, 1.0)
    n_near = n_pairs // 2
    w = np.empty_like(z)
    w[:n_near] = phi(z[:n_near], sample(rng, n_near, r))
    # each candidate is kept beside the z it was tested against
    todo = np.arange(n_near, n_pairs)
    while todo.size:
        cand = sample(rng, todo.size, 1.0)
        ok = distance(z[todo], cand) >= r
        w[todo[ok]] = cand[ok]
        todo = todo[~ok]
    return z, w


def disk_pairs_stratified(seed: int, n_pairs: int, r: float):
    """Deterministic (z, w) pairs: the first half has rho(z, w) < r, the
    second half rho(z, w) >= r (rejection sampled)."""
    return _pairs_stratified(
        seed, n_pairs, r, sample_disk, mobius,
        lambda z, w: rho(z, w, validate=False))


def ball_pairs_stratified(seed: int, n_pairs: int, r: float, n: int = 2):
    """Ball analogue of :func:`disk_pairs_stratified`."""
    return _pairs_stratified(
        seed, n_pairs, r,
        lambda rng, size, rmax: sample_ball(rng, size, n, rmax), ball_phi,
        lambda z, w: ball_metric(z, w, kind="rho", validate=False))
