"""Tests for the ring-block pair sums of the lifted closed forms against
their defining double sum."""

import numpy as np
import pytest

from bergman import _kernels

N_NODES, N_RINGS = 600, 4
VARIANTS = [(0, 0.4), (1, 0.0)]  # (1-z)^-s and log(1/(1-z))


def _family(z, s, variant):
    return (1.0 - z) ** (-s) if variant == 0 else -np.log(1.0 - z)


def _derivative(z, s, variant):
    return s * (1.0 - z) ** (-s - 1.0) if variant == 0 else 1.0 / (1.0 - z)


@pytest.fixture(scope="module")
def nodes():
    """Seeded nodes in unsorted rings, enough of them for several row
    chunks, with one exact duplicate and one pair closer than the
    derivative switchover, both far apart in index."""
    rng = np.random.default_rng(7)
    z = 0.97 * np.sqrt(rng.uniform(size=N_NODES)) \
        * np.exp(2j * np.pi * rng.uniform(size=N_NODES))
    z[550] = z[3]
    z[420] = z[17] + 3e-7
    w = rng.uniform(0.1, 1.0, N_NODES)
    ring = rng.integers(0, N_RINGS, N_NODES)
    return z, w, ring


def _direct(z, w, ring, p, s, variant):
    """sum_ij w_i w_j |L(z_i, z_j)|^p into ring blocks, with L the
    divided difference, or f' at the midpoint where |z_i - z_j|^2 falls
    under the kernel's switchover."""
    f = _family(z, s, variant)
    dz = z[:, None] - z[None, :]
    near = np.abs(dz) ** 2 < _kernels._DIAG_TOL2
    with np.errstate(divide="ignore", invalid="ignore"):
        L = (f[:, None] - f[None, :]) / dz
    mid = 0.5 * (z[:, None] + z[None, :])
    L = np.where(near, _derivative(mid, s, variant), L)
    v = w[:, None] * w[None, :] * np.abs(L) ** p
    onehot = np.eye(N_RINGS)[ring]
    return onehot.T @ v @ onehot


def test_fixture_exercises_switchover_and_chunks(nodes):
    z, _, _ = nodes
    d2 = np.abs(z[:, None] - z[None, :]) ** 2
    assert np.count_nonzero(d2 < _kernels._DIAG_TOL2) == N_NODES + 4
    assert N_NODES * N_NODES > 4 * _kernels._PAIR_BUDGET


@pytest.mark.parametrize("variant,s", VARIANTS)
@pytest.mark.parametrize("p", [1.0, 2.0, 4.0, 3.0])
def test_pair_block_sums_matches_double_sum(nodes, p, s, variant):
    z, w, ring = nodes
    got = _kernels.pair_block_sums(z, _family(z, s, variant), w, ring,
                                   N_RINGS, p, s, variant)
    np.testing.assert_allclose(got, _direct(z, w, ring, p, s, variant),
                               rtol=1e-10)


@pytest.mark.parametrize("variant,s", VARIANTS)
@pytest.mark.parametrize("p", [1.0, 2.0, 4.0, 3.0])
def test_numpy_fallback_matches_double_sum(nodes, p, s, variant):
    z, w, ring = nodes
    S, D = _kernels._pair_block_sums_numpy(z, _family(z, s, variant), w, ring,
                                           N_RINGS, p, s, variant)
    np.testing.assert_allclose(S + S.T + np.diag(D),
                               _direct(z, w, ring, p, s, variant), rtol=1e-10)

