"""Tests for the ring-block pair sums of the lifted closed forms against
their defining double sum, on unmirrored and mirrored node sets, and of
the mirror layout of the graded grids that the pair sums rely on."""

import numpy as np
import pytest

from bergman import _kernels
from bergman.lifting import default_scan_bidisk_grid
from bergman.quadrature import DiskGrid

N_NODES, N_RINGS = 600, 4
N_HALF = 600  # nodes in the upper half of the mirrored set
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


# ---------------------------------------------------------------------------
# mirrored node sets: the half pass over the upper half-plane
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mirrored():
    """[U; conj U] for seeded nodes U in the upper half of the disk, in
    unsorted rings, enough of them for several row chunks of the half
    pass.  U holds a pair 3e-7 apart, a node at Im z = 2e-7 whose mirror
    quotient takes the switchover, and a second node near the axis within
    1e-6 of the first one's mirror image."""
    rng = np.random.default_rng(8)
    u = 0.97 * np.sqrt(rng.uniform(size=N_HALF)) \
        * np.exp(1j * np.pi * rng.uniform(0.01, 0.99, size=N_HALF))
    u[120] = u[5] + 3e-7
    u[200] = 0.3 + 2e-7j
    u[260] = 0.3 + 1e-7 + 3e-7j
    w = rng.uniform(0.1, 1.0, N_HALF)
    ring = rng.integers(0, N_RINGS, N_HALF)
    return (np.concatenate([u, u.conj()]), np.concatenate([w, w]),
            np.concatenate([ring, ring]))


@pytest.fixture
def quotients(monkeypatch):
    """Records the off-diagonal pair quotients each chunk of the pass
    keeps: its cells j > i, twice over when it takes the mirrored term."""
    seen = []
    chunk = _kernels._pair_chunk

    def counting(z, parts, i0, i1, p, s, variant, mirrored):
        v = chunk(z, parts, i0, i1, p, s, variant, mirrored)
        rows = i1 - i0
        kept = rows * v.shape[1] - rows * (rows + 1) // 2
        seen.append(kept * (2 if mirrored else 1))
        return v

    monkeypatch.setattr(_kernels, "_pair_chunk", counting)
    return seen


def test_mirrored_fixture_exercises_switchovers_and_chunks(mirrored):
    z, _, _ = mirrored
    u = z[:N_HALF]
    tol = _kernels._DIAG_TOL2
    assert np.all(u.imag > 0)
    assert abs(u[120] - u[5]) ** 2 < tol          # same side, off the diagonal
    assert abs(u[200] - u[200].conj()) ** 2 < tol  # mirrored diagonal
    assert abs(u[200] - u[260].conj()) < _kernels.DIAG_SWITCH  # across
    assert N_HALF * N_HALF > 4 * _kernels._PAIR_BUDGET
    for s, variant in VARIANTS:
        f = _family(z, s, variant)
        assert np.array_equal(f[N_HALF:], f[:N_HALF].conj())


@pytest.mark.parametrize("variant,s", VARIANTS)
@pytest.mark.parametrize("p", [1.0, 2.0, 4.0, 3.0])
def test_mirrored_pair_block_sums_match_double_sum(mirrored, p, s, variant):
    z, w, ring = mirrored
    got = _kernels.pair_block_sums(z, _family(z, s, variant), w, ring,
                                   N_RINGS, p, s, variant)
    np.testing.assert_allclose(got, _direct(z, w, ring, p, s, variant),
                               rtol=1e-10)


@pytest.mark.parametrize("variant,s", VARIANTS)
@pytest.mark.parametrize("p", [1.0, 3.0])
def test_mirrored_pairs_all_under_the_switchover(p, s, variant):
    """Two nodes near the axis and their mirror images, every pair closer
    than the switchover: 1.4e-10 apart on the same side, where the plain
    quotient keeps only about six digits, and about 8e-7 across and to
    their own mirror images."""
    u = np.array([0.3 + 4e-7j, 0.3 + 1e-10 + 4.001e-7j])
    z = np.concatenate([u, u.conj()])
    w, ring = np.ones(4), np.zeros(4, dtype=np.int64)
    got = _kernels.pair_block_sums(z, _family(z, s, variant), w, ring,
                                   N_RINGS, p, s, variant)
    np.testing.assert_allclose(got, _direct(z, w, ring, p, s, variant),
                               rtol=1e-10)


def test_mirrored_pass_visits_half_the_pairs(mirrored, quotients):
    z, w, ring = mirrored
    n = len(z)
    _kernels.pair_block_sums(z, _family(z, 0.4, 0), w, ring, N_RINGS,
                             2.0, 0.4, 0)
    # two quotients for each pair of U, about n^2 / 4 against n (n - 1) / 2
    assert sum(quotients) == N_HALF * (N_HALF - 1)
    assert sum(quotients) < 0.5 * n * (n - 1) / 2


def _break_mirror(z, w, ring, how):
    z, w, ring = z.copy(), w.copy(), ring.copy()
    k = N_HALF + 7
    if how == "weight":
        w[k] *= 1.5
    elif how == "ring":
        ring[k] = (ring[k] + 1) % N_RINGS
    else:  # the same nodes, two of the lower half swapped
        for a in (z, w, ring):
            a[[k, k + 1]] = a[[k + 1, k]]
    return z, w, ring


@pytest.mark.parametrize("how", ["weight", "ring", "order"])
@pytest.mark.parametrize("p", [1.0, 3.0])
def test_near_mirror_takes_the_full_pass(mirrored, quotients, how, p):
    z, w, ring = _break_mirror(*mirrored, how)
    n = len(z)
    got = _kernels.pair_block_sums(z, _family(z, 0.4, 0), w, ring, N_RINGS,
                                   p, 0.4, 0)
    np.testing.assert_allclose(got, _direct(z, w, ring, p, 0.4, 0),
                               rtol=1e-10)
    assert sum(quotients) == n * (n - 1) // 2


# ---------------------------------------------------------------------------
# the graded grids carry the exact mirror that the half pass needs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("grid", [
    pytest.param(lambda: DiskGrid.build_graded(-0.5), id="graded-0.5"),
    pytest.param(lambda: DiskGrid.build_graded(0.0), id="graded0"),
    pytest.param(lambda: DiskGrid.build_graded(1.0), id="graded1"),
    pytest.param(lambda: default_scan_bidisk_grid(0.0).factor, id="scan0"),
])
def test_graded_grid_is_exactly_mirrored(grid):
    """Breaking this mirror would not change any value; it would only
    send the lifting scans back to the full pair pass."""
    g = grid()
    z = g.nodes
    up, lo = z.imag > 0, z.imag < 0
    assert not np.any(z.imag == 0)
    assert np.array_equal(z[lo], z[up].conj())
    assert np.array_equal(g.weights[lo], g.weights[up])
    assert np.array_equal(g.ring[lo], g.ring[up])
    for s, variant in [(0.1, 0), (0.45, 0), (1.5, 0), (0.0, 1)]:
        f = _family(z, s, variant)
        assert np.array_equal(f[lo], f[up].conj())
        assert _kernels._mirror_half(z, f, g.weights, g.ring) is not None
