"""Tests for the kernels' passes of the element budget, for the local
sups of Taylor polynomials and the closed forms' |f'|^2 against 30-digit
references, for the ball sup's closed-form push against ``ball_phi``,
for the ring-block pair sums of the lifted closed forms against their
defining double sum, on unmirrored and mirrored node sets, and of the
mirror layout of the graded grids that the pair sums rely on."""

import mpmath
import numpy as np
import pytest

from bergman import _kernels, witness
from bergman.errors import ParameterError
from bergman.functions import SHIFT_MAX_DEGREE, BallPoly, LogKernel, \
    PowerSingularity, TaylorPoly
from bergman.geometry import EuclideanDisk, ball_phi, pseudo_disk_params
from bergman.lifting import default_scan_bidisk_grid
from bergman.quadrature import DiskGrid
from bergman.sampling import sample_ball, sample_disk

# ---------------------------------------------------------------------------
# the local-sup kernels: passes of one element budget
# ---------------------------------------------------------------------------

N_CENTRES = 1000  # not a multiple of the pass size at any tested budget
N_POINTS = 300
DISK_FUNCTIONS = {
    "taylor20": TaylorPoly(np.random.default_rng(31).normal(size=(21, 2))
                           @ [1, 1j]),
    "power": PowerSingularity(0.4),
    "log": LogKernel(),
}
BALL_POLY = BallPoly(2, {(0, 0): 0.5, (1, 0): 1.0 - 0.5j, (1, 2): 0.7j,
                         (0, 3): -1.2, (2, 1): 0.3})


@pytest.fixture(scope="module")
def disks():
    z = sample_disk(21, N_CENTRES, rmax=0.99)
    return pseudo_disk_params(z, 0.5)


@pytest.fixture(scope="module")
def ball_points():
    return sample_ball(22, N_POINTS, n=2)


@pytest.fixture
def pass_sizes(monkeypatch):
    """Records the number of sample points each kernel pass evaluates:
    centres x disk samples, or points x ball samples."""
    sizes = []
    for cls, name in [(TaylorPoly, "local_derivative_sq"),
                      (BallPoly, "invariant_gradient_sq")]:
        def recording(self, *args, _method=getattr(cls, name)):
            out = _method(self, *args)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(cls, name, recording)
    return sizes


@pytest.mark.parametrize("budget", [1024, 3000, 1 << 20])
@pytest.mark.parametrize("name", DISK_FUNCTIONS)
def test_local_sup_is_budget_invariant(disks, monkeypatch, budget, name):
    """Bit-identical for the closed forms; a Taylor polynomial's f' is a
    BLAS product, whose blocking follows the pass's row count."""
    centers, radii = disks
    f = DISK_FUNCTIONS[name]
    want = _kernels.local_sup_poly(centers, radii, witness._UNIT_GRID, f)
    monkeypatch.setattr(_kernels, "_BUDGET", budget)
    got = _kernels.local_sup_poly(centers, radii, witness._UNIT_GRID, f)
    if isinstance(f, TaylorPoly):
        np.testing.assert_allclose(got, want, rtol=1e-14)
    else:
        assert np.array_equal(got, want)


@pytest.mark.parametrize("budget", [1024, 3000, 16 * 1024, 1 << 20])
def test_ball_sup_is_budget_invariant(ball_points, monkeypatch, budget):
    """Bit-identical at 16 or more points per pass; below that the BLAS
    product <r e, a> of one or two rows may round differently."""
    esamp = witness._ball_sup_sample(2)
    want = _kernels.ball_sup_invgrad(ball_points, esamp, BALL_POLY, 0.5)
    monkeypatch.setattr(_kernels, "_BUDGET", budget)
    got = _kernels.ball_sup_invgrad(ball_points, esamp, BALL_POLY, 0.5)
    if budget // len(esamp) >= 16:
        assert np.array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-15)


BALL_POLY_3 = BallPoly(3, {(0, 0, 0): 0.5j, (1, 0, 0): -0.4, (0, 1, 1): 0.8,
                           (2, 0, 1): 0.3 + 0.3j, (0, 0, 3): -0.45j,
                           (1, 1, 1): 0.6})


def _ball_points(n):
    """Seeded points out to |z| = 0.999, the origin, and points at |z| =
    0.99 and 0.999 on a coordinate axis and on a diagonal."""
    z = sample_ball(23 + n, 120, n, rmax=0.999)
    axis = np.zeros(n, dtype=complex)
    axis[0] = 1j
    diag = np.exp(1j * np.arange(n)) / np.sqrt(n)
    edge = np.array([a * v for a in (0.99, 0.999) for v in (axis, diag)])
    return np.concatenate([np.zeros((1, n), dtype=complex), edge, z])


@pytest.mark.parametrize("r", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("f", [BALL_POLY, BALL_POLY_3], ids=["n2", "n3"])
def test_ball_sup_matches_ball_phi(f, r):
    """The closed-form push and weight against ``ball_phi`` and
    ``invariant_gradient_at`` of the same sample's images."""
    z = _ball_points(f.n)
    esamp = witness._ball_sup_sample(f.n)
    got = _kernels.ball_sup_invgrad(z, esamp, f, r)
    u = ball_phi(z[:, None, :], r * esamp[None, :, :], validate=False)
    want = f.invariant_gradient_at(u).max(axis=1)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def _check_passes(sizes, n_rows, inner):
    """Every row once, in full passes of the budget and one last partial
    pass, none over the budget."""
    full = max(1, _kernels._BUDGET // inner) * inner
    assert sum(sizes) == n_rows * inner
    assert max(sizes) <= _kernels._BUDGET
    assert all(size == full for size in sizes[:-1])
    assert 0 < sizes[-1] <= full


@pytest.mark.parametrize("budget", [None, 1024, 3000])
@pytest.mark.parametrize("shape", [(32, 32), (12, 60), (3, 2)])
def test_local_sup_passes_fit_the_budget(disks, pass_sizes, monkeypatch,
                                         budget, shape):
    if budget is not None:
        monkeypatch.setattr(_kernels, "_BUDGET", budget)
    centers, radii = disks
    grid = EuclideanDisk(0j, 1.0).polar_grid(*shape)
    _kernels.local_sup_poly(centers, radii, grid, DISK_FUNCTIONS["taylor20"])
    _check_passes(pass_sizes, N_CENTRES, len(grid))


@pytest.mark.parametrize("budget", [None, 3000, 1 << 20])
def test_ball_sup_passes_fit_the_budget(ball_points, pass_sizes, monkeypatch,
                                        budget):
    if budget is not None:
        monkeypatch.setattr(_kernels, "_BUDGET", budget)
    esamp = witness._ball_sup_sample(2)
    _kernels.ball_sup_invgrad(ball_points, esamp, BALL_POLY, 0.5)
    _check_passes(pass_sizes, N_POINTS, len(esamp))


def test_default_pass_sizes():
    assert len(witness._UNIT_GRID) == 993
    assert len(witness._ball_sup_sample(2)) == 1024
    assert _kernels._BUDGET // 993 == 16 and _kernels._BUDGET // 1024 == 16


# ---------------------------------------------------------------------------
# the shifted-coefficient path near the boundary, against 30 digits
# ---------------------------------------------------------------------------

BOUNDARY_POLYS = {
    "seeded50": TaylorPoly(np.random.default_rng(41).normal(size=(51, 2))
                           @ [1, 1j]),
    "section50": PowerSingularity(0.6).taylor_section(50),
}
BOUNDARY_SAMPLE = EuclideanDisk(0j, 1.0).polar_grid(9, 16)  # 129 points


@pytest.fixture(scope="module")
def boundary_disks():
    """D(z, 1/2) at |z| in {0.9, ..., 0.9999} and angles 0, pi and 2; the
    section of (1 - z)^-0.6 cancels in its sums near z = -1."""
    z = np.array([a * np.exp(1j * t) for a in (0.9, 0.99, 0.999, 0.9999)
                  for t in (0.0, np.pi, 2.0)])
    return pseudo_disk_params(z, 0.5)


def _local_sup_30_digits(f, centers, radii, grid):
    """max over u = c + R e of (1 - |u|^2) |f'(u)| by Horner at 30 digits,
    from the exact values of the float inputs and of f's float f'."""
    with mpmath.workdps(30):
        da = [mpmath.mpc(complex(a)) for a in f.differentiated().coeffs[::-1]]
        sample = [mpmath.mpc(complex(e)) for e in grid]
        out = []
        for c, R in zip(centers, radii):
            c, R, best = mpmath.mpc(complex(c)), mpmath.mpf(float(R)), 0
            for e in sample:
                u = c + R * e
                v = da[0]
                for a in da[1:]:
                    v = v * u + a
                best = max(best, (1 - (u.real ** 2 + u.imag ** 2)) ** 2
                           * (v.real ** 2 + v.imag ** 2))
            out.append(float(mpmath.sqrt(best)))
    return np.array(out)


@pytest.mark.parametrize("name", BOUNDARY_POLYS)
def test_local_sup_matches_30_digit_reference(boundary_disks, name):
    centers, radii = boundary_disks
    f = BOUNDARY_POLYS[name]
    got = _kernels.local_sup_poly(centers, radii, BOUNDARY_SAMPLE, f)
    want = _local_sup_30_digits(f, centers, radii, BOUNDARY_SAMPLE)
    np.testing.assert_allclose(got, want, rtol=1e-12)


@pytest.mark.parametrize("coeffs", [[2.0], [0.5, 1j], [1, -2, 3j]])
def test_low_degree_local_derivative_is_horner(disks, coeffs):
    centers, radii = disks
    f = TaylorPoly(coeffs)
    grid = witness._UNIT_GRID
    got = f.local_derivative_sq(centers, radii, f.local_derivative_table(grid))
    u = centers[:, None] + radii[:, None] * grid[None, :]
    np.testing.assert_allclose(got, np.abs(f.derivative_at(u)) ** 2,
                               rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("f", [PowerSingularity(0.4), PowerSingularity(1.7),
                               LogKernel()], ids=["power0.4", "power1.7", "log"])
def test_closed_form_local_derivative_sq_matches_30_digits(boundary_disks, f):
    """|f'(u)|^2 in real arithmetic from |1 - u|^2, against s^2 q^(-s-1)
    (log: 1 / q) at 30 digits from the exact q of the float inputs, out
    to |z| = 0.9999.  The complex power of 1 - u rounds u first and is off
    by up to 6e-12 there."""
    centers, radii = boundary_disks
    got = f.local_derivative_sq(centers, radii,
                                f.local_derivative_table(BOUNDARY_SAMPLE))
    with mpmath.workdps(30):
        want = []
        for c, R in zip(centers, radii):
            c, R = mpmath.mpc(complex(c)), mpmath.mpf(float(R))
            for e in BOUNDARY_SAMPLE:
                q = abs(1 - c - R * mpmath.mpc(complex(e))) ** 2
                want.append(float(f.s ** 2 * q ** (-f.s - 1)
                                  if isinstance(f, PowerSingularity)
                                  else 1 / q))
    np.testing.assert_allclose(got.ravel(), want, rtol=1e-14)


def test_power_table_shared_and_read_only():
    # the table of e^k depends on the sample and the degree alone: two
    # polynomials of one degree share one read-only copy, equal to vander's
    grid = witness._UNIT_GRID
    f, g = TaylorPoly(np.arange(1.0, 8.0)), TaylorPoly(1j * np.ones(7))
    E = f.local_derivative_table(grid)[1]
    assert g.local_derivative_table(grid.copy())[1] is E
    assert not E.flags.writeable
    assert np.array_equal(E, np.vander(grid, 6, increasing=True).T)
    assert TaylorPoly(np.ones(8)).local_derivative_table(grid)[1].shape \
        == (7, len(grid))


def test_local_derivative_degree_cap():
    f = TaylorPoly(np.ones(SHIFT_MAX_DEGREE + 2))
    with pytest.raises(ParameterError):
        f.local_derivative_table(witness._UNIT_GRID)


# ---------------------------------------------------------------------------
# the pair sums of the lifted closed forms
# ---------------------------------------------------------------------------

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
    assert N_NODES * N_NODES > 4 * _kernels._BUDGET


@pytest.mark.parametrize("variant,s", VARIANTS)
@pytest.mark.parametrize("p", [1.0, 2.0, 4.0, 3.0])
def test_pair_block_sums_matches_double_sum(nodes, p, s, variant):
    z, w, ring = nodes
    got = _kernels.pair_block_sums(z, _family(z, s, variant), w, ring,
                                   N_RINGS, p, s, variant)
    np.testing.assert_allclose(got, _direct(z, w, ring, p, s, variant),
                               rtol=1e-10)


@pytest.mark.parametrize("variant,s", VARIANTS)
@pytest.mark.parametrize("p", [1.0, 3.0])
def test_switchover_takes_the_midpoint(p, s, variant):
    """Two nodes 9e-7 apart along the radius near z = 1, where f' moves
    by about 1e-5 relative between them: their quotient is f' at the
    midpoint, not at either node."""
    z = np.array([0.9 + 0.05j, 0.9 + 9e-7 + 0.05j])
    w, ring = np.array([1.0, 0.5]), np.zeros(2, dtype=np.int64)
    got = _kernels.pair_block_sums(z, _family(z, s, variant), w, ring,
                                   N_RINGS, p, s, variant)
    np.testing.assert_allclose(got, _direct(z, w, ring, p, s, variant),
                               rtol=1e-12)


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
    chunk = _kernels._PairPass.__call__

    def counting(self, i0, i1):
        v = chunk(self, i0, i1)
        rows = i1 - i0
        kept = rows * v.shape[1] - rows * (rows + 1) // 2
        seen.append(kept * (2 if self.mirrored else 1))
        return v

    monkeypatch.setattr(_kernels._PairPass, "__call__", counting)
    return seen


def test_mirrored_fixture_exercises_switchovers_and_chunks(mirrored):
    z, _, _ = mirrored
    u = z[:N_HALF]
    tol = _kernels._DIAG_TOL2
    assert np.all(u.imag > 0)
    assert abs(u[120] - u[5]) ** 2 < tol          # same side, off the diagonal
    assert abs(u[200] - u[200].conj()) ** 2 < tol  # mirrored diagonal
    assert abs(u[200] - u[260].conj()) < _kernels.DIAG_SWITCH  # across
    assert N_HALF * N_HALF > 4 * _kernels._BUDGET
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


@pytest.mark.parametrize("variant,s", VARIANTS)
@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("gap", [3e-7, 3e-11])
def test_pair_across_the_axis_takes_the_shared_scan(mirrored, monkeypatch,
                                                    gap, p, s, variant):
    """Two nodes of U ``gap`` apart across the real axis, in passes of six
    rows, far apart in index, so the pair lies off the square block of its
    pass.  The pass scans the same-side distances, 0.98 gap for this pair;
    the mirrored distance adds 4 Im z_i Im z_j to it, so a mirrored pair
    under the switchover is always flagged by that scan.  At 3e-11 apart
    the plain quotient would lose all but about five digits to the
    difference of the real parts of f."""
    monkeypatch.setattr(_kernels, "_BUDGET", 256)
    n = 40
    u, w, ring = (a[:n].copy() for a in mirrored)
    u[3] = 0.6 + 0.1j * gap
    u[35] = u[3] + np.sqrt(0.96) * gap
    z, w, ring = (np.concatenate([u, u.conj()]), np.concatenate([w, w]),
                  np.concatenate([ring, ring]))
    assert abs(u[3] - u[35].conj()) == pytest.approx(gap, rel=1e-6)
    got = _kernels.pair_block_sums(z, _family(z, s, variant), w, ring,
                                   N_RINGS, p, s, variant)
    np.testing.assert_allclose(got, _direct(z, w, ring, p, s, variant),
                               rtol=1e-10)


@pytest.mark.parametrize("variant,s", VARIANTS)
@pytest.mark.parametrize("p", [1.0, 4.0])
def test_rows_in_one_ring_take_the_gemv(mirrored, p, s, variant):
    """U sorted by ring, as the graded grids list their nodes: most passes
    hold rows of one ring and are reduced by one gemv into that ring's
    row of the accumulator, the others by the one-hot product."""
    u, w, ring = (a[:N_HALF] for a in mirrored)
    order = np.argsort(ring, kind="stable")
    u, w, ring = u[order], w[order], ring[order]
    z, w, ring = (np.concatenate([u, u.conj()]), np.concatenate([w, w]),
                  np.concatenate([ring, ring]))
    got = _kernels.pair_block_sums(z, _family(z, s, variant), w, ring,
                                   N_RINGS, p, s, variant)
    np.testing.assert_allclose(got, _direct(z, w, ring, p, s, variant),
                               rtol=1e-10)


@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_outer_factors_are_the_outer_sum_bit_for_bit(mirrored, sign):
    """The pass forms its difference and sum tables as BLAS products; each
    cell must be the one rounding that numpy's outer takes, over nodes that
    include pairs 1e-7 apart, on pass shapes of 5 to 128 rows."""
    z = mirrored[0][:N_HALF]
    ufunc = np.add if sign > 0 else np.subtract
    for x in (z.real, z.imag, _family(z, 0.4, 0).imag):
        left, right = _kernels._outer_factors(x, sign)
        for rows in (5, 33, 128):
            assert np.array_equal(left[40:40 + rows] @ right[:, 40:],
                                  ufunc.outer(x[40:40 + rows], x[40:]))


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
