"""Tests for the polar-grid Laplacian, hierarchy solver and eigenvalues."""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.sparse import csc_matrix, diags
from scipy.sparse.linalg import splu

import geoball
from geoball.hierarchy import radial_hierarchy
from geoball import pde, verify
from geoball.model import euclidean_profile, make_space_form, space_form_profile
from geoball.pde import HierarchySolver, lambda1_grid, make_grid
from geoball.surface import (
    MetricAuditError,
    PolarMetric2D,
    ball_area,
    builtin_example_metric,
    hypothesis_report,
    perturbed_flat_metric,
    radial_metric,
)
from geoball.verify import run_verification

J01SQ = 2.404825557695773**2


@pytest.fixture(scope="module")
def flat():
    return radial_metric(euclidean_profile())


@pytest.fixture(scope="module")
def flat_grid(flat):
    return make_grid(flat, 1.0, 128, 128)


def test_grid_area_matches_quadrature(flat, flat_grid):
    assert flat_grid.total_area() == pytest.approx(math.pi, rel=1e-3)
    ex = builtin_example_metric()
    g = make_grid(ex, 1.0, 128, 128)
    assert g.total_area() == pytest.approx(ball_area(ex, 1.0), rel=1e-3)


@pytest.mark.parametrize("field,n_r,n_theta", [
    ("n_r", 16.5, 16), ("n_theta", 16, 16.0), ("n_r", "16", 16), ("n_theta", 16, None)])
def test_grid_rejects_ring_counts_that_are_not_integers(field, n_r, n_theta):
    def w(r, t):
        raise AssertionError("w was sampled")

    # swapped in after the metric audit, so that the grid must not sample
    m = PolarMetric2D(w=lambda r, t: r + 0.0 * t, R_valid=10.0, label="unsampled")
    object.__setattr__(m, "w", w)
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        pde.PolarGrid(metric=m, R=1.0, n_r=n_r, n_theta=n_theta)


def test_grid_takes_numpy_integer_ring_counts(flat):
    grid = pde.PolarGrid(metric=flat, R=1.0, n_r=np.int64(16), n_theta=np.int32(16))
    assert grid.total_area() == make_grid(flat, 1.0, 16, 16).total_area()


def test_grid_requires_even_theta(flat):
    with pytest.raises(ValueError):
        make_grid(flat, 1.0, 32, 31)


@pytest.mark.parametrize("n_theta", [0, -2])
def test_grid_requires_two_or_more_angles(flat, n_theta):
    # even, so the parity check alone let them through: 0 divided by zero
    # and -2 gave an empty grid of zero area
    with pytest.raises(ValueError, match="n_theta"):
        make_grid(flat, 1.0, 16, n_theta)


@pytest.mark.parametrize("n_r", [4, 5, 16, 17, 256, 384, 512])
@pytest.mark.parametrize("R", [1e-7, 0.3, 1.0, 1.02, 3.1384, 20.0])
def test_grid_radii_are_linspace_bit_for_bit(n_r, R):
    m = PolarMetric2D(w=lambda r, t: r, R_valid=100.0, label="plane")
    assert np.array_equal(make_grid(m, R, n_r, 2).radii, np.linspace(0.0, R, n_r + 1))


def _face_weights(grid):
    """w at the radial faces (i+1/2) and the angular faces (j+1/2)."""
    radii, thetas = grid.radii, grid.thetas
    return (grid._sample_w(radii[:-1] + grid.dr / 2, thetas),
            grid._sample_w(radii[1:-1], thetas + grid.dtheta / 2))


def _full_pencil(grid):
    """The 2-D flux matrix of a grid over every node, the conductances of
    its last ring's faces to the Dirichlet ring, and the cell areas."""
    c_radial, c_angular = pde._conductances(grid)
    return (pde._assemble_flux(c_radial, c_angular, grid.n_theta),
            np.broadcast_to(c_radial[-1], (grid.n_theta,)),
            np.append(grid.center_area, grid.node_area))


def _laplacian(grid, center, rings):
    """The solver's stencil applied to the field with value center at the
    center and rings[i-1, j] at node j of ring i (rings has the shape
    (n_r, n_theta); its last row is the r = R ring): its 2-D flux on the
    center and rings 1..n_r-1, plus the flux from the r = R ring, over the
    cell areas; the center value first, then the ring nodes row by row."""
    flux, c_dirichlet, areas = _full_pencil(grid)
    y = flux @ np.append(center, rings[:-1])
    y[-grid.n_theta:] += c_dirichlet * rings[-1]
    return y / areas


def _expanded_laplacian(grid, center, rings):
    """The reference for the stencil: central differences of the
    coordinate form f_rr + (w_r/w) f_r + f_tt/w^2 - (w_t/w^3) f_t on the
    interior rings, and the flux balance of the center cell; laid out as
    ``_laplacian`` returns it."""
    m, dr, dt = grid.metric, grid.dr, grid.dtheta
    ntheta = grid.n_theta
    rr, tt = np.meshgrid(grid.radii[1:-1], grid.thetas, indexing="ij")
    w = m.w(rr, tt)
    # rows 0..n_r-2 of `interior` are interior rings 1..n_r-1
    below = np.vstack([np.full((1, ntheta), center), rings[:-2]])
    above = rings[1:]
    here = rings[:-1]
    f_r = (above - below) / (2 * dr)
    f_rr = (above - 2 * here + below) / dr**2
    f_t = (np.roll(here, -1, axis=1) - np.roll(here, 1, axis=1)) / (2 * dt)
    f_tt = (np.roll(here, -1, axis=1) - 2 * here + np.roll(here, 1, axis=1)) / dt**2
    interior = (
        f_rr
        + m.jet(rr, tt).r / w * f_r
        + f_tt / w**2
        - m.jet(rr, tt).t / w**3 * f_t
    )
    w_face_r, _ = _face_weights(grid)
    balance = np.sum(w_face_r[0] * (rings[0] - center)) * dt / dr / grid.center_area
    return np.append(balance, interior)


def _ring_axes(grid):
    """r and theta at every node of rings 1..n_r, shaped (n_r, n_theta)."""
    return np.meshgrid(grid.radii[1:], grid.thetas, indexing="ij")


def test_laplacian_of_r_squared(flat_grid):
    rr, _ = _ring_axes(flat_grid)
    for laplacian in (_laplacian, _expanded_laplacian):
        lap = laplacian(flat_grid, 0.0, rr**2)
        assert np.max(np.abs(lap[1:] - 4.0)) < 1e-10
        assert lap[0] == pytest.approx(4.0, abs=1e-10)


def test_laplacian_of_harmonic_polynomial(flat_grid):
    rr, tt = _ring_axes(flat_grid)
    lap = _laplacian(flat_grid, 0.0, rr**2 * np.cos(2 * tt))
    assert np.max(np.abs(lap[1:])) < 5e-3
    assert abs(lap[0]) < 1e-12


def test_laplacian_forms_agree(flat_grid):
    rr, tt = _ring_axes(flat_grid)
    f = (flat_grid, 0.0, np.sin(rr * np.cos(tt)) * np.cos(rr * np.sin(tt)))
    assert np.max(np.abs(_laplacian(*f)[1:] - _expanded_laplacian(*f)[1:])) < 5e-3


def test_laplacian_of_transplanted_exit_time_hyperbolic():
    model = make_space_form(-1.0, 2)
    m = radial_metric(space_form_profile(-1.0))
    grid = make_grid(m, 1.0, 128, 128)
    exit_time = radial_hierarchy(model, grid.R, 1).level(1)
    lap = _laplacian(grid, float(exit_time(0.0)), exit_time(_ring_axes(grid)[0]))
    assert np.max(np.abs(lap[1:] + 1.0)) < 1e-3
    assert lap[0] == pytest.approx(-1.0, abs=1e-3)


def test_laplacian_convergence_order(flat):
    def f(r, t):
        r, t = np.asarray(r, float), np.asarray(t, float)
        return np.sin(r * np.cos(t)) * np.cos(r * np.sin(t))

    errs = []
    for n in (64, 128):
        g = make_grid(flat, 1.0, n, n)
        lap = _laplacian(g, f(0.0, 0.0), f(*_ring_axes(g)))[1:].reshape(n - 1, n)
        rr, tt = np.meshgrid(g.radii[1:-1], g.thetas, indexing="ij")
        e2 = (lap + 2 * f(rr, tt)) ** 2
        errs.append(math.sqrt(np.sum(e2 * g.node_area) / np.sum(g.node_area)))
    order = math.log2(errs[0] / errs[1])
    assert order >= 1.8


def test_hierarchy_center_oracles(flat_grid):
    # the center value comes first in a solver vector
    centers = HierarchySolver(flat_grid).hierarchy(2).levels[:, 0]
    assert centers[0] == pytest.approx(0.25, abs=1e-3)
    assert centers[1] == pytest.approx(3 / 32 / 2, abs=1e-3)


def test_hierarchy_nonnegative_interior_max(flat_grid):
    for x in HierarchySolver(flat_grid).hierarchy(3).levels:
        center, rings = _field_reference(flat_grid, x)
        assert center >= 0
        assert np.all(rings >= -1e-14)
        # max away from the boundary
        assert max(center, np.max(rings)) > np.max(rings[-2])


def test_hierarchy_matches_radial_route():
    model = make_space_form(-1.0, 2)
    m = radial_metric(space_form_profile(-1.0))
    grid = make_grid(m, 1.0, 128, 128)
    fields = [_field_reference(grid, v) for v in HierarchySolver(grid).hierarchy(5).levels]
    hier = radial_hierarchy(model, 1.0, 5)
    for k in range(1, 6):
        ref = hier.level(k)(grid.radii[1:])[:, None]
        center, rings = fields[k - 1]
        err = max(
            float(np.max(np.abs(ref - rings))),
            abs(float(hier.level(k)(0.0)) - center),
        )
        assert err < 1e-3


def test_moments_grid_oracles(flat_grid):
    solver = HierarchySolver(flat_grid)
    spec = solver.hierarchy(2).spectrum
    assert spec.normalized[0] == pytest.approx(math.pi, rel=1e-3)
    assert spec.moment(1) == pytest.approx(math.pi / 8, rel=1e-3)
    assert spec.moment(2) == pytest.approx(math.pi / 24, rel=1e-3)


# two radial metrics (a level holds one value per ring) and a non-radial
# one (one value per node)
LEVEL_METRICS = pytest.mark.parametrize(
    "m", [radial_metric(euclidean_profile()), radial_metric(space_form_profile(-1.0)),
          builtin_example_metric()], ids=["flat", "hyperbolic", "example1"])


def _orbit_angles(grid, m):
    """For each angle j of the grid, the angle of a solver vector with m
    values per ring that holds its node's value: 0 for one value per ring,
    j for one per node, and on a sector of the dihedral group D_c (the
    angles 0..q, m = q + 1, n_theta = 2cq) the angle of j's orbit there:
    the rotation by 2q columns and the reflection j -> -j take j to
    min(j mod 2q, 2q - j mod 2q)."""
    if m in (1, grid.n_theta):
        return [0 if m == 1 else j for j in range(grid.n_theta)]
    q = m - 1
    return [min(j % (2 * q), 2 * q - j % (2 * q)) for j in range(grid.n_theta)]


def _field_reference(grid, x):
    """A solver vector x as (center, rings), node by node: x[0] at the
    center, x[1 + i * m + s] at rings[i, j], node j of ring i + 1, where x
    holds m values per ring and s is j's angle among them
    (``_orbit_angles``), and zero on the Dirichlet ring, rings[-1]."""
    m = (len(x) - 1) // (grid.n_r - 1)
    rings = np.zeros((grid.n_r, grid.n_theta))
    rings[:-1] = x[1:].reshape(grid.n_r - 1, m)[:, _orbit_angles(grid, m)]
    return float(x[0]), rings


@LEVEL_METRICS
def test_level_moments_are_the_expanded_fields_integrals(m):
    solver = HierarchySolver(make_grid(m, 1.0, 64, 64))
    n = pde.LAMBDA1_LEVELS
    hier = solver.hierarchy(n)
    spec = hier.spectrum
    assert spec.normalized[0] == solver.grid.total_area()
    assert spec.radius == solver.grid.R
    assert len(spec.normalized) == 1 + n
    # each node's value times its cell's area; the Dirichlet ring is zero
    areas = _full_pencil(solver.grid)[2]
    fields = [np.append(center, rings[:-1])
              for center, rings in (_field_reference(solver.grid, v) for v in hier.levels)]
    integrals = np.array([np.sum(f * areas) for f in fields])
    assert np.all(np.abs(spec.normalized[1:] - integrals) <= 1e-14 * integrals)


@pytest.mark.parametrize("curvature", [0.0, -1.0])
def test_lambda1_grid_on_a_radial_grid_builds_no_field(curvature):
    # the solver holds one value per ring of a radial grid, so lambda1_grid
    # allocates less than one value per node of the grid would take
    grid = make_grid(radial_metric(space_form_profile(curvature)), 1.0, 64, 1024)
    tracemalloc.start()
    try:
        lambda1_grid(grid.metric, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * grid.n_r * grid.n_theta


def test_self_adjointness(flat_grid):
    # on fields that vanish on the Dirichlet ring the stencil is symmetric
    # in the area-weighted inner product
    areas = _full_pencil(flat_grid)[2]
    x, y = np.random.default_rng(11).standard_normal((2, len(areas)))
    f, g = ((flat_grid, v[0], np.append(v[1:], np.zeros(flat_grid.n_theta))
             .reshape(flat_grid.n_r, flat_grid.n_theta)) for v in (x, y))
    lhs = float(np.sum(_laplacian(*f) * y * areas))
    rhs = float(np.sum(x * _laplacian(*g) * areas))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def _loop_flux(grid):
    """Reference assembly, one face at a time."""
    nr, nt = grid.n_r, grid.n_theta
    dr, dt = grid.dr, grid.dtheta
    w_face_r, w_face_t = _face_weights(grid)
    n = 1 + (nr - 1) * nt
    a = np.zeros((n, n))

    def idx(i, j):
        return 1 + (i - 1) * nt + (j % nt)

    def couple(p, q, c):
        a[p, p] -= c
        a[q, q] -= c
        a[p, q] += c
        a[q, p] += c

    for j in range(nt):
        couple(0, idx(1, j), w_face_r[0, j] * dt / dr)
    for i in range(1, nr - 1):
        for j in range(nt):
            couple(idx(i, j), idx(i + 1, j), w_face_r[i, j] * dt / dr)
    for j in range(nt):
        a[idx(nr - 1, j), idx(nr - 1, j)] -= w_face_r[nr - 1, j] * dt / dr
    for i in range(1, nr):
        for j in range(nt):
            couple(idx(i, j), idx(i, j + 1), dr / (w_face_t[i - 1, j] * dt))
    return a


def test_vectorized_flux_matches_loop_assembly():
    # example1 folds onto the sector [0, pi/2]: its flux and areas are
    # P^T A P and P^T D P of the loop assembly A and the cell areas D
    grid = make_grid(builtin_example_metric(), 1.0, 16, 12)
    solver = HierarchySolver(grid)
    flux = solver.flux
    p = np.column_stack([_expand(grid, e) for e in np.eye(1 + 15 * 4)])
    ref = p.T @ _loop_flux(grid) @ p
    assert flux.shape == ref.shape == (1 + 15 * 4,) * 2
    assert np.all(np.abs(flux.toarray() - ref) <= 1e-14 * np.abs(ref))
    assert (flux != flux.T).nnz == 0
    areas = p.T @ _full_pencil(grid)[2]
    assert np.all(np.abs(solver.areas - areas) <= 1e-14 * areas)


def _assemble_flux_reference(c_radial, c_angular, n_theta):
    """pde._assemble_flux with both conductance families broadcast and
    the angular neighbours taken by np.roll."""
    nr, nt = len(c_radial), n_theta
    c_radial = np.broadcast_to(c_radial, (nr, nt))
    c_angular = np.broadcast_to(c_angular, (nr - 1, nt))
    ring = 1 + np.arange((nr - 1) * nt).reshape(nr - 1, nt)
    p = np.concatenate([np.zeros(nt, dtype=np.int64), ring[:-1].ravel(), ring.ravel()])
    q = np.concatenate([ring[0], ring[1:].ravel(), np.roll(ring, -1, axis=1).ravel()])
    c = np.concatenate([c_radial[0], c_radial[1:-1].ravel(), c_angular.ravel()])
    n_unknowns = 1 + (nr - 1) * nt
    diag = -np.bincount(p, c, n_unknowns) - np.bincount(q, c, n_unknowns)
    diag[ring[-1]] -= c_radial[-1]
    idx = np.arange(n_unknowns)
    return csc_matrix((np.concatenate([c, c, diag]),
                       (np.concatenate([p, q, idx]), np.concatenate([q, p, idx]))),
                      shape=(n_unknowns, n_unknowns))


@pytest.mark.parametrize("n_theta", [1, 2, 12])
@pytest.mark.parametrize("full", [False, True], ids=["column", "full"])
def test_flux_assembly_matches_the_roll_reference(n_theta, full):
    rng = np.random.default_rng(n_theta)
    cols = n_theta if full else 1
    c_radial, c_angular = rng.uniform(0.5, 2.0, (9, cols)), rng.uniform(0.5, 2.0, (8, cols))
    flux = pde._assemble_flux(c_radial, c_angular, n_theta)
    ref = _assemble_flux_reference(c_radial, c_angular, n_theta)
    for a, b in ((flux.indptr, ref.indptr), (flux.indices, ref.indices),
                 (flux.data, ref.data)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_interleaved_shapes_share_no_pattern_state():
    # each shape's second draw reads back the pattern of its first; a shape
    # that comes back after the other two was evicted unless the cache
    # holds all three
    pde._flux_pattern.cache_clear()
    rng = np.random.default_rng(25)
    for _ in range(2):
        for n_theta in (1, 2, 12):
            for _ in range(2):
                c_radial = rng.uniform(0.5, 2.0, (9, n_theta))
                c_angular = rng.uniform(0.5, 2.0, (8, n_theta))
                flux = pde._assemble_flux(c_radial, c_angular, n_theta)
                ref = _assemble_flux_reference(c_radial, c_angular, n_theta)
                for a, b in ((flux.indptr, ref.indptr), (flux.indices, ref.indices),
                             (flux.data, ref.data)):
                    assert a.dtype == b.dtype and np.array_equal(a, b)
    rebuilt = 3 if pde.FLUX_PATTERNS < 3 else 0
    info = pde._flux_pattern.cache_info()
    assert (info.misses, info.hits) == (3 + rebuilt, 9 - rebuilt)


def test_second_solver_of_a_shape_reuses_its_pattern():
    grid = make_grid(builtin_example_metric(), 1.0, 16, 12)
    first = HierarchySolver(grid)
    hits = pde._flux_pattern.cache_info().hits
    second = HierarchySolver(make_grid(perturbed_flat_metric(0.5, 4), 1.0, 16, 12))
    assert pde._flux_pattern.cache_info().hits == hits + 1
    assert np.shares_memory(second.flux.indices, first.flux.indices)
    assert np.shares_memory(second.flux.indptr, first.flux.indptr)


def test_flux_pattern_is_read_only_int32():
    pattern = pde._flux_pattern(9, 12)
    for a in pattern:
        assert a.dtype == np.int32 and not a.flags.writeable
    flux = HierarchySolver(make_grid(builtin_example_metric(), 1.0, 9, 12)).flux
    with pytest.raises(ValueError, match="read-only"):
        flux.indices[0] = 1


def test_256_squared_pattern_holds_at_most_4_mib():
    assert sum(a.nbytes for a in pde._flux_pattern(256, 256)) <= 4 << 20


def test_pattern_cache_is_bounded_and_rebuilds_an_evicted_shape():
    pde._flux_pattern.cache_clear()
    kept = pde._flux_pattern(5, 2)
    saved = [a.copy() for a in kept]
    for n_r in range(6, 7 + pde.FLUX_PATTERNS):
        pde._flux_pattern(n_r, 2)
        assert pde._flux_pattern.cache_info().currsize <= pde.FLUX_PATTERNS
    rebuilt = pde._flux_pattern(5, 2)
    assert rebuilt is not kept  # evicted, then built again
    for a, b in zip(rebuilt, saved):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _expand(grid, x):
    """P x: a solver vector (center first) expanded to the center and every
    node of rings 1..n_r-1, as the full 2-D pencil orders them; ring values
    are repeated along theta."""
    center, rings = _field_reference(grid, x)
    return np.append(center, rings[:-1])


class _UnfoldedSolver(HierarchySolver):
    """HierarchySolver on the full 2-D pencil of its grid: the flux matrix
    over every node and the cell areas, factored by the general route's
    sparse LU, whatever the grid's symmetry."""

    def __init__(self, grid):
        self.grid = grid
        self.flux, self._c_dirichlet, self.areas = _full_pencil(grid)
        self._flux_norm = float(np.max(np.abs(self.flux).sum(axis=1)))
        self._lu = splu(self.flux, permc_spec="MMD_AT_PLUS_A")


class _FullPencilSolver(_UnfoldedSolver):
    """_UnfoldedSolver whose inverse power iteration starts from P x_0,
    the expansion of the radial solver's start vector, so on a radial grid
    both iterate the same sequence in exact arithmetic."""

    def smallest_eigenvalue(self):
        x = _expand(self.grid, np.random.default_rng(7).standard_normal(self.grid.n_r))
        lam_prev = 0.0
        for _ in range(pde.POWER_MAX_ITER):
            y = self._lu.solve(self.areas * x)
            y /= np.linalg.norm(y)
            lam = -float(y @ (self.flux @ y)) / float(y @ (self.areas * y))
            if abs(lam - lam_prev) <= pde.POWER_TOL * abs(lam):
                return lam
            lam_prev, x = lam, y
        raise pde.ResolutionError("inverse power iteration did not converge")


def _asymmetric_metric():
    """w = r + 0.3 r^3 (1 + 0.5 cos(theta) + 0.2 sin(2 theta)): no
    reflection of the grid maps its samples to themselves, so the solver
    keeps every node."""
    return PolarMetric2D(
        w=lambda r, t: r + 0.3 * r**3 * (1.0 + 0.5 * np.cos(t) + 0.2 * np.sin(2 * t)),
        R_valid=10.0, label="asymmetric")


def _rel_err(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("curvature", [0.0, -1.0, 1.0])
@pytest.mark.parametrize("n_r,n_theta", [(4, 2), (17, 12), (64, 64)])
def test_radial_pencil_matches_full_pencil(curvature, n_r, n_theta):
    grid = make_grid(radial_metric(space_form_profile(curvature)), 1.0, n_r, n_theta)
    solver = HierarchySolver(grid)
    assert solver._lu.shape == solver.flux.shape == (n_r, n_r)
    ref = _FullPencilSolver(grid)
    assert ref.flux.shape == (1 + (n_r - 1) * n_theta,) * 2
    for v, v_ref in zip(solver.hierarchy(24).levels, ref.hierarchy(24).levels):
        assert _rel_err(_expand(grid, v), v_ref) <= 1e-10
    assert solver.smallest_eigenvalue() == pytest.approx(
        ref.smallest_eigenvalue(), rel=1e-10)


@pytest.mark.parametrize("curvature", [0.0, -1.0, 1.0])
@pytest.mark.parametrize("n_r,n_theta", [(4, 2), (17, 12), (32, 32)])
def test_radial_eigenvalue_is_the_full_pencils(curvature, n_r, n_theta):
    # the solver iterates in Fourier mode 0 alone; the smallest eigenvalue
    # of the whole 2-D pencil (-flux, areas) must live there
    grid = make_grid(radial_metric(space_form_profile(curvature)), 1.0, n_r, n_theta)
    solver = HierarchySolver(grid)
    full = _FullPencilSolver(grid)
    lam = eigh(-full.flux.toarray(), np.diag(full.areas), eigvals_only=True,
               subset_by_index=[0, 0])[0]
    assert solver.smallest_eigenvalue() == pytest.approx(lam, rel=pde.POWER_TOL)


def _almost_flat_metric():
    """The plane with w perturbed by 1e-15 * r * sin(theta): a few ulps."""
    return PolarMetric2D(w=lambda r, t: r * (1.0 + 1e-15 * np.sin(t)), R_valid=10.0,
                         label="almost-flat")


def _node_only_metric():
    """The plane with w perturbed by 1e-12 r^3 cos^2(16 pi r) cos(6 theta).
    On a 16 x 12 grid of radius 1 the perturbation is below roundoff at
    every face (cos^2 vanishes at the radial faces, cos(6 theta) at the
    angular ones), but not at the nodes."""
    eps, k = 1e-12, 32 * np.pi
    return PolarMetric2D(
        w=lambda r, t: r + eps * np.cos(6 * t) * (r**3 * (1 + np.cos(k * r)) / 2),
        R_valid=10.0, label="node-only")


def test_theta_varying_areas_take_the_sparse_lu():
    # circulant conductances alone do not make a grid rotationally
    # symmetric: the areas weight every hierarchy level and the pencil
    grid = make_grid(_node_only_metric(), 1.0, 16, 12)
    solver = HierarchySolver(grid)
    # the face samples are constant along every ring and kept as one
    # column each; the node samples are not, but have cos(6 theta)'s D_6
    # symmetry, so the solver keeps the sector [0, pi/6], two angles
    c_radial, c_angular = pde._conductances(grid)
    assert c_radial.shape[1] == c_angular.shape[1] == 1
    assert grid._node_area.shape[1] == 12
    assert solver._lu.shape == solver.flux.shape == (1 + 15 * 2,) * 2
    ref = HierarchySolver(make_grid(radial_metric(euclidean_profile()), 1.0, 16, 12))
    for v, v_ref in zip(solver.hierarchy(3).levels, ref.hierarchy(3).levels):
        assert _rel_err(_expand(grid, v), _expand(grid, v_ref)) <= 1e-10


def test_radial_pencil_only_for_theta_independent_grids(flat):
    radial = HierarchySolver(make_grid(flat, 1.0, 16, 12))
    assert radial._lu.shape == radial.flux.shape == (16, 16)
    for m in (builtin_example_metric(), _almost_flat_metric()):
        solver = HierarchySolver(make_grid(m, 1.0, 16, 12))
        assert solver._lu.shape == solver.flux.shape


def _dihedral_order(grid):
    return pde._dihedral_order(grid.n_theta, *pde._conductances(grid), grid._node_area)


# (metric, n_r, n_theta, c): the largest dihedral group D_c with 2c | n_theta
# that maps the grid's samples to themselves
@pytest.mark.parametrize("m,n_r,n_theta,c", [
    (builtin_example_metric(), 16, 12, 2),
    (builtin_example_metric(), 16, 18, 1),  # D_2, but 4 does not divide 18
    (perturbed_flat_metric(0.5, 4), 16, 16, 8),
    (perturbed_flat_metric(0.5, 4), 16, 12, 2),  # D_8's subgroup D_2: 2c | 12
    (perturbed_flat_metric(0.123456, 3), 9, 24, 6),
    (_node_only_metric(), 16, 12, 6),
], ids=["example1-12", "example1-18", "perturbed4-16", "perturbed4-12",
        "perturbed3-24", "node-only-12"])
def test_sector_solve_matches_the_full_grid(m, n_r, n_theta, c):
    grid = make_grid(m, 1.0, n_r, n_theta)
    solver, full = HierarchySolver(grid), _UnfoldedSolver(grid)
    assert _dihedral_order(grid) == c
    assert solver.flux.shape == (1 + (n_r - 1) * (n_theta // (2 * c) + 1),) * 2
    hier, ref = solver.hierarchy(24), full.hierarchy(24)
    for v, v_ref in zip(hier.levels, ref.levels):
        assert _rel_err(_expand(grid, v), v_ref) <= 1e-11
    a, a_ref = hier.spectrum.normalized, ref.spectrum.normalized
    assert a[0] == a_ref[0] and np.all(np.abs(a[1:] - a_ref[1:]) <= 1e-11 * a_ref[1:])
    # the first eigenfunction is invariant, so the sector's pencil keeps
    # the full pencil's smallest eigenvalue
    lam, lam_full = (eigh(-s.flux.toarray(), np.diag(s.areas), eigvals_only=True,
                          subset_by_index=[0, 0])[0] for s in (solver, full))
    assert lam == pytest.approx(lam_full, rel=1e-12, abs=0)
    assert solver.smallest_eigenvalue() == pytest.approx(lam_full, rel=pde.POWER_TOL)


@pytest.mark.parametrize("m,angles", [(builtin_example_metric(), 17),
                                      (perturbed_flat_metric(0.5, 4), 5)],
                         ids=lambda x: getattr(x, "label", x))
def test_symmetric_metrics_solve_on_their_sector(m, angles):
    # example1 (D_2) keeps [0, pi/2] and perturbed(0.5, 4) (D_8) [0, pi/8]
    grid = make_grid(m, 1.0, 64, 64)
    solver = HierarchySolver(grid)
    assert solver.flux.shape == solver._lu.shape == (1 + 63 * angles,) * 2
    assert len(solver.areas) == 1 + 63 * angles
    full = _UnfoldedSolver(grid)
    for v, v_ref in zip(solver.hierarchy(24).levels, full.hierarchy(24).levels):
        assert _rel_err(_expand(grid, v), v_ref) <= 1e-11


@pytest.mark.parametrize("m", [
    _asymmetric_metric(),
    # off its reflection by 2e-12 relative, 200 times SYMMETRY_TOL
    PolarMetric2D(w=lambda r, t: r * (1.0 + 1e-12 * np.sin(t)), R_valid=10.0,
                  label="nearly-symmetric")], ids=lambda m: m.label)
def test_metric_without_symmetry_keeps_every_node(m):
    # no reflection maps the samples to themselves: the solver is the
    # full 2-D pencil's, bit for bit
    grid = make_grid(m, 1.0, 32, 32)
    assert _dihedral_order(grid) == 0
    solver, ref = HierarchySolver(grid), _UnfoldedSolver(grid)
    for a, b in ((solver.flux.data, ref.flux.data), (solver.flux.indices, ref.flux.indices),
                 (solver.flux.indptr, ref.flux.indptr), (solver.areas, ref.areas),
                 (solver._c_dirichlet, ref._c_dirichlet)):
        assert np.array_equal(a, b)
    hier, ref_hier = solver.hierarchy(24), ref.hierarchy(24)
    assert np.array_equal(hier.levels, ref_hier.levels)
    assert np.array_equal(hier.spectrum.normalized, ref_hier.spectrum.normalized)
    assert hier.lambda1() == ref_hier.lambda1()


class _CountingFactor:
    """A solver's factor that counts its solves."""

    def __init__(self, lu):
        self.lu, self.solves = lu, 0

    def __getattr__(self, name):
        return getattr(self.lu, name)

    def solve(self, rhs):
        self.solves += 1
        return self.lu.solve(rhs)


def _counting_solver(grid):
    """HierarchySolver(grid) whose factor counts its solves, and that
    factor."""
    solver = HierarchySolver(grid)
    solver._lu = _CountingFactor(solver._lu)
    return solver, solver._lu


@pytest.mark.parametrize("curvature", [0.0, -1.0, 1.0])
@pytest.mark.parametrize("n_r,n_theta", [(4, 2), (17, 12), (64, 64)])
def test_mode0_route_matches_full_route_and_sparse_lu(curvature, n_r, n_theta):
    # one value per ring, expanded along theta: the mode-0 solve against
    # the full 2-D flux system, by its normwise backward error and by a
    # sparse LU of the whole matrix
    grid = make_grid(radial_metric(space_form_profile(curvature)), 1.0, n_r, n_theta)
    solver, full = HierarchySolver(grid), _FullPencilSolver(grid)
    rhs = np.random.default_rng(5).standard_normal(n_r)
    x = _expand(grid, solver.solve_poisson(rhs))
    b = full.areas * _expand(grid, rhs)
    backward = np.max(np.abs(full.flux @ x - b)) / (
        full._flux_norm * np.max(np.abs(x)) + np.max(np.abs(b)))
    assert backward <= 1e-12
    assert _rel_err(x, full.solve_poisson(_expand(grid, rhs))) <= 1e-12


@pytest.mark.parametrize("n_r", [4, 5, 384])
def test_mode0_pencil_is_the_diags_build(n_r):
    # the 2-D stencil on one angle, with each ring's conductances and
    # areas summed around it, is the tridiagonal mode-0 block bit for bit
    grid = make_grid(radial_metric(space_form_profile(-1.0)), 1.0, n_r, 8)
    solver = HierarchySolver(grid)
    flux = solver.flux
    c = grid.n_theta * pde._conductances(grid)[0][:, 0]
    diagonal = np.concatenate([[-c[0]], -(c[:-1] + c[1:])])
    ref = diags([c[:-1], diagonal, c[:-1]], [-1, 0, 1], format="csc")
    assert flux.format == "csc" and flux.shape == ref.shape
    areas = np.concatenate([[grid.center_area], grid.n_theta * grid.node_area[:, 0]])
    assert np.array_equal(solver.areas, areas)
    for a, b in ((flux.indptr, ref.indptr), (flux.indices, ref.indices),
                 (flux.data, ref.data)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("curvature", [0.0, -1.0])
def test_radial_hierarchy_solves_mode0_only(curvature):
    m = radial_metric(space_form_profile(curvature))
    solver, mode0 = _counting_solver(make_grid(m, 1.0, 32, 32))
    assert mode0.shape == (32, 32)
    solver.hierarchy(pde.LAMBDA1_LEVELS)
    assert mode0.solves == pde.LAMBDA1_LEVELS
    # inverse power iteration solves with the same n_r x n_r factor
    solver.smallest_eigenvalue()
    assert mode0.solves > pde.LAMBDA1_LEVELS


@pytest.mark.parametrize("curvature", [0.0, -1.0, 1.0])
@pytest.mark.parametrize("n_r", [4, 5, 17, 384])
def test_radial_ldlt_factor_matches_superlu(curvature, n_r):
    # the reference factors the same pencil by SuperLU in natural order
    grid = make_grid(radial_metric(space_form_profile(curvature)), 1.0, n_r, 8)
    solver, ref = HierarchySolver(grid), HierarchySolver(grid)
    ref._lu = splu(ref.flux, permc_spec="NATURAL")
    assert isinstance(solver._lu, pde._TridiagonalFactor)
    assert solver._lu.L.nnz + solver._lu.U.nnz == 2 * (2 * n_r - 1)
    hier, ref_hier = solver.hierarchy(24), ref.hierarchy(24)
    # one solve of each level's right-hand side agrees to 1e-12; both
    # factors' roundoff (about 2e-13 per solve at n_r = 384, against a
    # 40-digit solve) adds up level by level, so level k agrees to k * 1e-12
    for v in np.vstack([np.ones(n_r), hier.levels[:-1]]):
        b = solver.areas * -v
        assert _rel_err(solver._lu.solve(b), ref._lu.solve(b)) <= 1e-12
    tol = 1e-12 * np.arange(1, 25)
    gaps = [_rel_err(v, v_ref) for v, v_ref in zip(hier.levels, ref_hier.levels)]
    assert np.all(gaps <= tol)
    a, a_ref = hier.spectrum.normalized, ref_hier.spectrum.normalized
    assert a[0] == a_ref[0] and np.all(np.abs(a[1:] - a_ref[1:]) <= tol * a_ref[1:])
    assert solver.smallest_eigenvalue() == pytest.approx(
        ref.smallest_eigenvalue(), rel=1e-12, abs=0)


def test_indefinite_tridiagonal_raises_resolution_error():
    # -flux = [[1, -2], [-2, 1]] has eigenvalues 3 and -1: pttrf stops at
    # the second pivot
    flux = diags([[2.0], [-1.0, -1.0], [2.0]], [-1, 0, 1], format="csc")
    with pytest.raises(pde.ResolutionError, match="pttrf info = 2"):
        pde._TridiagonalFactor(flux)


def test_radial_route_never_reaches_superlu(flat, monkeypatch):
    def no_superlu(*args, **kwargs):
        raise AssertionError("the solver called SuperLU")

    monkeypatch.setattr(pde, "splu", no_superlu)
    for m in (flat, radial_metric(space_form_profile(-1.0))):
        lambda1_grid(m, make_grid(m, 1.0, 32, 32))
    run_verification(flat, make_space_form(0.0, 2), 1.0, n_r=32, n_theta=32)
    with pytest.raises(AssertionError, match="SuperLU"):
        run_verification(builtin_example_metric(), make_space_form(0.0, 2), 1.0,
                         n_r=16, n_theta=16)


@pytest.mark.parametrize("radial", [True, False])
def test_factor_fill_readable_on_both_routes(flat, radial):
    # the benchmark's layer trace reads the fill as _lu.L.nnz + _lu.U.nnz
    m = flat if radial else builtin_example_metric()
    solver = HierarchySolver(make_grid(m, 1.0, 16, 12))
    n = 16 if radial else solver.flux.shape[0]
    assert solver._lu.shape == (n, n)
    assert solver._lu.L.nnz + solver._lu.U.nnz >= 2 * n


def test_solver_freed_by_reference_counting(flat):
    # a reference cycle would hold every solver's flux matrix and factor
    # until the cyclic collector happens to run
    gc.disable()
    try:
        for m in (flat, builtin_example_metric()):
            ref = weakref.ref(HierarchySolver(make_grid(m, 1.0, 16, 12)))
            assert ref() is None
    finally:
        gc.enable()


def test_radial_pencil_report_matches_full_sparse_lu(flat, monkeypatch):
    model = make_space_form(0.0, 2)
    fast = run_verification(flat, model, 1.0, n_r=64, n_theta=64)
    monkeypatch.setattr(verify, "HierarchySolver", _FullPencilSolver)
    general = run_verification(flat, model, 1.0, n_r=64, n_theta=64)
    assert len(fast.entries) == len(general.entries)
    for e, g in zip(fast.entries, general.entries):
        assert (e.name, e.inequality, e.passed) == (g.name, g.inequality, g.passed)
        for x, y in ((e.lhs, g.lhs), (e.rhs, g.rhs), (e.margin, g.margin)):
            assert x == pytest.approx(y, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("m", [radial_metric(euclidean_profile()),
                               perturbed_flat_metric(0.5, 4)], ids=lambda m: m.label)
def test_nan_backward_error_fails_the_hierarchy_gate(m):
    # on a disk of radius 1e-7 levels 22-24 underflow to zero, whose
    # backward error is 0/0: the radial pencil and the 2-D route alike
    with pytest.raises(pde.ResolutionError, match="residual nan too large at level 22"):
        HierarchySolver(make_grid(m, 1e-7, 16, 16)).hierarchy(24)


def test_flat_lambda1_grid_scales_as_one_over_r_squared_down_to_radius_1e_7(flat):
    # the 5 levels lambda1_grid reads do not underflow on that disk
    lam_r2 = [lambda1_grid(flat, make_grid(flat, R, 16, 16)).power_value * R**2
              for R in (1.0, 1e-7)]
    assert lam_r2[1] == pytest.approx(lam_r2[0], rel=1e-9, abs=0)


def test_lambda1_grid_is_finite_on_a_perturbed_disk_of_radius_1e_7():
    m = perturbed_flat_metric(0.5, 4)
    ev = lambda1_grid(m, make_grid(m, 1e-7, 16, 16))
    assert math.isfinite(ev.power_value) and ev.lower <= ev.power_value <= ev.upper


@pytest.mark.parametrize("m,n", [
    (radial_metric(euclidean_profile()), 384), (radial_metric(space_form_profile(-1.0)), 384),
    (builtin_example_metric(), 64), (builtin_example_metric(), 256),
    (perturbed_flat_metric(0.5, 4), 128), (_asymmetric_metric(), 64),
], ids=["flat-384", "hyperbolic-384", "example1-64", "example1-256", "perturbed-128",
        "asymmetric-64"])
def test_moments_past_the_levels_match_solved_levels(m, n):
    # the radial pencil, the sector and every node are symmetric (which
    # keeps the power value, a Rayleigh quotient, above lambda_1), so the
    # overlaps v_j . areas v_12 of 12 levels are the moments 13..24 that
    # 24 solved levels give (Golub & Meurant 2010)
    solver = HierarchySolver(make_grid(m, 1.0, n, n))
    short, deep = solver.hierarchy(12), solver.hierarchy(24).spectrum.normalized
    past = short.levels @ (solver.areas * short.levels[-1])
    assert np.array_equal(short.spectrum.normalized, deep[:13])
    assert np.all(np.abs(past - deep[13:]) <= 1e-13 * deep[13:])


@pytest.mark.parametrize("depth,moments", [(1, 1), (5, 5), (12, 12), (13, 13), (24, 24),
                                           (30, 30)])
def test_hierarchy_depth_sets_its_moment_count(flat, depth, moments):
    hier = HierarchySolver(make_grid(flat, 1.0, 16, 16)).hierarchy(depth)
    assert hier.levels.shape[0] == depth and hier.spectrum.k_max == moments


def _reference_backward_error(solver, x, rhs):
    """The per-level gate: normwise backward error of x as a solution of
    flux x = -rhs."""
    r = solver.flux @ x
    r += rhs
    with np.errstate(invalid="ignore"):
        return float(np.abs(r).max() / (
            solver._flux_norm * np.abs(x).max() + np.abs(rhs).max()))


@pytest.mark.parametrize("m,n,k_max", [
    (radial_metric(euclidean_profile()), 384, 24),
    (radial_metric(space_form_profile(-1.0)), 384, 24),
    (builtin_example_metric(), 64, 24),  # on its sector: one block
    (builtin_example_metric(), 128, 24),  # on its sector: blocks of 15 levels, 15 + 9
    (builtin_example_metric(), 128, 23),
    (perturbed_flat_metric(0.5, 4), 128, 24),
    (_asymmetric_metric(), 64, 24),  # every node: blocks of 16 levels, 16 + 8
    (_asymmetric_metric(), 128, 23),  # every node: blocks of 4 levels, 5 x 4 + 3
], ids=["flat-384", "hyperbolic-384", "example1-64", "example1-128",
        "example1-128-k23", "perturbed-128", "asymmetric-64", "asymmetric-128-k23"])
def test_block_gate_equals_the_per_level_reference(m, n, k_max):
    solver = HierarchySolver(make_grid(m, 1.0, n, n))
    gated, gate = [], solver._backward_errors

    def recording(levels, start, stop):
        res = gate(levels, start, stop)
        gated.append((start, stop, res))
        return res

    solver._backward_errors = recording
    hier = solver.hierarchy(k_max)
    n_unknowns, step = len(solver.areas), max(1, pde.GATE_BLOCK // len(solver.areas))
    assert step * n_unknowns <= pde.GATE_BLOCK
    assert [(a, b) for a, b, _ in gated] == [
        (a, min(a + step, k_max)) for a in range(0, k_max, step)]
    previous = np.vstack([np.ones(n_unknowns), hier.levels[:-1]])
    ref = [_reference_backward_error(solver, x, solver.areas * v)
           for x, v in zip(hier.levels, previous)]
    assert np.array_equal(np.concatenate([res for *_, res in gated]), ref)


@pytest.mark.parametrize("m,n,scale", [
    (radial_metric(euclidean_profile()), 64, 1 + 1e-6),
    # on this grid a 1e-6 scaling has backward error 8.9e-11, below this
    # gate; the divergence gap sees it
    (builtin_example_metric(), 64, 1 + 1e-4),
], ids=["flat-64", "example1-64"])
def test_gate_names_a_corrupted_level_inside_a_block(m, n, scale):
    solver = HierarchySolver(make_grid(m, 1.0, n, n))
    assert pde.GATE_BLOCK // len(solver.areas) > 5  # levels 1-6 share a block
    solve, solved = solver.solve_poisson, []

    def corrupting(rhs):
        v = solve(rhs)
        solved.append(v)
        return v * scale if len(solved) == 5 else v

    solver.solve_poisson = corrupting
    with pytest.raises(pde.ResolutionError, match=r"too large at level 5$"):
        solver.hierarchy(24)


@pytest.mark.parametrize("m", [builtin_example_metric(),
                               radial_metric(space_form_profile(-1.0))], ids=lambda m: m.label)
@pytest.mark.parametrize("n", [64, 384])
def test_divergence_gap_names_a_scaled_level(m, n):
    # a level scaled by 1 + 1e-6 keeps its normwise backward error below
    # RESIDUAL_TOL on a fine grid, but its flux through the Dirichlet ring
    # misses the moment of the level before by 1e-6
    solver = HierarchySolver(make_grid(m, 1.0, n, n))
    solve, solved = solver.solve_poisson, []

    def scaling(rhs):
        v = solve(rhs)
        solved.append(v)
        return v * (1 + 1e-6) if len(solved) == 5 else v

    solver.solve_poisson = scaling
    with pytest.raises(pde.ResolutionError, match=r"too large at level 5$"):
        solver.hierarchy(6)
    # with the normwise gate blind, the divergence gap alone names the level
    solved.clear()
    solver._backward_errors = lambda levels, start, stop: np.zeros(stop - start)
    with pytest.raises(pde.ResolutionError,
                       match=r"divergence gap \S+ too large at level 5$") as info:
        solver.hierarchy(6)
    gap = float(str(info.value).split()[2])
    assert abs(gap - 1e-6) <= 1e-10


@pytest.mark.parametrize("m", [radial_metric(euclidean_profile()), builtin_example_metric()],
                         ids=lambda m: m.label)
def test_nan_divergence_gap_fails_the_hierarchy_gate(m):
    solver = HierarchySolver(make_grid(m, 1.0, 16, 16))
    solver._backward_errors = lambda levels, start, stop: np.zeros(stop - start)
    solver.solve_poisson = lambda rhs: np.full(len(rhs), np.nan)
    with pytest.raises(pde.ResolutionError, match=r"divergence gap nan too large at level 1$"):
        solver.hierarchy(3)


class _CountingFlux:
    """A solver's flux matrix that counts its products."""

    def __init__(self, flux):
        self.flux, self.products = flux, 0

    def __getattr__(self, name):
        return getattr(self.flux, name)

    def __matmul__(self, other):
        self.products += 1
        return self.flux @ other


def test_radial_gate_is_one_sparse_product(flat):
    solver = HierarchySolver(make_grid(flat, 1.0, 384, 384))
    solver.flux = counting = _CountingFlux(solver.flux)
    solver.hierarchy(pde.LAMBDA1_LEVELS)
    assert counting.products == 1
    solver.smallest_eigenvalue()
    assert counting.products == 1


def test_gate_products_and_memory_are_bounded_by_the_block():
    solver = HierarchySolver(make_grid(_asymmetric_metric(), 1.0, 128, 128))
    solver.flux = counting = _CountingFlux(solver.flux)
    n, k_max = len(solver.areas), 12
    solver.hierarchy(k_max)
    assert counting.products == math.ceil(k_max * n / pde.GATE_BLOCK) == 3
    solver.smallest_eigenvalue()
    assert counting.products == 3
    # beyond the levels themselves, the gate holds a few block-sized
    # temporaries (about 3.2 blocks here); a gate of all 12 levels at once
    # would hold about 9
    tracemalloc.start()
    try:
        solver.hierarchy(k_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (k_max * n + 5 * pde.GATE_BLOCK)


class _FluxProductEigenSolver(HierarchySolver):
    """HierarchySolver whose power iteration takes the Rayleigh numerator
    as y . (flux y), by a sparse product."""

    def smallest_eigenvalue(self):
        x = np.random.default_rng(7).standard_normal(len(self.areas))
        lam_prev = 0.0
        for _ in range(pde.POWER_MAX_ITER):
            y = self._lu.solve(self.areas * x)
            y /= np.linalg.norm(y)
            lam = -float(y @ (self.flux @ y)) / float(y @ (self.areas * y))
            if abs(lam - lam_prev) <= pde.POWER_TOL * abs(lam):
                return lam
            lam_prev, x = lam, y
        raise pde.ResolutionError("inverse power iteration did not converge")


@pytest.mark.parametrize("m,n", [
    (radial_metric(euclidean_profile()), 384), (radial_metric(space_form_profile(-1.0)), 384),
    (radial_metric(space_form_profile(1.0)), 64), (builtin_example_metric(), 64),
    (perturbed_flat_metric(0.5, 4), 64)], ids=lambda x: getattr(x, "label", x))
def test_power_rayleigh_quotient_matches_the_flux_product(m, n):
    grid = make_grid(m, 1.0, n, n)
    assert HierarchySolver(grid).smallest_eigenvalue() == pytest.approx(
        _FluxProductEigenSolver(grid).smallest_eigenvalue(), rel=1e-12, abs=0)


@pytest.mark.parametrize("n", [1, 17, 384, 16257])
def test_power_start_is_the_seeded_draw_read_only(n):
    x = pde._power_start(n)
    assert np.array_equal(x, np.random.default_rng(7).standard_normal(n))
    assert not x.flags.writeable and pde._power_start(n) is x


@pytest.mark.parametrize("m", [builtin_example_metric(), radial_metric(euclidean_profile())],
                         ids=lambda m: m.label)
def test_power_iteration_fails_fast_on_a_nan_rayleigh_quotient(m):
    solver, factor = _counting_solver(make_grid(m, 1.0, 64, 64))
    solver.areas[3] = np.nan
    with pytest.raises(pde.ResolutionError, match=r"Rayleigh quotient nan at step 1$"):
        solver.smallest_eigenvalue()
    assert factor.solves == 1


def test_lambda1_grid_disk(flat, flat_grid):
    est = lambda1_grid(flat, flat_grid)
    assert est.power_value == pytest.approx(J01SQ, rel=0.02)
    # levels 4 and 5 bracket the grid's lambda_1 to 2e-3 relative
    assert est.lower <= est.power_value <= est.upper <= (1 + 2e-3) * est.lower


def test_lambda1_grid_scaling(flat):
    grid = make_grid(flat, 2.0, 128, 128)
    est = lambda1_grid(flat, grid)
    assert est.power_value == pytest.approx(J01SQ / 4, rel=0.02)


@LEVEL_METRICS
def test_grid_hierarchy_holds_its_levels_moments_and_eigenvalue(m):
    grid = make_grid(m, 1.0, 32, 32)
    solver = HierarchySolver(grid)
    hier = solver.hierarchy(pde.LAMBDA1_LEVELS)
    assert isinstance(hier, geoball.GridHierarchy) and hier.solver is solver
    assert hier.levels.shape == (pde.LAMBDA1_LEVELS, len(solver.areas))
    # the spectrum is the area and the moments of the levels solved in the
    # same call
    assert np.array_equal(hier.spectrum.normalized,
                          np.concatenate([[grid.total_area()], hier.levels @ solver.areas]))
    assert hier.lambda1() == lambda1_grid(m, grid)


@pytest.mark.parametrize("m,n", [
    (radial_metric(euclidean_profile()), 24), (builtin_example_metric(), 24),
    (_asymmetric_metric(), 24)], ids=lambda x: getattr(x, "label", x))
def test_bracket_encloses_the_dense_eigenvalue(m, n):
    # the radial pencil, the example1 sector and every node of a metric
    # with no symmetry, against a dense eigensolve of (-flux, areas)
    solver = HierarchySolver(make_grid(m, 1.0, n, n))
    ev = solver.hierarchy(pde.LAMBDA1_LEVELS).lambda1()
    lam = eigh(-solver.flux.toarray(), np.diag(solver.areas), eigvals_only=True,
               subset_by_index=[0, 0])[0]
    assert ev.lower <= lam <= ev.power_value <= ev.upper


@pytest.mark.parametrize("plant", ["above-upper", "nan-power", "nan-level"])
def test_grid_eigenvalue_gate_fails_outside_the_bracket(flat, plant):
    solver = HierarchySolver(make_grid(flat, 1.0, 16, 16))
    hier = solver.hierarchy(pde.LAMBDA1_LEVELS)
    upper = hier.lambda1().upper
    if plant == "nan-level":
        levels = hier.levels.copy()
        levels[3, 5] = np.nan
        hier = pde.GridHierarchy(solver, levels, hier.spectrum)
    else:
        planted = 1.01 * upper if plant == "above-upper" else math.nan
        solver.smallest_eigenvalue = lambda: planted
    with pytest.raises(pde.ResolutionError,
                       match=r"^power eigenvalue \S+ outside the bracket \[\S+, \S+\] "
                             r"of levels 4 and 5$"):
        hier.lambda1()


def _nan_where(bad):
    """The plane with w = NaN where bad(r, theta) holds, swapped in after
    the metric audit (which cannot evaluate np.where on jets)."""

    def w(r, t):
        r, t = np.broadcast_arrays(np.asarray(r, float), np.asarray(t, float))
        return np.where(bad(r, t), np.nan, r)

    m = PolarMetric2D(w=lambda r, t: r + 0.0 * t, R_valid=10.0, label="nan-sample")
    object.__setattr__(m, "w", w)
    return m


# 16 x 12 grid of radius 1: dr = 1/16, angular faces at theta = dtheta/2;
# the grid samples its nodes when it is built and its faces when the
# solver assembles the flux matrix
@pytest.mark.parametrize("radius,bad", [
    (0.3125, lambda r, t: r == 0.3125),
    (1.0, lambda r, t: r == 1.0),
    (0.03125, lambda r, t: r == 0.03125),
    (0.34375, lambda r, t: r == 0.34375),
    (0.0625, lambda r, t: t == math.pi / 12),
], ids=["node", "boundary", "center", "radial-face", "angular-face"])
def test_grid_rejects_non_finite_w(radius, bad):
    m = _nan_where(bad)
    with pytest.raises(MetricAuditError, match=f"r = {radius!r},"):
        HierarchySolver(make_grid(m, 1.0, 16, 12))


def _recording_shapes(m):
    """Swap in a w for m that records the shapes of its arguments (of the
    values, for jets), after the metric audit."""
    shapes, w = [], m.w

    def recording(r, t):
        shapes.append(tuple(np.shape(getattr(x, "v", x)) for x in (r, t)))
        return w(r, t)

    object.__setattr__(m, "w", recording)
    return shapes


def test_metric_sampled_on_broadcast_axes_only():
    m = radial_metric(space_form_profile(-1.0))
    shapes = _recording_shapes(m)
    solver = HierarchySolver(make_grid(m, 1.0, 64, 64))
    assert solver.flux.shape == (64, 64)
    hypothesis_report(m, make_space_form(-1.0, 2), 1.0)
    assert shapes
    for r, t in shapes:
        assert r == () or (len(r) == 2 and r[1] == 1), (r, t)
        assert t == () or (len(t) == 2 and t[0] == 1), (r, t)


@pytest.mark.parametrize("m", [builtin_example_metric(),
                               radial_metric(space_form_profile(-1.0))],
                         ids=lambda m: m.label)
def test_grid_samples_w_once(m):
    # the nodes, the r = R ring and the center cell's ring in one call
    shapes = _recording_shapes(m)
    make_grid(m, 1.0, 16, 12)
    assert len(shapes) == 1
    assert shapes[0][0] == (17, 1) and shapes[0][1] == (1, 12)


def _meshgrid_reference(grid):
    """Node, boundary and center areas and the radial and angular
    conductances of a grid, with w sampled on materialized meshes."""
    m, dr, dt = grid.metric, grid.dr, grid.dtheta
    radii, thetas = grid.radii, grid.thetas

    def w(rs, ts):
        return m.w(*np.meshgrid(rs, ts, indexing="ij"))

    return (w(radii[1:-1], thetas) * dr * dt,
            w(np.array([grid.R]), thetas)[0] * (dr / 2) * dt,
            float(np.sum(w(np.array([dr / 2]), thetas)[0]) * dr / 4 * dt),
            w(radii[:-1] + dr / 2, thetas) * (dt / dr),
            dr / dt / w(radii[1:-1], thetas + dt / 2))


@pytest.mark.parametrize("m", [builtin_example_metric(),
                               radial_metric(space_form_profile(-1.0))],
                         ids=lambda m: m.label)
def test_broadcast_samples_match_meshgrid_bit_for_bit(m):
    grid = make_grid(m, 1.0, 64, 48)
    node, boundary, center, c_radial, c_angular = _meshgrid_reference(grid)
    assert np.array_equal(grid.node_area, node)
    assert np.array_equal(grid.boundary_area, boundary)
    assert grid.center_area == center
    got_radial, got_angular = pde._conductances(grid)
    assert np.array_equal(np.broadcast_to(got_radial, c_radial.shape), c_radial)
    assert np.array_equal(np.broadcast_to(got_angular, c_angular.shape), c_angular)
    # a radial grid keeps one column of each; example1 varies along rings
    radial = m.label.startswith("radial")
    assert all(a.shape[1] == 1 for a in (grid._node_area, got_radial, got_angular)) == radial


def test_radial_metric_samples_one_value_per_radius():
    # w of a radial metric keeps r's shape; the grid keeps one column
    m = radial_metric(space_form_profile(-1.0))
    r, t = np.linspace(0.1, 1.0, 5), np.linspace(0.0, 6.0, 7)
    assert m.w(r[:, None], t[None, :]).shape == (5, 1)
    assert m.jet(r[:, None], t[None, :]).r.shape == (5, 7)
    assert make_grid(m, 1.0, 16, 12)._sample_w(r, t).shape == (5, 1)


def test_radial_sample_is_a_writable_column_copy(flat):
    # w(r) = r of the flat disk returns a view of its argument
    grid = make_grid(flat, 1.0, 16, 12)
    radii = grid.radii[1:]
    w = grid._sample_w(radii, grid.thetas)
    assert w.shape == (16, 1) and w.flags.writeable and w.flags.owndata
    assert np.array_equal(w[:, 0], radii) and not np.shares_memory(w, radii)


def test_compact_w_results_give_full_grid_arrays(flat):
    # r * (1 + 0 r) on the axes (r[:, None], t[None, :]) is (k, 1): it does
    # not broadcast to the grid's shape on its own
    m = PolarMetric2D(w=lambda r, t: r * (1.0 + 0.0 * r), R_valid=10.0, label="compact")
    grid, ref = make_grid(m, 1.0, 16, 12), make_grid(flat, 1.0, 16, 12)
    assert grid.node_area.shape == (15, 12) and grid.boundary_area.shape == (12,)
    assert np.array_equal(grid.node_area, ref.node_area)
    assert np.array_equal(grid.boundary_area, ref.boundary_area)
    assert grid.center_area == ref.center_area
    assert ball_area(m, 1.0) == pytest.approx(ball_area(flat, 1.0), rel=1e-14)
    solver, ref_solver = HierarchySolver(grid), HierarchySolver(ref)
    assert solver.flux.shape == (16, 16)
    assert np.array_equal(solver.hierarchy(1).levels, ref_solver.hierarchy(1).levels)
    assert np.max(np.abs(_laplacian(grid, 3.0, np.full((16, 12), 3.0)))) <= 1e-10
    # a non-finite compact sample is named at its first (r, theta) of the
    # full grid in row-major order
    object.__setattr__(m, "w", lambda r, t: np.where(r == 0.3125, np.nan, r))
    with pytest.raises(MetricAuditError, match=r"r = 0\.3125, theta = 0\.0$"):
        make_grid(m, 1.0, 16, 12)


def test_grid_metric_mismatch_rejected(flat_grid):
    ex = builtin_example_metric()
    with pytest.raises(ValueError):
        lambda1_grid(ex, flat_grid)

