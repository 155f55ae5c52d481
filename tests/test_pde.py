"""Tests for the polar-grid Laplacian, hierarchy solver and eigenvalues."""

import gc
import math
import weakref

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.sparse.linalg import splu

from geoball.hierarchy import radial_hierarchy
from geoball import pde, verify
from geoball.model import euclidean_profile, make_space_form, space_form_profile
from geoball.pde import (
    GridField,
    HierarchySolver,
    apply_laplacian,
    field_from_function,
    lambda1_grid,
    make_grid,
)
from geoball.surface import (
    MetricAuditError,
    PolarMetric2D,
    ball_area,
    builtin_example_metric,
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


def test_grid_requires_even_theta(flat):
    with pytest.raises(ValueError):
        make_grid(flat, 1.0, 32, 31)


@pytest.mark.parametrize("n_theta", [0, -2])
def test_grid_requires_two_or_more_angles(flat, n_theta):
    # even, so the parity check alone let them through: 0 divided by zero
    # and -2 gave an empty grid of zero area
    with pytest.raises(ValueError, match="n_theta"):
        make_grid(flat, 1.0, 16, n_theta)


def _face_weights(grid):
    """w at the radial faces (i+1/2) and the angular faces (j+1/2)."""
    radii, thetas = grid.radii, grid.thetas
    return (grid._sample_w(radii[:-1] + grid.dr / 2, thetas),
            grid._sample_w(radii[1:-1], thetas + grid.dtheta / 2))


def _expanded_laplacian(f):
    """The reference for apply_laplacian: central differences of the
    coordinate form f_rr + (w_r/w) f_r + f_tt/w^2 - (w_t/w^3) f_t on the
    interior rings, and the flux balance of the center cell; the boundary
    ring of the result is zeroed."""
    grid = f.grid
    m, dr, dt = grid.metric, grid.dr, grid.dtheta
    ntheta = grid.n_theta
    vals = f.rings  # (n_r, n_theta)
    rr, tt = np.meshgrid(grid.radii[1:-1], grid.thetas, indexing="ij")
    w = m.w(rr, tt)
    # rows 0..n_r-2 of `interior` are interior rings 1..n_r-1
    below = np.vstack([np.full((1, ntheta), f.center), vals[:-2]])
    above = vals[1:]
    here = vals[:-1]
    f_r = (above - below) / (2 * dr)
    f_rr = (above - 2 * here + below) / dr**2
    f_t = (np.roll(here, -1, axis=1) - np.roll(here, 1, axis=1)) / (2 * dt)
    f_tt = (np.roll(here, -1, axis=1) - 2 * here + np.roll(here, 1, axis=1)) / dt**2
    interior = (
        f_rr
        + m.w_r(rr, tt) / w * f_r
        + f_tt / w**2
        - m.w_t(rr, tt) / w**3 * f_t
    )
    w_face_r, _ = _face_weights(grid)
    center = float(
        np.sum(w_face_r[0] * (vals[0] - f.center)) * dt / dr / grid.center_area
    )
    rings = np.vstack([interior, np.zeros((1, ntheta))])
    return GridField(grid=grid, center=center, rings=rings)


def test_laplacian_of_r_squared(flat_grid):
    f = field_from_function(flat_grid, lambda r, t: np.asarray(r) ** 2
                            + 0.0 * np.asarray(t))
    for laplacian in (apply_laplacian, _expanded_laplacian):
        lap = laplacian(f)
        assert np.max(np.abs(lap.rings[:-1] - 4.0)) < 1e-10
        assert lap.center == pytest.approx(4.0, abs=1e-10)


def test_laplacian_of_harmonic_polynomial(flat_grid):
    f = field_from_function(
        flat_grid, lambda r, t: np.asarray(r) ** 2 * np.cos(2 * np.asarray(t))
    )
    lap = apply_laplacian(f)
    assert np.max(np.abs(lap.rings[:-1])) < 5e-3
    assert abs(lap.center) < 1e-12


def test_laplacian_forms_agree(flat_grid):
    f = field_from_function(
        flat_grid,
        lambda r, t: np.sin(np.asarray(r) * np.cos(np.asarray(t)))
        * np.cos(np.asarray(r) * np.sin(np.asarray(t))),
    )
    a = apply_laplacian(f)
    b = _expanded_laplacian(f)
    assert np.max(np.abs(a.rings[:-1] - b.rings[:-1])) < 5e-3


def test_laplacian_of_transplanted_exit_time_hyperbolic():
    from geoball.symmetrize import transplant_exit_time

    model = make_space_form(-1.0, 2)
    m = radial_metric(space_form_profile(-1.0))
    grid = make_grid(m, 1.0, 128, 128)
    f = transplant_exit_time(model, grid)
    lap = apply_laplacian(f)
    assert np.max(np.abs(lap.rings[:-1] + 1.0)) < 1e-3
    assert lap.center == pytest.approx(-1.0, abs=1e-3)


def test_laplacian_convergence_order(flat):
    def f(r, t):
        r, t = np.asarray(r, float), np.asarray(t, float)
        return np.sin(r * np.cos(t)) * np.cos(r * np.sin(t))

    errs = []
    for n in (64, 128):
        g = make_grid(flat, 1.0, n, n)
        lap = apply_laplacian(field_from_function(g, f))
        rr, tt = np.meshgrid(g.radii[1:-1], g.thetas, indexing="ij")
        e2 = (lap.rings[:-1] + 2 * f(rr, tt)) ** 2
        errs.append(math.sqrt(np.sum(e2 * g.node_area) / np.sum(g.node_area)))
    order = math.log2(errs[0] / errs[1])
    assert order >= 1.8


def test_hierarchy_center_oracles(flat_grid):
    solver = HierarchySolver(flat_grid)
    fields = [solver.field(v) for v in solver.hierarchy(2)]
    assert fields[0].center == pytest.approx(0.25, abs=1e-3)
    assert fields[1].center == pytest.approx(3 / 32 / 2, abs=1e-3)


def test_hierarchy_nonnegative_interior_max(flat_grid):
    solver = HierarchySolver(flat_grid)
    for v in map(solver.field, solver.hierarchy(3)):
        assert v.center >= 0
        assert np.all(v.rings >= -1e-14)
        # max away from the boundary
        assert max(v.center, np.max(v.rings)) > np.max(v.rings[-2])


def test_hierarchy_matches_radial_route():
    model = make_space_form(-1.0, 2)
    m = radial_metric(space_form_profile(-1.0))
    grid = make_grid(m, 1.0, 128, 128)
    solver = HierarchySolver(grid)
    fields = [solver.field(v) for v in solver.hierarchy(5)]
    hier = radial_hierarchy(model, 1.0, 5)
    for k in range(1, 6):
        ref = hier.level(k)(grid.radii[1:])[:, None]
        err = max(
            float(np.max(np.abs(ref - fields[k - 1].rings))),
            abs(float(hier.level(k)(0.0)) - fields[k - 1].center),
        )
        assert err < 1e-3


def test_moments_grid_oracles(flat_grid):
    solver = HierarchySolver(flat_grid)
    spec = solver.moments(solver.hierarchy(2))
    assert spec.normalized[0] == pytest.approx(math.pi, rel=1e-3)
    assert spec.moment(1) == pytest.approx(math.pi / 8, rel=1e-3)
    assert spec.moment(2) == pytest.approx(math.pi / 24, rel=1e-3)


# two radial metrics (a level holds one value per ring) and a non-radial
# one (one value per node)
LEVEL_METRICS = pytest.mark.parametrize(
    "m", [radial_metric(euclidean_profile()), radial_metric(space_form_profile(-1.0)),
          builtin_example_metric()], ids=["flat", "hyperbolic", "example1"])


def _field_reference(grid, x):
    """A solver vector x as a GridField, node by node: x[0] at the center,
    x[1 + i] (one value per ring) or x[1 + i * n_theta + j] (one per node)
    at node j of ring i + 1, and zero on the Dirichlet ring."""
    per_ring = len(x) == grid.n_r
    rings = np.zeros((grid.n_r, grid.n_theta))
    for i in range(grid.n_r - 1):
        for j in range(grid.n_theta):
            rings[i, j] = x[1 + i] if per_ring else x[1 + i * grid.n_theta + j]
    return GridField(grid=grid, center=float(x[0]), rings=rings)


@LEVEL_METRICS
def test_level_moments_are_the_expanded_fields_integrals(m):
    solver = HierarchySolver(make_grid(m, 1.0, 64, 64))
    levels = solver.hierarchy(pde.LAMBDA1_LEVELS)
    spec = solver.moments(levels)
    assert spec.normalized[0] == solver.grid.total_area()
    integrals = np.array([solver.field(v).integral() for v in levels])
    assert np.all(np.abs(spec.normalized[1:] - integrals) <= 1e-14 * integrals)


@LEVEL_METRICS
def test_level_field_is_the_node_by_node_expansion(m):
    solver = HierarchySolver(make_grid(m, 1.0, 64, 64))
    for v in solver.hierarchy(3):
        f, ref = solver.field(v), _field_reference(solver.grid, v)
        assert f.center == ref.center
        assert np.array_equal(f.rings, ref.rings)


@pytest.mark.parametrize("curvature", [0.0, -1.0])
def test_lambda1_grid_on_a_radial_grid_builds_no_field(curvature, monkeypatch):
    grid = make_grid(radial_metric(space_form_profile(curvature)), 1.0, 64, 64)
    built = []
    init = GridField.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GridField, "__init__", counted)
    lambda1_grid(grid.metric, grid)
    assert built == []
    HierarchySolver(grid).field(np.zeros(grid.n_r))  # the counter counts
    assert built == [1]


def test_self_adjointness(flat_grid):
    solver = HierarchySolver(flat_grid)
    rng = np.random.default_rng(11)
    x = rng.standard_normal(len(solver.areas))
    y = rng.standard_normal(len(solver.areas))
    lx = solver.flux @ x / solver.areas
    ly = solver.flux @ y / solver.areas
    lhs = float(np.sum(lx * y * solver.areas))
    rhs = float(np.sum(x * ly * solver.areas))
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
    grid = make_grid(builtin_example_metric(), 1.0, 16, 12)
    flux = HierarchySolver(grid).flux
    ref = _loop_flux(grid)
    assert np.all(np.abs(flux.toarray() - ref) <= 1e-14 * np.abs(ref))
    assert (flux != flux.T).nnz == 0


def _expand(grid, x):
    """P x: the ring values x (center first) repeated along theta."""
    return np.concatenate([x[:1], np.repeat(x[1:], grid.n_theta)])


class _FullPencilSolver(HierarchySolver):
    """HierarchySolver on the full 2-D pencil of its grid: the flux matrix
    over every node and the cell areas, factored by the general route's
    sparse LU, whatever the grid's symmetry.  Inverse power iteration
    starts from P x_0, the expansion of the radial solver's start vector,
    so on a radial grid both iterate the same sequence in exact
    arithmetic."""

    def __init__(self, grid):
        c_radial, c_angular = pde._conductances(grid)
        self.grid = grid
        self.flux = pde._assemble_flux(c_radial, c_angular)
        self.areas = pde._unknown_areas(grid)
        self._flux_norm = float(np.max(np.abs(self.flux).sum(axis=1)))
        self._lu = splu(self.flux, permc_spec="MMD_AT_PLUS_A")

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


def _rel_err(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("curvature", [0.0, -1.0, 1.0])
@pytest.mark.parametrize("n_r,n_theta", [(4, 2), (17, 12), (64, 64)])
def test_fourier_route_matches_sparse_lu(curvature, n_r, n_theta):
    grid = make_grid(radial_metric(space_form_profile(curvature)), 1.0, n_r, n_theta)
    solver = HierarchySolver(grid)
    assert solver._lu.shape == solver.flux.shape == (n_r, n_r)
    ref = _FullPencilSolver(grid)
    assert ref.flux.shape == (1 + (n_r - 1) * n_theta,) * 2
    for v, v_ref in zip(map(solver.field, solver.hierarchy(24)),
                        map(ref.field, ref.hierarchy(24))):
        assert _rel_err(np.append(v.rings, v.center),
                        np.append(v_ref.rings, v_ref.center)) <= 1e-10
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
    c_radial, c_angular = pde._conductances(grid)
    assert pde._theta_independent(c_radial, c_angular)
    assert not pde._theta_independent(grid.node_area)
    assert solver._lu.shape == solver.flux.shape
    ref = HierarchySolver(make_grid(radial_metric(euclidean_profile()), 1.0, 16, 12))
    for v, v_ref in zip(map(solver.field, solver.hierarchy(3)),
                        map(ref.field, ref.hierarchy(3))):
        assert _rel_err(v.rings, v_ref.rings) <= 1e-10


def test_fourier_route_only_for_theta_independent_grids(flat):
    radial = HierarchySolver(make_grid(flat, 1.0, 16, 12))
    assert radial._lu.shape == radial.flux.shape == (16, 16)
    for m in (builtin_example_metric(), _almost_flat_metric()):
        solver = HierarchySolver(make_grid(m, 1.0, 16, 12))
        assert solver._lu.shape == solver.flux.shape


class _CountingFactor:
    """A sparse LU factor that counts its solves."""

    def __init__(self, lu):
        self.lu, self.solves = lu, 0

    def __getattr__(self, name):
        return getattr(self.lu, name)

    def solve(self, rhs):
        self.solves += 1
        return self.lu.solve(rhs)


def _counting_solver(monkeypatch, grid):
    """HierarchySolver(grid) whose factors count their solves, and the
    factors it made."""
    factors = []

    def counting_splu(*args, **kwargs):
        factors.append(_CountingFactor(splu(*args, **kwargs)))
        return factors[-1]

    monkeypatch.setattr(pde, "splu", counting_splu)
    solver = HierarchySolver(grid)
    assert solver._lu is factors[0]
    return solver, factors


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


@pytest.mark.parametrize("curvature", [0.0, -1.0])
def test_radial_hierarchy_solves_mode0_only(curvature, monkeypatch):
    m = radial_metric(space_form_profile(curvature))
    solver, (mode0,) = _counting_solver(monkeypatch, make_grid(m, 1.0, 32, 32))
    solver.hierarchy(pde.LAMBDA1_LEVELS)
    assert mode0.solves == pde.LAMBDA1_LEVELS
    # inverse power iteration solves with the same n_r x n_r factor
    solver.smallest_eigenvalue()
    assert mode0.solves > pde.LAMBDA1_LEVELS


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


def test_fourier_route_report_matches_sparse_lu(flat, monkeypatch):
    model = make_space_form(0.0, 2)
    fast = run_verification(flat, model, 1.0, n_r=64, n_theta=64)
    monkeypatch.setattr(verify, "HierarchySolver", _FullPencilSolver)
    general = run_verification(flat, model, 1.0, n_r=64, n_theta=64)
    assert len(fast.entries) == len(general.entries)
    for e, g in zip(fast.entries, general.entries):
        assert (e.name, e.inequality, e.passed) == (g.name, g.inequality, g.passed)
        for x, y in ((e.lhs, g.lhs), (e.rhs, g.rhs), (e.margin, g.margin)):
            assert x == pytest.approx(y, rel=1e-10, abs=1e-12)


def test_lambda1_grid_disk(flat, flat_grid):
    est = lambda1_grid(flat, flat_grid)
    assert est.moment_value == pytest.approx(J01SQ, rel=0.02)
    assert est.power_value == pytest.approx(J01SQ, rel=0.02)
    assert est.moment_value == pytest.approx(est.power_value, rel=0.02)


def test_lambda1_grid_scaling(flat):
    grid = make_grid(flat, 2.0, 128, 128)
    est = lambda1_grid(flat, grid)
    assert est.power_value == pytest.approx(J01SQ / 4, rel=0.02)


def test_lambda1_from_solver_rejects_fields_of_another_grid(flat):
    # a level is one value per unknown of its solver's pencil: 32 on the
    # radial grid, 1 + 31 * 32 on the example metric's, 48 on the finer one
    solver = HierarchySolver(make_grid(flat, 1.0, 32, 32))
    levels = solver.hierarchy(pde.LAMBDA1_LEVELS)
    for m, n_r in ((builtin_example_metric(), 32), (flat, 48)):
        other = HierarchySolver(make_grid(m, 1.0, n_r, 32))
        with pytest.raises(ValueError, match="another grid"):
            pde.lambda1_from_solver(solver, other.hierarchy(pde.LAMBDA1_LEVELS))
    # one level, not a block of them
    with pytest.raises(ValueError, match="another grid"):
        pde.lambda1_from_solver(solver, levels[0])
    assert pde.lambda1_from_solver(solver, levels).power_value > 0


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


def test_grid_metric_mismatch_rejected(flat_grid):
    ex = builtin_example_metric()
    with pytest.raises(ValueError):
        lambda1_grid(ex, flat_grid)


def test_gridfield_shape_checked(flat_grid):
    with pytest.raises(ValueError):
        GridField(grid=flat_grid, center=0.0, rings=np.zeros((3, 3)))
