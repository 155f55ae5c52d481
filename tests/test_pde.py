"""Tests for the polar-grid Laplacian, hierarchy solver and eigenvalues."""

import copy
import gc
import math
import weakref

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from geoball.hierarchy import radial_hierarchy
from geoball import pde
from geoball.model import euclidean_profile, make_space_form, space_form_profile
from geoball.pde import (
    GridField,
    HierarchySolver,
    PolarGrid,
    apply_laplacian,
    field_from_function,
    lambda1_grid,
    make_grid,
    moments_grid,
)
from geoball.surface import (
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


def test_laplacian_of_r_squared(flat_grid):
    f = field_from_function(flat_grid, lambda r, t: np.asarray(r) ** 2
                            + 0.0 * np.asarray(t))
    for form in ("divergence", "expanded"):
        lap = apply_laplacian(f, form)
        assert np.max(np.abs(lap.rings[:-1] - 4.0)) < 1e-10
        assert lap.center == pytest.approx(4.0, abs=1e-10)


def test_laplacian_of_harmonic_polynomial(flat_grid):
    f = field_from_function(
        flat_grid, lambda r, t: np.asarray(r) ** 2 * np.cos(2 * np.asarray(t))
    )
    lap = apply_laplacian(f, "divergence")
    assert np.max(np.abs(lap.rings[:-1])) < 5e-3
    assert abs(lap.center) < 1e-12


def test_laplacian_forms_agree(flat_grid):
    f = field_from_function(
        flat_grid,
        lambda r, t: np.sin(np.asarray(r) * np.cos(np.asarray(t)))
        * np.cos(np.asarray(r) * np.sin(np.asarray(t))),
    )
    a = apply_laplacian(f, "divergence")
    b = apply_laplacian(f, "expanded")
    assert np.max(np.abs(a.rings[:-1] - b.rings[:-1])) < 5e-3


def test_laplacian_of_transplanted_exit_time_hyperbolic():
    from geoball.symmetrize import transplant_exit_time

    model = make_space_form(-1.0, 2)
    m = radial_metric(space_form_profile(-1.0))
    grid = make_grid(m, 1.0, 128, 128)
    f = transplant_exit_time(model, grid)
    lap = apply_laplacian(f, "divergence")
    assert np.max(np.abs(lap.rings[:-1] + 1.0)) < 1e-3
    assert lap.center == pytest.approx(-1.0, abs=1e-3)


def test_laplacian_convergence_order(flat):
    def f(r, t):
        r, t = np.asarray(r, float), np.asarray(t, float)
        return np.sin(r * np.cos(t)) * np.cos(r * np.sin(t))

    errs = []
    for n in (64, 128):
        g = make_grid(flat, 1.0, n, n)
        lap = apply_laplacian(field_from_function(g, f), "divergence")
        rr, tt = np.meshgrid(g.radii[1:-1], g.thetas, indexing="ij")
        e2 = (lap.rings[:-1] + 2 * f(rr, tt)) ** 2
        errs.append(math.sqrt(np.sum(e2 * g.node_area) / np.sum(g.node_area)))
    order = math.log2(errs[0] / errs[1])
    assert order >= 1.8


def test_hierarchy_center_oracles(flat_grid):
    fields = HierarchySolver(flat_grid).hierarchy(2)
    assert fields[0].center == pytest.approx(0.25, abs=1e-3)
    assert fields[1].center == pytest.approx(3 / 32 / 2, abs=1e-3)


def test_hierarchy_nonnegative_interior_max(flat_grid):
    for v in HierarchySolver(flat_grid).hierarchy(3):
        assert v.center >= 0
        assert np.all(v.rings >= -1e-14)
        assert v.max_abs() > np.max(v.rings[-2])  # max away from the boundary


def test_hierarchy_matches_radial_route():
    model = make_space_form(-1.0, 2)
    m = radial_metric(space_form_profile(-1.0))
    grid = make_grid(m, 1.0, 128, 128)
    fields = HierarchySolver(grid).hierarchy(5)
    hier = radial_hierarchy(model, 1.0, 5)
    for k in range(1, 6):
        ref = hier.level(k)(grid.radii[1:])[:, None]
        err = max(
            float(np.max(np.abs(ref - fields[k - 1].rings))),
            abs(float(hier.level(k)(0.0)) - fields[k - 1].center),
        )
        assert err < 1e-3


def test_moments_grid_oracles(flat_grid):
    spec = moments_grid(HierarchySolver(flat_grid).hierarchy(2))
    assert spec.normalized[0] == pytest.approx(math.pi, rel=1e-3)
    assert spec.moment(1) == pytest.approx(math.pi / 8, rel=1e-3)
    assert spec.moment(2) == pytest.approx(math.pi / 24, rel=1e-3)


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
    w_face_r, w_face_t = pde._face_weights(grid)
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


def _splu_reference(solver):
    """The same solver, with every flux solve done by a sparse LU of its
    flux matrix."""
    ref = copy.copy(solver)
    ref._flux_solve = splu(solver.flux, permc_spec="MMD_AT_PLUS_A").solve
    return ref


def _rel_err(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("curvature", [0.0, -1.0, 1.0])
@pytest.mark.parametrize("n_r,n_theta", [(4, 2), (17, 12), (64, 64)])
def test_fourier_route_matches_sparse_lu(curvature, n_r, n_theta):
    m = radial_metric(space_form_profile(curvature))
    solver = HierarchySolver(make_grid(m, 1.0, n_r, n_theta))
    assert solver._lu.shape == (1 + (n_theta // 2 + 1) * (n_r - 1),) * 2
    ref = _splu_reference(solver)
    rhs = np.random.default_rng(3).standard_normal(len(solver.areas))
    assert _rel_err(solver.solve_poisson(rhs), ref.solve_poisson(rhs)) <= 1e-12
    for v, v_ref in zip(solver.hierarchy(24), ref.hierarchy(24)):
        assert _rel_err(np.append(v.rings, v.center),
                        np.append(v_ref.rings, v_ref.center)) <= 1e-10
    assert solver.smallest_eigenvalue() == pytest.approx(
        ref.smallest_eigenvalue(), rel=1e-10)


def _almost_flat_metric():
    """The plane with w perturbed by 1e-15 * r * sin(theta): a few ulps."""

    def w(r, t):
        return np.asarray(r, float) * (1.0 + 1e-15 * np.sin(t))

    def w_r(r, t):
        return np.ones_like(np.asarray(r, float)) + 1e-15 * np.sin(t)

    def w_rr(r, t):
        return np.zeros(np.broadcast(np.asarray(r), np.asarray(t)).shape)

    def w_t(r, t):
        return 1e-15 * np.asarray(r, float) * np.cos(t)

    return PolarMetric2D(w=w, w_r=w_r, w_rr=w_rr, w_t=w_t, R_valid=10.0,
                         label="almost-flat")


def test_fourier_route_only_for_theta_independent_grids(flat):
    radial = HierarchySolver(make_grid(flat, 1.0, 16, 12))
    assert radial._lu.shape == (1 + 7 * 15,) * 2
    for m in (builtin_example_metric(), _almost_flat_metric()):
        solver = HierarchySolver(make_grid(m, 1.0, 16, 12))
        assert solver._lu.shape == solver.flux.shape


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
    monkeypatch.setattr(pde, "_theta_independent", lambda *conductances: False)
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


def test_grid_metric_mismatch_rejected(flat_grid):
    ex = builtin_example_metric()
    with pytest.raises(ValueError):
        lambda1_grid(ex, flat_grid)


def test_gridfield_shape_checked(flat_grid):
    with pytest.raises(ValueError):
        GridField(grid=flat_grid, center=0.0, rings=np.zeros((3, 3)))
