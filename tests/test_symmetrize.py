"""Tests for Schwarz symmetrization of grid fields into model spaces."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import simpson

from geoball import symmetrize
from geoball.hierarchy import radial_hierarchy
from geoball.model import ball_radius_from_volume, make_space_form
from geoball.model import euclidean_profile
from geoball.pde import PolarGrid, make_grid
from geoball.surface import ball_area, builtin_example_metric, radial_metric
from geoball.symmetrize import (
    ComparisonPreconditionError,
    LevelSetProfile,
    NegativeFieldError,
    RadialFunction,
    check_equimeasurable,
    integral_identity_check,
    level_profile,
    symmetrize_field,
    symmetrized_profile_comparison,
    transplant_exit_time,
)


@pytest.fixture(scope="module")
def flat():
    return radial_metric(euclidean_profile())


@pytest.fixture(scope="module")
def flat_model():
    return make_space_form(0.0, 2)


def test_symmetrized_radius_euclidean(flat_model):
    assert ball_radius_from_volume(flat_model, math.pi) == pytest.approx(1.0, abs=1e-10)


def test_symmetrized_radius_hyperbolic():
    model = make_space_form(-1.0, 2)
    V = 2 * math.pi * (math.cosh(1.0) - 1.0)
    assert ball_radius_from_volume(model, V) == pytest.approx(1.0, abs=1e-9)


def test_symmetrized_radius_example_exceeds_one(flat_model):
    ex = builtin_example_metric()
    assert ball_radius_from_volume(flat_model, ball_area(ex, 1.0)) > 1.0


def test_level_profile_constant_field(flat, flat_model):
    grid = make_grid(flat, 1.0, 32, 32)
    prof = level_profile(grid, 3.0, np.full(grid.n_r, 3.0))
    assert len(prof.values) == 1
    assert prof.values[0] == 3.0
    assert prof.volumes[0] == pytest.approx(prof.total_volume)
    layer_cake = np.sum(prof.values * np.diff(prof.volumes, prepend=0.0))
    assert layer_cake == pytest.approx(3.0 * prof.total_volume)


def test_level_profile_rejects_negative(flat):
    grid = make_grid(flat, 1.0, 32, 32)
    with pytest.raises(NegativeFieldError):
        level_profile(grid, -0.5, grid.radii[1:] - 0.5)


def test_level_profile_rejects_nan_cells(flat, flat_model):
    # a NaN cell passed a "has a negative value" test, and symmetrize_field
    # then returned NaN for half of its profile without raising
    grid = make_grid(flat, 1.0, 32, 32)
    r = grid.radii[1:]
    with pytest.raises(NegativeFieldError, match="NaN"):
        level_profile(grid, 1.0, np.where(r > 0.5, np.nan, 1.0 - r))


def test_level_profile_merges_runs_of_equal_rings(flat):
    grid = make_grid(flat, 1.0, 4, 8)
    prof = level_profile(grid, 2.0, np.array([2.0, 1.0, 1.0, 0.0]))
    assert np.array_equal(prof.values, [2.0, 1.0, 0.0])
    ring = grid.node_area.sum(axis=1)
    assert prof.volumes == pytest.approx(
        [grid.center_area + ring[0], grid.center_area + ring.sum(), grid.total_area()],
        rel=1e-14, abs=0)


@pytest.mark.parametrize("rings", [np.array([1.0, 2.0, 1.0, 0.0]), np.ones(3),
                                   np.ones((4, 8))], ids=["rise", "short", "2-d"])
def test_level_profile_rejects_a_rise_or_a_wrong_shape(flat, rings):
    with pytest.raises(ValueError, match="decreasing|shape"):
        level_profile(make_grid(flat, 1.0, 4, 8), 2.0, rings)


@pytest.mark.parametrize("values,volumes", [
    ([3.0, np.nan, 1.0], [1.0, 2.0, 3.0]), ([np.nan], [1.0]),
    ([3.0, 2.0, 1.0], [1.0, np.nan, 3.0]), ([1.0], [np.nan])])
def test_level_set_profile_rejects_nan(values, volumes):
    with pytest.raises(ValueError, match="finite"):
        LevelSetProfile(values=np.array(values), volumes=np.array(volumes),
                        total_volume=3.0)


def test_level_profile_exit_time_mu(flat, flat_model):
    # mu(t) = pi*(1 - 4t) for the unit-disk exit time (1 - r^2)/4
    grid = make_grid(flat, 1.0, 128, 128)
    prof = transplant_exit_time(flat_model, grid)
    ts = np.linspace(0.0, 0.24, 25)
    assert np.max(np.abs(prof.mu(ts) - math.pi * (1 - 4 * ts))) < 1e-2 * math.pi


def _cell_sum(grid, model):
    """Area-weighted sum of the model exit time over every cell of grid,
    one cell at a time: the center cell, the nodes of rings 1..n_r-1, and
    the r = R ring's half cells."""
    exit_time = radial_hierarchy(model, grid.R, 1).level(1)
    ring_values = exit_time(grid.radii[1:])
    total = float(exit_time(0.0)) * grid.center_area
    for i in range(grid.n_r):
        ring_areas = grid.node_area[i] if i < grid.n_r - 1 else grid.boundary_area
        for j in range(grid.n_theta):
            total += ring_values[i] * ring_areas[j]
    return total


def test_layer_cake_identity(flat, flat_model):
    grid = make_grid(flat, 1.0, 64, 64)
    prof = transplant_exit_time(flat_model, grid)
    # each level value times the area of the cells that take it
    layer_cake = np.sum(prof.values * np.diff(prof.volumes, prepend=0.0))
    cells = _cell_sum(grid, flat_model)
    assert layer_cake == pytest.approx(cells, rel=1e-12)
    lhs, _ = integral_identity_check(prof, symmetrize_field(prof, flat_model), flat_model)
    assert lhs == pytest.approx(cells, rel=1e-12)


def test_symmetrize_self_case(flat, flat_model):
    grid = make_grid(flat, 1.0, 128, 128)
    fstar = symmetrize_field(transplant_exit_time(flat_model, grid), flat_model)
    rho = np.linspace(0.0, 0.99, 50)
    assert np.max(np.abs(fstar(rho) - (1 - rho**2) / 4)) < 1e-3
    assert np.all(np.diff(fstar.values) <= 1e-15)


def test_symmetrize_example_structure(flat_model):
    ex = builtin_example_metric()
    grid = make_grid(ex, 1.0, 128, 128)
    fstar = symmetrize_field(transplant_exit_time(flat_model, grid), flat_model)
    assert np.all(np.diff(fstar.values) <= 1e-15)
    assert fstar.values[-1] == pytest.approx(0.0, abs=1e-12)
    assert fstar.radius > 1.0  # symmetrized ball is larger than the disk


@pytest.mark.parametrize("metric", [radial_metric(euclidean_profile()),
                                    builtin_example_metric()], ids=["flat", "example1"])
def test_symmetrized_radius_is_that_of_the_field_grid(metric, flat_model):
    # the rearrangement reads the disk area from the field's own grid
    grid = make_grid(metric, 1.0, 64, 64)
    fstar = symmetrize_field(transplant_exit_time(flat_model, grid), flat_model)
    assert fstar.radius == pytest.approx(
        ball_radius_from_volume(flat_model, grid.total_area()), rel=1e-13, abs=0)


@pytest.mark.parametrize("metric", [radial_metric(euclidean_profile()),
                                    builtin_example_metric()], ids=["flat", "example1"])
def test_symmetrized_profile_stays_nonnegative_and_nonincreasing(metric, flat_model):
    # f* is built piecewise linear and is evaluated that way between its
    # nodes; a cubic spline through the same samples dipped to -6.7e-5 (flat)
    grid = make_grid(metric, 1.0, 128, 128)
    fstar = symmetrize_field(transplant_exit_time(flat_model, grid), flat_model)
    values = fstar(np.linspace(0.0, fstar.radius, 200_001))
    assert values.min() >= 0.0
    assert np.all(np.diff(values) <= 0.0)


def test_equimeasurability_halves_under_refinement(flat, flat_model):
    devs = []
    for n in (128, 256):
        grid = make_grid(flat, 1.0, n, n)
        prof = transplant_exit_time(flat_model, grid)
        devs.append(check_equimeasurable(prof, symmetrize_field(prof, flat_model),
                                         flat_model))
    assert devs[0] <= 1e-2
    assert devs[1] <= 0.6 * devs[0]


def test_transplant_oracle(flat, flat_model):
    grid = make_grid(flat, 1.0, 128, 128)
    prof = transplant_exit_time(flat_model, grid)
    # one level per ring and the center: the exit time falls ring by ring
    assert len(prof.values) == grid.n_r + 1
    i = np.argmin(np.abs(grid.radii[1:] - 0.5))
    assert prof.values[1 + i] == pytest.approx(0.1875, abs=1e-6)
    assert prof.values[-1] == 0.0


def _integral_identity(m, model):
    grid = make_grid(m, 1.0, 128, 128)
    prof = transplant_exit_time(model, grid)
    return integral_identity_check(prof, symmetrize_field(prof, model), model)


def test_integral_identity_self_case(flat, flat_model):
    lhs, rhs = _integral_identity(flat, flat_model)
    assert lhs == pytest.approx(math.pi / 8, rel=1e-3)
    assert rhs == pytest.approx(math.pi / 8, rel=1e-3)


def test_integral_identity_example(flat_model):
    ex = builtin_example_metric()
    lhs, rhs = _integral_identity(ex, flat_model)
    assert rhs == pytest.approx(lhs, rel=1e-2)


def test_integral_identity_rejects_a_nonuniform_profile_grid(flat, flat_model):
    # Simpson's rule at the first spacing read 8.2e-4 here, where the
    # model-side integral of 1 - r over the unit disk is pi/3
    rho = np.linspace(0.0, 1.0, 1025) ** 2
    fstar = RadialFunction(grid=rho, values=1.0 - rho)
    grid = make_grid(flat, 1.0, 16, 12)
    prof = level_profile(grid, 1.0, 1.0 - grid.radii[1:])
    with pytest.raises(ValueError, match="uniformly spaced"):
        integral_identity_check(prof, fstar, flat_model)


def test_integral_identity_rejects_a_nan_profile_grid(flat, flat_model):
    # integral_identity_check reads only fstar's grid and values, so a
    # stand-in carries the NaN grid that RadialFunction refuses
    rho = np.linspace(0.0, 1.0, 1025)
    rho[512] = np.nan
    fstar = SimpleNamespace(grid=rho, values=1.0 - rho)
    grid = make_grid(flat, 1.0, 16, 12)
    prof = level_profile(grid, 1.0, 1.0 - grid.radii[1:])
    with pytest.raises(ValueError, match="uniformly spaced"):
        integral_identity_check(prof, fstar, flat_model)


@pytest.mark.parametrize("b,n", [(0.0, 2), (-1.0, 3), (1.0, 2)])
def test_integral_identity_of_a_symmetrized_profile_is_simpsons_rule(b, n):
    # the uniform grids of symmetrize_field pass the spacing check, and the
    # model side stays Simpson's rule on them, bit for bit
    model = make_space_form(b, n)
    grid = make_grid(builtin_example_metric(), 0.8, 32, 16)
    prof = transplant_exit_time(model, grid)
    fstar = symmetrize_field(prof, model)
    wn = model.warping.w(fstar.grid) ** (model.dim - 1)
    rhs = model.sphere_constant * float(
        simpson(fstar.values * wn, dx=fstar.grid[1] - fstar.grid[0]))
    lhs, got_rhs = integral_identity_check(prof, fstar, model)
    assert got_rhs == rhs
    assert lhs == pytest.approx(_cell_sum(grid, model), rel=1e-12)


@pytest.mark.parametrize("n", [3, 17, 1025])
def test_simpson_rule_bit_for_bit_as_scipy(n):
    x = np.linspace(0.0, 1.3, n)
    dx = x[1] - x[0]
    for y in (np.exp(-x) * np.sin(7 * x), x**3, np.ones(n), np.full(n, -2.5)):
        assert symmetrize._simpson(y, dx) == simpson(y, dx=dx)


def test_simpson_rule_rejects_an_even_sample_count():
    with pytest.raises(ValueError, match="odd"):
        symmetrize._simpson(np.ones(16), 0.1)


def test_profile_comparison_self_case(flat, flat_model):
    rep = symmetrized_profile_comparison(flat, flat_model, 1.0)
    assert rep.direction == "equal"
    assert rep.s_R == pytest.approx(1.0, abs=1e-6)
    assert abs(rep.min_margin) <= 1e-3


def test_profile_comparison_example(flat_model):
    ex = builtin_example_metric()
    rep = symmetrized_profile_comparison(ex, flat_model, 1.0)
    assert rep.direction == "model<=M"
    assert rep.s_R > 1.0
    # the inequality is true, and both profiles vanish at s(R)
    assert rep.min_margin >= 0.0
    rep_half = symmetrized_profile_comparison(ex, flat_model, 0.5)
    assert rep_half.min_margin >= 0.0


def test_profile_comparison_rejects_mixed_hypothesis():
    from geoball.surface import perturbed_flat_metric

    m = perturbed_flat_metric(0.2, 2)
    model = make_space_form(-1.0, 2)
    with pytest.raises(ComparisonPreconditionError):
        symmetrized_profile_comparison(m, model, 2.0)


def test_symmetrization_idempotent(flat, flat_model):
    grid = make_grid(flat, 1.0, 128, 128)
    fstar = symmetrize_field(transplant_exit_time(flat_model, grid), flat_model)
    # wrap f* back onto a radial grid and symmetrize again
    grid2 = PolarGrid(metric=flat, R=fstar.radius, n_r=128, n_theta=128)
    prof2 = level_profile(grid2, max(float(fstar(0.0)), 0.0),
                          np.maximum(fstar(grid2.radii[1:]), 0.0))
    fstar2 = symmetrize_field(prof2, flat_model)
    rho = np.linspace(0.0, fstar.radius * 0.98, 64)
    assert np.max(np.abs(fstar2(rho) - fstar(rho))) < 2e-3
