"""Schwarz symmetrization of grid fields into model spaces.

A field on a geodesic disk is rearranged into a radial non-increasing
function on a model ball of equal volume; level-set volumes are preserved
by construction, which is what the comparison statements consume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hierarchy import RadialFunction, radial_hierarchy
from .model import ModelSpace, ball_radius_from_volume, ball_volume_model, balance_check
from .pde import GridField, PolarGrid
from .quadrature import simpson_uniform
from .surface import PolarMetric2D, ball_area, hypothesis_report

PROFILE_NODES = 1025
VOLUME_TABLE_NODES = 8193
# levels at which check_equimeasurable compares the two distributions
EQUIMEASURABLE_LEVELS = 128
# grid of the transplanted exit time in symmetrized_profile_comparison
COMPARISON_N_R = COMPARISON_N_THETA = 128


class ComparisonPreconditionError(RuntimeError):
    """A comparison statement was requested outside its hypotheses."""


class NegativeFieldError(ValueError):
    """Symmetrization requires a nonnegative field."""


@dataclass(frozen=True)
class LevelSetProfile:
    """Superlevel-set volumes of a grid field.

    values is strictly decreasing (ties are merged into one step) and
    volumes[m] is the total cell area where the field is >= values[m].
    """

    values: np.ndarray
    volumes: np.ndarray
    total_volume: float

    def __post_init__(self) -> None:
        if np.any(np.diff(self.values) >= 0):
            raise ValueError("level values must be strictly decreasing")
        if np.any(np.diff(self.volumes) <= 0):
            raise ValueError("cumulative volumes must be strictly increasing")

    @property
    def top(self) -> float:
        return float(self.values[0])

    def mu(self, t) -> np.ndarray:
        """Vol{f >= t}; zero above the top value, total volume at t <= min."""
        t = np.asarray(t, dtype=float)
        # values are descending; count steps with value >= t
        idx = np.searchsorted(-self.values, -t, side="right")
        vols = np.concatenate([[0.0], self.volumes])
        return vols[idx]

    def integral(self) -> float:
        """Layer-cake integral of the field, exact for the discrete measure."""
        incr = np.diff(np.concatenate([[0.0], self.volumes]))
        return float(np.sum(self.values * incr))


def _cell_values_and_areas(f: GridField):
    grid = f.grid
    vals = np.concatenate([[f.center], f.rings.reshape(-1)])
    areas = np.concatenate(
        [[grid.center_area], grid.node_area.reshape(-1), grid.boundary_area]
    )
    return vals, areas


def level_profile(f: GridField) -> LevelSetProfile:
    """Sort the cells of f's grid by value and accumulate their areas into
    superlevel volumes."""
    vals, areas = _cell_values_and_areas(f)
    if np.any(vals < 0):
        raise NegativeFieldError("field has negative values")
    order = np.argsort(-vals, kind="stable")
    v_sorted = vals[order]
    a_sorted = areas[order]
    uniq, start = np.unique(-v_sorted, return_index=True)
    # cumulative area through the end of each tie group
    cum = np.cumsum(a_sorted)
    ends = np.concatenate([start[1:], [len(v_sorted)]]) - 1
    return LevelSetProfile(
        values=-uniq, volumes=cum[ends], total_volume=float(cum[-1])
    )


def symmetrize_field(prof: LevelSetProfile, model: ModelSpace) -> RadialFunction:
    """Radial non-increasing rearrangement into the model space of the
    field whose level-set profile is prof (``level_profile(f)``).

    The step profile (level value, symmetrized radius) is resampled with
    linear interpolation onto a uniform radial grid reaching the radius of
    the equal-volume model ball.
    """
    s_total = ball_radius_from_volume(model, prof.total_volume)
    table_r = np.linspace(0.0, s_total, VOLUME_TABLE_NODES)
    vol_of = ball_volume_model(model, table_r)
    # place each level at the midpoint of its volume span: a cell's value
    # represents its whole cell, so the centered radius is second-order
    # accurate where the naive cumulative endpoint is only first-order
    increments = np.diff(np.concatenate([[0.0], prof.volumes]))
    mid_volumes = prof.volumes - 0.5 * increments
    radii = np.interp(mid_volumes, vol_of, table_r)
    knots_r = np.concatenate([[0.0], radii, [s_total]])
    knots_v = np.concatenate([[prof.top], prof.values, [prof.values[-1]]])
    rho = np.linspace(0.0, s_total, PROFILE_NODES)
    vals = np.interp(rho, knots_r, knots_v)
    # enforce monotonicity against interpolation roundoff
    vals = np.minimum.accumulate(vals)
    return RadialFunction(grid=rho, values=vals)


def check_equimeasurable(
    prof: LevelSetProfile, fstar: RadialFunction, model: ModelSpace
) -> float:
    """Max relative gap between Vol{f >= t} (from f's profile prof) and
    Vol{f* >= t} over EQUIMEASURABLE_LEVELS levels t."""
    ts = np.linspace(0.0, prof.top, EQUIMEASURABLE_LEVELS)
    mu_field = prof.mu(ts)
    # f* is non-increasing on its grid: invert by reversed interpolation
    dec_vals = fstar.values
    rho_of_t = np.interp(ts, dec_vals[::-1], fstar.grid[::-1])
    rho_of_t[ts > dec_vals[0]] = 0.0
    # ts ascends, so rho_of_t descends; the volumes want ascending radii
    mu_star = ball_volume_model(model, rho_of_t[::-1])[::-1]
    return float(np.max(np.abs(mu_field - mu_star)) / prof.total_volume)


def transplant_exit_time(model: ModelSpace, grid: PolarGrid) -> GridField:
    """Exit time of the model ball of radius grid.R read through the radial
    coordinate of the grid."""
    profile = radial_hierarchy(model, grid.R, 1).level(1)
    ring_vals = profile(grid.radii[1:])
    rings = np.tile(ring_vals[:, None], (1, grid.n_theta))
    rings[-1] = 0.0
    return GridField(grid=grid, center=float(profile(0.0)), rings=rings)


def integral_identity_check(
    f: GridField, fstar: RadialFunction, model: ModelSpace
) -> tuple[float, float]:
    """Disk integral of f versus the model-ball integral of its
    symmetrization fstar (``symmetrize_field(level_profile(f), model)``).

    Equimeasurable functions share all integrals, so the two must match up
    to grid error.
    """
    wn = model.warping.w(fstar.grid) ** (model.dim - 1)
    rhs = model.sphere_constant * simpson_uniform(
        fstar.values * wn, fstar.grid[1] - fstar.grid[0]
    )
    return f.integral(), rhs


@dataclass(frozen=True)
class ProfileComparison:
    direction: str
    min_margin: float
    s_R: float


def symmetrized_profile_comparison(
    m: PolarMetric2D, model: ModelSpace, R: float
) -> ProfileComparison:
    """Compare the symmetrized transplanted exit time with the exit time of
    the equal-volume model ball.

    Under sphere mean curvatures of the model below those of the metric the
    rearranged profile must sit below the model profile on [0, s(R)]; the
    inequality reverses with the hypothesis.  Requires a balanced model and
    a uniform curvature comparison.  The exit time is transplanted onto a
    COMPARISON_N_R x COMPARISON_N_THETA grid.
    """
    s_quad = ball_radius_from_volume(model, ball_area(m, R))
    if not balance_check(model, s_quad).balanced:
        raise ComparisonPreconditionError(
            f"model '{model.warping.label}' is not balanced on (0, {s_quad}]"
        )
    hyp = hypothesis_report(m, model, R)
    if not hyp.uniform:
        raise ComparisonPreconditionError(
            "mean-curvature comparison has no uniform direction"
        )
    grid = PolarGrid(metric=m, R=R, n_r=COMPARISON_N_R, n_theta=COMPARISON_N_THETA)
    fstar = symmetrize_field(level_profile(transplant_exit_time(model, grid)), model)
    s = min(s_quad, fstar.radius)
    rho = np.linspace(0.0, s, PROFILE_NODES)
    model_profile = radial_hierarchy(model, s_quad, 1).level(1)
    gap = model_profile(rho) - fstar(rho)
    if hyp.direction == "model>=M":
        gap = -gap
    return ProfileComparison(
        direction=hyp.direction, min_margin=float(gap.min()), s_R=s_quad
    )
