"""Schwarz symmetrization of radial grid functions into model spaces.

A non-increasing function of r on a polar grid, such as the transplanted
exit time, is rearranged into a radial non-increasing function on a model
ball of equal volume; level-set volumes are preserved by construction,
which is what the comparison statements consume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hierarchy import radial_hierarchy
from .model import ModelSpace, ball_radius_from_volume, ball_volume_model, balance_check
from .pde import PolarGrid
from .surface import PolarMetric2D, ball_area, hypothesis_report

PROFILE_NODES = 1025
VOLUME_TABLE_NODES = 8193
# levels at which check_equimeasurable compares the two distributions
EQUIMEASURABLE_LEVELS = 128
# grid of the transplanted exit time in symmetrized_profile_comparison
COMPARISON_N_R = COMPARISON_N_THETA = 128
# largest relative deviation of a profile grid spacing from its first
UNIFORM_SPACING_TOL = 1e-9


class ComparisonPreconditionError(RuntimeError):
    """A comparison statement was requested outside its hypotheses."""


class NegativeFieldError(ValueError):
    """Symmetrization requires a nonnegative field."""


@dataclass(frozen=True)
class RadialFunction:
    """Function of the radius sampled on a strictly increasing grid of at
    least 16 nodes, evaluated by linear interpolation between its samples:
    a piecewise-linear profile is evaluated the way it is built, so a
    non-negative, non-increasing one stays so between the nodes."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if len(self.grid) < 16:
            raise ValueError("radial grid must have at least 16 nodes")
        # every test is written as "not ok" so that a NaN fails it
        if not np.all(np.diff(self.grid) > 0):
            raise ValueError("radial grid must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("radial function values must be finite")

    def __call__(self, r):
        return np.interp(r, self.grid, self.values)

    @property
    def radius(self) -> float:
        return float(self.grid[-1])


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
        if not (np.all(np.isfinite(self.values)) and np.all(np.diff(self.values) < 0)):
            raise ValueError("level values must be finite and strictly decreasing")
        if not (np.all(np.isfinite(self.volumes)) and np.all(np.diff(self.volumes) > 0)):
            raise ValueError("cumulative volumes must be finite and strictly increasing")

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


def level_profile(grid: PolarGrid, center: float, rings: np.ndarray) -> LevelSetProfile:
    """Superlevel volumes of a non-increasing function of r on grid, from
    its center value and one value per ring (rings[i-1] at radius i*dr):
    its superlevel sets are the center cell and the rings inside a radius,
    so each volume is the running cell area, in ring order, at a ring's
    end.  Runs of equal values merge; a rise is a ValueError."""
    if np.shape(rings) != (grid.n_r,):
        raise ValueError(f"rings shape {np.shape(rings)} != ({grid.n_r},)")
    vals = np.append(center, rings)
    if not np.all(vals >= 0):  # a NaN value fails too
        raise NegativeFieldError("field has negative or NaN values")
    areas = np.concatenate(
        [[grid.center_area], grid.node_area.reshape(-1), grid.boundary_area]
    )
    # at the end of the center cell and of each ring
    cum = np.cumsum(areas)[::grid.n_theta]
    last = np.append(vals[1:] != vals[:-1], True)  # of each run of equal values
    return LevelSetProfile(
        values=vals[last], volumes=cum[last], total_volume=float(cum[-1])
    )


def symmetrize_field(prof: LevelSetProfile, model: ModelSpace) -> RadialFunction:
    """Radial non-increasing rearrangement into the model space of the
    field whose level-set profile is prof (from ``level_profile``).

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


def transplant_exit_time(model: ModelSpace, grid: PolarGrid) -> LevelSetProfile:
    """Level-set profile of the exit time of the model ball of radius
    grid.R read through the radial coordinate of the grid."""
    exit_time = radial_hierarchy(model, grid.R, 1).level(1)
    return level_profile(grid, float(exit_time(0.0)), exit_time(grid.radii[1:]))


def integral_identity_check(
    prof: LevelSetProfile, fstar: RadialFunction, model: ModelSpace
) -> tuple[float, float]:
    """Disk integral of the field whose level-set profile is prof, as its
    layer-cake sum, versus the model-ball integral of its symmetrization
    fstar (``symmetrize_field(prof, model)``).

    Equimeasurable functions share all integrals, so the two must match up
    to grid error.  The model side is Simpson's rule on fstar's grid,
    which must be uniform to UNIFORM_SPACING_TOL (else ValueError).
    """
    spacing = np.diff(fstar.grid)
    if not np.all(np.abs(spacing - spacing[0]) <= UNIFORM_SPACING_TOL * spacing[0]):
        raise ValueError("integral_identity_check needs a uniformly spaced profile grid")
    wn = model.warping.w(fstar.grid) ** (model.dim - 1)
    rhs = model.sphere_constant * float(
        _simpson(fstar.values * wn, dx=spacing[0])
    )
    # each level value times the area of the cells that take it
    lhs = float(np.sum(prof.values * np.diff(prof.volumes, prepend=0.0)))
    return lhs, rhs


def _simpson(y: np.ndarray, dx: float) -> np.float64:
    """Composite Simpson rule over an odd number of samples spaced dx."""
    if len(y) % 2 == 0:
        raise ValueError(f"Simpson's rule needs an odd number of samples, got {len(y)}")
    return np.sum(y[:-2:2] + 4.0 * y[1:-1:2] + y[2::2]) * (dx / 3.0)


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
    fstar = symmetrize_field(transplant_exit_time(model, grid), model)
    s = min(s_quad, fstar.radius)
    rho = np.linspace(0.0, s, PROFILE_NODES)
    model_profile = radial_hierarchy(model, s_quad, 1).level(1)
    gap = model_profile(rho) - fstar(rho)
    if hyp.direction == "model>=M":
        gap = -gap
    return ProfileComparison(
        direction=hyp.direction, min_margin=float(gap.min()), s_R=s_quad
    )
