"""Radial Poisson hierarchy, moment spectrum and first Dirichlet eigenvalue
on geodesic balls of a model space.

Hierarchy members are kept in the normalized form v_k = u_k / k!, which
reads the eigenvalue ratio directly off consecutive moments and avoids
factorial overflow for deep hierarchies.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from .model import DomainError, ModelSpace, sphere_volume_model
from .quadrature import cumulative_integral, simpson_uniform

DEFAULT_GRID = 2048
UNDERFLOW_FLOOR = 1e-300


class MomentCrossCheckError(RuntimeError):
    """Bulk and boundary moment routes disagree beyond tolerance."""


class EigenvalueBracketError(RuntimeError):
    """No sign change of the shooting function below the search cap."""


@dataclass(frozen=True)
class RadialFunction:
    """Function of the radius sampled on a uniform grid with cubic interpolation."""

    grid: np.ndarray
    values: np.ndarray
    _spline: CubicSpline = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.grid) < 16:
            raise ValueError("radial grid must have at least 16 nodes")
        if np.any(np.diff(self.grid) <= 0):
            raise ValueError("radial grid must be strictly increasing")
        object.__setattr__(self, "_spline", CubicSpline(self.grid, self.values))

    def __call__(self, r):
        return self._spline(r)

    def derivative(self, r):
        return self._spline(r, 1)

    @property
    def radius(self) -> float:
        return float(self.grid[-1])


@dataclass(frozen=True)
class MomentSpectrum:
    """Normalized exit-time moments A_k / k! for k = 0..k_max."""

    normalized: np.ndarray  # index k
    radius: float
    dim: int

    @property
    def k_max(self) -> int:
        return len(self.normalized) - 1

    def moment(self, k: int) -> float:
        """Raw moment A_k = k! * normalized[k]."""
        if not 0 <= k <= self.k_max:
            raise IndexError(f"k={k} outside 0..{self.k_max}")
        return math.factorial(k) * float(self.normalized[k])

    def ratios(self) -> np.ndarray:
        """rho_k = normalized[k-1] / normalized[k] = k*A_(k-1)/A_k, k = 1..k_max."""
        return self.normalized[:-1] / self.normalized[1:]


@dataclass(frozen=True)
class EigenvalueEstimate:
    value: float
    trace: np.ndarray
    converged: bool


def _hierarchy_arrays(
    m: ModelSpace, R: float, k_max: int, N: int
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Grid, w^(n-1) samples and normalized hierarchy values v_0..v_k_max."""
    m._check_radius(R)
    if N < 16:
        raise ValueError("grid size must be >= 16")
    n = m.dim
    grid = np.linspace(0.0, R, N + 1)
    dr = grid[1] - grid[0]
    wn = m.warping.w(grid) ** (n - 1)
    levels = [np.ones_like(grid)]
    for _ in range(k_max):
        inner = cumulative_integral(levels[-1] * wn, dr)
        integrand = np.zeros_like(grid)
        integrand[1:] = inner[1:] / wn[1:]  # limit 0 at r = 0
        cum = cumulative_integral(integrand, dr)
        v = cum[-1] - cum
        v[-1] = 0.0
        if v.max() < UNDERFLOW_FLOOR:
            warnings.warn(
                f"hierarchy underflow at level {len(levels)}; truncating",
                RuntimeWarning,
            )
            break
        levels.append(v)
    return grid, wn, levels


def mean_exit_profile(m: ModelSpace, R: float, N: int = DEFAULT_GRID) -> RadialFunction:
    """Mean exit time E(r) = int_r^R q(t) dt on a uniform grid over [0, R]."""
    grid, _, levels = _hierarchy_arrays(m, R, 1, N)
    return RadialFunction(grid=grid, values=levels[1])


def hierarchy_sequence(
    m: ModelSpace, R: float, k_max: int, N: int = DEFAULT_GRID
) -> list[RadialFunction]:
    """Normalized hierarchy members v_k = u_k/k! for k = 1..k_max.

    Each member solves the radial Poisson recursion with Dirichlet boundary
    and vanishing derivative at the center, via the nested-integral closed
    form; members are nonnegative and non-increasing.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    grid, _, levels = _hierarchy_arrays(m, R, k_max, N)
    return [RadialFunction(grid=grid, values=v) for v in levels[1:]]


def _boundary_derivative(values: np.ndarray, dr: float) -> float:
    """One-sided 4th-order finite difference at the last grid node."""
    v = values[-5:]
    return float(
        (25 * v[4] - 48 * v[3] + 36 * v[2] - 16 * v[1] + 3 * v[0]) / (12 * dr)
    )


def moment_spectrum(
    m: ModelSpace,
    R: float,
    k_max: int,
    N: int = DEFAULT_GRID,
    cross_check_tol: float = 1e-6,
) -> MomentSpectrum:
    """Normalized moments A_k/k! = c * int_0^R v_k w^(n-1), k = 0..k_max.

    Each moment is recomputed through the boundary flux of the next
    hierarchy level (divergence-theorem identity); disagreement beyond
    cross_check_tol relative raises MomentCrossCheckError.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    grid, wn, levels = _hierarchy_arrays(m, R, k_max + 1, N)
    dr = grid[1] - grid[0]
    c = m.sphere_constant
    vol_sphere = sphere_volume_model(m, R)
    avail = min(k_max, len(levels) - 2)
    moments = np.empty(avail + 1)
    for k in range(avail + 1):
        bulk = c * simpson_uniform(levels[k] * wn, dr)
        boundary = -_boundary_derivative(levels[k + 1], dr) * vol_sphere
        if abs(bulk - boundary) > cross_check_tol * max(abs(bulk), abs(boundary)):
            raise MomentCrossCheckError(
                f"moment cross-check failed at k={k}: bulk={bulk}, "
                f"boundary={boundary}; increase the grid resolution"
            )
        moments[k] = bulk
    return MomentSpectrum(normalized=moments, radius=R, dim=m.dim)


def averaged_moment(spec: MomentSpectrum, m: ModelSpace, k: int) -> float:
    """A_k / Vol(S_R), the averaged moment entering the comparison theorems."""
    return spec.moment(k) / sphere_volume_model(m, spec.radius)


def lambda1_from_moments(spec: MomentSpectrum) -> EigenvalueEstimate:
    """First Dirichlet eigenvalue as the limit of rho_k = k*A_(k-1)/A_k.

    One Aitken delta-squared pass accelerates the geometric tail of the
    ratio sequence; the raw trace is returned for inspection.
    """
    if spec.k_max < 4:
        raise ValueError("need k_max >= 4 moments for extrapolation")
    rho = spec.ratios()
    d1 = np.diff(rho)
    d2 = np.diff(rho, 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        aitken = rho[:-2] - d1[:-1] ** 2 / d2
    valid = np.isfinite(aitken)
    value = float(aitken[valid][-1]) if valid.any() else float(rho[-1])
    # converged = tail differences shrink monotonically (or hit roundoff)
    tail = np.abs(d1[-3:])
    converged = bool(np.all(np.diff(tail) <= 1e-12 + 0.5 * tail[:-1]))
    return EigenvalueEstimate(value=value, trace=rho, converged=converged)


def _shoot(m: ModelSpace, R: float, lam: float) -> float:
    """Value at r = R of the radial eigenfunction started with phi(0) = 1."""
    n = m.dim
    r0 = min(1e-6, R * 1e-4)
    y0 = [1.0 - lam * r0**2 / (2 * n), -lam * r0 / n]

    def rhs(r, y):
        eta = float(m.warping.dw(np.array(r)) / m.warping.w(np.array(r)))
        return [y[1], -(n - 1) * eta * y[1] - lam * y[0]]

    sol = solve_ivp(rhs, (r0, R), y0, method="RK45", rtol=1e-11, atol=1e-13)
    if not sol.success:
        raise RuntimeError(f"shooting integration failed: {sol.message}")
    return float(sol.y[0, -1])


def lambda1_shooting(m: ModelSpace, R: float, cap_factor: float = 1e6) -> float:
    """First Dirichlet eigenvalue of the model ball by shooting + bisection."""
    m._check_radius(R)
    base = 0.5 / R**2
    lo, f_lo = base, _shoot(m, R, base)
    if f_lo <= 0:
        # already past the first zero; walk down
        while f_lo <= 0:
            lo /= 2.0
            f_lo = _shoot(m, R, lo)
            if lo < 1e-12:
                raise EigenvalueBracketError("could not bracket from below")
    hi = lo
    f_hi = f_lo
    while f_hi > 0:
        hi *= 1.5
        if hi > cap_factor / R**2:
            raise EigenvalueBracketError(
                f"no sign change of the shooting function below {hi}"
            )
        f_hi = _shoot(m, R, hi)
    return float(
        brentq(lambda lam: _shoot(m, R, lam), hi / 1.5, hi, rtol=1e-12, xtol=1e-14)
    )
