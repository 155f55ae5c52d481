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
from scipy.interpolate import CubicSpline

from .model import ModelSpace, sphere_volume_model
from .quadrature import cumulative_integral, simpson_uniform

DEFAULT_GRID = 2048
# largest relative gap between the bulk and boundary routes of a moment
CROSS_CHECK_TOL = 1e-6
UNDERFLOW_FLOOR = 1e-300
LAMBDA1_REL_TOL = 1e-10
LAMBDA1_N_MAX = 1025


class MomentCrossCheckError(RuntimeError):
    """Bulk and boundary moment routes disagree beyond tolerance."""


class EigenvalueConvergenceError(RuntimeError):
    """The collocated model-ball eigenvalue did not settle."""


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
    m: ModelSpace, R: float, depth: int, N: int
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """Grid, w^(n-1) samples and normalized hierarchy values v_0..v_depth."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    m._check_radius(R)
    if N < 16:
        raise ValueError("grid size must be >= 16")
    n = m.dim
    grid = np.linspace(0.0, R, N + 1)
    dr = grid[1] - grid[0]
    wn = m.warping.w(grid) ** (n - 1)
    levels = [np.ones_like(grid)]
    for _ in range(depth):
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
    return grid, wn, tuple(levels)


@dataclass(frozen=True)
class RadialHierarchy:
    """Normalized Poisson hierarchy v_0 = 1, v_1, .. of a model ball B_R on
    uniform intervals of [0, R]: each level solves the radial Poisson
    recursion (Dirichlet at R, v' = 0 at the center) by its nested-integral
    closed form, and level 1 is the mean exit time E.  Build it with
    ``radial_hierarchy``."""

    model: ModelSpace
    grid: np.ndarray
    wn: np.ndarray  # w^(n-1) at the grid nodes
    levels: tuple[np.ndarray, ...]  # index k
    _splines: dict[int, RadialFunction] = field(default_factory=dict, init=False,
                                                repr=False, compare=False)

    def level(self, k: int) -> RadialFunction:
        """v_k as a RadialFunction; its spline is built on the first read."""
        if not 0 <= k < len(self.levels):
            raise IndexError(f"k={k} outside 0..{len(self.levels) - 1}")
        if k not in self._splines:
            self._splines[k] = RadialFunction(grid=self.grid, values=self.levels[k])
        return self._splines[k]

    def spectrum(self) -> MomentSpectrum:
        """Normalized moments A_k/k! = c * int_0^R v_k w^(n-1) of every level
        but the last, each recomputed from the boundary flux of the next
        level (divergence theorem; one-sided 4th-order difference at R): a
        gap beyond CROSS_CHECK_TOL relative raises MomentCrossCheckError."""
        m, grid, levels = self.model, self.grid, self.levels
        R, dr = float(grid[-1]), grid[1] - grid[0]
        vol_sphere = sphere_volume_model(m, R)
        moments = np.empty(len(levels) - 1)
        for k in range(len(moments)):
            bulk = m.sphere_constant * simpson_uniform(levels[k] * self.wn, dr)
            v = levels[k + 1][-5:]
            flux = (25 * v[4] - 48 * v[3] + 36 * v[2] - 16 * v[1] + 3 * v[0]) / (12 * dr)
            boundary = -flux * vol_sphere
            if abs(bulk - boundary) > CROSS_CHECK_TOL * max(abs(bulk), abs(boundary)):
                raise MomentCrossCheckError(
                    f"moment cross-check failed at k={k} with N={len(grid) - 1}: "
                    f"bulk={bulk}, boundary={boundary}"
                )
            moments[k] = bulk
        return MomentSpectrum(normalized=moments, radius=R)


def radial_hierarchy(
    m: ModelSpace, R: float, depth: int, N: int = DEFAULT_GRID
) -> RadialHierarchy:
    """Levels v_0..v_depth of B_R on N uniform intervals, from one pass
    (fewer after an underflow); the moments A_0..A_k need depth k + 1."""
    return RadialHierarchy(m, *_hierarchy_arrays(m, R, depth, N))


def moment_spectrum(m: ModelSpace, R: float, k_max: int) -> MomentSpectrum:
    """``radial_hierarchy(m, R, k_max + 1).spectrum()``; the benchmark calls it."""
    return radial_hierarchy(m, R, k_max + 1).spectrum()


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


def lambda1_shooting(m: ModelSpace, R: float) -> float:
    """First Dirichlet eigenvalue of the model ball B_R by Chebyshev collocation.

    u'' + (n-1)(w'/w) u' = -lambda u is collocated at R cos(j pi/N), j = 0..N,
    on the even extension to [-R, R] (N odd: no node at r = 0), and folded
    onto the (N-1)/2 nodes in (0, R) with u(R) = 0 (Trefethen, Spectral
    Methods in MATLAB, 2000).  lambda_1 is the smallest positive real
    eigenvalue of that matrix.  N goes 17, 33, 65, ... (N -> 2N-1) until two
    consecutive values agree to LAMBDA1_REL_TOL.  EigenvalueConvergenceError
    is raised at once on a non-finite w'/w, and when nothing settles by
    N = LAMBDA1_N_MAX: the O(N^4) roundoff of D^2 does that near a sphere's
    cut locus (n = 3, R = 0.999 pi) and on large hyperbolic balls (n = 3,
    R = 20).  The name predates the method; callers and the benchmark use it.
    """
    m._check_radius(R)
    N, prev = 17, math.nan
    while N <= LAMBDA1_N_MAX:
        j = np.arange(N + 1)
        x = np.sin(np.pi * (N - 2 * j) / (2 * N))  # cos(j pi/N); x[N-j] == -x[j]
        c = np.where((j == 0) | (j == N), 2.0, 1.0) * (-1.0) ** j
        D = np.outer(c, 1 / c) / (R * (x[:, None] - x[None, :] + np.eye(N + 1)))
        D -= np.diag(D.sum(axis=1))  # d/dr at the nodes (Trefethen's cheb.m)
        M = (N - 1) // 2  # nodes 1..M lie in (0, R); node N-j mirrors node j
        eta = m.warping.dw(R * x[1 : M + 1]) / m.warping.w(R * x[1 : M + 1])
        if not np.all(np.isfinite(eta)):
            raise EigenvalueConvergenceError(f"non-finite w'/w in '{m.warping.label}'")
        L = D[1 : M + 1] @ D + ((m.dim - 1) * eta)[:, None] * D[1 : M + 1]
        # columns 0 and N drop out with u(+-R) = 0; u(-r) = u(r) folds the rest
        ev = -np.linalg.eigvals(L[:, 1 : M + 1] + L[:, N - 1 : M : -1])
        positive = ev.real[(ev.imag == 0) & (ev.real > 0)]
        lam = float(positive.min()) if positive.size else math.nan
        if abs(lam - prev) <= LAMBDA1_REL_TOL * lam:  # a NaN never settles
            return lam
        N, prev = 2 * N - 1, lam
    raise EigenvalueConvergenceError(
        f"lambda1 of '{m.warping.label}' on B_{R} unsettled at N = {LAMBDA1_N_MAX}")
