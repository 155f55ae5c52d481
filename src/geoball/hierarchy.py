"""Radial Poisson hierarchy, moment spectrum and first Dirichlet eigenvalue
on geodesic balls of a model space, all from one pass of one
discretization: the radial operator u'' + (n-1)(w'/w) u' collocated on a
parity-folded Chebyshev grid (``_folded_operator``; Trefethen, Spectral
Methods in MATLAB, 2000).  ``radial_hierarchy`` settles the resolution once
per ball, and the ``RadialHierarchy`` it returns serves the levels, the
moments and lambda_1 at that resolution.

Hierarchy members are kept in the normalized form v_k = u_k / k!, which
reads the eigenvalue ratio directly off consecutive moments and avoids
factorial overflow for deep hierarchies.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .model import ModelSpace, mean_curvature_model, sphere_volume_model
from .quadrature import GaussPanels

# Chebyshev sizes tried in turn (N -> 2N - 1): 17, 33, 65, ..., 1025
CHEBYSHEV_N = tuple(2**j + 1 for j in range(4, 11))
# largest relative gap between the bulk and boundary routes of a moment
CROSS_CHECK_TOL = 1e-6
# relative change of A_1 from one N to the next at which the hierarchy settles
HIERARCHY_REL_TOL = 1e-11
UNDERFLOW_FLOOR = 1e-300
# fewest moments (k_max) the moment-ratio eigenvalue extrapolates from
MIN_EXTRAPOLATION_MOMENTS = 4
LAMBDA1_REL_TOL = 1e-10


class MomentCrossCheckError(RuntimeError):
    """Moment routes or resolutions disagree beyond tolerance."""


class EigenvalueConvergenceError(RuntimeError):
    """The collocated model-ball eigenvalue did not settle, or the
    collocated operator is not finite or singular."""


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


def _folded_operator(m: ModelSpace, R: float, N: int) -> tuple[np.ndarray, ...]:
    """Chebyshev nodes x_j = cos(j pi/N), j = 0..N, d/dr at r = R x_j, and
    u'' + (n-1)(w'/w) u' collocated on the even extension of u to [-R, R]
    (N odd: no node at r = 0), folded onto the M = (N-1)/2 nodes in (0, R)
    with u(+-R) = 0: an M x M matrix.  A non-finite w'/w raises
    EigenvalueConvergenceError."""
    j = np.arange(N + 1)
    x = np.sin(np.pi * (N - 2 * j) / (2 * N))  # cos(j pi/N); x[N-j] == -x[j]
    c = np.where((j == 0) | (j == N), 2.0, 1.0) * (-1.0) ** j
    D = np.outer(c, 1 / c) / (R * (x[:, None] - x[None, :] + np.eye(N + 1)))
    D -= np.diag(D.sum(axis=1))  # d/dr at the nodes (Trefethen's cheb.m)
    M = (N - 1) // 2  # nodes 1..M lie in (0, R); node N-j mirrors node j
    eta = mean_curvature_model(m, R * x[1 : M + 1])
    if not np.all(np.isfinite(eta)):
        raise EigenvalueConvergenceError(f"non-finite w'/w in '{m.warping.label}'")
    L = D[1 : M + 1] @ D + ((m.dim - 1) * eta)[:, None] * D[1 : M + 1]
    # columns 0 and N drop out with u(+-R) = 0; u(-r) = u(r) folds the rest
    return x, D, L[:, 1 : M + 1] + L[:, N - 1 : M : -1]


def _lu_factor(L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LU factors and pivots of L by LAPACK getrf.  A singular or
    non-finite L raises EigenvalueConvergenceError."""
    lu, piv, info = dgetrf(L)
    if info != 0 or not np.all(np.isfinite(lu)):
        raise EigenvalueConvergenceError(
            f"folded operator of size {len(L)} is singular or not finite (getrf info {info})")
    return lu, piv


def _next_level(lu: tuple[np.ndarray, np.ndarray], v: np.ndarray) -> np.ndarray:
    """v_(k+1) at the N + 1 nodes from v_k: L v_(k+1) = -v_k, unfolded."""
    u = dgetrs(*lu, -v[1 : len(v) // 2])[0]
    return np.concatenate(([0.0], u, u[::-1], [0.0]))


def _barycentric(nodes: np.ndarray, weights: np.ndarray, values: np.ndarray,
                 r: float | np.ndarray) -> np.ndarray:
    """The polynomial through (nodes, values) at r by the barycentric
    formula (Berrut & Trefethen, SIAM Rev. 46, 2004), one function per
    trailing index of values; the result has the shape of r followed by
    the trailing shape of values.  A point on a node takes the node value."""
    r = np.asarray(r, dtype=float)
    y = values.reshape(len(nodes), -1)
    c = r.reshape(-1, 1) - nodes
    hit = c == 0
    c[hit] = 1
    c = weights / c
    with np.errstate(divide="ignore"):
        p = np.dot(c, y) / np.sum(c, axis=-1)[..., np.newaxis]
    row, node = np.nonzero(hit)
    p[row] = y[node]
    return p.reshape(r.shape + values.shape[1:])


def _smallest_positive_eigenvalue(L: np.ndarray) -> float:
    """Smallest positive real eigenvalue of -L, NaN when there is none."""
    ev = -np.linalg.eigvals(L)
    positive = ev.real[(ev.imag == 0) & (ev.real > 0)]
    return float(positive.min()) if positive.size else math.nan


@dataclass(frozen=True)
class RadialHierarchy:
    """Normalized Poisson hierarchy v_0 = 1, v_1, .. of a model ball B_R at
    the Chebyshev nodes of ``_folded_operator``: each level solves the
    collocated radial Poisson recursion with v_k(R) = 0, and level 1 is the
    mean exit time E.  It also keeps the folded matrices of the settled N
    and of the rung before it, from which ``lambda1`` reads the first
    eigenvalue, so that levels, moments and lambda_1 share one resolution.
    Build it with ``radial_hierarchy``."""

    model: ModelSpace
    nodes: np.ndarray  # R cos(j pi/N), j = 0..N: from R down to -R
    flux: np.ndarray  # row 0 of the differentiation matrix: d/dr at r = R
    levels: tuple[np.ndarray, ...]  # index k: v_k at the nodes, even in r
    operators: tuple[np.ndarray, np.ndarray]  # folded L at the previous, settled N

    def _interpolant(self, values: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """The polynomial through node values (one column per function),
        with the closed-form Chebyshev weights (-1)^j, halved at both ends."""
        wi = (-1.0) ** np.arange(len(self.nodes))
        wi[[0, -1]] *= 0.5
        return functools.partial(_barycentric, self.nodes, wi, values)

    def level(self, k: int) -> Callable[[np.ndarray], np.ndarray]:
        """v_k as a callable of r."""
        if not 0 <= k < len(self.levels):
            raise IndexError(f"k={k} outside 0..{len(self.levels) - 1}")
        return self._interpolant(self.levels[k])

    def spectrum(self) -> MomentSpectrum:
        """Normalized moments A_k/k! = c * int_0^R v_k w^(n-1) of every level
        but the last, by N-point Gauss-Legendre on [0, R] carried to the
        nodes: one weight per node, the rule applied to each Lagrange basis
        polynomial (one interpolant of the identity), so that a moment reads
        its own level only.  Each is recomputed from the spectral boundary
        flux of the next level (divergence theorem): a gap beyond
        CROSS_CHECK_TOL relative, or a NaN moment, raises
        MomentCrossCheckError at the first such k."""
        m, R, N = self.model, float(self.nodes[0]), len(self.nodes) - 1
        panels = GaussPanels(R)
        r = panels.nodes(N)
        density = m.sphere_constant * m.warping.w(r) ** (m.dim - 1)
        lagrange = self._interpolant(np.eye(N + 1))(r)  # column j: l_j at r
        weights = panels.cumulative(lagrange.T * density, N)[:, -1]
        levels = np.stack(self.levels)
        bulk = (levels[:-1] * weights).sum(axis=1)
        boundary = -(levels[1:] * self.flux).sum(axis=1) * sphere_volume_model(m, R)
        # written as "not within" so that a NaN moment fails it
        bad = np.flatnonzero(~(np.abs(bulk - boundary)
                               <= CROSS_CHECK_TOL * np.maximum(abs(bulk), abs(boundary))))
        if bad.size:
            k = bad[0]
            raise MomentCrossCheckError(
                f"moment cross-check failed at k={k} with N={N}: "
                f"bulk={bulk[k]}, boundary={boundary[k]}"
            )
        return MomentSpectrum(normalized=bulk, radius=R)

    def lambda1(self) -> float:
        """First Dirichlet eigenvalue of B_R: the smallest positive real
        eigenvalue of -L at the settled N.  EigenvalueConvergenceError is
        raised unless it agrees with the previous rung's value to
        LAMBDA1_REL_TOL relative; the O(N^4) roundoff of the collocated D^2
        does that on large hyperbolic balls (n = 3, R = 20)."""
        coarse, fine = map(_smallest_positive_eigenvalue, self.operators)
        if not abs(fine - coarse) <= LAMBDA1_REL_TOL * fine:  # NaN fails too
            raise EigenvalueConvergenceError(
                f"lambda1 of '{self.model.warping.label}' on B_{self.nodes[0]} "
                f"unsettled at N = {len(self.nodes) - 1}: {coarse} then {fine}")
        return fine


def radial_hierarchy(m: ModelSpace, R: float, depth: int) -> RadialHierarchy:
    """Levels v_0..v_depth of B_R from one pass (fewer after an underflow);
    the moments A_0..A_k need depth k + 1.  The matrix L of
    ``_folded_operator`` is LU-factored once, and v_k solves L v_k = -v_(k-1).
    N runs through CHEBYSHEV_N until A_1, from the boundary flux of v_2,
    moves by at most HIERARCHY_REL_TOL relative: that does not depend on
    depth, so a deeper pass only appends levels.  MomentCrossCheckError is
    raised when nothing settles (near a sphere's cut locus), and
    EigenvalueConvergenceError at once by a singular or non-finite L."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    m._check_radius(R)
    prev, coarse = math.nan, None
    for N in CHEBYSHEV_N:
        x, D, L = _folded_operator(m, R, N)
        lu = _lu_factor(L)
        # A_1 up to the factor -Vol(S_R), which the relative change ignores
        a1 = float(D[0] @ _next_level(lu, _next_level(lu, np.ones(N + 1))))
        if abs(a1 - prev) <= HIERARCHY_REL_TOL * abs(a1):  # a NaN never settles
            break
        prev, coarse = a1, L
    else:
        raise MomentCrossCheckError(
            f"moment A_1 of '{m.warping.label}' on B_{R} unsettled at N={N}")
    levels = [np.ones(N + 1)]
    for _ in range(depth):
        v = _next_level(lu, levels[-1])
        if v.max() < UNDERFLOW_FLOOR:
            warnings.warn(f"hierarchy underflow at level {len(levels)}; truncating",
                          RuntimeWarning)
            break
        levels.append(v)
    return RadialHierarchy(m, R * x, D[0], tuple(levels), (coarse, L))


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
    if spec.k_max < MIN_EXTRAPOLATION_MOMENTS:
        raise ValueError(f"need k_max >= {MIN_EXTRAPOLATION_MOMENTS} moments for extrapolation")
    rho = spec.ratios()
    d1 = rho[1:] - rho[:-1]
    d2 = d1[1:] - d1[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        aitken = rho[:-2] - d1[:-1] ** 2 / d2
    valid = np.isfinite(aitken)
    value = float(aitken[valid][-1]) if valid.any() else float(rho[-1])
    # converged = tail differences shrink monotonically (or hit roundoff)
    tail = np.abs(d1[-3:])
    converged = bool(np.all(tail[1:] - tail[:-1] <= 1e-12 + 0.5 * tail[:-1]))
    return EigenvalueEstimate(value=value, trace=rho, converged=converged)


def lambda1_shooting(m: ModelSpace, R: float) -> float:
    """``radial_hierarchy(m, R, 1).lambda1()``; the benchmark calls it.  The
    name predates the Chebyshev collocation that replaced shooting."""
    return radial_hierarchy(m, R, 1).lambda1()
