"""Finite-difference Poisson hierarchy, moments and eigenvalue on polar disks.

The Laplacian is discretized in divergence form, which makes the operator
symmetric in the area-weighted inner product; the tests keep the expanded
coordinate form as its reference.  A single factorization is reused across
all hierarchy levels and the inverse power iteration.

When the face conductances and cell areas are constant in theta (every
``radial(...)`` metric, the model balls of the comparison theorems), the
flux matrix is circulant in theta, and everything the solver is asked for
lives in its Fourier mode 0: the cell areas, the constant v_0 = 1 and each
hierarchy level are constant in theta, and so is the first Dirichlet
eigenfunction, as on a rotationally symmetric ball (block k >= 1 is block 0
on the rings plus a nonnegative diagonal, so by Courant-Fischer its
smallest eigenvalue is no lower).  Mode 0 is one tridiagonal system over
the center and the rings, the k = 0 system of the classical fast Poisson
solver on a disk (Buzbee, Golub & Nielson 1970), and it is such a grid's
whole pencil: the solver holds one value per ring and never assembles the
2-D matrix.  Any other metric takes the general sparse LU.  Each
hierarchy level is one direct solve, checked by its normwise backward
error against the solver's flux matrix.  Levels stay solver vectors:
their moments are one product with the areas, and a level becomes a 2-D
field only where a caller reads its rings.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csc_matrix, diags
from scipy.sparse.linalg import splu

from .hierarchy import MomentSpectrum, lambda1_from_moments
from .surface import TWO_PI, MetricAuditError, PolarMetric2D

# hierarchy depth behind the moment-ratio eigenvalue estimate
LAMBDA1_LEVELS = 24
# largest normwise backward error of a hierarchy solve
RESIDUAL_TOL = 1e-10
# inverse power iteration: relative eigenvalue change to stop at, step budget
POWER_TOL = 1e-8
POWER_MAX_ITER = 500
# largest relative gap between the moment-ratio and power eigenvalues
AGREEMENT_TOL = 0.05


class ResolutionError(RuntimeError):
    """Grid routes disagree beyond the allowed discretization budget."""


@dataclass(frozen=True)
class PolarGrid:
    """Uniform polar grid over the disk of radius R with cell-area weights."""

    metric: PolarMetric2D
    R: float
    n_r: int
    n_theta: int
    radii: np.ndarray = field(init=False, repr=False)
    thetas: np.ndarray = field(init=False, repr=False)
    node_area: np.ndarray = field(init=False, repr=False)  # rings 1..n_r-1
    boundary_area: np.ndarray = field(init=False, repr=False)
    center_area: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_theta < 2 or self.n_theta % 2 != 0:
            raise ValueError(f"n_theta must be even and >= 2, got {self.n_theta}")
        if self.n_r < 4:
            raise ValueError("n_r must be >= 4")
        self.metric._check_radius(self.R)
        radii = np.linspace(0.0, self.R, self.n_r + 1)
        thetas = np.arange(self.n_theta) * (TWO_PI / self.n_theta)
        dr, dt = radii[1], thetas[1]
        w = self._sample_w(radii[1:-1], thetas)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "node_area", w * dr * dt)
        wb = self._sample_w(np.array([self.R]), thetas)[0]
        object.__setattr__(self, "boundary_area", wb * (dr / 2) * dt)
        wc = self._sample_w(np.array([dr / 2]), thetas)[0]
        object.__setattr__(self, "center_area", float(np.sum(wc) * dr / 4 * dt))

    def _sample_w(self, radii: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        """w on the (radius, theta) mesh; a non-finite sample raises."""
        rr, tt = np.meshgrid(radii, thetas, indexing="ij")
        w = self.metric.w(rr, tt)
        bad = ~np.isfinite(w)
        if bad.any():
            raise MetricAuditError(
                f"metric '{self.metric.label}': w is {w[bad][0]} at "
                f"r = {float(rr[bad][0])!r}, theta = {float(tt[bad][0])!r}"
            )
        return w

    @property
    def dr(self) -> float:
        return float(self.radii[1])

    @property
    def dtheta(self) -> float:
        return TWO_PI / self.n_theta

    def total_area(self) -> float:
        return float(self.node_area.sum() + self.boundary_area.sum() + self.center_area)


@dataclass(frozen=True)
class GridField:
    """Values on the ring nodes (rings[i-1] is the ring at radius i*dr)
    plus one center value; theta is periodic with no seam column."""

    grid: PolarGrid
    center: float
    rings: np.ndarray  # shape (n_r, n_theta); last row is the r = R ring

    def __post_init__(self) -> None:
        expected = (self.grid.n_r, self.grid.n_theta)
        if self.rings.shape != expected:
            raise ValueError(f"rings shape {self.rings.shape} != {expected}")

    def integral(self) -> float:
        """Area-weighted sum over the disk (boundary ring included)."""
        g = self.grid
        return float(
            np.sum(self.rings[:-1] * g.node_area)
            + np.sum(self.rings[-1] * g.boundary_area)
            + self.center * g.center_area
        )


def make_grid(m: PolarMetric2D, R: float, n_r: int = 128, n_theta: int = 128) -> PolarGrid:
    return PolarGrid(metric=m, R=R, n_r=n_r, n_theta=n_theta)


def field_from_function(grid: PolarGrid, fn) -> GridField:
    """Sample fn(r, theta) on the grid (fn must accept arrays)."""
    rr, tt = np.meshgrid(grid.radii[1:], grid.thetas, indexing="ij")
    return GridField(grid=grid, center=float(fn(0.0, 0.0)), rings=np.asarray(fn(rr, tt)))


def _conductances(grid: PolarGrid) -> tuple[np.ndarray, np.ndarray]:
    """Radial face conductances (n_r, n_theta; row i couples ring i to ring
    i+1, the last row couples to the r = R ring values) and angular ones
    (n_r-1, n_theta; face j+1/2 of ring i+1): the metric factor at each
    face times dtheta/dr, and dr/dtheta over it."""
    radii, thetas, dr, dt = grid.radii, grid.thetas, grid.dr, grid.dtheta
    w_face_r = grid._sample_w(radii[:-1] + dr / 2, thetas)  # faces 1/2 .. n_r-1/2
    w_face_t = grid._sample_w(radii[1:-1], thetas + dt / 2)
    return w_face_r * (dt / dr), dr / dt / w_face_t


def _assemble_flux(c_radial: np.ndarray, c_angular: np.ndarray) -> csc_matrix:
    """Symmetric flux matrix A over the unknowns (center, rings 1..n_r-1)
    from the face conductances of ``_conductances``.  The discrete
    Laplacian is (A x + c_radial[-1] * boundary) / areas."""
    nr, nt = c_radial.shape
    ring = 1 + np.arange((nr - 1) * nt).reshape(nr - 1, nt)
    # one (p, q, c) per interior face: center-ring 1, ring i-ring i+1, angular
    p = np.concatenate([np.zeros(nt, dtype=np.int64), ring[:-1].ravel(),
                        ring.ravel()])
    q = np.concatenate([ring[0], ring[1:].ravel(),
                        np.roll(ring, -1, axis=1).ravel()])
    c = np.concatenate([c_radial[0], c_radial[1:-1].ravel(), c_angular.ravel()])
    n_unknowns = 1 + (nr - 1) * nt
    diag = -np.bincount(p, c, n_unknowns) - np.bincount(q, c, n_unknowns)
    diag[ring[-1]] -= c_radial[-1]  # face to the Dirichlet ring
    idx = np.arange(n_unknowns)
    return csc_matrix(
        (np.concatenate([c, c, diag]),
         (np.concatenate([p, q, idx]), np.concatenate([q, p, idx]))),
        shape=(n_unknowns, n_unknowns),
    )


def _theta_independent(*per_ring: np.ndarray) -> bool:
    """True iff every row (one ring) of every array is constant in theta."""
    return all(bool(np.all(a == a[:, :1])) for a in per_ring)


def _mode0_pencil(grid: PolarGrid, c_radial: np.ndarray) -> tuple[csc_matrix, np.ndarray]:
    """P^T A P and P^T D P for the flux matrix A and cell areas D of a grid
    whose conductances and areas are constant in theta, with P the
    expansion of ring values along theta; c_radial (n_r, n_theta) as from
    ``_conductances``.

    The flux block is tridiagonal over the center and rings 1..n_r-1, with
    each ring's radial conductances summed around it, C_i = n_theta c_i:
    diagonal -C_0, -(C_{i-1} + C_i) and off-diagonal C_i.
    """
    c = grid.n_theta * c_radial[:, 0]
    diagonal = np.concatenate([[-c[0]], -(c[:-1] + c[1:])])
    flux = diags([c[:-1], diagonal, c[:-1]], [-1, 0, 1], format="csc")
    areas = np.concatenate([[grid.center_area], grid.n_theta * grid.node_area[:, 0]])
    return flux, areas


def _unknown_areas(grid: PolarGrid) -> np.ndarray:
    return np.concatenate([[grid.center_area], grid.node_area.reshape(-1)])


def apply_laplacian(f: GridField) -> GridField:
    """Discrete Laplacian of f on its grid: the flux-balanced second-order
    scheme of the solver (its flux matrix, applied).  The boundary ring of
    the result is zeroed."""
    grid = f.grid
    c_radial, c_angular = _conductances(grid)
    flux = _assemble_flux(c_radial, c_angular)
    y = flux @ np.concatenate([[f.center], f.rings[:-1].reshape(-1)])
    y[-grid.n_theta:] += c_radial[-1] * f.rings[-1]
    y /= _unknown_areas(grid)
    rings = np.zeros((grid.n_r, grid.n_theta))
    rings[:-1] = y[1:].reshape(grid.n_r - 1, grid.n_theta)
    return GridField(grid=grid, center=float(y[0]), rings=rings)


class HierarchySolver:
    """Direct solver for the Dirichlet Poisson hierarchy on a grid.

    Unknowns: one center node plus rings 1..n_r-1 (the r = R ring is the
    Dirichlet boundary).  The flux matrix A is symmetric; the Laplacian is
    diag(1/area) @ A.  ``flux`` is factored once, and ``hierarchy`` checks
    each level's normwise backward error against it.

    On a rotationally symmetric grid (conductances and cell areas constant
    in theta: any radial metric) A is circulant in theta.  Its Fourier
    block k >= 1 is block 0 restricted to the rings plus the nonnegative
    diagonal 2 a_i (1 - cos(2 pi k / n_theta)), so by Courant-Fischer its
    smallest eigenvalue is no lower than block 0's: lambda_1 lives in mode
    0, as the first Dirichlet eigenfunction of a rotationally symmetric
    ball is radial.  Every hierarchy level is constant in theta too (the
    areas, v_0 = 1 and each mode-0 solution are).  So mode 0 is the
    solver's pencil: ``flux`` and ``areas`` are the n_r x n_r tridiagonal
    block and the ring areas of ``_mode0_pencil``, and every vector holds
    one value per ring.

    Otherwise ``flux`` is A over every node, factored by SuperLU in a
    minimum-degree ordering of A^T + A, which suits its symmetric 5-point
    pattern.  Either way a level's moment is ``areas @ level``, and
    ``field`` expands a level to a ``GridField``.
    """

    def __init__(self, grid: PolarGrid):
        self.grid = grid
        c_radial, c_angular = _conductances(grid)
        if _theta_independent(c_radial, c_angular, grid.node_area):
            self.flux, self.areas = _mode0_pencil(grid, c_radial)
            order = "NATURAL"  # tridiagonal: no fill
        else:
            self.flux = _assemble_flux(c_radial, c_angular)
            self.areas = _unknown_areas(grid)
            order = "MMD_AT_PLUS_A"
        self._flux_norm = float(np.max(np.abs(self.flux).sum(axis=1)))
        self._lu = splu(self.flux, permc_spec=order)

    def solve_poisson(self, rhs: np.ndarray) -> np.ndarray:
        """Solve L v = rhs by one direct solve of the flux system."""
        return self._lu.solve(self.areas * rhs)

    def hierarchy(self, k_max: int) -> np.ndarray:
        """Normalized hierarchy v_k = u_k/k!, k = 1..k_max, one direct
        solve per level, as the rows of a (k_max, len(areas)) block."""
        if k_max < 1:
            raise ValueError("k_max must be >= 1")
        if k_max > 64:
            warnings.warn("k_max > 64: deep hierarchy may lose accuracy", RuntimeWarning)
        levels = np.empty((k_max, len(self.areas)))
        v = np.ones(len(self.areas))
        for k in range(k_max):
            v_next = self.solve_poisson(-v)
            # normwise backward error of the linear system; dividing
            # elementwise by the near-pole cell areas would only amplify
            # bare float64 roundoff
            rhs = self.areas * v
            res = np.max(np.abs(self.flux @ v_next + rhs)) / (
                self._flux_norm * np.max(np.abs(v_next)) + np.max(np.abs(rhs))
            )
            if res > RESIDUAL_TOL:
                raise ResolutionError(f"Poisson solve residual {res} too large")
            levels[k] = v = v_next
        return levels

    def moments(self, levels: np.ndarray) -> MomentSpectrum:
        """Normalized moments of rows of ``hierarchy(k)``: the disk's area,
        then A_k = areas @ v_k (the Dirichlet ring is zero)."""
        if np.ndim(levels) != 2 or np.shape(levels)[1] != len(self.areas):
            raise ValueError("hierarchy levels were computed on another grid")
        moments = np.concatenate([[self.grid.total_area()], levels @ self.areas])
        return MomentSpectrum(normalized=moments, radius=self.grid.R)

    def field(self, v: np.ndarray) -> GridField:
        """The field of a solver vector v: center, rings 1..n_r-1 (one
        value per ring is broadcast along theta) and the zero r = R ring."""
        g = self.grid
        rings = np.zeros((g.n_r, g.n_theta))
        rings[:-1] = v[1:].reshape(g.n_r - 1, -1)
        return GridField(grid=g, center=float(v[0]), rings=rings)

    def smallest_eigenvalue(self) -> float:
        """Smallest Dirichlet eigenvalue by inverse power iteration on the
        area-weighted pencil (-flux, areas)."""
        rng = np.random.default_rng(7)
        x = rng.standard_normal(len(self.areas))
        lam_prev = 0.0
        for _ in range(POWER_MAX_ITER):
            y = self._lu.solve(self.areas * x)
            y /= np.linalg.norm(y)
            lam = -float(y @ (self.flux @ y)) / float(y @ (self.areas * y))
            if abs(lam - lam_prev) <= POWER_TOL * abs(lam):
                return lam
            lam_prev, x = lam, y
        raise ResolutionError("inverse power iteration did not converge")


@dataclass(frozen=True)
class GridEigenvalue:
    moment_value: float
    power_value: float


def lambda1_grid(m: PolarMetric2D, grid: PolarGrid) -> GridEigenvalue:
    """First Dirichlet eigenvalue two ways: moment-ratio limit of
    LAMBDA1_LEVELS levels and inverse power iteration.  Disagreement beyond
    AGREEMENT_TOL raises."""
    if m is not grid.metric:
        raise ValueError("grid was built for a different metric")
    solver = HierarchySolver(grid)
    return lambda1_from_solver(solver, solver.hierarchy(LAMBDA1_LEVELS))


def lambda1_from_solver(solver: HierarchySolver, levels: np.ndarray) -> GridEigenvalue:
    """lambda1_grid on an existing factorization and rows of its
    ``hierarchy(k)``; levels that are not the solver's raise ValueError."""
    return _lambda1_from_spectrum(solver, solver.moments(levels))


def _lambda1_from_spectrum(solver: HierarchySolver, spec: MomentSpectrum) -> GridEigenvalue:
    """lambda1_from_solver on the solver's grid moments spec."""
    est = lambda1_from_moments(spec)
    power = solver.smallest_eigenvalue()
    if abs(est.value - power) > AGREEMENT_TOL * power:
        raise ResolutionError(
            f"eigenvalue routes disagree: moments={est.value}, power={power}"
        )
    return GridEigenvalue(moment_value=est.value, power_value=power)
