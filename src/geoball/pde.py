"""Finite-difference Poisson hierarchy, moments and eigenvalue on polar disks.

The Laplacian is discretized in divergence form, which makes the operator
symmetric in the area-weighted inner product; the expanded coordinate form
is kept as an audit route.  A single factorization is reused across all
hierarchy levels and the inverse power iteration.

When the face conductances of the flux matrix are constant in theta (every
``radial(...)`` metric, the model balls of the comparison theorems), the
matrix is circulant in theta: a real FFT along theta splits it into
n_theta/2 + 1 independent tridiagonal radial systems, the classical fast
Poisson solver on a disk (Buzbee, Golub & Nielson 1970; Swarztrauber &
Sweet 1973).  That factorization solves the very same discrete system as a
sparse LU of the flux matrix, so only the cost changes.  A right-hand
side that is constant in theta on every ring excites mode 0 alone, which
is one tridiagonal system over the center and the rings: on a radial grid
every hierarchy level is such a solve, since the cell areas, the constant
v_0 = 1 and each mode-0 solution are all constant in theta.  Any other
metric takes the general sparse LU.  Each hierarchy level is one direct
solve, checked by its normwise backward error against the flux matrix.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.sparse import csc_matrix, diags
from scipy.sparse.linalg import SuperLU, splu

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

    def max_abs(self) -> float:
        return max(abs(self.center), float(np.max(np.abs(self.rings))))


def make_grid(m: PolarMetric2D, R: float, n_r: int = 128, n_theta: int = 128) -> PolarGrid:
    return PolarGrid(metric=m, R=R, n_r=n_r, n_theta=n_theta)


def field_from_function(grid: PolarGrid, fn) -> GridField:
    """Sample fn(r, theta) on the grid (fn must accept arrays)."""
    rr, tt = np.meshgrid(grid.radii[1:], grid.thetas, indexing="ij")
    return GridField(grid=grid, center=float(fn(0.0, 0.0)), rings=np.asarray(fn(rr, tt)))


def _face_weights(grid: PolarGrid):
    """Metric factor at radial faces (i+1/2) and angular faces (j+1/2)."""
    radii, thetas = grid.radii, grid.thetas
    r_half = radii[:-1] + grid.dr / 2  # faces 1/2 .. n_r-1/2
    w_face_r = grid._sample_w(r_half, thetas)  # (n_r, n_theta)
    w_face_t = grid._sample_w(radii[1:-1], thetas + grid.dtheta / 2)  # (n_r-1, n_theta)
    return w_face_r, w_face_t


def _assemble_flux(grid: PolarGrid) -> tuple[csc_matrix, np.ndarray, np.ndarray]:
    """Symmetric flux matrix A over the unknowns (center, rings 1..n_r-1),
    the radial face conductances (n_r, n_theta; row i couples ring i to
    ring i+1, the last row couples to the r = R ring values) and the
    angular ones (n_r-1, n_theta; face j+1/2 of ring i+1).  The discrete
    Laplacian is (A x + c_radial[-1] * boundary) / areas."""
    nr, nt = grid.n_r, grid.n_theta
    dr, dt = grid.dr, grid.dtheta
    w_face_r, w_face_t = _face_weights(grid)
    c_radial = w_face_r * (dt / dr)  # row i: face between rings i and i+1
    c_angular = dr / dt / w_face_t
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
    flux = csc_matrix(
        (np.concatenate([c, c, diag]),
         (np.concatenate([p, q, idx]), np.concatenate([q, p, idx]))),
        shape=(n_unknowns, n_unknowns),
    )
    return flux, c_radial, c_angular


def _theta_independent(c_radial: np.ndarray, c_angular: np.ndarray) -> bool:
    """True iff every ring's conductances are equal across theta, i.e. the
    flux matrix is circulant in theta."""
    return bool(np.all(c_radial == c_radial[:, :1])
                and np.all(c_angular == c_angular[:, :1]))


def _factor_fourier_modes(
    c: np.ndarray, a: np.ndarray, n_theta: int
) -> tuple[SuperLU, SuperLU]:
    """LU of the block-diagonal matrix of the theta-Fourier modes of a
    circulant flux matrix with radial conductances c (n_r) and angular
    conductances a (n_r-1), and LU of its block 0 alone.

    Block k = 0..n_theta/2 is tridiagonal over rings 1..n_r-1 with diagonal
    -(c[i] + c[i+1]) - 2 a[i] (1 - cos(2 pi k / n_theta)) and off-diagonal
    c[i+1].  Block 0 is bordered in front by the center unknown, scaled as
    y = n_theta * x_center so that the block stays symmetric.
    """
    n_modes = n_theta // 2 + 1
    eig = 2.0 * (1.0 - np.cos(TWO_PI / n_theta * np.arange(n_modes)))
    diagonal = np.concatenate([[-c[0]], (-(c[:-1] + c[1:]) - np.outer(eig, a)).ravel()])
    # coupling of unknown n to n+1: none across a block boundary
    off = np.concatenate([[c[0]], np.tile(np.append(c[1:-1], 0.0), n_modes)[:-1]])
    blocks = diags([off, diagonal, off], [-1, 0, 1], format="csc")
    n0 = len(c)  # block 0: the center and rings 1..n_r-1
    return (splu(blocks, permc_spec="NATURAL"),
            splu(blocks[:n0, :n0], permc_spec="NATURAL"))


def _fourier_solve(lu: SuperLU, lu0: SuperLU, n_theta: int, b: np.ndarray) -> np.ndarray:
    """A^{-1} b for the circulant flux matrix A whose Fourier-mode blocks
    lu factors, and whose block 0 lu0 factors (``_factor_fourier_modes``).

    A right-hand side whose rings are constant in theta excites mode 0
    alone, so one solve of block 0 gives the solution: the center is
    y_0 / n_theta and ring i is y_i / n_theta all along theta.
    """
    rings = b[1:].reshape(-1, n_theta)
    if np.all(rings == rings[:, :1]):
        y = lu0.solve(np.concatenate([b[:1], n_theta * rings[:, 0]])) / n_theta
        return np.concatenate([y[:1], np.repeat(y[1:], n_theta)])
    return _fourier_solve_all_modes(lu, n_theta, b)


def _fourier_solve_all_modes(lu: SuperLU, n_theta: int, b: np.ndarray) -> np.ndarray:
    """``_fourier_solve`` through every Fourier mode: rfft, the block
    solves and the inverse rfft."""
    b_hat = np.fft.rfft(b[1:].reshape(-1, n_theta), axis=1).T.ravel()
    rhs = np.empty((len(b_hat) + 1, 2))
    rhs[0] = b[0], 0.0
    rhs[1:, 0], rhs[1:, 1] = b_hat.real, b_hat.imag
    y = lu.solve(rhs)
    x_hat = (y[1:, 0] + 1j * y[1:, 1]).reshape(n_theta // 2 + 1, -1).T
    x = np.fft.irfft(x_hat, n_theta, axis=1).ravel()
    return np.concatenate([[y[0, 0] / n_theta], x])


def _unknown_areas(grid: PolarGrid) -> np.ndarray:
    return np.concatenate([[grid.center_area], grid.node_area.reshape(-1)])


def _vec_to_field(grid: PolarGrid, x: np.ndarray) -> GridField:
    nr, nt = grid.n_r, grid.n_theta
    rings = np.vstack([x[1:].reshape(nr - 1, nt), np.zeros((1, nt))])
    return GridField(grid=grid, center=float(x[0]), rings=rings)


def apply_laplacian(f: GridField, form: str = "divergence") -> GridField:
    """Discrete Laplacian of f on its grid; the boundary ring of the result
    is zeroed.

    'divergence' is the flux-balanced second-order scheme used by the
    solver (its flux matrix, applied); 'expanded' discretizes the
    coordinate form f_rr + (w_r/w) f_r + f_tt/w^2 - (w_t/w^3) f_t and
    exists as an independent audit.
    """
    grid = f.grid
    if form == "divergence":
        flux, c_radial, _ = _assemble_flux(grid)
        y = flux @ np.concatenate([[f.center], f.rings[:-1].reshape(-1)])
        y[-grid.n_theta:] += c_radial[-1] * f.rings[-1]
        return _vec_to_field(grid, y / _unknown_areas(grid))
    if form != "expanded":
        raise ValueError(f"unknown form '{form}'")
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


class HierarchySolver:
    """Direct solver for the Dirichlet Poisson hierarchy on a grid.

    Unknowns: one center node plus rings 1..n_r-1 (the r = R ring is the
    Dirichlet boundary).  The flux matrix A is symmetric; the Laplacian is
    diag(1/area) @ A.  A is factored once.  If its conductances are
    constant in theta (any radial metric), A is circulant in theta and the
    factorization is that of its n_theta/2 + 1 tridiagonal Fourier-mode
    blocks, applied between a real FFT and its inverse along theta; this
    is an exact block diagonalization of the same A, so it solves the same
    discrete system as a sparse LU would.  Block 0 is also factored on its
    own, and a right-hand side constant in theta on every ring (each
    hierarchy level) is solved by it alone, without the FFT; ``_lu`` is
    the factor of all the blocks.  Otherwise A is factored by
    SuperLU in a minimum-degree ordering of A^T + A, which suits its
    symmetric 5-point pattern.  A solve is one direct solve; ``hierarchy``
    checks each level's normwise backward error against A.
    """

    def __init__(self, grid: PolarGrid):
        self.grid = grid
        self.flux, c_radial, c_angular = _assemble_flux(grid)
        self.areas = _unknown_areas(grid)
        self._flux_norm = float(np.max(np.abs(self.flux).sum(axis=1)))
        if _theta_independent(c_radial, c_angular):
            self._lu, lu0 = _factor_fourier_modes(
                c_radial[:, 0], c_angular[:, 0], grid.n_theta)
            # bound to the factors, not to self: a cycle through self
            # would keep every solver alive until the cyclic collector runs
            self._flux_solve = partial(_fourier_solve, self._lu, lu0, grid.n_theta)
        else:
            self._lu = splu(self.flux, permc_spec="MMD_AT_PLUS_A")
            self._flux_solve = self._lu.solve

    def solve_poisson(self, rhs: np.ndarray) -> np.ndarray:
        """Solve L v = rhs by one direct solve of the flux system."""
        return self._flux_solve(self.areas * rhs)

    def hierarchy(self, k_max: int) -> list[GridField]:
        """Normalized hierarchy v_k = u_k/k!, k = 1..k_max, one direct
        solve per level."""
        if k_max < 1:
            raise ValueError("k_max must be >= 1")
        if k_max > 64:
            warnings.warn("k_max > 64: deep hierarchy may lose accuracy", RuntimeWarning)
        levels = []
        v = np.ones(len(self.areas))
        for _ in range(k_max):
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
            levels.append(_vec_to_field(self.grid, v_next))
            v = v_next
        return levels

    def smallest_eigenvalue(self) -> float:
        """Smallest Dirichlet eigenvalue by inverse power iteration on the
        area-weighted pencil (-flux, areas)."""
        rng = np.random.default_rng(7)
        x = rng.standard_normal(len(self.areas))
        lam_prev = 0.0
        for _ in range(POWER_MAX_ITER):
            y = self._flux_solve(self.areas * x)
            y /= np.linalg.norm(y)
            lam = -float(y @ (self.flux @ y)) / float(y @ (self.areas * y))
            if abs(lam - lam_prev) <= POWER_TOL * abs(lam):
                return lam
            lam_prev, x = lam, y
        raise ResolutionError("inverse power iteration did not converge")


def moments_grid(fields: Sequence[GridField]) -> MomentSpectrum:
    """Normalized moments from hierarchy grid fields; index 0 is the area
    of their disk."""
    if not fields:
        raise ValueError("need at least one hierarchy field")
    grid = fields[0].grid
    moments = np.empty(len(fields) + 1)
    moments[0] = grid.total_area()
    for k, f in enumerate(fields, start=1):
        moments[k] = f.integral()
    return MomentSpectrum(normalized=moments, radius=grid.R)


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


def lambda1_from_solver(
    solver: HierarchySolver, fields: Sequence[GridField]
) -> GridEigenvalue:
    """lambda1_grid on an existing factorization and its hierarchy fields
    (``solver.hierarchy(k)``, or a prefix of a deeper one)."""
    if any(f.grid is not solver.grid for f in fields):
        raise ValueError("hierarchy fields were computed on another grid")
    est = lambda1_from_moments(moments_grid(fields))
    power = solver.smallest_eigenvalue()
    if abs(est.value - power) > AGREEMENT_TOL * power:
        raise ResolutionError(
            f"eigenvalue routes disagree: moments={est.value}, power={power}"
        )
    return GridEigenvalue(moment_value=est.value, power_value=power)
