"""Finite-difference Poisson hierarchy, moments and eigenvalue on polar disks.

The Laplacian is discretized in divergence form, which makes the operator
symmetric in the area-weighted inner product; the tests keep the expanded
coordinate form as its reference.  The flux matrix's sparse pattern depends
only on the grid's shape: ``_flux_pattern`` builds it once per (n_r,
n_theta), as read-only int32 arrays (the faces, each entry's CSC slot, and
the CSC indices and indptr), and keeps the last shape's, so a repeat
build of that shape in one process fills only the values.  A single
factorization is reused across all hierarchy levels and the inverse power
iteration: LAPACK's LDL^T of a symmetric positive definite tridiagonal
(pttrf) on a rotationally symmetric grid, SuperLU on any other.

The metric is sampled on broadcast axes (radii[:, None], thetas[None, :]),
never on a materialized mesh, and whether a grid is constant in theta is
decided once, on those w samples: a sample set whose rows are constant is
kept as one column, and is broadcast to (n_r, n_theta) only where a 2-D
array is read.

When the face conductances and cell areas are constant in theta (every
``radial(...)`` metric, the model balls of the comparison theorems),
everything the solver is asked for lives in Fourier mode 0 (see
``HierarchySolver``), and its pencil is the same stencil on one angle: one
tridiagonal system over the center and the rings, the k = 0 system of the
classical fast Poisson solver on a disk (Buzbee, Golub & Nielson 1970),
factored as LDL^T (Golub & Van Loan, Matrix Computations, 4.3.6).  When
the samples are instead invariant under a dihedral group D_c about the
pole (example1 has D_2, perturbed(eps, mode) D_{2 mode}), so is everything
the solver is asked for, and it takes SuperLU on the sector [0, pi/c]:
the same stencil on the sector's n_theta/(2c) + 1 angles, weighted by the
sizes of their orbits.  A metric with neither symmetry takes SuperLU on
the whole 2-D pencil.  Each hierarchy level
is one direct solve, checked by its normwise backward error against the
solver's flux matrix: one sparse product per block of levels of at most
GATE_BLOCK entries (all 5 levels of a radial grid of up to 13,107 rings
in one), gated as soon as the block is solved.  Once all are solved,
each level is checked again by the discrete divergence theorem: the flux
it sends through the Dirichlet ring is the moment of the level before.
Inverse power iteration reads its Rayleigh numerator off each step's
solve, with no product with the flux matrix.
``HierarchySolver.hierarchy`` returns one ``GridHierarchy``:
its levels as solver vectors, their moments (one product with the areas)
and lambda_1.  On every route -A is an irreducible M-matrix, so two
consecutive levels bracket lambda_1 by the Collatz-Wielandt bound
(Meyer, Matrix Analysis and Applied Linear Algebra, 2000, 8.3), and the
power value, a Rayleigh quotient of the symmetric pencil, must fall
inside the bracket.  There is no field type: a level stays a solver
vector.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from .hierarchy import MomentSpectrum
from .surface import TWO_PI, MetricAuditError, PolarMetric2D

# hierarchy level L that, with level L - 1, brackets the grid lambda_1
# around the power eigenvalue (``GridHierarchy.lambda1``): to 3e-3
# relative on example1 at 256^2 and the flat disk at 384^2.  Deeper levels
# close the bracket inside the power iteration's own error (1.2e-10 on
# example1 at 256^2, where levels 23 and 24 bracket it to 1.2e-13)
LAMBDA1_LEVELS = 5
# largest normwise backward error of a hierarchy solve
RESIDUAL_TOL = 1e-10
# most level entries the backward-error gate takes in one sparse product
# (0.5 MB of float64), which bounds its temporaries: the LAMBDA1_LEVELS
# levels of a radial grid of up to 13,107 rings in one
GATE_BLOCK = 1 << 16
# inverse power iteration: relative eigenvalue change to stop at, step budget
POWER_TOL = 1e-8
POWER_MAX_ITER = 500
# largest relative gap between a grid sample and its value at its orbit's
# angle under a dihedral symmetry of the grid; on example1 and
# perturbed(eps, mode) at 24^2-512^2 the gaps are <= 9.7e-16
SYMMETRY_TOL = 1e-14
# most flux patterns held at once, one per grid shape.  A pattern pays off
# only when its shape comes back within a process: a report, lambda1_grid
# and each CLI command build one shape, so one is held (15 MiB at 512^2)
FLUX_PATTERNS = 1


class ResolutionError(RuntimeError):
    """Grid routes disagree beyond the allowed discretization budget."""


@dataclass(frozen=True)
class PolarGrid:
    """Uniform polar grid over the disk of radius R with cell-area weights.

    ``node_area`` and ``boundary_area`` hold one area per node.  When w is
    constant along every ring (any ``radial(...)`` metric) they are
    read-only views that broadcast one column along theta; ``_node_area``
    holds the node areas as sampled, which tells the solver so.
    """

    metric: PolarMetric2D
    R: float
    n_r: int
    n_theta: int
    radii: np.ndarray = field(init=False, repr=False)
    thetas: np.ndarray = field(init=False, repr=False)
    node_area: np.ndarray = field(init=False, repr=False)  # rings 1..n_r-1
    boundary_area: np.ndarray = field(init=False, repr=False)
    center_area: float = field(init=False, repr=False)
    _node_area: np.ndarray = field(init=False, repr=False)  # (n_r-1, 1 or n_theta)

    def __post_init__(self) -> None:
        for name in ("n_r", "n_theta"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.n_theta < 2 or self.n_theta % 2 != 0:
            raise ValueError(f"n_theta must be even and >= 2, got {self.n_theta}")
        if self.n_r < 4:
            raise ValueError("n_r must be >= 4")
        self.metric._check_radius(self.R)
        # np.linspace(0, R, n_r + 1) bit for bit, without its checks
        radii = np.arange(self.n_r + 1) * (self.R / self.n_r)
        radii[-1] = self.R
        thetas = np.arange(self.n_theta) * (TWO_PI / self.n_theta)
        dr, dt = radii[1], thetas[1]
        # rows: the nodes, the r = R ring, the center cell's ring at dr/2
        w = self._sample_w(np.append(radii[1:], dr / 2), thetas)
        node_area = w[:-2] * dr * dt
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "_node_area", node_area)
        object.__setattr__(self, "node_area",
                           np.broadcast_to(node_area, (self.n_r - 1, self.n_theta)))
        object.__setattr__(self, "boundary_area",
                           np.broadcast_to(w[-2] * (dr / 2) * dt, (self.n_theta,)))
        # summed over every angle, in the order of a full ring
        wc = np.broadcast_to(w[-1], (self.n_theta,))
        object.__setattr__(self, "center_area", float(np.sum(wc) * dr / 4 * dt))

    def _sample_w(self, radii: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        """w on the axes (radii[:, None], thetas[None, :]): one column when
        every row is constant in theta, else (len(radii), len(thetas)).  A
        non-finite sample raises, naming the first in row-major order."""
        shape = (len(radii), len(thetas))
        w = self.metric.w(radii[:, None], thetas[None, :])
        # both checks run on w as returned: on one column if w is one
        finite = np.isfinite(w)
        if not np.all(finite):
            i, j = np.unravel_index(np.argmin(np.broadcast_to(finite, shape)), shape)
            raise MetricAuditError(
                f"metric '{self.metric.label}': w is {np.broadcast_to(w, shape)[i, j]} "
                f"at r = {float(radii[i])!r}, theta = {float(thetas[j])!r}"
            )
        if np.shape(w) == (shape[0], 1):
            return w.copy()
        full = np.broadcast_to(w, shape)
        column = full[:, :1]
        return column.copy() if np.all(w == column) else full

    @property
    def dr(self) -> float:
        return float(self.radii[1])

    @property
    def dtheta(self) -> float:
        return TWO_PI / self.n_theta

    def total_area(self) -> float:
        # one column of a radial grid's node areas stands for n_theta
        node_sum = self._node_area.sum() * (self.n_theta / self._node_area.shape[1])
        return float(node_sum + self.boundary_area.sum() + self.center_area)


def make_grid(m: PolarMetric2D, R: float, n_r: int = 128, n_theta: int = 128) -> PolarGrid:
    return PolarGrid(metric=m, R=R, n_r=n_r, n_theta=n_theta)


def _conductances(grid: PolarGrid) -> tuple[np.ndarray, np.ndarray]:
    """Radial face conductances (n_r rows; row i couples ring i to ring
    i+1, the last row couples to the r = R ring values) and angular ones
    (n_r-1 rows; face j+1/2 of ring i+1): the metric factor at each face
    times dtheta/dr, and dr/dtheta over it.  Each has one column when its
    w samples are constant along every ring, n_theta otherwise."""
    radii, thetas, dr, dt = grid.radii, grid.thetas, grid.dr, grid.dtheta
    w_face_r = grid._sample_w(radii[:-1] + dr / 2, thetas)  # faces 1/2 .. n_r-1/2
    w_face_t = grid._sample_w(radii[1:-1], thetas + dt / 2)
    return w_face_r * (dt / dr), dr / dt / w_face_t


@functools.lru_cache(maxsize=FLUX_PATTERNS)
def _flux_pattern(n_r: int, n_theta: int) -> tuple[np.ndarray, ...]:
    """Read-only int32 sparse pattern of the flux matrix of a grid of n_r
    rings of n_theta nodes: the faces (p, q), one per interior face
    (center-ring 1, ring i-ring i+1, then angular: node j of a ring to
    node j + 1, the last to the first); each entry's CSC slot, for the
    entries (p, q), (q, p) and the diagonal in that order; and the CSC
    ``indices`` and ``indptr``.  Entries that share a slot are summed: the
    self-loop angular faces at n_theta = 1 into the diagonal, the two
    angular faces of a ring at n_theta = 2 into one coupling."""
    nt, n = n_theta, 1 + (n_r - 1) * n_theta
    ring = np.arange(1, n, dtype=np.int32).reshape(n_r - 1, nt)
    p = np.concatenate([np.zeros(nt, dtype=np.int32), ring[:-1].ravel(), ring.ravel()])
    q = np.concatenate([ring[0], ring[1:].ravel(),
                        np.concatenate([ring[:, 1:], ring[:, :1]], axis=1).ravel()])
    diag = np.arange(n, dtype=np.int32)
    # column-major (col, row) keys, in sorted runs that the stable sort merges
    keys = np.concatenate([q, p, diag]).astype(np.int64)
    keys *= n
    keys += np.concatenate([p, q, diag])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.concatenate([[True], keys[1:] != keys[:-1]])  # of each slot
    slot = np.empty(len(keys), dtype=np.int32)
    slot[order] = np.cumsum(first, dtype=np.int32) - 1
    cols, rows = np.divmod(keys[first], n)
    indices = rows.astype(np.int32)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
    pattern = p, q, slot, indices, indptr
    for a in pattern:
        a.setflags(write=False)
    return pattern


def _assemble_flux(
    c_radial: np.ndarray, c_angular: np.ndarray, n_theta: int
) -> csc_matrix:
    """Symmetric flux matrix A over the unknowns (center, rings 1..n_r-1)
    of a grid of n_r = len(c_radial) rings of n_theta nodes, from face
    conductances as from ``_conductances``.  The discrete Laplacian is
    (A x + c_radial[-1] * boundary) / areas.

    The pattern comes from ``_flux_pattern``, built once per (n_r,
    n_theta) and shared: the matrix's ``indices`` and ``indptr`` are its
    read-only int32 arrays, and a build fills only the values."""
    nr, nt = len(c_radial), n_theta
    if c_radial.shape != (nr, nt):
        c_radial = np.broadcast_to(c_radial, (nr, nt))
    if c_angular.shape != (nr - 1, nt):
        c_angular = np.broadcast_to(c_angular, (nr - 1, nt))
    p, q, slot, indices, indptr = _flux_pattern(nr, nt)
    c = np.concatenate([c_radial[0], c_radial[1:-1].ravel(), c_angular.ravel()])
    n_unknowns = len(indptr) - 1
    diag = -np.bincount(p, c, n_unknowns) - np.bincount(q, c, n_unknowns)
    diag[-nt:] -= c_radial[-1]  # face to the Dirichlet ring
    data = np.bincount(slot, np.concatenate([c, c, diag]), len(indices))
    return csc_matrix((data, indices, indptr), shape=(n_unknowns, n_unknowns))


@dataclass(frozen=True)
class _Fill:
    """Nonzero count of one triangular factor."""

    nnz: int


class _TridiagonalFactor:
    """LDL^T factor of -flux, for a tridiagonal flux whose negative is
    positive definite (LAPACK pttrf).  It offers what the solver reads of
    a SuperLU factor, and the fill a trace reports: ``solve``, ``shape``
    and ``L.nnz + U.nnz``, where L is unit lower bidiagonal and U = D L^T
    upper bidiagonal, 2n - 1 nonzeros each."""

    def __init__(self, flux: csc_matrix):
        d, e, info = dpttrf(-flux.diagonal(), -flux.diagonal(1))
        if info != 0:
            raise ResolutionError(
                f"radial pencil is not negative definite: pttrf info = {info}")
        self._d, self._e, self.shape = d, e, flux.shape
        self.L = self.U = _Fill(2 * len(d) - 1)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with flux x = rhs."""
        x = dpttrs(self._d, self._e, rhs)[0]
        return np.negative(x, out=x)


def _dihedral_order(n_theta: int, c_radial: np.ndarray, c_angular: np.ndarray,
                    node_area: np.ndarray) -> int:
    """Largest c with 2c | n_theta such that the radial conductances and
    node areas (node columns) and the angular conductances (face columns)
    are invariant under the dihedral group D_c about the pole, generated by
    the reflection (node j to -j, face j to n_theta-1-j) and the rotation
    by n_theta/c columns; 0 when not even the reflection is a symmetry.
    Invariant means that each sample is within SYMMETRY_TOL relative of
    its value at its orbit's angle in the sector 0..q, q = n_theta/(2c):
    node j's is min(r, 2q - r) and face j's min(r, 2q - 1 - r), with
    r = j mod 2q.  A one-column sample is invariant under every map."""
    j = np.arange(n_theta)

    def invariant(node_cols: np.ndarray, face_cols: np.ndarray,
                  rows: slice = slice(None)) -> bool:
        return all(a.shape[1] == 1
                   or np.all(np.abs(a[rows, cols] - a[rows]) <= SYMMETRY_TOL * np.abs(a[rows]))
                   for a, cols in ((c_radial, node_cols), (node_area, node_cols),
                                   (c_angular, face_cols)))

    for c in range(n_theta // 2, 0, -1):
        if n_theta % (2 * c) == 0:
            q = n_theta // (2 * c)
            r = j % (2 * q)
            nodes, faces = np.minimum(r, 2 * q - r), np.minimum(r, 2 * q - 1 - r)
            # the outermost row of each sample rules out most groups at the
            # cost of one row
            if invariant(nodes, faces, slice(-1, None)) and invariant(nodes, faces):
                return c
    return 0


class HierarchySolver:
    """Direct solver for the Dirichlet Poisson hierarchy on a grid.

    Unknowns: one center node plus rings 1..n_r-1 (the r = R ring is the
    Dirichlet boundary).  The flux matrix A is symmetric; the Laplacian is
    diag(1/area) @ A.  ``flux`` is factored once, and ``hierarchy`` checks
    each level's normwise backward error against it, by one product of
    ``flux`` with a block of levels of at most GATE_BLOCK entries, and
    then every level's divergence gap.  The columns of A sum to -c_D, the
    conductances of the faces to the Dirichlet ring, nonzero on the last
    ring only; so A v_k = -D v_{k-1} gives c_D . v_k = areas . v_{k-1}
    (``areas.sum()`` for k = 1), and the gap of level k is the relative
    difference of the two sides.  It sees an error along a whole level,
    such as a scaling, that the normwise error hides on a fine grid.

    On a rotationally symmetric grid (conductances and cell areas constant
    in theta: any radial metric, whose w samples the grid and
    ``_conductances`` keep as one column each) A is circulant in theta.
    Its Fourier block k >= 1 is block 0 restricted to the rings plus the
    nonnegative diagonal 2 a_i (1 - cos(2 pi k / n_theta)), so by
    Courant-Fischer its smallest eigenvalue is no lower than block 0's:
    lambda_1 lives in mode 0, as the first Dirichlet eigenfunction of a
    rotationally symmetric ball is radial.  Every hierarchy level is
    constant in theta too (the areas, v_0 = 1 and each mode-0 solution
    are).  So mode 0 is the solver's pencil: ``flux`` and ``areas`` are
    P^T A P and P^T D P (P expands ring values along theta), the n_r x n_r
    tridiagonal stencil on one angle with each ring's conductances and
    areas summed around it, and every vector holds one value per ring.
    -flux is then positive definite and factored as LDL^T by LAPACK
    (``_TridiagonalFactor``).

    Otherwise, when the conductances and node areas are invariant to
    SYMMETRY_TOL under the dihedral group D_c about the pole (see
    ``_dihedral_order``, which finds the largest c with 2c | n_theta), so
    are v_0 = 1, every level and the first eigenfunction, which is simple
    and positive: the solver keeps the invariant subspace, P^T A P and
    P^T D P with P the expansion from the sector's angles 0..q,
    q = n_theta/(2c).  That is the same stencil on q + 1 angles, with each
    node's radial conductances and area times the size of its orbit (c on
    the two mirror angles, 2c between them), each angular face times 2c
    and the wrap face from angle q to angle 0 cut; a vector holds
    q + 1 values per ring.  The folded pencil keeps the full pencil's
    smallest eigenvalue.

    ``flux``, over every node of a metric with neither symmetry, or over
    the sector's, is factored by SuperLU in a minimum-degree ordering of
    A^T + A, which suits its symmetric 5-point pattern.  Every route's
    moment of a level is ``areas @ level``, and its divergence gap and
    backward error are taken on its own ``flux``.
    """

    def __init__(self, grid: PolarGrid):
        self.grid = grid
        c_radial, c_angular = _conductances(grid)
        n_theta = grid.n_theta
        radial = c_radial.shape[1] == c_angular.shape[1] == grid._node_area.shape[1] == 1
        # orbit sizes of the angles the solver keeps and of the angular
        # faces from each to the next
        if radial:
            # on one angle a ring's angular face joins it to itself and
            # carries no flux: the pencil is tridiagonal
            weight, face_weight = np.array([float(n_theta)]), np.zeros(1)
        elif c := _dihedral_order(n_theta, c_radial, c_angular, grid._node_area):
            # the sector's angles 0..q; its wrap face from q to 0 is cut
            q = n_theta // (2 * c)
            weight = np.full(q + 1, 2.0 * c)
            weight[[0, -1]] = c  # the mirror angles
            face_weight = np.append(np.full(q, 2.0 * c), 0.0)
        else:
            weight = face_weight = np.ones(n_theta)
        n_theta = len(weight)
        c_radial = weight * c_radial[:, :n_theta]
        c_angular = face_weight * c_angular[:, :n_theta]
        node_area = weight * grid._node_area[:, :n_theta]
        self.flux = flux = _assemble_flux(c_radial, c_angular, n_theta)
        # c_D: conductances of the last ring's faces to the Dirichlet ring
        self._c_dirichlet = np.broadcast_to(c_radial[-1], (n_theta,))
        self.areas = np.concatenate([[grid.center_area], node_area.reshape(-1)])
        # largest absolute row sum, from the CSC entries (row indices)
        self._flux_norm = float(np.bincount(flux.indices, np.abs(flux.data),
                                            len(self.areas)).max())
        self._lu = (_TridiagonalFactor(flux) if radial
                    else splu(flux, permc_spec="MMD_AT_PLUS_A"))

    def solve_poisson(self, rhs: np.ndarray) -> np.ndarray:
        """Solve L v = rhs by one direct solve of the flux system."""
        return self._lu.solve(self.areas * rhs)

    def hierarchy(self, depth: int) -> GridHierarchy:
        """Normalized hierarchy v_k = u_k/k!, k = 1..depth, one direct
        solve per level, with its moments A_0..A_depth (see
        ``GridHierarchy``).  The levels are gated in blocks of at most
        GATE_BLOCK entries, each as soon as it is solved, and then by the
        divergence theorem."""
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if depth > 64:
            warnings.warn("depth > 64: deep hierarchy may lose accuracy", RuntimeWarning)
        n = len(self.areas)
        levels = np.empty((depth, n))
        v = np.ones(n)
        block = max(1, GATE_BLOCK // n)  # levels per gate block
        for start in range(0, depth, block):
            stop = min(start + block, depth)
            for k in range(start, stop):
                levels[k] = v = self.solve_poisson(-v)
            res = self._backward_errors(levels, start, stop)
            bad = np.flatnonzero(~(res <= RESIDUAL_TOL))  # a NaN residual fails too
            if len(bad):
                raise ResolutionError(f"Poisson residual {float(res[bad[0]])} too large "
                                      f"at level {start + bad[0] + 1}")
        moments = levels @ self.areas
        # each level's flux through the Dirichlet ring over the moment of
        # the level before, which the divergence theorem makes 1
        c_d = self._c_dirichlet
        ratio = levels[:, -len(c_d):] @ c_d
        ratio[0] /= self.areas.sum()
        ratio[1:] /= moments[:-1]
        gap = np.abs(ratio - 1.0)
        if not gap.max() <= RESIDUAL_TOL:  # a NaN gap fails too
            k = np.flatnonzero(~(gap <= RESIDUAL_TOL))[0]
            raise ResolutionError(f"divergence gap {float(gap[k])} too large "
                                  f"at level {k + 1}")
        moments = np.concatenate([[self.grid.total_area()], moments])
        return GridHierarchy(self, levels, MomentSpectrum(moments, self.grid.R))

    def _backward_errors(self, levels: np.ndarray, start: int, stop: int) -> np.ndarray:
        """Normwise backward error of each of levels[start:stop] as a
        solution of flux x = -rhs, rhs = areas * (the level before it, 1
        before the first), by one sparse product.  The product comes out
        one row per node; its sum with rhs is laid out one row per level,
        so every maximum reads contiguous memory.  Dividing elementwise by
        the near-pole cell areas would only amplify bare float64 roundoff.
        A level that underflowed to zero gives 0/0 = NaN, which the
        caller's gate refuses."""
        x = levels[start:stop]
        rhs = np.empty_like(x)
        rhs[0] = levels[start - 1] if start else 1.0
        rhs[1:] = x[:-1]
        rhs *= self.areas
        with np.errstate(invalid="ignore"):
            r = np.add((self.flux @ x.T).T, rhs, order="C")
            return np.abs(r, out=r).max(axis=1) / (
                self._flux_norm * np.abs(x).max(axis=1) + np.abs(rhs).max(axis=1))

    def smallest_eigenvalue(self) -> float:
        """Smallest Dirichlet eigenvalue by inverse power iteration on the
        area-weighted pencil (-flux, areas).  Each step solves
        flux y = areas * x, so the Rayleigh numerator y . flux y of the
        normalized y is y . (areas * x) / |y|: no product with flux.  A
        non-finite quotient raises at once."""
        x = _power_start(len(self.areas))
        lam_prev = 0.0
        for step in range(1, POWER_MAX_ITER + 1):
            b = self.areas * x
            y = self._lu.solve(b)
            norm = float(np.linalg.norm(y))
            y /= norm
            lam = -float(y @ b) / norm / float(y @ (self.areas * y))
            if not math.isfinite(lam):
                raise ResolutionError(
                    f"inverse power iteration: Rayleigh quotient {lam} at step {step}")
            if abs(lam - lam_prev) <= POWER_TOL * abs(lam):
                return lam
            lam_prev, x = lam, y
        raise ResolutionError("inverse power iteration did not converge")


@functools.cache
def _power_start(n: int) -> np.ndarray:
    """Read-only seeded start vector of inverse power iteration on n
    unknowns."""
    x = np.random.default_rng(7).standard_normal(n)
    x.setflags(write=False)
    return x


@dataclass(frozen=True)
class GridEigenvalue:
    power_value: float
    lower: float
    upper: float


@dataclass(frozen=True)
class GridHierarchy:
    """Normalized Poisson hierarchy v_1..v_n of a polar disk and its
    moments, from one factorization.  ``levels`` holds v_k as row k - 1,
    one solver vector each; ``spectrum`` holds the disk's area, then
    A_k = areas @ v_k (the Dirichlet ring is zero) for k = 1..n.  With
    D = diag(areas) and M = -A^-1, v_k = (MD)^k 1 and A_k = 1 . D(MD)^k 1.
    Build it with ``HierarchySolver.hierarchy``."""

    solver: HierarchySolver
    levels: np.ndarray  # (k, len(solver.areas))
    spectrum: MomentSpectrum

    def lambda1(self) -> GridEigenvalue:
        """First Dirichlet eigenvalue by inverse power iteration on the
        solver's pencil, inside the Collatz-Wielandt bracket of levels
        L - 1 and L, L = min(n, LAMBDA1_LEVELS), v_0 = 1: the least and the
        largest entry of v_(L-1)/v_L.  On every route -A is an irreducible
        M-matrix, so M > 0, and MD v_(L-1) = v_L puts 1/lambda_1, the
        dominant eigenvalue of MD, between the least and the largest of
        v_L/v_(L-1).  The power value is a Rayleigh quotient of the
        symmetric pencil, so it lies above lambda_1, and at L = 5 it lies
        within the bracket; one outside it, or a NaN, raises
        ResolutionError."""
        L = min(len(self.levels), LAMBDA1_LEVELS)
        ratio = (self.levels[L - 2] if L > 1 else 1.0) / self.levels[L - 1]
        lower, upper = float(ratio.min()), float(ratio.max())
        power = self.solver.smallest_eigenvalue()
        if not lower <= power <= upper:  # a NaN fails too
            raise ResolutionError(f"power eigenvalue {power} outside the bracket "
                                  f"[{lower}, {upper}] of levels {L - 1} and {L}")
        return GridEigenvalue(power, lower, upper)


def lambda1_grid(m: PolarMetric2D, grid: PolarGrid) -> GridEigenvalue:
    """``GridHierarchy.lambda1`` of LAMBDA1_LEVELS levels on a grid of the
    metric m; the benchmark calls it."""
    if m is not grid.metric:
        raise ValueError("grid was built for a different metric")
    return HierarchySolver(grid).hierarchy(LAMBDA1_LEVELS).lambda1()
