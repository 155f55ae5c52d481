"""Quadrature rules: Gauss-Legendre panels between sorted radii, and
composite Simpson on uniform samples."""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np
from scipy.integrate import simpson


class QuadratureError(RuntimeError):
    """Raised when the doubling loop fails to reach the requested tolerance."""


# Starting and largest Gauss-Legendre orders of the doubling loops that use
# GaussPanels.
GAUSS_NODES, GAUSS_NODES_MAX = 2, 2 << 9


@functools.cache
def _gauss_legendre(n_g: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only n_g-point Gauss-Legendre nodes and weights on [-1, 1]."""
    x, wts = np.polynomial.legendre.leggauss(n_g)
    x.setflags(write=False)
    wts.setflags(write=False)
    return x, wts


class GaussPanels:
    """n_g-point Gauss-Legendre panels between consecutive sorted radii,
    the first from 0, summed cumulatively: integrals over [0, r] at every
    radius r from one set of samples."""

    def __init__(self, radii: float | np.ndarray):
        rs = np.atleast_1d(np.asarray(radii, dtype=float))
        if rs.ndim != 1 or rs.size == 0 or np.any(np.diff(rs) < 0):
            raise ValueError("radii must be a scalar or a sorted, non-empty 1-D array")
        left = np.concatenate(([0.0], rs[:-1]))
        self.radii = rs
        self._half, self._mid = 0.5 * (rs - left), 0.5 * (rs + left)

    def nodes(self, n_g: int) -> np.ndarray:
        """The n_g nodes of every panel, panel by panel, as one 1-D array."""
        x = _gauss_legendre(n_g)[0]
        return (self._mid[:, None] + self._half[:, None] * x).ravel()

    def cumulative(self, values: np.ndarray, n_g: int) -> np.ndarray:
        """Integrals over [0, r] at every radius from samples at nodes(n_g)."""
        wts = _gauss_legendre(n_g)[1]
        return np.cumsum(self._half * (values.reshape(len(self.radii), n_g) @ wts))


def simpson_uniform(values: np.ndarray, dx: float) -> float:
    """Composite Simpson integral of uniformly sampled values."""
    return float(simpson(values, dx=dx))


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    rel_tol: float = 1e-10,
    initial_points: int = 65,
    max_doublings: int = 16,
) -> float:
    """Integrate a smooth vectorized function on [a, b].

    Composite Simpson on a uniform grid, doubled until the relative change
    between successive refinements drops below rel_tol.  The tests use it
    as an independent reference for the Gauss-Legendre routes.
    """
    if b < a:
        raise ValueError(f"invalid interval [{a}, {b}]")
    if b == a:
        return 0.0
    n = initial_points if initial_points % 2 == 1 else initial_points + 1
    x = np.linspace(a, b, n)
    prev = simpson_uniform(f(x), x[1] - x[0])
    for _ in range(max_doublings):
        n = 2 * n - 1
        x = np.linspace(a, b, n)
        cur = simpson_uniform(f(x), x[1] - x[0])
        if abs(cur - prev) <= rel_tol * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise QuadratureError(
        f"quadrature did not converge to rel_tol={rel_tol} on [{a}, {b}]"
    )
