"""Gauss-Legendre panels between sorted radii."""

from __future__ import annotations

import functools

import numpy as np


class QuadratureError(RuntimeError):
    """Raised when a doubling loop fails to reach the requested tolerance."""


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
        if rs.ndim != 1 or rs.size == 0 or not np.all(np.diff(rs) >= 0):
            raise ValueError("radii must be a scalar or a sorted, non-empty 1-D array")
        left = np.concatenate(([0.0], rs[:-1]))
        self.radii = rs
        self._half, self._mid = 0.5 * (rs - left), 0.5 * (rs + left)

    def nodes(self, n_g: int) -> np.ndarray:
        """The n_g nodes of every panel, panel by panel, as one 1-D array."""
        x = _gauss_legendre(n_g)[0]
        return (self._mid[:, None] + self._half[:, None] * x).ravel()

    def cumulative(self, values: np.ndarray, n_g: int) -> np.ndarray:
        """Integrals over [0, r] at every radius from samples at nodes(n_g)
        along the last axis of values; leading axes index functions."""
        wts = _gauss_legendre(n_g)[1]
        per_panel = values.reshape(*values.shape[:-1], len(self.radii), n_g) @ wts
        return np.cumsum(self._half * per_panel, axis=-1)
