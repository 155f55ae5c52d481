"""Geometry of 2-D polar metrics g = dr^2 + w^2(r, theta) dtheta^2.

A metric is written once, as w: ``jet`` gives w and its partials w_r,
w_rr and w_t from one evaluation of w on jets (``model._Jet``).  A
construction-time audit checks the smooth pole, 2*pi-periodicity, that w
is finite and positive inside the chart and that it evaluates on jets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import DomainError, ModelSpace, WarpingProfile, _Jet, mean_curvature_model
from .quadrature import GAUSS_NODES, GAUSS_NODES_MAX, GaussPanels, QuadratureError

TWO_PI = 2.0 * math.pi
R_VALID_MAX = 10.0  # largest radius of the built-in metrics' polar charts


class MetricAuditError(ValueError):
    """A metric fails its construction-time audit, or w is not finite
    where it is sampled."""


@dataclass(frozen=True)
class PolarMetric2D:
    """Metric evaluator w(r, theta), vectorized over (r, theta) arrays;
    ``jet`` evaluates it on jets for its partials, so w must be written
    with the operations that ``model._Jet`` carries.  w may return any
    shape that broadcasts to the broadcast shape of (r, theta), such as
    r's alone when w does not depend on theta; every caller broadcasts
    its result.

    R_valid bounds the radii on which the polar chart is declared valid.
    """

    w: Callable[[np.ndarray, np.ndarray], np.ndarray]
    R_valid: float
    label: str

    def __post_init__(self) -> None:
        _audit_pole_and_periodicity(self)

    def jet(self, r: np.ndarray, t: np.ndarray) -> _Jet:
        """w (v), w_r (r), w_rr (rr) and w_t (t) at (r, t) from one evaluation
        of w on jets, each broadcast to the broadcast shape of r and t."""
        r, t = np.asarray(r, dtype=float), np.asarray(t, dtype=float)
        jet = self.w(_Jet(r, 1.0), _Jet(t, t=1.0))
        return jet.broadcast_to(np.broadcast_shapes(r.shape, t.shape))

    def _check_radius(self, t: float | np.ndarray) -> None:
        """Raise DomainError unless every radius in t lies in (0, R_valid]."""
        t = np.asarray(t, dtype=float)
        bad = ~((t > 0) & (t <= self.R_valid))
        if bad.any():
            raise DomainError(
                f"radius {float(t[bad].flat[0])} outside (0, {self.R_valid}] "
                f"for metric '{self.label}'"
            )


def _audit_pole_and_periodicity(m: PolarMetric2D) -> None:
    ts = np.linspace(0.0, TWO_PI, 33)
    r0 = 1e-4
    ratio = m.w(np.full_like(ts, r0), ts) / r0
    # every test is written as "not ok" so that a NaN sample fails it
    if not np.max(np.abs(ratio - 1.0)) <= 1e-3:
        raise MetricAuditError(
            f"metric '{m.label}' fails the smooth-pole condition w(r,.)/r -> 1"
        )
    rs = np.linspace(0.1, min(m.R_valid, 5.0), 17)
    seam = np.abs(m.w(rs, np.zeros_like(rs)) - m.w(rs, np.full_like(rs, TWO_PI)))
    if not np.max(seam) <= 1e-12:
        raise MetricAuditError(f"metric '{m.label}' is not 2*pi-periodic in theta")
    probe_r = np.linspace(1e-3, min(m.R_valid, 5.0), 64)
    probe_t = np.linspace(0, TWO_PI, 64, endpoint=False)
    probe = m.w(probe_r[:, None], probe_t[None, :])
    if not np.all(np.isfinite(probe) & (probe > 0)):
        raise MetricAuditError(
            f"metric '{m.label}' is not finite and positive inside R_valid"
        )
    try:
        # an operation jets lack fails at any point: every probe radius
        # and angle once is enough
        m.jet(probe_r, probe_t)
    except TypeError as exc:
        raise MetricAuditError(
            f"metric '{m.label}': w uses an operation that jets do not carry ({exc})"
        ) from exc


def perturbed_flat_metric(eps: float, mode: int) -> PolarMetric2D:
    """Family w = r * (1 + eps*r^2 / (1 + r^2 cos^2(mode*theta))).

    With eps = 1, mode = 1 this is the built-in example metric whose sphere
    mean curvatures dominate the flat ones while its Gauss curvature
    changes sign.
    """
    eps = float(eps)
    mode = int(mode)
    if mode < 1:
        raise ValueError("mode must be a positive integer")

    def w(r, t):
        d = 1.0 + r**2 * np.cos(mode * t) ** 2
        return r + eps * r**3 / d

    label = "example1" if (eps == 1.0 and mode == 1) else f"perturbed({eps},{mode})"
    return PolarMetric2D(w=w, R_valid=R_VALID_MAX, label=label)


def builtin_example_metric() -> PolarMetric2D:
    """The benchmark metric w(r, theta) = r*(1 + r^2/(1 + r^2 cos^2 theta))."""
    return perturbed_flat_metric(1.0, 1)


def radial_metric(profile: WarpingProfile) -> PolarMetric2D:
    """Theta-independent wrapper turning a warping profile into a 2-D metric."""
    return PolarMetric2D(w=lambda r, t: profile.w(r),
                         R_valid=min(profile.r_max * 0.999, R_VALID_MAX),
                         label=f"radial({profile.label})")


METRIC_REGISTRY = {
    "example1": builtin_example_metric,
}


def _mean_curvature(jet: _Jet) -> np.ndarray:
    """w_r / w from a jet of w."""
    return jet.r / jet.v


def _gauss_curvature(jet: _Jet) -> np.ndarray:
    """-w_rr / w from a jet of w."""
    return -jet.rr / jet.v


def sphere_mean_curvature(
    m: PolarMetric2D, t: float | np.ndarray, theta: float | np.ndarray
) -> float | np.ndarray:
    """Pointed-inward mean curvature of the distance circle: w_r / w.

    Broadcasts over array arguments; scalar arguments give a float."""
    m._check_radius(t)
    h = _mean_curvature(m.jet(t, theta))
    return float(h) if h.ndim == 0 else h


def gauss_curvature(
    m: PolarMetric2D, t: float | np.ndarray, theta: float | np.ndarray
) -> float | np.ndarray:
    """Gauss curvature -w_rr / w.

    Broadcasts over array arguments; scalar arguments give a float."""
    m._check_radius(t)
    k = _gauss_curvature(m.jet(t, theta))
    return float(k) if k.ndim == 0 else k


def curvature_table(
    m: PolarMetric2D, t: np.ndarray, theta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``sphere_mean_curvature`` and ``gauss_curvature`` at the same
    (t, theta) arrays, from one jet of w."""
    m._check_radius(t)
    jet = m.jet(t, theta)
    return _mean_curvature(jet), _gauss_curvature(jet)


# Starting and largest angle counts of the tensor rule: its theta budget.
_THETA_NODES, _THETA_NODES_MAX = 16, 16 << 10
# relative accuracy of sphere_length and of ball_area
POLAR_REL_TOL = 1e-10
# hypothesis_report: scan grid (radii, angles) and the |gap| counted as zero
HYPOTHESIS_N_R = HYPOTHESIS_N_THETA = 256
HYPOTHESIS_TOL = 1e-9


def _lengths_and_areas(
    m: PolarMetric2D, radii: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Lengths int_0^{2pi} w(r, theta) dtheta and areas int_0^r length at
    sorted radii, from one tensor rule per refinement level.

    theta: the periodic trapezoid rule, which converges geometrically for a
    smooth periodic integrand; w is sampled at 2n angles, so the n-point
    rule on every other angle estimates its error at no extra cost.
    r: GaussPanels, so every area comes out of the same pass.  Each level
    evaluates w once on broadcast (r, theta) axes, then doubles n while the
    trapezoid error estimate exceeds POLAR_REL_TOL, otherwise n_g until the
    areas move by at most POLAR_REL_TOL from n_g/2 to n_g nodes.
    Raises QuadratureError when that does not happen within the doubling
    budget, or at once on a non-finite sample, which could never settle.
    """
    panels = GaussPanels(radii)
    rs = panels.radii
    m._check_radius(rs)
    k = len(rs)
    n, n_g = _THETA_NODES, GAUSS_NODES
    prev_areas = None
    while n <= _THETA_NODES_MAX and n_g <= GAUSS_NODES_MAX:
        r_nodes = np.concatenate((rs, panels.nodes(n_g)))
        w = np.broadcast_to(m.w(r_nodes[:, None], np.arange(2 * n) * (np.pi / n)),
                            (len(r_nodes), 2 * n))
        if not np.all(np.isfinite(w)):
            break
        fine = w.sum(axis=1) * (np.pi / n)
        coarse = w[:, ::2].sum(axis=1) * (TWO_PI / n)
        areas = panels.cumulative(fine[k:], n_g)
        # "not <=" so that a NaN change counts as unsettled; areas are only
        # compared between n_g and 2*n_g at the same n
        if not np.max(np.abs(fine - coarse) / np.abs(fine)) <= POLAR_REL_TOL:
            n, prev_areas = 2 * n, None
        elif prev_areas is None or not (
            np.max(np.abs(areas - prev_areas) / np.abs(areas)) <= POLAR_REL_TOL
        ):
            n_g, prev_areas = 2 * n_g, areas
        else:
            return fine[:k], areas
    raise QuadratureError(
        f"lengths and areas of metric '{m.label}' did not converge to "
        f"rel_tol={POLAR_REL_TOL} on (0, {rs[-1]}]"
    )


def sphere_length(m: PolarMetric2D, r: float | np.ndarray) -> float | np.ndarray:
    """Length of the distance circle: int_0^{2pi} w(r, theta) dtheta.

    r is a radius or a sorted 1-D array of radii; a radius gives a float."""
    lengths = _lengths_and_areas(m, r)[0]
    return float(lengths[0]) if np.ndim(r) == 0 else lengths


def ball_area(m: PolarMetric2D, r: float | np.ndarray) -> float | np.ndarray:
    """Area of the geodesic disk: int_0^r length(t) dt.

    r is a radius or a sorted 1-D array of radii; a radius gives a float."""
    areas = _lengths_and_areas(m, r)[1]
    return float(areas[0]) if np.ndim(r) == 0 else areas


@dataclass(frozen=True)
class HypothesisReport:
    """Sign classification of H_metric(t, theta) - eta_model(t) over the ball."""

    direction: str  # "model<=M", "model>=M", "equal" or "mixed"
    min_margin: float
    max_margin: float
    argmin: tuple[float, float]
    tol: float

    @property
    def uniform(self) -> bool:
        return self.direction in ("model<=M", "model>=M", "equal")


def hypothesis_report(m: PolarMetric2D, model: ModelSpace, R: float) -> HypothesisReport:
    """Grid scan of the mean-curvature gap H_M - eta_model on (0, R] x [0, 2pi),
    sampled on broadcast (r, theta) axes."""
    if model.dim != 2:
        raise ValueError("hypothesis check requires a 2-D model space")
    m._check_radius(R)
    model._check_radius(R)
    rs = np.linspace(R / HYPOTHESIS_N_R, R, HYPOTHESIS_N_R)
    ts = np.linspace(0.0, TWO_PI, HYPOTHESIS_N_THETA, endpoint=False)
    h_metric = sphere_mean_curvature(m, rs[:, None], ts[None, :])
    eta = mean_curvature_model(model, rs)[:, None]
    gap = h_metric - eta
    gmin, gmax = float(gap.min()), float(gap.max())
    i, j = np.unravel_index(np.argmin(gap), gap.shape)
    tol = HYPOTHESIS_TOL
    if gmin >= -tol and gmax <= tol:
        direction = "equal"
    elif gmin >= -tol:
        direction = "model<=M"
    elif gmax <= tol:
        direction = "model>=M"
    else:
        direction = "mixed"
    return HypothesisReport(
        direction=direction,
        min_margin=gmin,
        max_margin=gmax,
        argmin=(float(rs[i]), float(ts[j])),
        tol=tol,
    )
