"""Geometry of 2-D polar metrics g = dr^2 + w^2(r, theta) dtheta^2.

Metrics carry analytic partial derivatives; a construction-time
finite-difference audit rejects inconsistent evaluators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import DomainError, ModelSpace, WarpingProfile
from .quadrature import GAUSS_NODES, GAUSS_NODES_MAX, GaussPanels, QuadratureError

TWO_PI = 2.0 * math.pi
R_VALID_MAX = 10.0  # largest radius of the built-in metrics' polar charts
AUDIT_POINTS, AUDIT_TOL = 200, 1e-5  # samples and tolerance of the partials audit


class MetricAuditError(ValueError):
    """Analytic partials disagree with finite differences at build time."""


@dataclass(frozen=True)
class PolarMetric2D:
    """Metric evaluator w(r, theta) with partials w_r, w_rr, w_theta.

    All evaluators are vectorized and broadcast over (r, theta) arrays.
    R_valid bounds the radii on which the polar chart is declared valid.
    """

    w: Callable[[np.ndarray, np.ndarray], np.ndarray]
    w_r: Callable[[np.ndarray, np.ndarray], np.ndarray]
    w_rr: Callable[[np.ndarray, np.ndarray], np.ndarray]
    w_t: Callable[[np.ndarray, np.ndarray], np.ndarray]
    R_valid: float
    label: str

    def __post_init__(self) -> None:
        _audit_partials(self)
        _audit_pole_and_periodicity(self)

    def _check_radius(self, t: float | np.ndarray) -> None:
        """Raise DomainError unless every radius in t lies in (0, R_valid]."""
        t = np.asarray(t, dtype=float)
        bad = ~((t > 0) & (t <= self.R_valid))
        if bad.any():
            raise DomainError(
                f"radius {float(t[bad].flat[0])} outside (0, {self.R_valid}] "
                f"for metric '{self.label}'"
            )


def _audit_partials(m: PolarMetric2D) -> None:
    rng = np.random.default_rng(20240811)
    top = min(m.R_valid, 5.0)
    rs = rng.uniform(0.05 * top, 0.95 * top, AUDIT_POINTS)
    ts = rng.uniform(0.0, TWO_PI, AUDIT_POINTS)
    h = 1e-5
    # the second difference loses about 4*eps/h2^2 to roundoff: 9e-6 at
    # h = 1e-5, too close to AUDIT_TOL, and 9e-8 at h2 = 1e-4, where its
    # truncation error h2^2 * w_rrrr / 12 is still far below AUDIT_TOL
    h2 = 1e-4
    wr_fd = (m.w(rs + h, ts) - m.w(rs - h, ts)) / (2 * h)
    wrr_fd = (m.w(rs + h2, ts) - 2 * m.w(rs, ts) + m.w(rs - h2, ts)) / h2**2
    wt_fd = (m.w(rs, ts + h) - m.w(rs, ts - h)) / (2 * h)
    scale = np.maximum(1.0, np.abs(m.w(rs, ts)))
    for name, fd, an in (
        ("w_r", wr_fd, m.w_r(rs, ts)),
        ("w_rr", wrr_fd, m.w_rr(rs, ts)),
        ("w_t", wt_fd, m.w_t(rs, ts)),
    ):
        err = np.max(np.abs(fd - an) / scale)
        if not err <= AUDIT_TOL:  # a NaN sample gives a NaN error, which fails too
            raise MetricAuditError(
                f"metric '{m.label}': analytic {name} deviates from finite "
                f"differences by {err:.3e}"
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
    pr, pt = np.meshgrid(probe_r, np.linspace(0, TWO_PI, 64, endpoint=False))
    probe = m.w(pr, pt)
    if not np.all(np.isfinite(probe) & (probe > 0)):
        raise MetricAuditError(
            f"metric '{m.label}' is not finite and positive inside R_valid"
        )


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

    def cs2(t):
        return np.cos(mode * np.asarray(t, dtype=float)) ** 2

    def w(r, t):
        r = np.asarray(r, dtype=float)
        d = 1.0 + r**2 * cs2(t)
        return r + eps * r**3 / d

    def w_r(r, t):
        r = np.asarray(r, dtype=float)
        c = cs2(t)
        d = 1.0 + r**2 * c
        return 1.0 + eps * (3 * r**2 + r**4 * c) / d**2

    def w_rr(r, t):
        r = np.asarray(r, dtype=float)
        c = cs2(t)
        d = 1.0 + r**2 * c
        return eps * 2 * r * (3.0 - r**2 * c) / d**3

    def w_t(r, t):
        r = np.asarray(r, dtype=float)
        t = np.asarray(t, dtype=float)
        d = 1.0 + r**2 * cs2(t)
        return eps * r**5 * mode * np.sin(2 * mode * t) / d**2

    label = "example1" if (eps == 1.0 and mode == 1) else f"perturbed({eps},{mode})"
    return PolarMetric2D(w=w, w_r=w_r, w_rr=w_rr, w_t=w_t, R_valid=R_VALID_MAX,
                         label=label)


def builtin_example_metric() -> PolarMetric2D:
    """The benchmark metric w(r, theta) = r*(1 + r^2/(1 + r^2 cos^2 theta))."""
    return perturbed_flat_metric(1.0, 1)


def radial_metric(profile: WarpingProfile) -> PolarMetric2D:
    """Theta-independent wrapper turning a warping profile into a 2-D metric."""

    def w(r, t):
        return profile.w(np.asarray(r, dtype=float)) * np.ones_like(
            np.asarray(t, dtype=float)
        )

    def w_r(r, t):
        return profile.dw(np.asarray(r, dtype=float)) * np.ones_like(
            np.asarray(t, dtype=float)
        )

    def w_rr(r, t):
        return profile.ddw(np.asarray(r, dtype=float)) * np.ones_like(
            np.asarray(t, dtype=float)
        )

    def w_t(r, t):
        return np.zeros(np.broadcast(np.asarray(r), np.asarray(t)).shape)

    return PolarMetric2D(w=w, w_r=w_r, w_rr=w_rr, w_t=w_t,
                         R_valid=min(profile.r_max * 0.999, R_VALID_MAX),
                         label=f"radial({profile.label})")


METRIC_REGISTRY = {
    "example1": builtin_example_metric,
}


def sphere_mean_curvature(
    m: PolarMetric2D, t: float | np.ndarray, theta: float | np.ndarray
) -> float | np.ndarray:
    """Pointed-inward mean curvature of the distance circle: w_r / w.

    Broadcasts over array arguments; scalar arguments give a float."""
    m._check_radius(t)
    t, theta = np.asarray(t, dtype=float), np.asarray(theta, dtype=float)
    h = m.w_r(t, theta) / m.w(t, theta)
    return float(h) if h.ndim == 0 else h


def gauss_curvature(
    m: PolarMetric2D, t: float | np.ndarray, theta: float | np.ndarray
) -> float | np.ndarray:
    """Gauss curvature -w_rr / w.

    Broadcasts over array arguments; scalar arguments give a float."""
    m._check_radius(t)
    t, theta = np.asarray(t, dtype=float), np.asarray(theta, dtype=float)
    k = -m.w_rr(t, theta) / m.w(t, theta)
    return float(k) if k.ndim == 0 else k


# Starting and largest angle counts of the tensor rule: its theta budget.
_THETA_NODES, _THETA_NODES_MAX = 16, 16 << 10
# relative accuracy of sphere_length and of ball_area
LENGTH_REL_TOL = 1e-10
AREA_REL_TOL = 1e-9
# hypothesis_report: scan grid (radii, angles) and the |gap| counted as zero
HYPOTHESIS_N_R = HYPOTHESIS_N_THETA = 256
HYPOTHESIS_TOL = 1e-9


def _lengths_and_areas(
    m: PolarMetric2D, radii: float | np.ndarray, rel_tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Lengths int_0^{2pi} w(r, theta) dtheta and areas int_0^r length at
    sorted radii, from one tensor rule per refinement level.

    theta: the periodic trapezoid rule, which converges geometrically for a
    smooth periodic integrand; w is sampled at 2n angles, so the n-point
    rule on every other angle estimates its error at no extra cost.
    r: GaussPanels, so every area comes out of the same pass.  Each level
    evaluates w once on the (r, theta) mesh, then doubles n while the
    trapezoid error estimate exceeds rel_tol, otherwise n_g until the areas
    move by at most rel_tol from n_g/2 to n_g nodes.
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
        w = m.w(r_nodes[:, None], np.arange(2 * n) * (np.pi / n))
        if not np.all(np.isfinite(w)):
            break
        fine = w.sum(axis=1) * (np.pi / n)
        coarse = w[:, ::2].sum(axis=1) * (TWO_PI / n)
        areas = panels.cumulative(fine[k:], n_g)
        # "not <=" so that a NaN change counts as unsettled; areas are only
        # compared between n_g and 2*n_g at the same n
        if not np.max(np.abs(fine - coarse) / np.abs(fine)) <= rel_tol:
            n, prev_areas = 2 * n, None
        elif prev_areas is None or not (
            np.max(np.abs(areas - prev_areas) / np.abs(areas)) <= rel_tol
        ):
            n_g, prev_areas = 2 * n_g, areas
        else:
            return fine[:k], areas
    raise QuadratureError(
        f"lengths and areas of metric '{m.label}' did not converge to "
        f"rel_tol={rel_tol} on (0, {rs[-1]}]"
    )


def sphere_length(m: PolarMetric2D, r: float | np.ndarray) -> float | np.ndarray:
    """Length of the distance circle: int_0^{2pi} w(r, theta) dtheta.

    r is a radius or a sorted 1-D array of radii; a radius gives a float."""
    lengths = _lengths_and_areas(m, r, LENGTH_REL_TOL)[0]
    return float(lengths[0]) if np.ndim(r) == 0 else lengths


def ball_area(m: PolarMetric2D, r: float | np.ndarray) -> float | np.ndarray:
    """Area of the geodesic disk: int_0^r length(t) dt.

    r is a radius or a sorted 1-D array of radii; a radius gives a float."""
    areas = _lengths_and_areas(m, r, AREA_REL_TOL)[1]
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
    """Grid scan of the mean-curvature gap H_M - eta_model on (0, R] x [0, 2pi)."""
    if model.dim != 2:
        raise ValueError("hypothesis check requires a 2-D model space")
    m._check_radius(R)
    if R >= model.r_max:
        raise DomainError(f"radius {R} exceeds the model domain {model.r_max}")
    rs = np.linspace(R / HYPOTHESIS_N_R, R, HYPOTHESIS_N_R)
    ts = np.linspace(0.0, TWO_PI, HYPOTHESIS_N_THETA, endpoint=False)
    rr, tt = np.meshgrid(rs, ts, indexing="ij")
    h_metric = sphere_mean_curvature(m, rr, tt)
    eta = (model.warping.dw(rs) / model.warping.w(rs))[:, None]
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
