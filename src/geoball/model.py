"""Warping-function calculus and rotationally symmetric model-space geometry.

A model space is a warped product over [0, r_max) with a radial warping
function w satisfying w(0) = 0 and w'(0) = 1.  Everything downstream
(mean curvature of distance spheres, isoperimetric quotient, volumes,
balance condition) is a functional of w and the dimension.  A warping, like
a 2-D polar metric in ``surface``, is written once, as w: ``jet`` gives
w, w' and w'' from one evaluation of w on jets (``_Jet``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .quadrature import GAUSS_NODES, GAUSS_NODES_MAX, GaussPanels, QuadratureError

BALANCE_TOL = 1e-9
# radii sampled on (0, R] by balance_check
BALANCE_SAMPLES = 512
# relative change of the ball volumes at which the node doubling stops
VOLUME_REL_TOL = 1e-11
# relative width below which the radius bracket of a volume counts as empty
RADIUS_BRACKET_TOL = 1e-12
# a Newton step of the volume inversion this many ulp or shorter ends it
RADIUS_STEP_ULPS = 4


class DomainError(ValueError):
    """Radius outside the validity interval of a model space."""


class _Jet:
    """Values v of a function of (r, theta) with its partials r = d/dr,
    rr = d2/dr2 and t = d/dtheta at the same points (forward-mode
    differentiation).  Arithmetic with jets and real numbers, integer
    powers and np.sin/cos/sinh/cosh follow the chain rule; any other
    operand, an ndarray in particular, raises TypeError, so a jet never
    becomes an element of an object array."""

    __slots__ = ("v", "r", "rr", "t")

    def __init__(self, v, r=0.0, rr=0.0, t=0.0):
        self.v, self.r, self.rr, self.t = v, r, rr, t

    def _chain(self, f, f1, f2) -> _Jet:
        """g(self) from g, g' and g'' at self.v."""
        return _Jet(f, f1 * self.r, f2 * self.r**2 + f1 * self.rr, f1 * self.t)

    def __neg__(self) -> _Jet:
        return _Jet(-self.v, -self.r, -self.rr, -self.t)

    def __add__(self, other) -> _Jet:
        if isinstance(other, numbers.Real):
            return _Jet(self.v + other, self.r, self.rr, self.t)
        if not isinstance(other, _Jet):
            return NotImplemented
        return _Jet(self.v + other.v, self.r + other.r, self.rr + other.rr,
                    self.t + other.t)

    __radd__ = __add__

    def __sub__(self, other) -> _Jet:
        return self + -other

    def __rsub__(self, other) -> _Jet:
        return -self + other

    def __mul__(self, other) -> _Jet:
        if isinstance(other, numbers.Real):
            return _Jet(self.v * other, self.r * other, self.rr * other, self.t * other)
        if not isinstance(other, _Jet):
            return NotImplemented
        a, b = self, other
        return _Jet(a.v * b.v, a.r * b.v + a.v * b.r,
                    a.rr * b.v + 2.0 * a.r * b.r + a.v * b.rr, a.t * b.v + a.v * b.t)

    __rmul__ = __mul__

    def __truediv__(self, other) -> _Jet:
        if isinstance(other, numbers.Real):
            return _Jet(self.v / other, self.r / other, self.rr / other, self.t / other)
        if not isinstance(other, _Jet):
            return NotImplemented
        a, b = self, other
        q = a.v / b.v
        q_r = (a.r - q * b.r) / b.v
        return _Jet(q, q_r, (a.rr - 2.0 * q_r * b.r - q * b.rr) / b.v,
                    (a.t - q * b.t) / b.v)

    def __rtruediv__(self, other) -> _Jet:
        return _Jet(other) / self

    def __pow__(self, k) -> _Jet:
        if not isinstance(k, numbers.Integral):
            return NotImplemented
        if k in (0, 1):
            return self if k else _Jet(self.v**0)
        v = self.v
        return self._chain(v**k, k * v ** (k - 1), k * (k - 1) * v ** (k - 2))

    def broadcast_to(self, shape: tuple[int, ...]) -> _Jet:
        """The jet with every component broadcast to shape (np.broadcast_to
        costs microseconds even where the shape already fits)."""
        return _Jet(*(c if c.shape == shape else np.broadcast_to(c, shape)
                      for c in map(np.asarray, (self.v, self.r, self.rr, self.t))))

    def __array__(self, *args, **kwargs):
        raise TypeError("a jet does not convert to an array")

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        # np.sin(jet), and arithmetic whose left operand is a numpy scalar
        if method != "__call__" or kwargs or any(isinstance(x, np.ndarray) for x in inputs):
            return NotImplemented
        if ufunc in _JET_CHAIN:
            derivative, sign = _JET_CHAIN[ufunc]
            f = ufunc(self.v)
            return self._chain(f, derivative(self.v), sign * f)
        if ufunc not in _JET_ARITHMETIC:
            return NotImplemented
        a, b = inputs
        name = _JET_ARITHMETIC[ufunc]
        return getattr(a, f"__{name}__")(b) if a is self else getattr(b, f"__r{name}__")(a)


# g -> (g', s) with g'' = s g
_JET_CHAIN = {
    np.sin: (np.cos, -1.0),
    np.cos: (lambda v: -np.sin(v), -1.0),
    np.sinh: (np.cosh, 1.0),
    np.cosh: (np.sinh, 1.0),
}
_JET_ARITHMETIC = {np.add: "add", np.subtract: "sub", np.multiply: "mul",
                   np.true_divide: "truediv"}


@dataclass(frozen=True)
class WarpingProfile:
    """Radial warping function w, vectorized over numpy arrays; ``jet``
    evaluates it on jets for w' and w'', so w must be written with the
    operations that ``_Jet`` carries.

    r_max is the upper end of the domain (pi/sqrt(b) for positively curved
    space forms, +inf otherwise).
    """

    w: Callable[[np.ndarray], np.ndarray]
    r_max: float
    label: str

    def __post_init__(self) -> None:
        eps = 1e-7
        jet = self.jet(eps)
        w0, dw0 = float(jet.v), float(jet.r)
        # every test is written as "not ok" so that a NaN sample fails it
        if not (abs(w0 - eps) <= 1e-6 * max(1.0, eps) and abs(dw0 - 1.0) <= 1e-5):
            raise ValueError(
                f"warping '{self.label}' violates w(0)=0, w'(0)=1: "
                f"w({eps})={w0}, w'({eps})={dw0}"
            )
        probe_top = min(self.r_max * (1 - 1e-9), 20.0)
        rs = np.linspace(1e-6, probe_top, 257)
        if not np.all(self.w(rs) > 0):
            raise ValueError(f"warping '{self.label}' is not positive on (0, r_max)")

    def jet(self, r: float | np.ndarray) -> _Jet:
        """w (v), w' (r) and w'' (rr) at r from one evaluation of w on a jet,
        each broadcast to r's shape."""
        r = np.asarray(r, dtype=float)
        return self.w(_Jet(r, 1.0)).broadcast_to(r.shape)


@dataclass(frozen=True)
class ModelSpace:
    """Warped-product model space of dimension n >= 2."""

    warping: WarpingProfile
    dim: int
    sphere_constant: float = field(init=False)

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError(f"dimension must be >= 2, got {self.dim}")
        n = self.dim
        c = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
        object.__setattr__(self, "sphere_constant", c)

    @property
    def r_max(self) -> float:
        return self.warping.r_max

    def _check_radius(self, r: float | np.ndarray, allow_zero: bool = False) -> None:
        """Raise DomainError unless every radius in r lies in (0, r_max),
        or in [0, r_max) with allow_zero."""
        r = np.asarray(r, dtype=float)
        lo_ok = r >= 0 if allow_zero else r > 0
        bad = ~(lo_ok & (r < self.r_max))
        if bad.any():
            raise DomainError(
                f"radius {float(r[bad].flat[0])} outside (0, {self.r_max}) "
                f"for model '{self.warping.label}'"
            )


def euclidean_profile() -> WarpingProfile:
    return WarpingProfile(w=lambda r: r + 0.0, r_max=math.inf, label="euclidean")


def space_form_profile(b: float) -> WarpingProfile:
    """Constant-curvature warping: sin, identity or sinh branch."""
    if not math.isfinite(b):
        raise ValueError(f"curvature must be finite, got {b}")
    if b == 0:
        return euclidean_profile()
    sb = math.sqrt(abs(b))
    if b > 0:
        return WarpingProfile(w=lambda r: np.sin(sb * r) / sb, r_max=math.pi / sb,
                              label=f"sphere({b})")
    return WarpingProfile(w=lambda r: np.sinh(sb * r) / sb, r_max=math.inf,
                          label=f"hyperbolic({-b})")


def polynomial_profile(coeffs: tuple[float, ...]) -> WarpingProfile:
    """Odd-polynomial warping w(r) = r + sum_j c_j r^(2j+1).

    The odd parity guarantees the model-space axioms at r = 0 by
    construction; positivity on the probe interval is audited at build time.
    """
    cs = tuple(float(c) for c in coeffs)
    if not all(math.isfinite(c) for c in cs):
        raise ValueError(f"polynomial coefficients must be finite, got {cs}")

    def w(r: np.ndarray) -> np.ndarray:
        out = r + 0.0
        for j, c in enumerate(cs, start=1):
            out = out + c * r ** (2 * j + 1)
        return out

    label = "poly(" + ",".join(repr(c) for c in cs) + ")"
    return WarpingProfile(w=w, r_max=math.inf, label=label)


def make_space_form(b: float, n: int) -> ModelSpace:
    """Space form of constant sectional curvature b in dimension n."""
    return ModelSpace(warping=space_form_profile(b), dim=n)


def mean_curvature_model(m: ModelSpace, r: float | np.ndarray) -> float | np.ndarray:
    """Pointed-inward mean curvature w'(r)/w(r) of the distance sphere;
    broadcasts over arrays, and a radius gives a float."""
    m._check_radius(r)
    jet = m.warping.jet(r)
    eta = jet.r / jet.v
    return float(eta) if eta.ndim == 0 else eta


def radial_curvature_model(m: ModelSpace, r: float) -> float:
    """Radial sectional curvature -w''(r)/w(r); equals b for space forms."""
    m._check_radius(r)
    jet = m.warping.jet(r)
    return float(-jet.rr / jet.v)


def sphere_volume_model(m: ModelSpace, r: float | np.ndarray) -> float | np.ndarray:
    """Volume of the distance sphere of radius r; broadcasts over arrays."""
    m._check_radius(r, allow_zero=True)
    vol = m.sphere_constant * m.warping.w(np.asarray(r, dtype=float)) ** (m.dim - 1)
    return float(vol) if np.ndim(r) == 0 else vol


def ball_volume_model(m: ModelSpace, r: float | np.ndarray) -> float | np.ndarray:
    """Volume c_n int_0^r w^(n-1) of the geodesic ball of radius r.

    r is a radius or a sorted 1-D array of radii (0 allowed); a radius gives
    a float.  GaussPanels integrate w^(n-1) up to every radius in one pass;
    n_g doubles until the volumes move by at most VOLUME_REL_TOL relative
    from n_g/2 to n_g nodes.  Raises DomainError at once when a volume
    overflows, and QuadratureError at once on a NaN sample or when the
    volumes do not settle within the doubling budget.
    """
    panels = GaussPanels(r)
    m._check_radius(panels.radii, allow_zero=True)
    n_g, prev = GAUSS_NODES, None
    while n_g <= GAUSS_NODES_MAX:
        with np.errstate(over="ignore"):
            wn = m.warping.w(panels.nodes(n_g)) ** (m.dim - 1)
            vols = m.sphere_constant * panels.cumulative(wn, n_g)
        if not np.isfinite(vols[-1]):  # the cumulative sum carries NaN and inf
            if np.isnan(vols[-1]):
                break
            raise DomainError(f"ball volume of model '{m.warping.label}' "
                              f"overflows below radius {panels.radii[-1]}")
        # a NaN change compares False, so it counts as unsettled
        if prev is not None and np.all(np.abs(vols - prev) <= VOLUME_REL_TOL * vols):
            return float(vols[0]) if np.ndim(r) == 0 else vols
        n_g, prev = 2 * n_g, vols
    raise QuadratureError(
        f"ball volumes of model '{m.warping.label}' did not converge to "
        f"rel_tol={VOLUME_REL_TOL} on [0, {panels.radii[-1]}]"
    )


def isoperimetric_quotient(m: ModelSpace, r: float | np.ndarray) -> float | np.ndarray:
    """q(r) = Vol(ball_r) / Vol(sphere_r) = int_0^r w^(n-1) / w^(n-1)(r).

    r is a radius or a sorted 1-D array of positive radii; a radius gives a
    float."""
    m._check_radius(r)
    return ball_volume_model(m, r) / sphere_volume_model(m, r)


@dataclass(frozen=True)
class BalanceReport:
    balanced: bool
    min_margin: float
    argmin: float
    note: str


def balance_check(m: ModelSpace, R: float) -> BalanceReport:
    """Check the balanced-from-above condition q*eta <= 1/(n-1) on (0, R].

    The margin 1/(n-1) - q*eta is taken on BALANCE_SAMPLES radii from one
    volume pass for q and one jet for eta = w'/w; it is balanced when the
    margin is at least -BALANCE_TOL everywhere (a NaN margin is not).
    """
    m._check_radius(R)
    rs = np.linspace(R / BALANCE_SAMPLES, R, BALANCE_SAMPLES)
    q = isoperimetric_quotient(m, rs)
    jet = m.warping.jet(rs)
    margin = 1.0 / (m.dim - 1) - q * (jet.r / jet.v)
    i = int(np.argmin(margin))
    return BalanceReport(
        balanced=bool(margin.min() >= -BALANCE_TOL),
        min_margin=float(margin[i]),
        argmin=float(rs[i]),
        note=f"checked on (0, {R}] with {BALANCE_SAMPLES} samples; "
        "the global (all r >= 0) variant is not certified",
    )


def _volume_below_cap(m: ModelSpace, r: float) -> float:
    """Ball volume at r; inf past the radius cap 1e6 or where it overflows."""
    try:
        return ball_volume_model(m, r) if r <= 1e6 else math.inf
    except DomainError:
        return math.inf


def ball_radius_from_volume(m: ModelSpace, V: float) -> float:
    """Invert the strictly increasing ball-volume map to a relative radius
    tolerance, so that tiny volumes keep their accuracy.

    On a model of infinite extent the root is bracketed by doubling the
    radius from 1; a step past the radius cap 1e6, or to a radius whose
    volume overflows, is bisected back inside the last bracket.  A volume
    that is not reached there is a DomainError.  On a model of finite
    extent a volume up to 1e-12 relative above the total gives the top
    radius.  ``_invert_volume`` then solves inside the bracket.
    """
    if not 0 <= V < math.inf:  # a NaN volume fails this too
        raise DomainError(f"volume must be finite and nonnegative, got {V}")
    if V == 0:
        return 0.0
    if math.isfinite(m.r_max):
        lo, hi = 0.0, m.r_max * (1 - 1e-12)
        vol = ball_volume_model(m, hi)
        if V > vol * (1 + 1e-12):
            raise DomainError(f"volume {V} exceeds total model volume")
        if V >= vol:
            return hi
    else:
        # top: the least radius tried that is past the cap or overflows
        lo, hi, top = 0.0, 1.0, math.inf
        while not V <= (vol := _volume_below_cap(m, hi)) < math.inf:
            lo, top = (hi, top) if vol < V else (lo, hi)
            if lo >= top * (1 - RADIUS_BRACKET_TOL):
                raise DomainError(f"volume {V} not reached below radius {lo}: "
                                  "past the 1e6 cap, or the volume overflows")
            hi = 2.0 * hi if top == math.inf else 0.5 * (lo + top)
    return _invert_volume(m, V, lo, hi, vol)


def _invert_volume(m: ModelSpace, V: float, lo: float, hi: float, vol: float) -> float:
    """The radius r in (lo, hi] with ball volume V, given vol = V(hi) >= V
    > V(lo): Newton's method on log V against log r, from hi, with the
    exact slope d log V / d log r = r V'(r) / V(r), V' the sphere volume.
    V is close to c r^n near 0, so the map is close to linear there and a
    few steps reach any scale.  Every evaluation narrows the bracket, and a
    step that leaves it, or one taken on a slope that is not finite and
    positive, is replaced by its midpoint: V' overflows below the radius
    where V does (on H^3 for V above about 4.7e307), and an infinite slope
    would give a zero step.  The iteration stops when a step moves r by at
    most RADIUS_STEP_ULPS ulp, or when no double is left inside the
    bracket."""
    r = hi
    while True:
        if vol < V:
            lo = r
        else:
            hi = r
        vol = np.float64(vol)  # V(r) = 0 divides without raising
        with np.errstate(all="ignore"):
            slope = r * (sphere_volume_model(m, r) / vol)  # r V' alone may overflow
            step = r * np.expm1(np.log(V / vol) / slope)  # V / vol: no cancellation
        if not 0 < slope < math.inf:  # False for NaN
            step = math.nan
        r_next = r + step
        if abs(step) <= RADIUS_STEP_ULPS * math.ulp(r):  # False for NaN
            return float(r_next)
        if not lo < r_next < hi:
            r_next = 0.5 * (lo + hi)
            if not lo < r_next < hi:
                return float(r_next)
        r, vol = r_next, ball_volume_model(m, r_next)
