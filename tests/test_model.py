"""Tests for warping profiles, model-space geometry and the balance check."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from geoball.model import (
    BALANCE_TOL,
    DomainError,
    ModelSpace,
    WarpingProfile,
    balance_check,
    ball_radius_from_volume,
    ball_volume_model,
    euclidean_profile,
    isoperimetric_quotient,
    make_space_form,
    mean_curvature_model,
    polynomial_profile,
    radial_curvature_model,
    space_form_profile,
    sphere_volume_model,
)
from geoball.quadrature import QuadratureError


def test_profile_axioms_rejected():
    with pytest.raises(ValueError):
        WarpingProfile(w=lambda r: r + 1.0, r_max=math.inf, label="shifted")


def test_profile_nan_everywhere_rejected():
    # sinh overflows and 0 * inf is NaN at every radius: NaN compares False,
    # so each axiom must be written to fail on it
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
        WarpingProfile(w=lambda r: r * (0.0 * np.sinh(1e3 + 0.0 * r) ** 2),
                       r_max=math.inf, label="nan")


def test_profile_positivity_rejected():
    with pytest.raises(ValueError):
        polynomial_profile((-1.0,))  # r - r^3 turns negative past r = 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_polynomial_profile_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        polynomial_profile((bad,))
    with pytest.raises(ValueError):
        polynomial_profile((0.5, bad))


def test_space_form_curvatures():
    for b in (-2.0, -1.0, 1.0, 2.0):
        m = make_space_form(b, 3)
        for r in (0.3, 0.8):
            assert radial_curvature_model(m, r) == pytest.approx(b, rel=1e-12)


def test_euclidean_mean_curvature():
    m = make_space_form(0.0, 2)
    assert mean_curvature_model(m, 2.0) == pytest.approx(0.5, rel=1e-14)


def test_euclidean_disk_volumes():
    m = make_space_form(0.0, 2)
    assert sphere_volume_model(m, 1.0) == pytest.approx(2 * math.pi, rel=1e-12)
    assert ball_volume_model(m, 1.0) == pytest.approx(math.pi, rel=1e-10)


def test_hyperbolic_ball_volume_closed_form():
    m = make_space_form(-1.0, 2)
    expected = 2 * math.pi * (math.cosh(1.0) - 1.0)
    assert ball_volume_model(m, 1.0) == pytest.approx(expected, rel=1e-10)


def test_sphere_radius_domain():
    m = make_space_form(1.0, 2)
    assert m.r_max == pytest.approx(math.pi)
    with pytest.raises(DomainError):
        isoperimetric_quotient(m, 3.5)


def test_quotient_euclidean():
    m = make_space_form(0.0, 2)
    assert isoperimetric_quotient(m, 2.0) == pytest.approx(1.0, rel=1e-10)
    m3 = make_space_form(0.0, 3)
    assert isoperimetric_quotient(m3, 3.0) == pytest.approx(1.0, rel=1e-10)


def test_quotient_hyperbolic_closed_form():
    m = make_space_form(-1.0, 2)
    for r in (0.5, 1.0, 2.0):
        assert isoperimetric_quotient(m, r) == pytest.approx(
            math.tanh(r / 2), rel=1e-9
        )


def test_balance_space_forms():
    assert balance_check(make_space_form(0.0, 2), 5.0).balanced
    assert balance_check(make_space_form(-1.0, 2), 5.0).balanced
    assert balance_check(make_space_form(1.0, 2), math.pi / 4).balanced


def test_balance_cubic_profile():
    m = ModelSpace(warping=polynomial_profile((1.0,)), dim=2)
    rep = balance_check(m, 5.0)
    assert rep.balanced
    assert rep.min_margin > 0


def test_balance_margins_mutually_consistent():
    m = make_space_form(-1.0, 2)
    rep = balance_check(m, 3.0)
    assert rep.min_margin == pytest.approx(rep.closed_form_min, abs=1e-9)
    # q' = 1 - eta*q in 2-D: the derivative margin has its own scale but
    # must agree in sign with the others
    assert rep.quotient_derivative_min >= -1e-8


def test_euclidean_balance_margin_exact_half():
    rep = balance_check(make_space_form(0.0, 2), 4.0)
    assert rep.min_margin == pytest.approx(0.5, abs=1e-9)


def test_ball_radius_from_volume_roundtrip():
    for b, n, r in ((0.0, 2, 1.3), (-1.0, 2, 0.7), (1.0, 3, 1.1), (0.0, 4, 0.9)):
        m = make_space_form(b, n)
        V = ball_volume_model(m, r)
        assert ball_radius_from_volume(m, V) == pytest.approx(r, abs=1e-10)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("V", [1e-20, 1e-12, 1e-6])
def test_ball_radius_round_trips_tiny_volumes(n, V):
    # the root is a relative, not an absolute, radius tolerance away: at
    # xtol = 1e-12, n = 2 and V = 1e-20 missed V by 4e-3 relative
    m = make_space_form(0.0, n)
    assert ball_volume_model(m, ball_radius_from_volume(m, V)) == pytest.approx(
        V, rel=1e-12, abs=0)


def test_ball_radius_rejects_excess_volume():
    m = make_space_form(1.0, 2)
    for V in (100.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            ball_radius_from_volume(m, V)


def test_ball_radius_raises_domain_error_before_overflow():
    # inf is no volume; 1e13 would need radius 1.8e6, past the 1e6 cap
    for m, V in ((make_space_form(-1.0, 3), math.inf), (make_space_form(0.0, 2), 1e13)):
        with pytest.raises(DomainError):
            ball_radius_from_volume(m, V)
    # 1e300 is the volume of radius ~345.2: the doubling bracket steps from
    # 256 to 512, where w^2 = sinh^2 overflows, and bisects back from there
    m = make_space_form(-1.0, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = ball_radius_from_volume(m, 1e300)
    exact = brentq(lambda t: math.pi * (math.sinh(2 * t) - 2 * t) - 1e300, 340.0, 350.0)
    assert r == pytest.approx(exact, rel=1e-12, abs=0)
    assert ball_volume_model(m, r) == pytest.approx(1e300, rel=1e-12, abs=0)
    # radius 564189.58: the bracket steps from 524288 past the cap
    m = make_space_form(0.0, 2)
    r = ball_radius_from_volume(m, 1e12)
    assert r == pytest.approx(math.sqrt(1e12 / math.pi), rel=1e-12, abs=0)
    assert ball_volume_model(m, r) == pytest.approx(1e12, rel=1e-12, abs=0)


def test_space_form_profile_rejects_nonfinite():
    with pytest.raises(ValueError):
        space_form_profile(math.nan)


def test_euclidean_profile_samples():
    p = euclidean_profile()
    rs = np.linspace(0.1, 3.0, 7)
    assert np.allclose(p.w(rs), rs)
    assert np.allclose(p.dw(rs), 1.0)
    assert np.allclose(p.ddw(rs), 0.0)


def _quad_integral(profile, n, r):
    """int_0^r w^(n-1) by adaptive Gauss-Kronrod: the independent reference."""
    f = lambda t: float(profile.w(np.array(t))) ** (n - 1)
    return quad(f, 0.0, r, epsabs=0.0, epsrel=2e-14, limit=200)[0]


REFERENCE_RADII = (0.01, 0.05, 0.3, 1.0, 2.0)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize(
    "profile",
    [space_form_profile(0.7), space_form_profile(-1.0), polynomial_profile((0.1, 0.01))],
    ids=lambda p: p.label,
)
def test_volumes_and_quotient_match_quad_reference(profile, n):
    m = ModelSpace(warping=profile, dim=n)
    rs = np.array(REFERENCE_RADII)
    ref = np.array([_quad_integral(profile, n, r) for r in rs])
    ref_vol = m.sphere_constant * ref
    ref_q = ref / profile.w(rs) ** (n - 1)
    np.testing.assert_allclose(ball_volume_model(m, rs), ref_vol, rtol=1e-13, atol=0)
    np.testing.assert_allclose(isoperimetric_quotient(m, rs), ref_q, rtol=1e-13, atol=0)
    for r, vol, q in zip(rs, ref_vol, ref_q):
        assert ball_volume_model(m, float(r)) == pytest.approx(vol, rel=1e-13, abs=0)
        assert isoperimetric_quotient(m, float(r)) == pytest.approx(q, rel=1e-13, abs=0)


def test_ball_volume_settles_relative_to_tiny_volumes():
    # volumes near 1e-11: an absolute stopping test would accept the
    # 4-node rule, 0.5% off
    m = make_space_form(1e6, 4)
    r = 0.9 * m.r_max
    ref = m.sphere_constant * _quad_integral(m.warping, 4, r)
    assert ball_volume_model(m, r) == pytest.approx(ref, rel=1e-13, abs=0)


def test_balance_margin_matches_quad_reference():
    profile, n, R = space_form_profile(0.7), 4, 2.0
    m = ModelSpace(warping=profile, dim=n)
    rs = np.linspace(R / 512, R, 512)
    q = np.array([_quad_integral(profile, n, r) for r in rs]) / profile.w(rs) ** (n - 1)
    ref = np.min(1.0 / (n - 1) - q * profile.dw(rs) / profile.w(rs))
    assert balance_check(m, R).min_margin == pytest.approx(ref, rel=0, abs=1e-12)


def test_balance_closed_form_gated_at_its_own_scale():
    # the closed-form margin is (n - 1) times the quotient margin: here
    # -1.4e-9 against -7.0e-10, so one gate for both called them inconsistent
    profile = WarpingProfile(w=lambda r: np.sinh(r) - 0.0443770161013417 * r**3,
                             r_max=math.inf, label="sinh-cubic")
    n = 3
    rep = balance_check(ModelSpace(warping=profile, dim=n), 3.0)
    assert rep.balanced
    assert -BALANCE_TOL < rep.min_margin < -0.5 * BALANCE_TOL
    assert rep.closed_form_min < -BALANCE_TOL
    assert rep.closed_form_min == pytest.approx((n - 1) * rep.min_margin, rel=1e-6)


def test_ball_volume_array_matches_scalar():
    m = make_space_form(-1.0, 3)
    rs = np.array([0.0, 0.0, 0.2, 0.2, 0.9, 1.7])
    vols = ball_volume_model(m, rs)
    assert isinstance(vols, np.ndarray) and vols.shape == rs.shape
    assert vols[0] == vols[1] == 0.0
    for r, vol in zip(rs, vols):
        scalar = ball_volume_model(m, float(r))
        assert type(scalar) is float
        assert vol == pytest.approx(scalar, rel=1e-13, abs=0)
    quotients = isoperimetric_quotient(m, rs[2:])
    assert isinstance(quotients, np.ndarray) and quotients.shape == (4,)
    assert type(isoperimetric_quotient(m, 0.9)) is float
    assert type(sphere_volume_model(m, 0.9)) is float
    np.testing.assert_allclose(
        sphere_volume_model(m, rs), [sphere_volume_model(m, float(r)) for r in rs],
        rtol=1e-15, atol=0,
    )
    with pytest.raises(ValueError):
        ball_volume_model(m, rs[::-1])
    with pytest.raises(DomainError):
        ball_volume_model(m, np.array([-0.1, 0.5]))
    with pytest.raises(DomainError):
        ball_volume_model(make_space_form(1.0, 2), np.array([1.0, 3.5]))
    with pytest.raises(DomainError):
        ball_volume_model(m, np.array([0.5, 512.0]))  # sinh^2 overflows
    with pytest.raises(DomainError):
        isoperimetric_quotient(m, rs)  # q is undefined at r = 0


def test_ball_volume_raises_when_unconverged():
    # NaN samples (the evaluator swapped after the axiom audit) never settle
    nan_profile = space_form_profile(-1.0)
    object.__setattr__(nan_profile, "w", lambda r: np.full(np.shape(r), np.nan))
    with pytest.raises(QuadratureError):
        ball_volume_model(ModelSpace(warping=nan_profile, dim=3), 1.0)
    # a spike of w at r = 0.5, of width 1e-3 (poles at 0.5 +- 1e-3 i):
    # Gauss-Legendre on [0, 1] gains only a factor of about 1 - 4e-3 per
    # node, so the doubling budget runs out
    spike = WarpingProfile(w=lambda r: r + 1e-6 * r**3 / ((r - 0.5) ** 2 + 1e-6),
                           r_max=math.inf, label="spike")
    with pytest.raises(QuadratureError):
        ball_volume_model(ModelSpace(warping=spike, dim=2), 1.0)
