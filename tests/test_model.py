"""Tests for warping profiles, model-space geometry and the balance check."""

import math

import numpy as np
import pytest

from geoball.model import (
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


def test_profile_axioms_rejected():
    with pytest.raises(ValueError):
        WarpingProfile(
            w=lambda r: np.asarray(r) + 1.0,
            dw=lambda r: np.ones_like(np.asarray(r)),
            ddw=lambda r: np.zeros_like(np.asarray(r)),
            r_max=math.inf,
            label="shifted",
        )


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


def test_ball_radius_rejects_excess_volume():
    m = make_space_form(1.0, 2)
    with pytest.raises(DomainError):
        ball_radius_from_volume(m, 100.0)


def test_space_form_profile_rejects_nonfinite():
    with pytest.raises(ValueError):
        space_form_profile(math.nan)


def test_euclidean_profile_samples():
    p = euclidean_profile()
    rs = np.linspace(0.1, 3.0, 7)
    assert np.allclose(p.w(rs), rs)
    assert np.allclose(p.dw(rs), 1.0)
    assert np.allclose(p.ddw(rs), 0.0)
