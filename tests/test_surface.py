"""Tests for 2-D polar metrics, curvatures and the hypothesis scan."""

import math

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from geoball.model import DomainError, euclidean_profile, make_space_form, space_form_profile
from geoball.quadrature import QuadratureError
from geoball.surface import (
    TWO_PI,
    MetricAuditError,
    PolarMetric2D,
    ball_area,
    builtin_example_metric,
    gauss_curvature,
    hypothesis_report,
    perturbed_flat_metric,
    radial_metric,
    sphere_length,
    sphere_mean_curvature,
)


def test_metric_audit_rejects_nan_samples():
    # a NaN sample must fail, not pass: NaN everywhere, NaN only near the
    # pole (r < 1e-3) and NaN only at r > 4.9, 1 < theta < 2, which only
    # the positivity probe reaches
    with pytest.raises(MetricAuditError):
        perturbed_flat_metric(float("nan"), 1)

    def nan_where(mask):
        def w_nan(r, t):
            r, t = np.broadcast_arrays(np.asarray(r, dtype=float), t)
            return np.where(mask(r, t), np.nan, r)
        return w_nan

    for label, mask in (
        ("nan-pole", lambda r, t: r < 1e-3),
        ("nan-corner", lambda r, t: (r > 4.9) & (t > 1.0) & (t < 2.0)),
    ):
        with pytest.raises(MetricAuditError):
            PolarMetric2D(w=nan_where(mask), R_valid=5.0, label=label)


def test_metric_audit_rejects_w_that_jets_do_not_carry():
    # np.abs is no jet operation: the partials would raise TypeError at
    # their first use, so the audit names the metric instead
    with pytest.raises(MetricAuditError, match="'kink'.*jets"):
        PolarMetric2D(w=lambda r, t: r + r**3 * np.abs(np.sin(t)), R_valid=5.0,
                      label="kink")


@pytest.mark.parametrize(
    "build",
    [lambda b=b: radial_metric(space_form_profile(-b)) for b in (1, 1.5, 2, 3, 9)]
    + [builtin_example_metric, lambda: perturbed_flat_metric(10.0, 4)],
    ids=["hyperbolic(1)", "hyperbolic(1.5)", "hyperbolic(2)", "hyperbolic(3)",
         "hyperbolic(9)", "example1", "perturbed(10,4)"],
)
def test_metric_audit_accepts_valid_metrics(build):
    # the second difference's roundoff must stay below the audit tolerance
    assert isinstance(build(), PolarMetric2D)


def test_example_mean_curvature_closed_forms():
    m = builtin_example_metric()
    assert sphere_mean_curvature(m, 1.0, math.pi / 2) == pytest.approx(2.0, abs=1e-10)
    assert sphere_mean_curvature(m, 1.0, 0.0) == pytest.approx(4 / 3, abs=1e-10)


def test_example_gauss_curvature_closed_forms():
    m = builtin_example_metric()
    assert gauss_curvature(m, 1.0, 0.0) == pytest.approx(-1 / 3, abs=1e-10)
    assert gauss_curvature(m, 2.0, 0.0) == pytest.approx(2 / 225, abs=1e-10)


def test_example_gauss_curvature_sign_change():
    # along theta = 0 the curvature is 2(t^2-3)/((1+t^2)^2 (1+2t^2))
    m = builtin_example_metric()
    root = math.sqrt(3.0)
    assert gauss_curvature(m, root - 1e-3, 0.0) < 0
    assert gauss_curvature(m, root + 1e-3, 0.0) > 0
    ts = np.linspace(0.2, 3.0, 50)
    exact = 2 * (ts**2 - 3) / ((1 + ts**2) ** 2 * (1 + 2 * ts**2))
    got = np.array([gauss_curvature(m, float(t), 0.0) for t in ts])
    assert np.max(np.abs(got - exact)) < 1e-10


def test_example_curvature_matches_finite_differences():
    m = builtin_example_metric()
    h = 1e-5
    for r, t in ((0.7, 0.3), (1.5, 2.1), (2.5, 4.0)):
        w0 = float(m.w(np.array(r), np.array(t)))
        wrr_fd = float(
            (m.w(np.array(r + h), np.array(t)) - 2 * w0 + m.w(np.array(r - h), np.array(t)))
        ) / h**2
        assert gauss_curvature(m, r, t) == pytest.approx(-wrr_fd / w0, abs=1e-6)


def test_example_dominates_flat_curvature():
    m = builtin_example_metric()
    rs = np.linspace(2.0 / 256, 2.0, 256)
    ts = np.linspace(0.0, 2 * math.pi, 256, endpoint=False)
    rr, tt = np.meshgrid(rs, ts, indexing="ij")
    H = m.jet(rr, tt).r / m.w(rr, tt)
    assert np.all(H > 1.0 / rr)


def test_perturbed_identity_with_example():
    a = perturbed_flat_metric(1.0, 1)
    b = builtin_example_metric()
    rs = np.linspace(0.1, 3.0, 20)
    ts = np.linspace(0.0, 2 * math.pi, 20)
    rr, tt = np.meshgrid(rs, ts, indexing="ij")
    assert np.max(np.abs(a.w(rr, tt) - b.w(rr, tt))) == 0.0


def test_perturbed_higher_mode_periodicity():
    m = perturbed_flat_metric(0.5, 3)
    rs = np.linspace(0.3, 2.0, 8)
    assert np.allclose(m.w(rs, np.zeros(8)), m.w(rs, np.full(8, 2 * math.pi / 3)))


def test_radial_wrapper_flat_volumes():
    m = radial_metric(euclidean_profile())
    assert sphere_length(m, 2.0) == pytest.approx(4 * math.pi, rel=1e-9)
    assert ball_area(m, 2.0) == pytest.approx(4 * math.pi, rel=1e-8)
    assert sphere_mean_curvature(m, 2.0, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_radial_wrapper_hyperbolic_area():
    m = radial_metric(space_form_profile(-1.0))
    expected = 2 * math.pi * (math.cosh(1.5) - 1.0)
    assert ball_area(m, 1.5) == pytest.approx(expected, rel=1e-8)


def test_example_circle_length_oracle():
    m = builtin_example_metric()
    expected = 2 * math.pi * (1 + 1 / math.sqrt(2))
    assert sphere_length(m, 1.0) == pytest.approx(expected, rel=1e-9)


def test_example_area_exceeds_flat():
    m = builtin_example_metric()
    assert ball_area(m, 1.0) > math.pi


def test_hypothesis_example_vs_flat():
    rep = hypothesis_report(builtin_example_metric(), make_space_form(0.0, 2), 2.0)
    assert rep.direction == "model<=M"
    assert rep.min_margin > 0
    assert rep.uniform


def test_hypothesis_self_case_equal():
    flat = radial_metric(euclidean_profile())
    rep = hypothesis_report(flat, make_space_form(0.0, 2), 1.0)
    assert rep.direction == "equal"
    assert rep.min_margin == pytest.approx(0.0, abs=1e-12)


def test_hypothesis_mixed_direction():
    # near the center the perturbation pushes H above coth r, while for
    # larger radii H decays below it: no uniform comparison direction
    m = perturbed_flat_metric(0.2, 2)
    rep = hypothesis_report(m, make_space_form(-1.0, 2), 2.0)
    assert rep.direction == "mixed"
    assert not rep.uniform


@pytest.mark.parametrize("R", [math.pi, 4.0])
def test_hypothesis_scan_stays_inside_the_model_domain(R):
    # the unit sphere's r_max is pi; the metric is valid well past it
    with pytest.raises(DomainError, match="outside"):
        hypothesis_report(builtin_example_metric(), make_space_form(1.0, 2), R)


def test_radius_validity_enforced():
    m = builtin_example_metric()
    past = m.R_valid + 0.5
    with pytest.raises(DomainError):
        sphere_length(m, past)
    with pytest.raises(DomainError):
        ball_area(m, np.array([1.0, 2.0, past]))
    with pytest.raises(DomainError):
        sphere_mean_curvature(m, np.array([[1.0], [0.0]]), np.zeros(3))
    with pytest.raises(ValueError):
        ball_area(m, np.array([1.0, 0.5]))


def test_curvatures_broadcast_and_keep_scalar_contract():
    m = perturbed_flat_metric(0.5, 3)
    rs = np.linspace(0.1, 2.0, 7)
    ts = np.linspace(0.0, TWO_PI, 5, endpoint=False)
    rr, tt = np.meshgrid(rs, ts, indexing="ij")
    for f in (sphere_mean_curvature, gauss_curvature):
        assert type(f(m, 1.0, 0.3)) is float
        table = f(m, rr, tt)
        assert table.shape == rr.shape
        scalar = [[f(m, float(r), float(t)) for t in ts] for r in rs]
        np.testing.assert_allclose(table, scalar, rtol=1e-14, atol=0)


def _quad_sphere_length(m, r):
    """int_0^2pi w(r, t) dt by adaptive Gauss-Kronrod: the independent reference."""
    f = lambda t: float(m.w(np.array(r), np.array(t)))
    return quad(f, 0.0, TWO_PI, epsabs=0.0, epsrel=1e-13)[0]


def _quad_ball_area(m, r):
    """int_0^r int_0^2pi w(s, t) dt ds by nested adaptive Gauss-Kronrod."""
    f = lambda t, s: float(m.w(np.array(s), np.array(t)))
    return dblquad(f, 0.0, r, 0.0, TWO_PI, epsabs=0.0, epsrel=1e-13)[0]


@pytest.mark.parametrize(
    "metric",
    [builtin_example_metric(), perturbed_flat_metric(0.5, 3)],
    ids=lambda m: m.label,
)
def test_tensor_rule_matches_nested_reference(metric):
    rs = np.array([0.25, 0.5, 1.0])
    lengths, areas = sphere_length(metric, rs), ball_area(metric, rs)
    for r, length, area in zip(rs, lengths, areas):
        assert length == pytest.approx(_quad_sphere_length(metric, r), rel=1e-10)
        assert area == pytest.approx(_quad_ball_area(metric, r), rel=1e-10)


@pytest.mark.parametrize(
    "metric,length,area",
    [
        (radial_metric(euclidean_profile()),
         lambda r: TWO_PI * r, lambda r: math.pi * r**2),
        (radial_metric(space_form_profile(1.0)),
         lambda r: TWO_PI * np.sin(r), lambda r: 2 * TWO_PI * np.sin(r / 2) ** 2),
        (radial_metric(space_form_profile(-1.0)),
         lambda r: TWO_PI * np.sinh(r), lambda r: 2 * TWO_PI * np.sinh(r / 2) ** 2),
    ],
    ids=["flat", "sphere", "hyperbolic"],
)
def test_lengths_and_areas_closed_forms(metric, length, area):
    rs = np.array([1e-3, 0.3, 1.0, 2.5, 3.0])
    np.testing.assert_allclose(sphere_length(metric, rs), length(rs), rtol=1e-12, atol=0)
    np.testing.assert_allclose(ball_area(metric, rs), area(rs), rtol=1e-12, atol=0)


def test_lengths_and_areas_array_matches_scalar():
    m = perturbed_flat_metric(0.5, 3)
    rs = np.linspace(0.2, 2.0, 10)
    lengths, areas = sphere_length(m, rs), ball_area(m, rs)
    assert isinstance(lengths, np.ndarray) and lengths.shape == rs.shape
    for r, length, area in zip(rs, lengths, areas):
        scalar_length, scalar_area = sphere_length(m, float(r)), ball_area(m, float(r))
        assert type(scalar_length) is float and type(scalar_area) is float
        assert length == pytest.approx(scalar_length, rel=1e-12)
        assert area == pytest.approx(scalar_area, rel=1e-12)


def test_lengths_and_areas_raise_when_unconverged():
    # NaN samples (the evaluator swapped after the audit) never converge,
    # so the first mesh evaluation already raises
    calls = []

    def nan_w(r, t):
        calls.append(1)
        return np.full(np.broadcast(r, t).shape, np.nan)

    m = builtin_example_metric()
    object.__setattr__(m, "w", nan_w)
    with pytest.raises(QuadratureError):
        ball_area(m, 1.0)
    with pytest.raises(QuadratureError):
        sphere_length(m, np.array([0.5, 1.0]))
    assert len(calls) == 2

    # a kink in theta (swapped in after the audit, which rejects np.abs):
    # the trapezoid rule converges only like 1/n^2, so the doubling budget
    # runs out
    def w(r, t):
        r = np.asarray(r, dtype=float)
        return r + r**3 * np.abs(np.sin(t))

    m = builtin_example_metric()
    object.__setattr__(m, "w", w)
    with pytest.raises(QuadratureError):
        sphere_length(m, 1.0)
