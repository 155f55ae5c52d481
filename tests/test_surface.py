"""Tests for 2-D polar metrics, curvatures and the hypothesis scan."""

import math

import numpy as np
import pytest

from geoball.model import DomainError, euclidean_profile, make_space_form, space_form_profile
from geoball.quadrature import QuadratureError, integrate
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


def test_metric_audit_rejects_wrong_partial():
    def w(r, t):
        return np.asarray(r, dtype=float)

    def bad_wr(r, t):
        return 2.0 * np.ones_like(np.asarray(r, dtype=float))

    zero = lambda r, t: np.zeros_like(np.asarray(r, dtype=float))
    one = lambda r, t: np.ones_like(np.asarray(r, dtype=float))
    with pytest.raises(MetricAuditError):
        PolarMetric2D(w=w, w_r=bad_wr, w_rr=zero, w_t=zero,
                      R_valid=5.0, label="broken")
    # a NaN error or sample must fail, not pass: NaN everywhere, a NaN
    # partial only, NaN only near the pole (r < 1e-3) and NaN only at
    # r > 4.9, 1 < theta < 2, which only the positivity probe reaches
    with pytest.raises(MetricAuditError):
        perturbed_flat_metric(float("nan"), 1)
    with pytest.raises(MetricAuditError):
        PolarMetric2D(w=w, w_r=lambda r, t: np.full(np.shape(r), np.nan), w_rr=zero,
                      w_t=zero, R_valid=5.0, label="nan-partial")

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
            PolarMetric2D(w=nan_where(mask), w_r=one, w_rr=zero, w_t=zero,
                          R_valid=5.0, label=label)

    # w_rr off by 1e-3: the second difference still sees it
    ex = builtin_example_metric()
    with pytest.raises(MetricAuditError):
        PolarMetric2D(w=ex.w, w_r=ex.w_r, w_rr=lambda r, t: ex.w_rr(r, t) + 1e-3,
                      w_t=ex.w_t, R_valid=ex.R_valid, label="wrr-off")


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
    H = m.w_r(rr, tt) / m.w(rr, tt)
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


def _nested_sphere_length(m, r, rel_tol=1e-10):
    """The adaptive Simpson circle length that the tensor rule replaced."""
    m._check_radius(r)
    return integrate(lambda t: m.w(np.full_like(t, r), t), 0.0, TWO_PI, rel_tol=rel_tol)


def _nested_ball_area(m, r, rel_tol=1e-9):
    """The nested adaptive Simpson area that the tensor rule replaced: one
    adaptive theta-integral per node of an adaptive r-integral."""
    m._check_radius(r)

    def lengths(ts):
        out = np.empty_like(ts)
        for i, t in enumerate(ts):
            out[i] = _nested_sphere_length(m, t, rel_tol=rel_tol * 0.1) if t > 0 else 0.0
        return out

    return integrate(lengths, 0.0, r, rel_tol=rel_tol, initial_points=129)


@pytest.mark.parametrize(
    "metric",
    [builtin_example_metric(), perturbed_flat_metric(0.5, 3)],
    ids=lambda m: m.label,
)
def test_tensor_rule_matches_nested_reference(metric):
    rs = np.array([0.25, 0.5, 1.0])
    lengths, areas = sphere_length(metric, rs), ball_area(metric, rs)
    for r, length, area in zip(rs, lengths, areas):
        assert length == pytest.approx(_nested_sphere_length(metric, r), rel=1e-10)
        assert area == pytest.approx(_nested_ball_area(metric, r), rel=1e-10)


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

    # a kink in theta: the trapezoid rule converges only like 1/n^2, so the
    # doubling budget runs out
    def w(r, t):
        r = np.asarray(r, dtype=float)
        return r + r**3 * np.abs(np.sin(t))

    m = PolarMetric2D(
        w=w,
        w_r=lambda r, t: 1.0 + 3 * np.asarray(r, dtype=float) ** 2 * np.abs(np.sin(t)),
        w_rr=lambda r, t: 6 * np.asarray(r, dtype=float) * np.abs(np.sin(t)),
        w_t=lambda r, t: np.asarray(r, dtype=float) ** 3 * np.sign(np.sin(t)) * np.cos(t),
        R_valid=5.0,
        label="kink",
    )
    with pytest.raises(QuadratureError):
        sphere_length(m, 1.0)
