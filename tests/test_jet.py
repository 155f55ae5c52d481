"""Tests for the forward-mode jets that give every metric and warping its
partials from w alone, and for the curvatures that read them from one
evaluation of w."""

import math

import numpy as np
import pytest

from geoball import hierarchy
from geoball.cli import parse_metric_expr, parse_warping_expr
from geoball.model import (
    _Jet,
    euclidean_profile,
    make_space_form,
    mean_curvature_model,
    radial_curvature_model,
)
from geoball.surface import (
    builtin_example_metric,
    gauss_curvature,
    hypothesis_report,
    sphere_mean_curvature,
)

RNG = np.random.default_rng(20240811)
R_SAMPLES = RNG.uniform(0.05, 4.75, 200)
T_SAMPLES = RNG.uniform(0.0, 2.0 * math.pi, 200)


def _profile_oracle(text):
    """(w', w'') of a warping expression, written out by hand."""
    if text == "euclidean":
        return lambda r: np.ones_like(r), lambda r: np.zeros_like(r)
    args = [float(a) for a in text[text.index("(") + 1:-1].split(",")]
    if text.startswith("sphere("):
        sb = math.sqrt(args[0])
        return lambda r: np.cos(sb * r), lambda r: -sb * np.sin(sb * r)
    if text.startswith("hyperbolic("):
        sb = math.sqrt(args[0])
        return lambda r: np.cosh(sb * r), lambda r: sb * np.sinh(sb * r)
    cs = args

    def dw(r):
        out = np.ones_like(r)
        for j, c in enumerate(cs, start=1):
            out = out + (2 * j + 1) * c * r ** (2 * j)
        return out

    def ddw(r):
        out = np.zeros_like(r)
        for j, c in enumerate(cs, start=1):
            out = out + (2 * j + 1) * (2 * j) * c * r ** (2 * j - 1)
        return out

    return dw, ddw


def _metric_oracle(text):
    """(w_r, w_rr, w_t) of a metric expression, written out by hand."""
    if text.startswith("radial("):
        dw, ddw = _profile_oracle(text[7:-1])
        return (lambda r, t: dw(r) + 0.0 * t, lambda r, t: ddw(r) + 0.0 * t,
                lambda r, t: np.zeros(np.broadcast(r, t).shape))
    eps, mode = (1.0, 1) if text == "example1" else map(float, text[10:-1].split(","))

    def w_r(r, t):
        c = np.cos(mode * t) ** 2
        return 1.0 + eps * (3 * r**2 + r**4 * c) / (1.0 + r**2 * c) ** 2

    def w_rr(r, t):
        c = np.cos(mode * t) ** 2
        return eps * 2 * r * (3.0 - r**2 * c) / (1.0 + r**2 * c) ** 3

    def w_t(r, t):
        d = 1.0 + r**2 * np.cos(mode * t) ** 2
        return eps * r**5 * mode * np.sin(2 * mode * t) / d**2

    return w_r, w_rr, w_t


WARPINGS = ["euclidean", "sphere(0.3)", "sphere(2)", "hyperbolic(1)",
            "hyperbolic(0.25)", "poly(0.1)", "poly(0.1,0.01)", "poly(0.5,-0.01,0.001)"]
METRICS = ["example1", "perturbed(0.5,4)", "perturbed(10,4)", "perturbed(1e-4,2)",
           "radial(euclidean)", "radial(sphere(0.3))", "radial(hyperbolic(1))",
           "radial(poly(0.1,0.01))"]


def _relative_error(got, want, w):
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(w))))


def _radii(r_max):
    return R_SAMPLES * min(r_max, 5.0) / 5.0


@pytest.mark.parametrize("text", WARPINGS)
def test_warping_derivatives_match_hand_written_ones(text):
    p = parse_warping_expr(text)
    r = _radii(p.r_max)
    w, jet = p.w(r), p.jet(r)
    for got, want in zip((jet.r, jet.rr), _profile_oracle(text)):
        assert got.shape == r.shape
        assert _relative_error(got, want(r), w) <= 1e-13
    h, h2 = 1e-5, 1e-4  # steps of the first and the second difference
    assert _relative_error(jet.r, (p.w(r + h) - p.w(r - h)) / (2 * h), w) <= 1e-5
    ddw_fd = (p.w(r + h2) - 2 * w + p.w(r - h2)) / h2**2
    assert _relative_error(jet.rr, ddw_fd, w) <= 1e-5


@pytest.mark.parametrize("text", METRICS)
def test_metric_partials_match_hand_written_ones(text):
    m = parse_metric_expr(text)
    r, t = _radii(m.R_valid), T_SAMPLES
    w, jet = m.w(r, t), m.jet(r, t)
    for got, want in zip((jet.r, jet.rr, jet.t), _metric_oracle(text)):
        assert got.shape == r.shape
        assert _relative_error(got, want(r, t), w) <= 1e-13
    # the steps of the retired construction-time audit: its second
    # difference loses about 4 eps/h2^2 to roundoff, 9e-8 at h2 = 1e-4
    h, h2 = 1e-5, 1e-4
    fd = ((m.w(r + h, t) - m.w(r - h, t)) / (2 * h),
          (m.w(r + h2, t) - 2 * w + m.w(r - h2, t)) / h2**2,
          (m.w(r, t + h) - m.w(r, t - h)) / (2 * h))
    for got, want in zip((jet.r, jet.rr, jet.t), fd):
        assert _relative_error(got, want, w) <= 1e-5


def test_partials_broadcast_over_radii_and_angles():
    m = parse_metric_expr("radial(euclidean)")
    r, t = np.linspace(0.1, 1.0, 3)[:, None], np.linspace(0.0, 1.0, 4)
    jet = m.jet(r, t)
    for part in (jet.r, jet.rr, jet.t):
        assert part.shape == (3, 4)
    assert m.jet(0.5, 0.25).r.shape == ()


def test_jet_refuses_ndarray_operands():
    jet = _Jet(np.linspace(0.1, 1.0, 3), 1.0)
    a = np.ones(3)
    for mix in (lambda: a * jet, lambda: jet * a, lambda: a + jet, lambda: jet - a,
                lambda: a / jet, lambda: jet / a, lambda: np.array(2.0) * jet,
                lambda: np.asarray(jet), lambda: np.exp(jet), lambda: jet ** 0.5):
        with pytest.raises(TypeError):
            mix()
    # numpy scalars are numbers, not arrays
    scaled = np.float64(2.0) * jet
    np.testing.assert_array_equal(scaled.v, 2.0 * jet.v)
    assert scaled.r == 2.0


def test_swapped_evaluator_carries_its_partials():
    # partials are read from w at every call, so a w swapped in after the
    # audit cannot leave stale derivatives behind
    p = euclidean_profile()
    object.__setattr__(p, "w", lambda r: np.sinh(r))
    r = np.linspace(0.1, 2.0, 7)
    np.testing.assert_allclose(p.jet(r).r, np.cosh(r), rtol=1e-15)
    np.testing.assert_allclose(p.jet(r).rr, np.sinh(r), rtol=1e-15)
    m = builtin_example_metric()
    object.__setattr__(m, "w", lambda r, t: r * (1.0 + r * np.sin(t)))
    np.testing.assert_allclose(m.jet(r, 0.5).r, 1.0 + 2.0 * r * np.sin(0.5), rtol=1e-15)
    np.testing.assert_allclose(m.jet(r, 0.5).rr, 2.0 * np.sin(0.5), rtol=1e-15)
    np.testing.assert_allclose(m.jet(r, 0.5).t, r**2 * np.cos(0.5), rtol=1e-15)


def _recording_calls(f):
    """Swap in a w for f (a metric or a warping) that records its calls,
    after the audit."""
    calls, w = [], f.w

    def recording(*args):
        calls.append(1)
        return w(*args)

    object.__setattr__(f, "w", recording)
    return calls


@pytest.mark.parametrize("curvature", [sphere_mean_curvature, gauss_curvature])
def test_metric_curvatures_evaluate_w_once(curvature):
    m = builtin_example_metric()
    calls = _recording_calls(m)
    curvature(m, np.linspace(0.1, 1.0, 5)[:, None], np.linspace(0.0, 6.0, 7))
    assert len(calls) == 1


@pytest.mark.parametrize("curvature", [mean_curvature_model, radial_curvature_model])
def test_model_curvatures_evaluate_w_once(curvature):
    model = make_space_form(-1.0, 3)
    calls = _recording_calls(model.warping)
    curvature(model, 0.7)
    assert len(calls) == 1


def test_folded_operator_evaluates_w_once():
    model = make_space_form(-1.0, 3)
    calls = _recording_calls(model.warping)
    hierarchy._folded_operator(model, 1.3, 33)
    assert len(calls) == 1


def test_hypothesis_report_evaluates_each_w_once():
    m, model = builtin_example_metric(), make_space_form(0.0, 2)
    metric_calls, model_calls = _recording_calls(m), _recording_calls(model.warping)
    hypothesis_report(m, model, 1.0)
    assert len(metric_calls) == len(model_calls) == 1
