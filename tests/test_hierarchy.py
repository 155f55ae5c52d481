"""Tests for the radial hierarchy, moments and eigenvalue extraction."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import BarycentricInterpolator
from scipy.linalg import lu_factor, lu_solve
from scipy.optimize import brentq

from geoball import hierarchy
from geoball.hierarchy import (
    EigenvalueConvergenceError,
    MomentCrossCheckError,
    MomentOverflowError,
    MomentSpectrum,
    averaged_moment,
    lambda1_from_moments,
    lambda1_shooting,
    moment_spectrum,
    radial_hierarchy,
)
from geoball.model import (
    ModelSpace,
    euclidean_profile,
    make_space_form,
    polynomial_profile,
    space_form_profile,
)
from geoball.symmetrize import RadialFunction

J01 = 2.404825557695773  # first zero of the Bessel function J_0
J11 = 3.831705970207512  # first positive zero of the Bessel function J_1
LAMBDA1_DISK = J01**2


def _shoot_reference(m, R):
    """lambda1 of the model ball by RK45 shooting from phi(0) = 1 and brentq on
    phi(R) = 0, the route lambda1_shooting used before its collocation.  It
    agrees with the closed forms to about 5e-12 for n = 2..4 and R in
    [0.5, 2]; its bracket walk can step over the first zero on large balls."""
    n = m.dim

    def shoot(lam):
        r0 = min(1e-6, R * 1e-4)
        y0 = [1.0 - lam * r0**2 / (2 * n), -lam * r0 / n]

        def rhs(r, y):
            eta = float(m.warping.jet(np.array(r)).r / m.warping.w(np.array(r)))
            return [y[1], -(n - 1) * eta * y[1] - lam * y[0]]

        sol = solve_ivp(rhs, (r0, R), y0, method="RK45", rtol=1e-11, atol=1e-13)
        assert sol.success, sol.message
        return float(sol.y[0, -1])

    lo = 0.5 / R**2
    while shoot(lo) <= 0:
        lo /= 2.0
    hi = lo
    while shoot(hi) > 0:
        hi *= 1.5
    return float(brentq(shoot, hi / 1.5, hi, rtol=1e-12, xtol=1e-14))


def test_mean_exit_euclidean_closed_form():
    m = make_space_form(0.0, 2)
    E = radial_hierarchy(m, 1.0, 1).level(1)
    rs = np.linspace(0.0, 1.0, 33)
    assert np.max(np.abs(E(rs) - (1 - rs**2) / 4)) < 1e-10


def test_mean_exit_hyperbolic_closed_form():
    # E(r) = 2*(log cosh(R/2) - log cosh(r/2)) for constant curvature -1, n=2
    m = make_space_form(-1.0, 2)
    E = radial_hierarchy(m, 1.0, 1).level(1)
    rs = np.linspace(0.0, 1.0, 17)
    exact = 2 * (np.log(np.cosh(0.5)) - np.log(np.cosh(rs / 2)))
    assert np.max(np.abs(E(rs) - exact)) < 1e-9


def test_hierarchy_second_level_closed_form():
    # v_2 = u_2/2 with u_2(r) = 3/32 - r^2/8 + r^4/32 on the unit disk
    m = make_space_form(0.0, 2)
    v2 = radial_hierarchy(m, 1.0, 2).level(2)
    rs = np.linspace(0.0, 1.0, 33)
    exact = (3 / 32 - rs**2 / 8 + rs**4 / 32) / 2
    assert np.max(np.abs(v2(rs) - exact)) < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4])
def test_flat_exit_time_closed_form(n):
    # E(r) = (R^2 - r^2) / (2n) on the flat n-ball
    R = 1.0
    E = radial_hierarchy(make_space_form(0.0, n), R, 1).level(1)
    rs = np.linspace(0.0, R, 101)
    assert np.max(np.abs(E(rs) - (R**2 - rs**2) / (2 * n))) < 1e-12


def test_flat_disk_second_level_closed_form_to_roundoff():
    v2 = radial_hierarchy(make_space_form(0.0, 2), 1.0, 2).level(2)
    rs = np.linspace(0.0, 1.0, 101)
    exact = (3 / 32 - rs**2 / 8 + rs**4 / 32) / 2
    assert np.max(np.abs(v2(rs) - exact)) < 1e-12


def test_hierarchy_members_nonincreasing_nonnegative():
    m = make_space_form(-1.0, 3)
    hier = radial_hierarchy(m, 1.5, 4)
    half = hier.nodes >= 0  # the nodes run from R down to -R
    for v in hier.levels[1:]:
        v = v[half][::-1]  # in increasing r on [0, R]
        assert np.all(v >= -1e-15)
        assert np.all(np.diff(v) <= 1e-12)


def test_radial_hierarchy_serves_levels_and_moments_from_one_pass():
    m = make_space_form(-1.0, 3)
    hier = radial_hierarchy(m, 1.5, 4)
    assert len(hier.levels) == 5  # v_0..v_4: the moments A_0..A_3 need v_4
    # a deeper pass only appends levels
    deeper = radial_hierarchy(m, 1.5, 7)
    for a, b in zip(hier.levels, deeper.levels):
        assert np.array_equal(a, b)
    spec = hier.spectrum()
    assert spec.k_max == 3 and spec.radius == 1.5
    assert np.array_equal(spec.normalized, moment_spectrum(m, 1.5, 3).normalized)
    assert np.array_equal(deeper.spectrum().normalized[:4], spec.normalized)
    with pytest.raises(IndexError):
        hier.level(5)
    with pytest.raises(ValueError):
        radial_hierarchy(m, 1.5, 0)


@pytest.mark.parametrize("b, n, R", [(0.0, 2, 1.0), (-1.0, 3, 2.0), (1.0, 4, 1.5)])
def test_levels_interpolate_bit_for_bit_as_scipy(b, n, R):
    # the barycentric formula written as BarycentricInterpolator evaluates
    # it, with the same closed-form Chebyshev weights
    hier = radial_hierarchy(make_space_form(b, n), R, 4)
    wi = (-1.0) ** np.arange(len(hier.nodes))
    wi[[0, -1]] *= 0.5
    points = (0.0, 0.3 * R, hier.nodes[2], np.linspace(0.0, R, 77),
              np.append(hier.nodes, 0.1 * R), np.linspace(0.0, R, 12).reshape(3, 4),
              np.array([]))
    for values in (hier.levels[3], np.eye(len(hier.nodes)), np.stack(hier.levels, axis=1)):
        ours = hier._interpolant(values)
        ref = BarycentricInterpolator(hier.nodes, values, wi=wi)
        for r in points:
            got, want = ours(r), ref(r)
            assert got.shape == want.shape and np.array_equal(got, want)
    assert np.array_equal(hier.level(2)(hier.nodes), hier.levels[2])


def test_folded_solves_match_lu_factor_and_lu_solve():
    _, _, L = hierarchy._folded_operator(make_space_form(-1.0, 3), 1.5, 33)
    lu, piv = hierarchy._lu_factor(L)
    ref_lu, ref_piv = lu_factor(L)
    assert np.array_equal(lu, ref_lu) and np.array_equal(piv, ref_piv)
    v = np.linspace(1.0, 2.0, 34)
    u = hierarchy._next_level((lu, piv), v)
    assert np.array_equal(u[1:17], lu_solve((ref_lu, ref_piv), -v[1:17]))


@pytest.mark.parametrize("bad", [0.0, math.nan, math.inf])
def test_singular_or_non_finite_folded_operator_raises(bad):
    L = np.diag([1.0, bad, 2.0])
    with pytest.raises(EigenvalueConvergenceError, match="singular or not finite"):
        hierarchy._lu_factor(L)


def test_moment_oracles_unit_disk():
    m = make_space_form(0.0, 2)
    spec = moment_spectrum(m, 1.0, 3)
    assert spec.moment(0) == pytest.approx(math.pi, rel=1e-9)
    assert spec.moment(1) == pytest.approx(math.pi / 8, rel=1e-9)
    assert spec.moment(2) == pytest.approx(math.pi / 24, rel=1e-9)


def test_ratio_trace_unit_disk():
    m = make_space_form(0.0, 2)
    rho = moment_spectrum(m, 1.0, 3).ratios()
    assert rho[0] == pytest.approx(8.0, rel=1e-8)
    assert rho[1] == pytest.approx(6.0, rel=1e-8)


def test_moment_cross_check_trips_on_coarse_grid(monkeypatch):
    # A_1 settles at N = 9, which holds the flat disk's v_0..v_4 (even
    # polynomials of degree <= 8) but not v_5
    monkeypatch.setattr(hierarchy, "CHEBYSHEV_N", (5, 9))
    m = make_space_form(0.0, 2)
    with pytest.raises(MomentCrossCheckError, match="k=4 with N=9"):
        radial_hierarchy(m, 1.0, 6).spectrum()


def test_moment_cross_check_fails_on_nan_moments():
    # on B_1e6 the levels overflow past k = 26 and both moments read NaN,
    # which a ">" gate lets through; the overflow warnings are silenced so
    # that the gate, not the warning filter, is what raises
    hier = radial_hierarchy(make_space_form(0.0, 2), 1e6, 30)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(MomentCrossCheckError, match="k=27 .*bulk=nan"):
        hier.spectrum()


def test_hierarchy_underflow_truncates_with_one_warning():
    m = make_space_form(0.0, 2)
    with pytest.warns(RuntimeWarning, match="underflow") as caught:
        spec = radial_hierarchy(m, 1e-5, 80).spectrum()
    assert len(caught) == 1
    assert spec.k_max + 1 == 27


def test_averaged_moment_normalization():
    m = make_space_form(0.0, 2)
    spec = moment_spectrum(m, 1.0, 2)
    assert averaged_moment(spec, m, 1) == pytest.approx(1 / 16, rel=1e-8)


def test_lambda1_from_moments_converges_to_bessel():
    m = make_space_form(0.0, 2)
    spec = moment_spectrum(m, 1.0, 40)
    est = lambda1_from_moments(spec)
    assert est.converged
    assert est.value == pytest.approx(LAMBDA1_DISK, rel=1e-6)
    assert len(est.trace) == 40
    assert est.trace[0] == pytest.approx(8.0, rel=1e-8)


def _lambda1_from_moments_by_diff(spec):
    """lambda1_from_moments with its differences taken by np.diff."""
    rho = spec.ratios()
    d1, d2 = np.diff(rho), np.diff(rho, 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        aitken = rho[:-2] - d1[:-1] ** 2 / d2
    valid = np.isfinite(aitken)
    value = float(aitken[valid][-1]) if valid.any() else float(rho[-1])
    tail = np.abs(d1[-3:])
    return value, rho, bool(np.all(np.diff(tail) <= 1e-12 + 0.5 * tail[:-1]))


@pytest.mark.parametrize("seed", range(8))
def test_lambda1_from_moments_matches_the_diff_reference(seed):
    rng = np.random.default_rng(seed)
    k_max = int(rng.integers(4, 40))
    steps = [rng.uniform(0.05, 2.0, k_max),  # arbitrary ratios
             np.full(k_max, 0.3),  # geometric: d2 = 0, no finite Aitken term
             0.2 + 1e-9 * rng.standard_normal(k_max)]  # ratios at roundoff
    for step in steps:
        spec = MomentSpectrum(np.cumprod(np.append(rng.uniform(0.5, 5.0), step)), 1.0)
        est = lambda1_from_moments(spec)
        value, trace, converged = _lambda1_from_moments_by_diff(spec)
        assert est.value == value and est.converged == converged
        assert np.array_equal(est.trace, trace)


def test_lambda1_shooting_disk_and_ball():
    assert lambda1_shooting(make_space_form(0.0, 2), 1.0) == pytest.approx(
        LAMBDA1_DISK, rel=1e-8
    )
    assert lambda1_shooting(make_space_form(0.0, 3), 1.0) == pytest.approx(
        math.pi**2, rel=1e-8
    )


def test_lambda1_scaling():
    m = make_space_form(0.0, 2)
    lam1 = lambda1_shooting(m, 1.0)
    lam2 = lambda1_shooting(m, 2.0)
    assert lam2 == pytest.approx(lam1 / 4, rel=1e-8)


def test_lambda1_shooting_sphere_cap():
    # hemisphere of the unit 2-sphere: first Dirichlet eigenvalue is 2
    m = make_space_form(1.0, 2)
    assert lambda1_shooting(m, math.pi / 2) == pytest.approx(2.0, rel=1e-7)


@pytest.mark.parametrize("R", [0.5, 1.0, 2.0])
def test_lambda1_closed_forms(R):
    for n, j in ((2, J01), (3, math.pi), (4, J11)):
        exact = j**2 / R**2
        assert lambda1_shooting(make_space_form(0.0, n), R) == pytest.approx(
            exact, rel=1e-12
        )
    for b in (-1.0, -0.3, 0.7, 1.0):
        exact = math.pi**2 / R**2 - b
        assert lambda1_shooting(make_space_form(b, 3), R) == pytest.approx(
            exact, rel=1e-12
        )


def test_lambda1_hemisphere_closed_form():
    m = make_space_form(1.0, 2)
    assert lambda1_shooting(m, math.pi / 2) == pytest.approx(2.0, rel=1e-12)


def test_lambda1_large_hyperbolic_ball_is_the_first_eigenvalue():
    # shooting's bracket walk stepped over two zeros here and returned
    # 9 pi^2/100 + 1, the third eigenvalue
    lam = lambda1_shooting(make_space_form(-1.0, 3), 10.0)
    assert lam == pytest.approx(math.pi**2 / 100 + 1, rel=1e-11)


def test_lambda1_matches_shooting_reference():
    rng = np.random.default_rng(601)
    for j in range(6):
        if j % 2 == 0:
            profile = space_form_profile(float(rng.uniform(-1.0, 1.0)))
        else:
            c1, c2 = rng.uniform(-0.05, 0.2), rng.uniform(0.001, 0.02)
            profile = polynomial_profile((float(c1), float(c2)))
        m = ModelSpace(warping=profile, dim=2 + j % 3)
        R = float(rng.uniform(0.5, 2.0))
        assert lambda1_shooting(m, R) == pytest.approx(
            _shoot_reference(m, R), rel=1e-10
        ), (profile.label, m.dim, R)


def test_lambda1_nonfinite_warping_ratio_raises_at_once():
    calls = []

    def w(r):
        # w = r, and w' = 1, up to r = 0.505, NaN past it: (2r)^65536
        # underflows to 0 below r = 1/2 and overflows past 0.5054
        calls.append(1)
        with np.errstate(over="ignore", invalid="ignore"):
            return r + 0.0 * (2.0 * r) ** 65536

    # swapped in after the axiom audit: a NaN tail is no valid warping, and
    # the audit's positivity probe reaches it
    profile = euclidean_profile()
    object.__setattr__(profile, "w", w)
    with pytest.raises(EigenvalueConvergenceError):
        lambda1_shooting(ModelSpace(warping=profile, dim=3), 1.0)
    assert len(calls) == 1  # w on jets at the first rung's nodes


def test_lambda1_unsettled_near_the_cut_locus_raises():
    # the O(N^4) roundoff of the collocated second derivative keeps A_1 from
    # settling to 1e-11 before the largest N, so the hierarchy that lambda1
    # is read from is never built
    with pytest.raises(MomentCrossCheckError, match="N=1025"):
        lambda1_shooting(make_space_form(1.0, 3), 0.999 * math.pi)


def test_lambda1_is_checked_against_the_previous_rung():
    # the moments settle at N = 513, where the roundoff of D^2 already moves
    # lambda1 by more than 1e-10 from one rung to the next
    hier = radial_hierarchy(make_space_form(-1.0, 3), 20.0, 6)
    assert hier.spectrum().k_max == 5
    with pytest.raises(EigenvalueConvergenceError, match="N = 513"):
        hier.lambda1()


def test_radial_function_interpolation():
    # linear between the samples: exact on linear data, and a
    # piecewise-linear profile is reproduced without overshoot
    grid = np.linspace(0.0, 1.0, 64)
    f = RadialFunction(grid=grid, values=1.0 - 2.0 * grid)
    rs = np.linspace(0.0, 1.0, 1001)
    np.testing.assert_allclose(f(rs), 1.0 - 2.0 * rs, rtol=0, atol=1e-15)
    assert f(0.5) == pytest.approx(0.0, abs=1e-15)
    step = RadialFunction(grid=grid, values=np.where(grid < 0.5, 1.0, 0.0))
    assert step(rs).min() == 0.0 and step(rs).max() == 1.0
    assert f.radius == 1.0


def test_radial_function_rejects_tiny_grid():
    with pytest.raises(ValueError):
        RadialFunction(grid=np.linspace(0, 1, 4), values=np.zeros(4))


def test_radial_function_rejects_nan_grids_and_values():
    grid = np.linspace(0.0, 1.0, 64)
    bad = grid.copy()
    bad[10] = np.nan
    with pytest.raises(ValueError, match="strictly increasing"):
        RadialFunction(grid=bad, values=1.0 - grid)
    with pytest.raises(ValueError, match="finite"):
        RadialFunction(grid=grid, values=1.0 - bad)


@pytest.mark.parametrize("k,normalized", [(171, 1e-300), (150, 1e300), (3, math.nan)],
                         ids=["factorial", "product", "nan"])
def test_moment_a_double_cannot_hold_raises(k, normalized):
    spec = MomentSpectrum(np.append(np.full(k, 0.5), normalized), 1.0)
    with pytest.raises(MomentOverflowError, match=f"^moment A_{k} = {k}! "):
        spec.moment(k)
    # the finite moments below it are k! * normalized[k], as before
    assert spec.moment(k - 1) == math.factorial(k - 1) * 0.5
