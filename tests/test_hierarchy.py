"""Tests for the radial hierarchy, moments and eigenvalue extraction."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from geoball.hierarchy import (
    EigenvalueConvergenceError,
    MomentCrossCheckError,
    RadialFunction,
    averaged_moment,
    lambda1_from_moments,
    lambda1_shooting,
    moment_spectrum,
    radial_hierarchy,
)
from geoball.model import (
    ModelSpace,
    WarpingProfile,
    make_space_form,
    polynomial_profile,
    space_form_profile,
)

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
            eta = float(m.warping.dw(np.array(r)) / m.warping.w(np.array(r)))
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


def test_hierarchy_members_nonincreasing_nonnegative():
    m = make_space_form(-1.0, 3)
    for v in radial_hierarchy(m, 1.5, 4).levels[1:]:
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
    # a level's spline is built once, when it is first read
    assert hier.level(2) is hier.level(2)
    assert np.array_equal(hier.level(2).values, hier.levels[2])
    with pytest.raises(IndexError):
        hier.level(5)
    with pytest.raises(ValueError):
        radial_hierarchy(m, 1.5, 0)


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


def test_moment_cross_check_trips_on_coarse_grid():
    m = make_space_form(0.0, 2)
    with pytest.raises(MomentCrossCheckError):
        radial_hierarchy(m, 1.0, 4, N=16).spectrum()


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

    def dw(r):
        calls.append(1)
        r = np.asarray(r, dtype=float)
        return np.where(r < 0.5, 1.0, np.nan)

    profile = WarpingProfile(
        w=lambda r: np.asarray(r, dtype=float) + 0.0,
        dw=dw,
        ddw=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        r_max=math.inf,
        label="nan-tail",
    )
    calls.clear()  # the profile's own audit samples dw
    with pytest.raises(EigenvalueConvergenceError):
        lambda1_shooting(ModelSpace(warping=profile, dim=3), 1.0)
    assert len(calls) == 1


def test_lambda1_unsettled_near_the_cut_locus_raises():
    # the O(N^4) roundoff of the collocated second derivative keeps the value
    # from settling to 1e-10 before the largest N
    with pytest.raises(EigenvalueConvergenceError):
        lambda1_shooting(make_space_form(1.0, 3), 0.999 * math.pi)


def test_radial_function_interpolation():
    grid = np.linspace(0.0, 1.0, 64)
    f = RadialFunction(grid=grid, values=grid**2)
    assert f(0.5) == pytest.approx(0.25, abs=1e-10)
    assert f.derivative(0.5) == pytest.approx(1.0, abs=1e-8)
    assert f.radius == 1.0


def test_radial_function_rejects_tiny_grid():
    with pytest.raises(ValueError):
        RadialFunction(grid=np.linspace(0, 1, 4), values=np.zeros(4))
