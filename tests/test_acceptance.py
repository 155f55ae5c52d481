"""Acceptance suite: nine end-to-end criteria, one pass/fail line each."""

import math
import time

import numpy as np

import geoball as gb

J01 = 2.404825557695773
LAMBDA1_DISK = J01**2


def _report(num: int, desc: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


def test_acceptance_1_closed_form_model_oracles():
    t0 = time.time()
    m = gb.make_space_form(0.0, 2)
    q1 = gb.isoperimetric_quotient(m, 1.0)
    hier = gb.radial_hierarchy(m, 1.0, 3)
    e0 = float(hier.level(1)(0.0))
    spec = hier.spectrum()
    ok = (
        abs(q1 - 0.5) < 1e-6 * 0.5
        and abs(e0 - 0.25) < 1e-6 * 0.25
        and abs(spec.moment(1) - math.pi / 8) < 1e-6 * math.pi / 8
        and abs(spec.moment(2) - math.pi / 24) < 1e-6 * math.pi / 24
        and time.time() - t0 < 1.0
    )
    _report(1, "Euclidean n=2 R=1 closed forms q, E(0), A_1, A_2 at 1e-6", ok)


def test_acceptance_2_eigenvalue_reproduction():
    t0 = time.time()
    m2 = gb.make_space_form(0.0, 2)
    est = gb.lambda1_from_moments(gb.moment_spectrum(m2, 1.0, 40))
    lam_shoot = gb.lambda1_shooting(m2, 1.0)
    lam_ball = gb.lambda1_shooting(gb.make_space_form(0.0, 3), 1.0)
    ok = (
        abs(est.value - LAMBDA1_DISK) < 0.01 * LAMBDA1_DISK
        and abs(lam_shoot - LAMBDA1_DISK) < 1e-6
        and abs(lam_ball - math.pi**2) < 1e-6
        and time.time() - t0 < 5.0
    )
    _report(2, "lambda_1 via moment ratios (1%) and shooting (1e-6)", ok)


def test_acceptance_3_ratio_trace():
    rho = gb.moment_spectrum(gb.make_space_form(0.0, 2), 1.0, 3).ratios()
    ok = abs(rho[0] - 8.0) < 1e-6 and abs(rho[1] - 6.0) < 1e-6
    _report(3, "unit-disk moment ratios rho_1=8, rho_2=6 at 1e-6", ok)


def test_acceptance_4_balance_suite():
    cases = [
        (gb.make_space_form(0.0, 2), 5.0),
        (gb.make_space_form(-1.0, 2), 5.0),
        (gb.make_space_form(1.0, 2), math.pi / 4),
        (gb.ModelSpace(warping=gb.polynomial_profile((1.0,)), dim=2), 5.0),
    ]
    ok = True
    for model, R in cases:
        rep = gb.balance_check(model, R)  # raises if criteria disagree
        ok = ok and rep.balanced
        ok = ok and abs(rep.min_margin - rep.closed_form_min) < 1e-9
    _report(4, "balance suite (flat, hyperbolic, spherical, cubic) consistent", ok)


def test_acceptance_5_example_metric_closed_forms():
    m = gb.builtin_example_metric()
    ok = (
        abs(gb.sphere_mean_curvature(m, 1.0, math.pi / 2) - 2.0) < 1e-10
        and abs(gb.sphere_mean_curvature(m, 1.0, 0.0) - 4 / 3) < 1e-10
        and abs(gb.gauss_curvature(m, 1.0, 0.0) + 1 / 3) < 1e-10
        and abs(gb.gauss_curvature(m, 2.0, 0.0) - 2 / 225) < 1e-10
    )
    root = math.sqrt(3.0)
    ok = ok and gb.gauss_curvature(m, root - 1e-3, 0.0) < 0
    ok = ok and gb.gauss_curvature(m, root + 1e-3, 0.0) > 0
    h = 1e-5
    for r, t in ((0.8, 0.4), (1.7, 2.9)):
        wr_fd = float(m.w(np.array(r + h), np.array(t))
                      - m.w(np.array(r - h), np.array(t))) / (2 * h)
        ok = ok and abs(float(m.w_r(np.array(r), np.array(t))) - wr_fd) < 1e-6
    rs = np.linspace(2.0 / 256, 2.0, 256)
    ts = np.linspace(0.0, 2 * math.pi, 256, endpoint=False)
    rr, tt = np.meshgrid(rs, ts, indexing="ij")
    ok = ok and bool(np.all(m.w_r(rr, tt) / m.w(rr, tt) > 1.0 / rr))
    _report(5, "example-metric H/K closed forms and H > 1/t on the grid", ok)


def test_acceptance_6_pde_consistency():
    ok = True
    for profile in (gb.euclidean_profile(), gb.space_form_profile(-1.0)):
        metric = gb.radial_metric(profile)
        model = gb.ModelSpace(warping=profile, dim=2)
        grid = gb.make_grid(metric, 1.0, 128, 128)
        solver = gb.pde.HierarchySolver(grid)
        fields = [solver.field(v) for v in solver.hierarchy(2)]
        hier = gb.radial_hierarchy(model, 1.0, 2)
        for k in (1, 2):
            ref = hier.level(k)(grid.radii[1:])[:, None]
            err = max(
                float(np.max(np.abs(ref - fields[k - 1].rings))),
                abs(float(hier.level(k)(0.0)) - fields[k - 1].center),
            )
            ok = ok and err < 1e-3

    def f(r, t):
        r, t = np.asarray(r, float), np.asarray(t, float)
        return np.sin(r * np.cos(t)) * np.cos(r * np.sin(t))

    flat = gb.radial_metric(gb.euclidean_profile())
    errs = []
    for n in (64, 128):
        g = gb.make_grid(flat, 1.0, n, n)
        lap = gb.apply_laplacian(gb.pde.field_from_function(g, f))
        rr, tt = np.meshgrid(g.radii[1:-1], g.thetas, indexing="ij")
        e2 = (lap.rings[:-1] + 2 * f(rr, tt)) ** 2
        errs.append(math.sqrt(np.sum(e2 * g.node_area) / np.sum(g.node_area)))
    order = math.log2(errs[0] / errs[1])
    ok = ok and order >= 1.8
    _report(6, f"grid hierarchy matches quadrature at 1e-3; order={order:.2f}", ok)


def test_acceptance_7_theorem_harness():
    t0 = time.time()
    ex = gb.builtin_example_metric()
    model = gb.make_space_form(0.0, 2)
    ok = abs(gb.sphere_length(ex, 1.0) - 2 * math.pi * (1 + 1 / math.sqrt(2))) < 1e-4
    for R in (0.5, 1.0):
        coarse = gb.run_verification(ex, model, R, n_r=128, n_theta=128)
        fine = gb.run_verification(ex, model, R, n_r=256, n_theta=256)
        ok = ok and coarse.all_passed and fine.all_passed
        by_name = {e.name: e for e in fine.entries}
        for e in coarse.entries:
            refined = by_name[e.name]
            ok = ok and e.margin > 0 and refined.margin > 0
            ok = ok and abs(refined.margin - e.margin) < max(abs(e.margin), 1e-3)
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    _report(7, f"harness example1 vs Euclidean R in {{0.5,1}} in {elapsed:.1f}s", ok)


def _integral_identity(m, model):
    grid = gb.make_grid(m, 1.0, 128, 128)
    f = gb.transplant_exit_time(model, grid)
    return gb.integral_identity_check(f, gb.symmetrize_field(gb.level_profile(f), model),
                                      model)


def test_acceptance_8_symmetrization_suite():
    ex = gb.builtin_example_metric()
    model = gb.make_space_form(0.0, 2)
    devs = []
    for n in (128, 256):
        grid = gb.make_grid(ex, 1.0, n, n)
        prof = gb.level_profile(gb.transplant_exit_time(model, grid))
        devs.append(gb.check_equimeasurable(prof, gb.symmetrize_field(prof, model), model))
    ok = devs[0] <= 1e-2 and devs[1] <= 0.6 * devs[0]
    lhs, rhs = _integral_identity(ex, model)
    ok = ok and abs(lhs - rhs) <= 1e-2 * abs(lhs)
    flat = gb.radial_metric(gb.euclidean_profile())
    rep = gb.symmetrized_profile_comparison(flat, model, 1.0)
    ok = ok and abs(rep.s_R - 1.0) <= 1e-6 and abs(rep.min_margin) <= 1e-3
    lhs0, rhs0 = _integral_identity(flat, model)
    ok = ok and abs(lhs0 - rhs0) <= 1e-3 * abs(lhs0)
    _report(8, f"symmetrization: deviation {devs[0]:.1e} halving, s(R)=R", ok)


def test_acceptance_9_negative_control():
    ex = gb.builtin_example_metric()
    model = gb.make_space_form(0.0, 2)
    rep = gb.run_verification(ex, model, 1.0, direction_override="model>=M")
    failed = [e for e in rep.entries if not e.passed]
    ok = (
        not rep.all_passed
        and len(failed) == len(rep.entries)
        and all(e.margin < 0 for e in failed)
    )
    _report(9, "reversed-direction control fails with negative margins", ok)
