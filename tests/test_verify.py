"""Tests for the comparison-theorem harness."""

import math

import pytest

from geoball import hierarchy, pde, symmetrize, verify
from geoball.model import euclidean_profile, make_space_form
from geoball.surface import builtin_example_metric, radial_metric, sphere_length
from geoball.symmetrize import ComparisonPreconditionError
from geoball.verify import (
    VerificationContext,
    run_verification,
    verify_eigenvalue,
    verify_isoperimetric_volumes,
    verify_mean_exit,
    verify_moment_spectrum,
    verify_torsional,
)
from test_pde import _counting_solver, _CountingFactor, _CountingFlux, _field_reference


@pytest.fixture(scope="module")
def example():
    return builtin_example_metric()


@pytest.fixture(scope="module")
def flat_model():
    return make_space_form(0.0, 2)


@pytest.fixture(scope="module")
def flat_wrapper():
    return radial_metric(euclidean_profile())


@pytest.fixture(scope="module")
def example_report(example, flat_model):
    return run_verification(example, flat_model, 1.0)


@pytest.fixture(scope="module")
def example_context(example, flat_model):
    return VerificationContext.build(example, flat_model, 1.0)


def test_example_report_all_pass(example_report):
    assert example_report.all_passed
    assert example_report.direction == "model<=M"
    assert example_report.hypothesis_min_margin > 0


def test_example_report_positive_margins(example_report):
    for e in example_report.entries:
        assert e.margin > 0, e.name


def test_mean_exit_example(example_context):
    e = verify_mean_exit(example_context)
    assert e.passed
    assert e.margin > 0


def test_isoperimetric_example(example, example_context):
    entries = verify_isoperimetric_volumes(example_context)
    assert len(entries) == 9
    assert all(e.passed for e in entries)
    assert sphere_length(example, 1.0) == pytest.approx(
        2 * math.pi * (1 + 1 / math.sqrt(2)), rel=1e-6
    )


def test_moment_spectrum_example(example_context):
    entries = verify_moment_spectrum(example_context)
    assert len(entries) == 10
    assert all(e.passed for e in entries)


def test_torsional_example(example_context):
    entries = verify_torsional(example_context)
    assert all(e.passed for e in entries)
    rigidity = entries[0]
    assert rigidity.lhs >= rigidity.rhs  # A_1 of the symmetrized ball wins


def test_eigenvalue_example(example_context):
    e = verify_eigenvalue(example_context)
    assert e.passed
    # the model eigenvalue is the Bessel value; the disk's must exceed it
    assert e.rhs == pytest.approx(5.783185962946785, rel=1e-6)
    assert e.lhs > e.rhs


def test_eigenvalue_scaling(example, flat_model, example_context):
    e1 = verify_eigenvalue(example_context)
    e2 = verify_eigenvalue(VerificationContext.build(example, flat_model, 0.5))
    assert e2.rhs == pytest.approx(4 * e1.rhs, rel=1e-6)
    # the metric is not scale invariant, so only flat-like scaling holds
    assert e2.lhs == pytest.approx(4 * e1.lhs, rel=0.2)


def test_self_case_equality_margins(flat_wrapper, flat_model):
    rep = run_verification(flat_wrapper, flat_model, 1.0)
    assert rep.all_passed
    assert rep.direction == "equal"
    for e in rep.entries:
        if e.name == "torsional_coarse_bound":
            continue  # deliberately slack bound, not an equality clause
        assert abs(e.margin) <= 1e-3, e.name


def test_report_records_the_tolerance_it_gated_at(flat_wrapper, flat_model,
                                                  example_report):
    # radial(euclidean) against euclidean is an equality case: gated at
    # EQUALITY_TOL, with some entries passing on small negative margins
    rep = run_verification(flat_wrapper, flat_model, 1.0, n_r=64, n_theta=64)
    assert rep.direction == "equal"
    assert rep.tol == verify.EQUALITY_TOL
    assert rep.to_dict()["provenance"]["tolerance"] == verify.EQUALITY_TOL
    assert any(e.passed and e.margin < 0 for e in rep.entries)
    for report in (rep, example_report):
        for e in report.entries:
            assert e.passed == (e.margin >= -report.tol), e.name
    assert example_report.tol == verify.INEQ_TOL


def test_negative_control_fails(example, flat_model):
    rep = run_verification(example, flat_model, 1.0, direction_override="model>=M")
    assert not rep.all_passed
    failed = [e for e in rep.entries if not e.passed]
    assert len(failed) == len(rep.entries)
    assert all(e.margin < 0 for e in failed)


def test_margin_refinement_stability(example, flat_model):
    coarse = run_verification(example, flat_model, 1.0, n_r=64, n_theta=64)
    fine = run_verification(example, flat_model, 1.0, n_r=128, n_theta=128)
    by_name = {e.name: e for e in fine.entries}
    for e in coarse.entries:
        f = by_name[e.name]
        assert f.passed
        assert abs(f.margin - e.margin) < max(abs(e.margin), 1e-3)


def test_mixed_hypothesis_rejected(flat_model):
    from geoball.surface import perturbed_flat_metric

    m = perturbed_flat_metric(0.2, 2)
    model = make_space_form(-1.0, 2)
    with pytest.raises(ComparisonPreconditionError):
        verify_mean_exit(VerificationContext.build(m, model, 2.0))


@pytest.mark.parametrize("override", ["equal", "mixed", "model=<M"])
def test_direction_override_must_name_a_direction(example, flat_model, override,
                                                   monkeypatch):
    # refused before the hypothesis scan: "equal" would label a report that
    # asserts model<=M, and "mixed" would blame the hypothesis
    monkeypatch.setattr(verify, "hypothesis_report", None)
    with pytest.raises(ValueError, match="direction_override"):
        run_verification(example, flat_model, 1.0, n_r=16, n_theta=16,
                         direction_override=override)


def test_report_serialization(example_report):
    doc = example_report.to_dict()
    assert set(doc) == {"hypothesis", "entries", "provenance"}
    assert doc["hypothesis"]["direction"] == "model<=M"
    assert all(
        set(e) == {"name", "inequality", "lhs", "rhs", "margin", "passed"}
        for e in doc["entries"]
    )


def test_reports_reproducible(example, flat_model):
    a = run_verification(example, flat_model, 0.5)
    b = run_verification(example, flat_model, 0.5)
    assert a == b


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_one_factorization_and_one_scan_per_report(example, flat_model, monkeypatch):
    builds = _count_calls(monkeypatch, pde.HierarchySolver, "__init__")
    scans = _count_calls(monkeypatch, verify, "hypothesis_report")
    run_verification(example, flat_model, 1.0, n_r=32, n_theta=32)
    assert (len(builds), len(scans)) == (1, 1)
    # nothing is carried over to the next call
    run_verification(example, flat_model, 1.0, n_r=32, n_theta=32)
    assert (len(builds), len(scans)) == (2, 2)


def test_each_quantity_computed_once_per_report(example, flat_model, monkeypatch):
    # one direct solve per hierarchy level, counted on the solver's factor
    solver, factor = _counting_solver(
        pde.make_grid(radial_metric(euclidean_profile()), 1.0, 16, 16))
    solver.hierarchy(pde.LAMBDA1_LEVELS)
    assert factor.solves == pde.LAMBDA1_LEVELS
    # the model side is built once: one hierarchy on [0, R] in the context,
    # one on [0, s_R] for the torsion entries, and no separate transplanted
    # exit time
    builds = [_count_calls(monkeypatch, owner, "radial_hierarchy")
              for owner in (hierarchy, symmetrize, verify)]
    transplants = _count_calls(monkeypatch, symmetrize, "transplant_exit_time")
    # a call through any module's binding counts
    monkeypatch.setattr(verify, "transplant_exit_time",
                        symmetrize.transplant_exit_time, raising=False)
    run_verification(example, flat_model, 1.0, n_r=32, n_theta=32)
    assert (sum(map(len, builds)), len(transplants)) == (2, 0)


def test_256_squared_report_solves_5_levels_in_2_gate_blocks(example, flat_model,
                                                            monkeypatch):
    # the report reads levels 1..5; its sector holds 16,576 unknowns, so
    # the gate takes blocks of 3 levels, 3 + 2
    solvers = []

    class CountingSolver(pde.HierarchySolver):
        def __init__(self, grid):
            super().__init__(grid)
            self.flux, self.level_solves = _CountingFlux(self.flux), 0
            self._lu = _CountingFactor(self._lu)
            solvers.append(self)

        def solve_poisson(self, rhs):
            self.level_solves += 1
            return super().solve_poisson(rhs)

    monkeypatch.setattr(verify, "HierarchySolver", CountingSolver)
    run_verification(example, flat_model, 1.0, n_r=256, n_theta=256)
    [solver] = solvers
    assert len(solver.areas) == 16576 and pde.GATE_BLOCK // 16576 == 3
    assert (solver.level_solves, solver.flux.products) == (5, 2)
    # 16 direct solves: the 5 levels and 11 power steps
    assert solver._lu.solves == 16


@pytest.mark.parametrize("override", [None, "model>=M"])
@pytest.mark.parametrize("k_max", [4, 5])
def test_one_pointwise_entry_per_level_per_report(example, flat_model, monkeypatch,
                                                  override, k_max):
    # mean_exit_transplant is the k = 1 pointwise entry under its own name
    calls = _count_calls(monkeypatch, verify, "_pointwise_entry")
    rep = run_verification(example, flat_model, 1.0, n_r=16, n_theta=16, k_max=k_max,
                           direction_override=override)
    assert len(calls) == k_max
    mean_exit, k1 = rep.entries[0], rep.entries[10]
    assert k1.name == "hierarchy_pointwise(k=1)"
    assert (mean_exit.lhs, mean_exit.rhs, mean_exit.margin, mean_exit.passed) == (
        k1.lhs, k1.rhs, k1.margin, k1.passed)


def _expanded_pointwise_entry(ctx, k):
    """The pointwise entry of level k as read from the grid level expanded
    to (center, rings), ring by ring."""
    level = ctx.model_hierarchy.level(k)
    grid = ctx.grid_hierarchy.solver.grid
    center, rings = _field_reference(grid, ctx.grid_hierarchy.levels[k - 1])
    top = float(level(0.0))
    gap = ctx.sign * (level(grid.radii[1:-1])[:, None] - rings[:-1])
    worst = min(float(gap.min()), ctx.sign * (top - center))
    return verify._entry(ctx, "pointwise", "transplant >= grid", ctx.sign * worst,
                         0.0, scale=top)


@pytest.mark.parametrize("override", [None, "model>=M"])
@pytest.mark.parametrize("metric,n_r,n_theta", [
    (radial_metric(euclidean_profile()), 17, 12), (builtin_example_metric(), 32, 16)],
    ids=["radial-17x12", "example1-32x16"])
def test_pointwise_entries_read_from_level_vectors_match_expanded_fields(
        flat_model, metric, n_r, n_theta, override):
    # a radial grid's level is one column of ring values, which broadcasts
    # against the model's column, and example1's holds the angles of its
    # sector [0, pi/2]: the same gap as the rings expanded to every node
    ctx = VerificationContext.build(metric, flat_model, 1.0, n_r=n_r, n_theta=n_theta,
                                    direction_override=override)
    for k in range(1, ctx.k_max + 1):
        e = verify._pointwise_entry(ctx, k, "pointwise", "transplant >= grid")
        ref = _expanded_pointwise_entry(ctx, k)
        assert (e.lhs.hex(), e.rhs.hex(), e.margin.hex(), e.passed) == (
            ref.lhs.hex(), ref.rhs.hex(), ref.margin.hex(), ref.passed)


def test_one_folded_operator_per_rung_per_model_ball(example, flat_model, monkeypatch):
    # N = 17 and 33 for the hierarchy on [0, R] and again for the one on
    # [0, s_R]; the eigenvalue entry reads the operators the first one kept
    folded = _count_calls(monkeypatch, hierarchy, "_folded_operator")
    run_verification(example, flat_model, 1.0, n_r=32, n_theta=32)
    assert len(folded) == 4


def test_model_eigenvalue_from_the_report_hierarchy(example, flat_model):
    # both the hierarchy and a separate Chebyshev ladder for lambda1 settle
    # at N = 33 here, so the value is the ladder's to the last bit
    ctx = VerificationContext.build(example, flat_model, 1.0, n_r=256, n_theta=256)
    assert ctx.model_hierarchy.lambda1() == 5.783185962946771


@pytest.mark.parametrize("override", [None, "model>=M"])
def test_standalone_checks_match_report(example, flat_model, override):
    rep = run_verification(example, flat_model, 1.0, n_r=32, n_theta=32,
                           direction_override=override)
    ctx = VerificationContext.build(example, flat_model, 1.0, n_r=32, n_theta=32,
                                    direction_override=override)
    entries = [verify_mean_exit(ctx),
               *verify_isoperimetric_volumes(ctx),
               *verify_moment_spectrum(ctx),
               *verify_torsional(ctx),
               verify_eigenvalue(ctx)]
    assert tuple(entries) == rep.entries


def _volume_text(q, ball, sphere):
    return [(f"{name}(r={r})", text) for r in (0.25, 0.5, 1.0)
            for name, text in (("isoperimetric_quotient", q), ("ball_volume", ball),
                               ("sphere_volume", sphere))]


# (name, inequality) of every entry, in report order, as the model<=M and
# the model>=M reports state them
_REPORT_TEXT = {
    "model<=M": [
        ("mean_exit_transplant", "transplant >= exit_time"),
        *_volume_text("q_model >= q_metric", "Vol(B_model) <= Vol(B_metric)",
                      "Vol(S_model) <= Vol(S_metric)"),
        *[(f"hierarchy_pointwise(k={k})", "transplant >= grid") for k in range(1, 6)],
        *[(f"averaged_moment(k={k})", "A_k/VolS model >= metric") for k in range(1, 6)],
        ("torsional_rigidity", "A_1(sym ball) >= A_1(disk)"),
        ("torsional_coarse_bound", "A_1(disk) <= E_sym(0)*Vol(disk)"),
        ("eigenvalue", "lambda1(model) <= lambda1(metric)"),
    ],
    "model>=M": [
        ("mean_exit_transplant", "transplant <= exit_time"),
        *_volume_text("q_model <= q_metric", "Vol(B_model) >= Vol(B_metric)",
                      "Vol(S_model) >= Vol(S_metric)"),
        *[(f"hierarchy_pointwise(k={k})", "transplant <= grid") for k in range(1, 6)],
        *[(f"averaged_moment(k={k})", "A_k/VolS model <= metric") for k in range(1, 6)],
        ("torsional_rigidity", "A_1(sym ball) <= A_1(disk)"),
        ("eigenvalue", "lambda1(model) >= lambda1(metric)"),
    ],
}


@pytest.mark.parametrize("direction", ["model<=M", "model>=M"])
def test_entry_names_and_inequalities(example, flat_model, direction):
    rep = run_verification(example, flat_model, 1.0, n_r=32, n_theta=32,
                           direction_override=direction)
    assert [(e.name, e.inequality) for e in rep.entries] == _REPORT_TEXT[direction]
    # every margin is the asserted sign times (lhs - rhs), normalized
    s = 1.0 if direction == "model<=M" else -1.0
    for e in rep.entries:
        assert math.copysign(1.0, e.margin) == math.copysign(1.0, s * (e.lhs - e.rhs))


# every margin of example1 against the Euclidean model at 32^2, in report
# order, as recorded before the divergence-gap check joined the hierarchy
# gate (which changed no report); the eigenvalue margin is the sector
# solver's, whose power iteration stops 2.1e-10 above the pencil's
# smallest eigenvalue where the full grid's stopped 2.57e-9 above
_MARGINS_32 = {
    "model<=M": [
        0.008668225953426508, 0.028297202053616077, 0.0306209343087538,
        0.060633906259083215, 0.08807192973618572, 0.11584138583382382,
        0.2236067977499792, 0.18544972870134857, 0.39052429175126985,
        0.7071067811865476, 0.008668225953426508, 0.013022733247169332,
        0.017194531886870576, 0.020870354216701612, 0.023989818666664532,
        0.3675598144133264, 0.48167788454437455, 0.57027401456885, 0.6426717895018742,
        0.7026480423096967, 0.44162883251414353, 0.7208144162570719,
        0.2013997710938445,
    ],
    "model>=M": [
        -0.12531920716453387, -0.028297202053616077, -0.0306209343087538,
        -0.060633906259083215, -0.08807192973618572, -0.11584138583382382,
        -0.2236067977499792, -0.18544972870134857, -0.39052429175126985,
        -0.7071067811865476, -0.12531920716453387, -0.25153335079731887,
        -0.37166855061553306, -0.47565570926877215, -0.5632516425765925,
        -0.3675598144133264, -0.48167788454437455, -0.57027401456885,
        -0.6426717895018742, -0.7026480423096967, -0.44162883251414353,
        -0.2013997710938445,
    ],
}


@pytest.mark.parametrize("direction", ["model<=M", "model>=M"])
def test_example_margins_at_32_squared_are_pinned(example, flat_model, direction):
    rep = run_verification(example, flat_model, 1.0, n_r=32, n_theta=32,
                           direction_override=direction)
    assert [e.name for e in rep.entries] == [name for name, _ in _REPORT_TEXT[direction]]
    assert [e.margin for e in rep.entries] == pytest.approx(
        _MARGINS_32[direction], rel=1e-10, abs=0)
