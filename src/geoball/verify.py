"""Comparison-theorem harness.

Runs the full pipeline on a (metric, model space, radius) triple and
records a signed margin for every inequality: exit-time transplant
domination, isoperimetric quotients and volumes, moment spectrum,
torsional rigidity of the symmetrized ball, and the first Dirichlet
eigenvalue.  Margins are normalized and a pass flag is margin >= -tol.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

from .hierarchy import MomentSpectrum, RadialHierarchy, averaged_moment, radial_hierarchy
from .model import (
    ModelSpace,
    balance_check,
    ball_radius_from_volume,
    ball_volume_model,
    sphere_volume_model,
)
from .pde import (
    LAMBDA1_LEVELS,
    GridField,
    HierarchySolver,
    PolarGrid,
    _lambda1_from_spectrum,
)
from .surface import (
    HypothesisReport,
    PolarMetric2D,
    _lengths_and_areas,
    hypothesis_report,
)
from .symmetrize import ComparisonPreconditionError

INEQ_TOL = 1e-6
EQUALITY_TOL = 1e-3


@dataclass(frozen=True)
class Entry:
    name: str
    inequality: str
    lhs: float
    rhs: float
    margin: float
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    metric: str
    model: str
    radius: float
    direction: str
    hypothesis_min_margin: float
    entries: tuple[Entry, ...]
    grid: tuple[int, int]
    tol: float = INEQ_TOL

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "hypothesis": {
                "metric": self.metric,
                "model": self.model,
                "radius": self.radius,
                "direction": self.direction,
                "min_margin": self.hypothesis_min_margin,
            },
            "entries": [asdict(e) for e in self.entries],
            "provenance": {
                "grid": list(self.grid),
                "tolerance": self.tol,
            },
        }


def _sign(direction: str) -> float:
    """+1 when model curvatures sit below the metric's, -1 when above."""
    if direction in ("model<=M", "equal"):
        return 1.0
    if direction == "model>=M":
        return -1.0
    raise ComparisonPreconditionError(
        "mean-curvature comparison has no uniform direction"
    )


_REVERSED = str.maketrans("<>", "><")


def _entry(ctx: VerificationContext, name: str, inequality: str, lhs: float,
           rhs: float, scale: float) -> Entry:
    """Margin ctx.sign*(lhs - rhs) normalized by scale, passed at -ctx.tol.
    inequality is written for the model<=M direction; for model>=M its
    '<' and '>' are swapped."""
    margin = ctx.sign * (lhs - rhs) / max(abs(scale), 1e-300)
    return Entry(
        name=name,
        inequality=inequality if ctx.sign > 0 else inequality.translate(_REVERSED),
        lhs=lhs,
        rhs=rhs,
        margin=float(margin),
        passed=bool(margin >= -ctx.tol),
    )


@dataclass(frozen=True)
class VerificationContext:
    """What the report's checks share, computed once for one (metric,
    model, R, grid): the hypothesis scan, the asserted direction (the
    hypothesis direction unless overridden), one factorization, the
    moments of its hierarchy levels v_1..v_max(k_max, 24) (one product for
    the averaged moments, the rigidity and the eigenvalue estimate), the
    levels v_1..v_k_max as fields, one model hierarchy on [0, R] (the
    pointwise entries read its levels, the averaged moments its
    spectrum), and the sphere lengths and ball areas at the sampled radii
    R/4, R/2, R, both from one tensor-rule pass.  Build it with
    ``VerificationContext.build``."""

    model: ModelSpace
    k_max: int
    hypothesis: HypothesisReport
    direction: str
    solver: HierarchySolver
    fields: tuple[GridField, ...]
    spectrum: MomentSpectrum
    model_hierarchy: RadialHierarchy
    sphere_lengths: dict[float, float]
    ball_areas: dict[float, float]

    @classmethod
    def build(
        cls,
        m: PolarMetric2D,
        model: ModelSpace,
        R: float,
        n_r: int = 128,
        n_theta: int = 128,
        k_max: int = 5,
        direction_override: str | None = None,
    ) -> "VerificationContext":
        """direction_override forces the asserted inequality direction
        ('model<=M' or 'model>=M').  Raises ComparisonPreconditionError
        when the mean-curvature comparison has no uniform direction."""
        if k_max < 1:
            raise ValueError("k_max must be >= 1")
        hyp = hypothesis_report(m, model, R)
        if not hyp.uniform:
            raise ComparisonPreconditionError(
                "mean-curvature comparison has no uniform direction"
            )
        solver = HierarchySolver(PolarGrid(metric=m, R=R, n_r=n_r, n_theta=n_theta))
        levels = solver.hierarchy(max(k_max, LAMBDA1_LEVELS))
        radii = sorted({R / 4, R / 2, float(R)})
        lengths, areas = _lengths_and_areas(m, radii)
        return cls(
            model=model,
            k_max=k_max,
            hypothesis=hyp,
            direction=direction_override or hyp.direction,
            solver=solver,
            fields=tuple(map(solver.field, levels[:k_max])),
            spectrum=solver.moments(levels),
            model_hierarchy=radial_hierarchy(model, R, k_max + 1),
            sphere_lengths=dict(zip(radii, lengths.tolist())),
            ball_areas=dict(zip(radii, areas.tolist())),
        )

    @property
    def sign(self) -> float:
        return _sign(self.direction)

    @property
    def tol(self) -> float:
        """Equality cases are grid-limited and get the looser threshold."""
        return EQUALITY_TOL if self.hypothesis.direction == "equal" else INEQ_TOL


def _pointwise_entry(ctx: VerificationContext, k: int, name: str,
                     inequality: str) -> Entry:
    """Worst gap, in the asserted direction, between the transplanted model
    level v_k and the grid level v_k over the center and the interior
    rings (the least for model<=M, the largest for model>=M), normalized by
    the model's v_k(0)."""
    level, grid_field = ctx.model_hierarchy.level(k), ctx.fields[k - 1]
    top = float(level(0.0))
    radii = ctx.solver.grid.radii[1:-1]
    gap = ctx.sign * (level(radii)[:, None] - grid_field.rings[:-1])
    worst = min(float(gap.min()), ctx.sign * (top - grid_field.center))
    # lhs is the unsigned extreme gap, so that margin = sign * lhs / top
    return _entry(ctx, name, inequality, ctx.sign * worst, 0.0, scale=top)


def verify_mean_exit(ctx: VerificationContext) -> Entry:
    """Transplanted model exit time dominates the metric exit time (per
    the asserted direction), checked pointwise on the grid."""
    return _pointwise_entry(ctx, 1, "mean_exit_transplant",
                            "transplant >= exit_time")


def verify_isoperimetric_volumes(ctx: VerificationContext) -> list[Entry]:
    """Isoperimetric quotient and volume comparisons at the sampled radii."""
    radii = list(ctx.ball_areas)  # sorted
    vols_ball = ball_volume_model(ctx.model, radii).tolist()
    vols_sphere = sphere_volume_model(ctx.model, radii).tolist()
    entries = []
    for (r, area), vol_ball, vol_sphere in zip(ctx.ball_areas.items(), vols_ball,
                                               vols_sphere):
        length = ctx.sphere_lengths[r]
        q_model = vol_ball / vol_sphere
        entries += [
            _entry(ctx, f"isoperimetric_quotient(r={r})", "q_model >= q_metric",
                   q_model, area / length, scale=q_model),
            _entry(ctx, f"ball_volume(r={r})", "Vol(B_model) <= Vol(B_metric)",
                   area, vol_ball, scale=vol_ball),
            _entry(ctx, f"sphere_volume(r={r})", "Vol(S_model) <= Vol(S_metric)",
                   length, vol_sphere, scale=vol_sphere),
        ]
    return entries


def verify_moment_spectrum(ctx: VerificationContext) -> list[Entry]:
    """Pointwise hierarchy domination and averaged-moment comparison for
    k = 1..ctx.k_max."""
    R, model, k_max = ctx.solver.grid.R, ctx.model, ctx.k_max
    entries = [
        _pointwise_entry(ctx, k, f"hierarchy_pointwise(k={k})", "transplant >= grid")
        for k in range(1, k_max + 1)
    ]
    spec_model = ctx.model_hierarchy.spectrum()
    vol_s_metric = ctx.sphere_lengths[R]
    for k in range(1, k_max + 1):
        avg_model = averaged_moment(spec_model, model, k)
        entries.append(
            _entry(ctx, f"averaged_moment(k={k})", "A_k/VolS model >= metric",
                   avg_model, ctx.spectrum.moment(k) / vol_s_metric, scale=avg_model)
        )
    return entries


def verify_torsional(ctx: VerificationContext) -> list[Entry]:
    """Torsional rigidity of the equal-volume model ball versus the disk,
    plus, for model<=M, the coarse exit-time bound on the disk rigidity."""
    model, R = ctx.model, ctx.solver.grid.R
    s_R = ball_radius_from_volume(model, ctx.ball_areas[R])
    if not balance_check(model, max(R, s_R)).balanced:
        raise ComparisonPreconditionError(
            f"model '{model.warping.label}' is not balanced"
        )
    a1_metric = ctx.spectrum.moment(1)
    hier = radial_hierarchy(model, s_R, 2)
    a1_model = hier.spectrum().moment(1)
    entries = [
        _entry(ctx, "torsional_rigidity", "A_1(sym ball) >= A_1(disk)",
               a1_model, a1_metric, scale=a1_model)
    ]
    if ctx.sign > 0:
        bound = float(hier.level(1)(0.0)) * ctx.ball_areas[R]  # E_sym(0) * area
        entries.append(
            _entry(ctx, "torsional_coarse_bound", "A_1(disk) <= E_sym(0)*Vol(disk)",
                   bound, a1_metric, scale=bound)
        )
    return entries


def verify_eigenvalue(ctx: VerificationContext) -> Entry:
    """First Dirichlet eigenvalue of the model ball, read from the context's
    model hierarchy at its settled resolution, versus the metric disk."""
    lam_model = ctx.model_hierarchy.lambda1()
    lam_metric = _lambda1_from_spectrum(ctx.solver, ctx.spectrum).power_value
    return _entry(ctx, "eigenvalue", "lambda1(model) <= lambda1(metric)",
                  lam_metric, lam_model, scale=lam_model)


def run_verification(
    m: PolarMetric2D,
    model: ModelSpace,
    R: float,
    n_r: int = 128,
    n_theta: int = 128,
    k_max: int = 5,
    direction_override: str | None = None,
) -> VerificationReport:
    """Full harness.  direction_override forces the asserted inequality
    direction ('model<=M' or 'model>=M'); it exists as a negative control
    and must make a healthy run fail."""
    ctx = VerificationContext.build(m, model, R, n_r, n_theta, k_max,
                                    direction_override)
    entries: list[Entry] = [verify_mean_exit(ctx)]
    entries.extend(verify_isoperimetric_volumes(ctx))
    entries.extend(verify_moment_spectrum(ctx))
    entries.extend(verify_torsional(ctx))
    entries.append(verify_eigenvalue(ctx))
    return VerificationReport(
        metric=m.label,
        model=model.warping.label,
        radius=R,
        direction=ctx.direction,
        hypothesis_min_margin=ctx.hypothesis.min_margin,
        entries=tuple(entries),
        grid=(n_r, n_theta),
        tol=ctx.tol,
    )
