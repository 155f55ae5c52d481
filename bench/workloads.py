"""Seeded geoball workloads: the inputs, one operation, and its check.

Each workload builds its inputs from the seed in ``setup`` (this is what
``setup_s`` times in a fresh process), runs operation ``i`` with ``op`` and
checks that operation's output with ``check``, which returns a list of
problems (empty when the output is correct).  Operation ``i`` uses input
``i % cycle``, so every complete cycle does the same work.

Why these four: ``verify-example1-256`` is the headline report, dominated by
the sparse solver builds and solves; ``disk-grid-384`` uses the solver the
other way (one large factorization, deep hierarchy, inverse power
iteration) where fill and memory dominate; ``model-spectra`` covers the
radial model layers (volume integrals, moment spectra, shooting) that the
grid workloads barely touch; ``surface-cli`` covers the command line,
pointwise curvature, nested area quadrature and symmetrization.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
from scipy.special import jn_zeros

import geoball as gb
import geoball.cli

BENCH_DIR = Path(__file__).resolve().parent

# verify-example1-256
VERIFY_N = 256
VERIFY_KMAX = 5
CONTROL_EVERY = 4  # op i is the reversed-direction control iff i % 4 == 1
CONTROL_DIRECTION = "model>=M"  # example1 satisfies model<=M against the plane
REPORT_ENTRIES = 23
MARGIN_TOL = 1e-9

# disk-grid-384
DISK_N = 384
DISK_R = 1.0
# The 384^2 discretization error of lambda1 is 3.83e-6 (plane) and 3.87e-6
# (hyperbolic(1)) at the seed commit; a solver that keeps the
# discretization reproduces it to roundoff.  The gate allows 1.3x.
LAMBDA1_GRID_TOL = 5e-6

# model-spectra
MODEL_CYCLE = 24
MODEL_KMAX = 40
MODEL_R = (0.5, 2.0)
SPACE_FORM_B = (-1.0, 1.0)
POLY_C1 = (-0.05, 0.2)  # with c2 >= 0.001 > c1^2/4, w = r(1 + c1 r^2 + c2 r^4) > 0
POLY_C2 = (0.001, 0.02)
MOMENT_SHOOTING_TOL = 0.01
ROUND_TRIP_TOL = 1e-9

# surface-cli
SURFACE_CYCLE = 4
SURFACE_EPS = (0.1, 1.0)
SURFACE_MODES = (1, 2, 3, 4)
SURFACE_R = 1.0
SURFACE_CSVS = ("surface_curvature.csv", "surface_volumes.csv",
                "symmetrized_profile.csv")


class Workload:
    """Base of the four workloads; ``scratch`` is where operations may write."""

    name: str
    cycle: int

    def __init__(self, scratch: Path):
        self.scratch = scratch


def _strata(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    """One uniform draw from each of n equal strata of [lo, hi], shuffled
    (a Latin-hypercube column), so that every seed covers the whole range
    and per-seed medians stay steady."""
    u = (np.arange(n) + rng.uniform(size=n)) / n
    return lo + (hi - lo) * rng.permutation(u)


def load_reference() -> dict:
    with open(BENCH_DIR / "reference.json") as fh:
        return json.load(fh)


def check_report(report, control: bool, reference: dict) -> list[str]:
    """A report is correct when it passes with the reference margins; the
    reversed-direction control is correct when every entry fails with a
    negative margin."""
    entries = report.entries
    problems = []
    if control:
        if report.all_passed:
            problems.append("negative control passed")
        bad = [e.name for e in entries if e.passed or not e.margin < 0]
        if bad:
            problems.append(f"negative control entries not failing: {bad}")
        return problems
    if not report.all_passed:
        problems.append("report has failing entries: "
                        + ", ".join(e.name for e in entries if not e.passed))
    if len(entries) != REPORT_ENTRIES:
        problems.append(f"report has {len(entries)} entries, want {REPORT_ENTRIES}")
    ref = reference["margins"]
    names = [e.name for e in entries]
    if names != list(ref):
        problems.append(f"entry names differ from the reference: {names}")
    for e in entries:
        want = ref.get(e.name)
        if want is not None and not abs(e.margin - want) <= MARGIN_TOL:
            problems.append(f"{e.name}: margin {e.margin!r} vs reference {want!r}")
    return problems


class VerifyExample1(Workload):
    """``run_verification(example1, euclidean, R=1, 256^2, k_max=5)``.

    The input is fixed: it is the ROADMAP headline case.  Every fourth
    operation asserts the reversed direction (negative control); it skips
    only the coarse torsional bound, so it has 22 entries."""

    name = "verify-example1-256"
    cycle = CONTROL_EVERY

    def setup(self, seed: int) -> dict:
        return {
            "metric": gb.builtin_example_metric(),
            "model": gb.make_space_form(0.0, 2),
            "reference": load_reference(),
        }

    def inputs(self, state: dict) -> list:
        return [[state["metric"].label, state["model"].warping.label,
                 "control" if self._control(i) else "report"]
                for i in range(self.cycle)]

    @staticmethod
    def _control(i: int) -> bool:
        return i % CONTROL_EVERY == 1

    def op(self, state: dict, i: int):
        return gb.run_verification(
            state["metric"], state["model"], 1.0,
            n_r=VERIFY_N, n_theta=VERIFY_N, k_max=VERIFY_KMAX,
            direction_override=CONTROL_DIRECTION if self._control(i) else None,
        )

    def check(self, state: dict, i: int, report) -> list[str]:
        return check_report(report, self._control(i), state["reference"])


def check_disk(results, oracles: dict) -> tuple[list[str], float]:
    """Grid eigenvalues against their oracles; returns (problems, worst
    relative error)."""
    problems, worst = [], 0.0
    for label, ev in results:
        exact = oracles[label]
        err = abs(ev.power_value - exact) / exact
        worst = max(worst, err)
        if not err <= LAMBDA1_GRID_TOL:
            problems.append(f"{label}: lambda1 {ev.power_value!r} vs oracle "
                            f"{exact!r} (relative error {err:.3e})")
    return problems, worst


class DiskGrid384(Workload):
    """``lambda1_grid`` at 384^2 on the flat and the hyperbolic(1) disk of
    radius 1, checked against J01^2 and against ``lambda1_shooting``.  The
    seed sets which of the two runs first in an operation."""

    name = "disk-grid-384"
    cycle = 1

    def setup(self, seed: int) -> dict:
        profiles = [gb.euclidean_profile(), gb.space_form_profile(-1.0)]
        if seed % 2:
            profiles.reverse()
        return {
            "metrics": [gb.radial_metric(p) for p in profiles],
            "models": [gb.ModelSpace(warping=p, dim=2) for p in profiles],
            "oracles": None,
            "lambda1_rel_err": 0.0,
        }

    def inputs(self, state: dict) -> list:
        return [[m.label for m in state["metrics"]]]

    def op(self, state: dict, i: int):
        out = []
        for m in state["metrics"]:
            grid = gb.make_grid(m, DISK_R, DISK_N, DISK_N)
            out.append((m.label, gb.lambda1_grid(m, grid)))
        return out

    def _oracles(self, state: dict) -> dict:
        if state["oracles"] is None:
            j01 = float(jn_zeros(0, 1)[0])
            oracles = {}
            for m, model in zip(state["metrics"], state["models"]):
                if model.warping.label == "euclidean":
                    oracles[m.label] = j01**2 / DISK_R**2
                else:
                    oracles[m.label] = gb.lambda1_shooting(model, DISK_R)
            state["oracles"] = oracles
        return state["oracles"]

    def check(self, state: dict, i: int, results) -> list[str]:
        problems, worst = check_disk(results, self._oracles(state))
        state["lambda1_rel_err"] = max(state["lambda1_rel_err"], worst)
        return problems


def check_model(out: dict) -> list[str]:
    problems = []
    if out["k_max"] != MODEL_KMAX:
        problems.append(f"moment spectrum truncated at k={out['k_max']}")
    gap = abs(out["lambda1_moments"] - out["lambda1_shooting"]) / out["lambda1_shooting"]
    if not gap <= MOMENT_SHOOTING_TOL:
        problems.append(f"moment and shooting lambda1 differ by {gap:.3e}")
    miss = abs(out["round_trip_R"] - out["R"])
    if not miss <= ROUND_TRIP_TOL:
        problems.append(f"volume round trip misses R by {miss:.3e}")
    # q(R) * Vol(S_R) = Vol(B_R) relates the two volume routes
    vol = out["quotient"] * out["sphere_volume"]
    if not abs(vol - out["ball_volume"]) <= 1e-9 * out["ball_volume"]:
        problems.append(f"q*Vol(S) = {vol!r} vs Vol(B) = {out['ball_volume']!r}")
    return problems


class ModelSpectra(Workload):
    """Seeded space-form and odd-polynomial model spaces, n = 2..4, R in
    [0.5, 2].  Dimension and family cycle in a fixed pattern; R, the
    curvature b in [-1, 1] and the coefficients are stratified draws."""

    name = "model-spectra"
    cycle = MODEL_CYCLE

    def setup(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        radii = _strata(rng, *MODEL_R, MODEL_CYCLE)
        half = MODEL_CYCLE // 2
        bs = iter(_strata(rng, *SPACE_FORM_B, half))
        c1s = iter(_strata(rng, *POLY_C1, half))
        c2s = iter(_strata(rng, *POLY_C2, half))
        cases = []
        for j in range(MODEL_CYCLE):
            if (j // 3) % 2 == 0:
                profile = gb.space_form_profile(float(next(bs)))
            else:
                profile = gb.polynomial_profile((float(next(c1s)), float(next(c2s))))
            cases.append((gb.ModelSpace(warping=profile, dim=2 + j % 3),
                          float(radii[j])))
        return {"cases": cases}

    def inputs(self, state: dict) -> list:
        return [[m.warping.label, m.dim, R] for m, R in state["cases"]]

    def op(self, state: dict, i: int) -> dict:
        model, R = state["cases"][i % MODEL_CYCLE]
        spec = gb.moment_spectrum(model, R, MODEL_KMAX)
        vol = gb.ball_volume_model(model, R)
        return {
            "R": R,
            "k_max": spec.k_max,
            "lambda1_moments": gb.lambda1_from_moments(spec).value,
            "lambda1_shooting": gb.lambda1_shooting(model, R),
            "balanced": gb.balance_check(model, R).balanced,
            "quotient": gb.isoperimetric_quotient(model, R),
            "sphere_volume": gb.sphere_volume_model(model, R),
            "ball_volume": vol,
            "round_trip_R": gb.ball_radius_from_volume(model, vol),
        }

    def check(self, state: dict, i: int, out: dict) -> list[str]:
        return check_model(out)


def check_cli(exit_codes: tuple[int, int], out_dir: Path) -> list[str]:
    problems = []
    if exit_codes != (0, 0):
        problems.append(f"surface/symmetrize exit codes {exit_codes}")
    for name in SURFACE_CSVS:
        path = out_dir / name
        if not path.is_file() or path.stat().st_size == 0:
            problems.append(f"missing or empty {name}")
    return problems


class SurfaceCli(Workload):
    """``geoball surface`` then ``geoball symmetrize`` (into the plane) for
    a seeded ``perturbed(eps, mode)`` metric, in-process, into a fresh
    directory.  The cycle runs modes 1..4 once each, with eps drawn from
    strata of [0.1, 1]."""

    name = "surface-cli"
    cycle = SURFACE_CYCLE

    def setup(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        eps = _strata(rng, *SURFACE_EPS, SURFACE_CYCLE)
        exprs = [f"perturbed({e:.6f},{mode})" for e, mode in zip(eps, SURFACE_MODES)]
        return {
            "exprs": exprs,
            # built (and audited) here so that setup_s covers them; each
            # operation parses its expression again, as the CLI does
            "metrics": [geoball.cli.parse_metric_expr(x) for x in exprs],
            "bytes_written": 0,
        }

    def inputs(self, state: dict) -> list:
        return list(state["exprs"])

    def op(self, state: dict, i: int):
        expr = state["exprs"][i % SURFACE_CYCLE]
        out_dir = Path(tempfile.mkdtemp(prefix="op-", dir=self.scratch))
        common = ["--metric", expr, "--radius", repr(SURFACE_R), "--output", str(out_dir)]
        with contextlib.redirect_stdout(io.StringIO()):
            rc_surface = geoball.cli.main(["surface", *common])
            rc_sym = geoball.cli.main(["symmetrize", *common, "--model", "euclidean"])
        return (rc_surface, rc_sym), out_dir

    def check(self, state: dict, i: int, result) -> list[str]:
        exit_codes, out_dir = result
        problems = check_cli(exit_codes, out_dir)
        state["bytes_written"] = sum(p.stat().st_size for p in out_dir.iterdir())
        shutil.rmtree(out_dir)
        return problems


WORKLOADS = {w.name: w for w in (VerifyExample1, DiskGrid384, ModelSpectra, SurfaceCli)}
