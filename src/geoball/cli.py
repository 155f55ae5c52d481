"""Command-line frontend: tiny expression grammar, CSV/JSON emission.

Warping grammar:  euclidean | sphere(b) | hyperbolic(b) | poly(c1,c2,...)
Metric grammar:   example1 | radial(<warping>) | perturbed(eps, mode)
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .hierarchy import MIN_EXTRAPOLATION_MOMENTS, lambda1_from_moments, radial_hierarchy
from .model import (
    ModelSpace,
    WarpingProfile,
    balance_check,
    ball_radius_from_volume,
    euclidean_profile,
    isoperimetric_quotient,
    space_form_profile,
    polynomial_profile,
)
from .pde import PolarGrid
from .surface import (
    METRIC_REGISTRY,
    PolarMetric2D,
    _lengths_and_areas,
    ball_area,
    curvature_table,
    perturbed_flat_metric,
    radial_metric,
)
from .symmetrize import (
    check_equimeasurable,
    integral_identity_check,
    symmetrize_field,
    transplant_exit_time,
)
from .verify import run_verification

OUTPUT_DIR_ENV = "GEOBALL_OUTPUT_DIR"
FLOAT_FMT = "%.17g"


class ExpressionError(ValueError):
    """Malformed warping or metric expression, annotated with the offset."""

    def __init__(self, text: str, pos: int, message: str):
        super().__init__(f"at byte {pos} in {text!r}: {message}")
        self.pos = pos


def _parse_args_list(text: str, name: str, arity: int | None = None) -> list[float]:
    """Parse 'name(a,b,...)' and return the numeric arguments; with arity,
    exactly that many."""
    inner = text[len(name) + 1 : -1]
    if not text.endswith(")"):
        raise ExpressionError(text, len(text), "missing closing parenthesis")
    args, offsets = [], []
    offset = len(name) + 1
    for part in inner.split(","):
        try:
            value = float(part)
        except ValueError:
            raise ExpressionError(text, offset, f"not a number: {part!r}")
        if not math.isfinite(value):
            raise ExpressionError(text, offset, f"not a finite number: {part!r}")
        args.append(value)
        offsets.append(offset)
        offset += len(part) + 1
    if arity is not None and len(args) != arity:
        pos = offsets[arity] if len(args) > arity else len(text) - 1
        raise ExpressionError(text, pos, f"need {arity} argument(s), got {len(args)}")
    return args


def parse_warping_expr(text: str) -> WarpingProfile:
    """Parse a warping expression into a validated profile."""
    text = text.strip()
    if text == "euclidean":
        return euclidean_profile()
    for name in ("sphere", "hyperbolic"):
        if text.startswith(name + "("):
            (b,) = _parse_args_list(text, name, 1)
            if b <= 0:
                raise ExpressionError(text, len(name) + 1, "need one value > 0")
            return space_form_profile(b if name == "sphere" else -b)
    if text.startswith("poly("):
        return polynomial_profile(tuple(_parse_args_list(text, "poly")))
    raise ExpressionError(text, 0, "expected euclidean|sphere(b)|hyperbolic(b)|poly(...)")


def parse_metric_expr(text: str) -> PolarMetric2D:
    """Parse a metric expression into an audited 2-D polar metric."""
    text = text.strip()
    if text in METRIC_REGISTRY:
        return METRIC_REGISTRY[text]()
    if text.startswith("radial(") and text.endswith(")"):
        return radial_metric(parse_warping_expr(text[7:-1]))
    if text.startswith("perturbed("):
        eps, mode = _parse_args_list(text, "perturbed", 2)
        if not (mode.is_integer() and mode >= 1):
            raise ExpressionError(text, text.index(",") + 1,
                                  "mode must be a positive integer")
        return perturbed_flat_metric(eps, int(mode))
    raise ExpressionError(text, 0, "expected example1|radial(...)|perturbed(eps,mode)")


def _positive_int(text: str) -> int:
    """argparse type of the node and moment counts."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"need a positive integer, got {value}")
    return value


def _moment_count(text: str) -> int:
    """argparse type of ``model --kmax``: as many moments as
    lambda1_from_moments extrapolates from, or more."""
    value = int(text)
    if value < MIN_EXTRAPOLATION_MOMENTS:
        raise argparse.ArgumentTypeError(
            f"need k_max >= {MIN_EXTRAPOLATION_MOMENTS} moments, got {value}")
    return value


def _nonnegative_float(text: str) -> float:
    """argparse type of the symmetrization tolerance; NaN is rejected."""
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"need a number >= 0, got {text}")
    return value


def _output_dir(arg: str | None) -> Path:
    base = arg or os.environ.get(OUTPUT_DIR_ENV) or "."
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """The bytes np.savetxt writes with fmt=FLOAT_FMT, delimiter="," and
    the header line.  Each distinct float64 bit pattern of the table is
    formatted once, all in one pass, and the strings are laid out in table
    order: a curvature table repeats its r and theta columns down the rows
    and its curvatures across mirror angles.  The key is the bit pattern
    (the int64 view), not the value: 0.0 == -0.0, but they print "0" and
    "-0".  Distinct NaN payloads are distinct keys that all print "nan"."""
    table = np.column_stack(columns)
    bits, cell = np.unique(table.view(np.int64), return_inverse=True)
    strings = np.array(("\n".join([FLOAT_FMT] * len(bits))
                        % tuple(bits.view(np.float64).tolist())).split("\n"), dtype=object)
    row = ",".join(["%s"] * table.shape[1]) + "\n"
    text = (row * len(table)) % tuple(strings[cell.ravel()].tolist())
    path.write_text(",".join(header) + "\n" + text)


def _cmd_model(args: argparse.Namespace) -> int:
    model = ModelSpace(warping=parse_warping_expr(args.warping), dim=args.dim)
    R = args.radius
    out = _output_dir(args.output)
    rs = np.linspace(R / args.grid, R, args.grid)
    hier = radial_hierarchy(model, R, args.kmax + 1)
    q = isoperimetric_quotient(model, rs)
    _write_csv(out / "model_profile.csv", ["r", "q", "exit_time"],
               [rs, q, hier.level(1)(rs)])
    spec = hier.spectrum()
    ks = np.arange(spec.k_max + 1, dtype=float)
    _write_csv(out / "model_moments.csv", ["k", "normalized_moment"],
               [ks, spec.normalized])
    rhos = spec.ratios()
    _write_csv(out / "model_ratios.csv", ["k", "rho"],
               [np.arange(1, len(rhos) + 1, dtype=float), rhos])
    bal = balance_check(model, R)
    est = lambda1_from_moments(spec)
    lam_model = hier.lambda1()
    print(f"model {model.warping.label} dim={model.dim} R={R}")
    print(f"balanced={bal.balanced} min_margin={FLOAT_FMT % bal.min_margin}")
    print(f"lambda1_moments={FLOAT_FMT % est.value}")
    print(f"lambda1_shooting={FLOAT_FMT % lam_model}")
    print(f"wrote model_profile.csv model_moments.csv model_ratios.csv to {out}")
    return 0


def _cmd_surface(args: argparse.Namespace) -> int:
    m = parse_metric_expr(args.metric)
    R = args.radius
    out = _output_dir(args.output)
    rs = np.linspace(R / args.nr, R, args.nr)
    ts = np.arange(args.ntheta) * (2 * math.pi / args.ntheta)
    H, K = curvature_table(m, rs[:, None], ts[None, :])
    _write_csv(out / "surface_curvature.csv", ["r", "theta", "H", "K"],
               [np.repeat(rs, len(ts)), np.tile(ts, len(rs)), H.ravel(), K.ravel()])
    lengths, areas = _lengths_and_areas(m, rs)
    _write_csv(out / "surface_volumes.csv", ["r", "length", "area"],
               [rs, lengths, areas])
    print(f"metric {m.label} R={R}")
    print(f"length(R)={FLOAT_FMT % lengths[-1]} area(R)={FLOAT_FMT % areas[-1]}")
    print(f"wrote surface_curvature.csv surface_volumes.csv to {out}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    m = parse_metric_expr(args.metric)
    model = ModelSpace(warping=parse_warping_expr(args.model), dim=2)
    report = run_verification(
        m, model, args.radius,
        n_r=args.nr, n_theta=args.ntheta, k_max=args.kmax,
        direction_override="reversed" if args.flip_direction else None,
    )
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True, allow_nan=False)
    out = _output_dir(args.output)
    with open(out / "verification.json", "w") as fh:
        fh.write(text)
    print(f"verify {m.label} vs {model.warping.label} R={args.radius} "
          f"direction={report.direction}")
    failed = None
    for e in report.entries:
        status = "PASS" if e.passed else "FAIL"
        print(f"  [{status}] {e.name}: {e.inequality} "
              f"margin={FLOAT_FMT % e.margin}")
        if failed is None and not e.passed:
            failed = e.name
    print(f"wrote verification.json to {out}")
    if failed is not None:
        print(f"first failing entry: {failed}", file=sys.stderr)
        return 1
    return 0


def _cmd_symmetrize(args: argparse.Namespace) -> int:
    m = parse_metric_expr(args.metric)
    model = ModelSpace(warping=parse_warping_expr(args.model), dim=2)
    R = args.radius
    out = _output_dir(args.output)
    grid = PolarGrid(metric=m, R=R, n_r=args.nr, n_theta=args.ntheta)
    prof = transplant_exit_time(model, grid)
    fstar = symmetrize_field(prof, model)
    s_R = ball_radius_from_volume(model, ball_area(m, R))
    deviation = check_equimeasurable(prof, fstar, model)
    lhs, rhs = integral_identity_check(prof, fstar, model)
    _write_csv(out / "symmetrized_profile.csv", ["rho", "fstar"],
               [fstar.grid, fstar.values])
    print(f"symmetrize {m.label} into {model.warping.label} R={R}")
    print(f"s(R)={FLOAT_FMT % s_R}")
    print(f"equimeasurability_deviation={FLOAT_FMT % deviation}")
    print(f"integral_identity lhs={FLOAT_FMT % lhs} rhs={FLOAT_FMT % rhs}")
    print(f"wrote symmetrized_profile.csv to {out}")
    rel = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    return 0 if (deviation <= args.tol and rel <= args.tol) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geoball",
        description="Exit-time moments, torsional rigidity and first "
        "Dirichlet eigenvalues of geodesic balls.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("model", help="radial model-space computations")
    p.add_argument("--warping", required=True)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--kmax", type=_moment_count, default=40)
    p.add_argument("--grid", type=_positive_int, default=256)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_model)

    p = sub.add_parser("surface", help="curvature and volume tables of a metric")
    p.add_argument("--metric", required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--nr", type=_positive_int, default=64)
    p.add_argument("--ntheta", type=_positive_int, default=64)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_surface)

    p = sub.add_parser("verify", help="run the comparison-theorem harness")
    p.add_argument("--metric", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--nr", type=_positive_int, default=128)
    p.add_argument("--ntheta", type=_positive_int, default=128)
    p.add_argument("--kmax", type=_positive_int, default=5)
    p.add_argument("--flip-direction", action="store_true",
                   help="negative control: assert the reversed inequalities")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("symmetrize", help="symmetrize the transplanted exit time")
    p.add_argument("--metric", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--nr", type=_positive_int, default=128)
    p.add_argument("--ntheta", type=_positive_int, default=128)
    p.add_argument("--tol", type=_nonnegative_float, default=1e-2)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_symmetrize)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads its arguments with, built once per process;
    ``build_parser`` returns a new one, so no caller can change this one."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ExpressionError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
