"""Tests for the command-line frontend and the expression parsers."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

import geoball.cli
from geoball.cli import (
    FLOAT_FMT,
    ExpressionError,
    _write_csv,
    main,
    parse_metric_expr,
    parse_warping_expr,
)
from geoball.model import space_form_profile
from geoball.surface import builtin_example_metric


def test_parse_warping_euclidean():
    p = parse_warping_expr("euclidean")
    assert float(p.w(np.array(2.0))) == 2.0


def test_parse_warping_sphere():
    p = parse_warping_expr("sphere(1)")
    assert p.r_max == pytest.approx(math.pi)
    assert float(p.w(np.array(1.0))) == pytest.approx(math.sin(1.0))


def test_parse_warping_hyperbolic():
    p = parse_warping_expr("hyperbolic(1)")
    assert float(p.w(np.array(1.0))) == pytest.approx(math.sinh(1.0))


def test_parse_warping_poly():
    p = parse_warping_expr("poly(1)")
    assert float(p.w(np.array(2.0))) == pytest.approx(10.0)  # r + r^3


def test_parse_warping_errors_have_position():
    with pytest.raises(ExpressionError):
        parse_warping_expr("sphere(x)")
    with pytest.raises(ExpressionError):
        parse_warping_expr("spiral(1)")
    with pytest.raises(ExpressionError):
        parse_warping_expr("poly()")
    with pytest.raises(ExpressionError) as exc:
        parse_warping_expr("poly(1,nan)")
    assert exc.value.pos == 7
    for text in ("sphere(1,2)", "hyperbolic(1,2)"):
        with pytest.raises(ExpressionError) as exc:
            parse_warping_expr(text)
        assert exc.value.pos == text.index(",") + 1


def test_parse_metric_builtin_and_families():
    ex = parse_metric_expr("example1")
    pe = parse_metric_expr("perturbed(1, 1)")
    rs = np.linspace(0.2, 2.0, 9)
    ts = np.linspace(0.0, 6.0, 9)
    assert np.allclose(ex.w(rs, ts), pe.w(rs, ts))
    flat = parse_metric_expr("radial(euclidean)")
    assert np.allclose(flat.w(rs, ts), rs)


def test_parse_metric_errors():
    with pytest.raises(ExpressionError):
        parse_metric_expr("example2")
    with pytest.raises(ExpressionError):
        parse_metric_expr("perturbed(1)")
    for text in ("perturbed(0.5,1.5)", "perturbed(0.5,0)", "perturbed(0.5,inf)"):
        with pytest.raises(ExpressionError) as exc:
            parse_metric_expr(text)
        assert exc.value.pos == 14
    with pytest.raises(ExpressionError) as exc:
        parse_metric_expr("perturbed(nan,1)")
    assert exc.value.pos == 10
    for text in ("radial(sphere(1,2))", "radial(hyperbolic(1,2))"):
        with pytest.raises(ExpressionError) as exc:
            parse_metric_expr(text)
        assert exc.value.pos == text.index(",") + 1 - len("radial(")


def test_cli_model_outputs(tmp_path, capsys):
    code = main([
        "model", "--warping", "euclidean", "--dim", "2",
        "--radius", "1", "--kmax", "40", "--grid", "64",
        "--output", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    lam = float(next(l for l in out.splitlines()
                     if l.startswith("lambda1_moments=")).split("=")[1])
    assert lam == pytest.approx(5.783185962946785, rel=0.01)
    rows = (tmp_path / "model_ratios.csv").read_text().splitlines()
    assert rows[0] == "k,rho"
    first = rows[1].split(",")
    assert float(first[1]) == pytest.approx(8.0, rel=1e-6)


def test_cli_verify_pass_and_json(tmp_path, capsys):
    code = main([
        "verify", "--metric", "example1", "--model", "euclidean",
        "--radius", "1", "--nr", "64", "--ntheta", "64",
        "--output", str(tmp_path),
    ])
    assert code == 0
    doc = json.loads((tmp_path / "verification.json").read_text())
    assert all(e["passed"] for e in doc["entries"])
    assert doc["hypothesis"]["direction"] == "model<=M"


def test_cli_verify_negative_control(tmp_path):
    code = main([
        "verify", "--metric", "example1", "--model", "euclidean",
        "--radius", "1", "--nr", "64", "--ntheta", "64",
        "--flip-direction", "--output", str(tmp_path),
    ])
    assert code == 1


def test_cli_verify_deterministic(tmp_path):
    for sub in ("a", "b"):
        main([
            "verify", "--metric", "example1", "--model", "euclidean",
            "--radius", "0.5", "--nr", "64", "--ntheta", "64",
            "--output", str(tmp_path / sub),
        ])
    a = (tmp_path / "a" / "verification.json").read_bytes()
    b = (tmp_path / "b" / "verification.json").read_bytes()
    assert a == b


def test_cli_symmetrize_symmetrizes_once(tmp_path, monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    grid_cls = geoball.cli.PolarGrid
    monkeypatch.setattr(grid_cls, "__post_init__",
                        counted("grid", grid_cls.__post_init__))
    symmetrize = counted("symmetrize", geoball.symmetrize.symmetrize_field)
    for module in (geoball.cli, geoball.symmetrize):
        monkeypatch.setattr(module, "symmetrize_field", symmetrize)
    rc = main(["symmetrize", "--metric", "example1", "--model", "euclidean",
               "--radius", "1", "--output", str(tmp_path)])
    assert rc == 0
    assert sorted(calls) == ["grid", "symmetrize"]


def test_cli_symmetrize_sorts_and_tabulates_once(tmp_path, monkeypatch):
    profiles, tables = [], []
    level_profile = geoball.symmetrize.level_profile
    volume = geoball.model.ball_volume_model

    def counted_profile(*args):
        profiles.append(1)
        return level_profile(*args)

    def counted_volume(m, r):
        if np.size(r) == geoball.symmetrize.VOLUME_TABLE_NODES:
            tables.append(1)
        return volume(m, r)

    monkeypatch.setattr(geoball.symmetrize, "level_profile", counted_profile)
    for module in (geoball.model, geoball.symmetrize):
        monkeypatch.setattr(module, "ball_volume_model", counted_volume)
    rc = main(["symmetrize", "--metric", "example1", "--model", "euclidean",
               "--radius", "1", "--output", str(tmp_path)])
    assert rc == 0
    assert (len(profiles), len(tables)) == (1, 1)


def test_cli_model_builds_one_hierarchy(tmp_path, monkeypatch):
    calls = []
    build = geoball.cli.radial_hierarchy

    def counted(*args):
        calls.append(1)
        return build(*args)

    monkeypatch.setattr(geoball.cli, "radial_hierarchy", counted)
    rc = main(["model", "--warping", "euclidean", "--radius", "1",
               "--output", str(tmp_path)])
    assert rc == 0
    # the exit-time profile and the moment spectrum come from one pass
    assert len(calls) == 1


def test_cli_symmetrize(tmp_path, capsys):
    code = main([
        "symmetrize", "--metric", "example1", "--model", "euclidean",
        "--radius", "1", "--nr", "128", "--ntheta", "128",
        "--output", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    s_line = next(l for l in out.splitlines() if l.startswith("s(R)="))
    assert float(s_line.split("=")[1]) > 1.0
    assert (tmp_path / "symmetrized_profile.csv").exists()


# geoball symmetrize at 64^2 as it was when level sets came from sorting
# every cell: the CSV's sha256, s(R), the equimeasurability deviation, the
# integral identity's rhs and lhs, and the exit code (1: the deviation is
# above the default --tol at this resolution)
SYMMETRIZE_PINS = {
    ("example1", "euclidean"): (
        "189f1fe8baedb983d4d3b4be3f223097d5249709ce92dcfef3d005ff327c4405",
        "1.1792049405219049", "0.018064675320425182", "0.5003891211717717",
        0.50040837322563458, 1),
    ("perturbed(0.5,4)", "hyperbolic(1)"): (
        "1c8b26940d2c3c2708d220dd79fc85972e2dda9d9786525a2dd7157f17ec7b54",
        "1.0450689468191321", "0.015384346489719624", "0.42312260419000886",
        0.42314665865200068, 1),
}


@pytest.mark.parametrize("metric,model", list(SYMMETRIZE_PINS))
def test_cli_symmetrize_output_is_pinned(metric, model, tmp_path, capsys):
    sha, s_R, deviation, rhs, lhs, code = SYMMETRIZE_PINS[metric, model]
    assert main(["symmetrize", "--metric", metric, "--model", model, "--radius", "1",
                 "--nr", "64", "--ntheta", "64", "--output", str(tmp_path)]) == code
    csv = (tmp_path / "symmetrized_profile.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == sha
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:3] == [f"s(R)={s_R}", f"equimeasurability_deviation={deviation}"]
    printed_lhs, printed_rhs = lines[3].removeprefix("integral_identity ").split()
    assert printed_rhs == f"rhs={rhs}"
    assert float(printed_lhs.removeprefix("lhs=")) == pytest.approx(lhs, rel=1e-13, abs=0)


# sha256 of every CSV that geoball surface (64^2, R = 1) and geoball model
# (hyperbolic(1), dim 3, R = 1, default --kmax and --grid) write, as the
# per-cell "%.17g" writer wrote them
CSV_PINS = {
    ("surface", "example1"): {
        "surface_curvature.csv":
            "e4f8b1881e4b593c2fff0b8e353bbefe436b033c82cff3d2563f41420f548208",
        "surface_volumes.csv":
            "d59f5da4d3eeb7870ef4895bce2b221f121453e531602b71f3f37437dc3f8ad8"},
    ("surface", "perturbed(0.5,4)"): {
        "surface_curvature.csv":
            "3e360237eca2eae50550f900b32d451edb6d832e26b0ae27f1d8273574196e28",
        "surface_volumes.csv":
            "124b2712df270a6761ff5da0fd219e911fa93b8ced26a11938266df481c39a3b"},
    ("model", "hyperbolic(1)"): {
        "model_profile.csv":
            "a5c934eb9a1781e0d212d8dd09ef9574e2882ab7dde8438727ad1f0180d4c485",
        "model_moments.csv":
            "3a3abcbbd087d026b78a5840d122ca6ed46fe2971529d9b73fdf8e20f9a7b396",
        "model_ratios.csv":
            "16076efcd1f7d4547fdeb75592c89ac161d6ce78d369e05350b36f84aae08ca0"},
}


@pytest.mark.parametrize("command,expr", list(CSV_PINS))
def test_cli_csv_output_is_pinned(command, expr, tmp_path):
    if command == "surface":
        argv = ["surface", "--metric", expr, "--nr", "64", "--ntheta", "64"]
    else:
        argv = ["model", "--warping", expr, "--dim", "3"]
    assert main(argv + ["--radius", "1", "--output", str(tmp_path)]) == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tmp_path.glob("*.csv")} == CSV_PINS[command, expr]


# sha256 of the verification.json that geoball verify (64^2, R = 1, against
# the euclidean model, default --kmax) writes, and its exit code (1: the
# flipped direction is the negative control and must fail)
VERIFY_PINS = {
    ("example1", False): (
        "619d606f0ab3412df0d951c4a5e0516784fc1decbd664ca8616a716ca8067ff2", 0),
    ("perturbed(0.5,4)", False): (
        "1609272428a15458b3d3debaf15caccf23ad9df026faf21724f265a9d9e66dcb", 0),
    ("example1", True): (
        "3d071955c7d5b309b17c71cebd87c614ad0cc39fcf7b2fdd034a8bed93c17255", 1),
    ("perturbed(0.5,4)", True): (
        "d5b31c0bdbbc8a1a861165126b9be79ea1bf960fa6d8879083f60e81b5454518", 1),
}


@pytest.mark.parametrize("metric,flip", list(VERIFY_PINS),
                         ids=lambda x: {True: "flipped", False: "hypothesis"}.get(x, x))
def test_cli_verification_json_is_pinned(metric, flip, tmp_path):
    sha, code = VERIFY_PINS[metric, flip]
    argv = ["verify", "--metric", metric, "--model", "euclidean", "--radius", "1",
            "--nr", "64", "--ntheta", "64", "--output", str(tmp_path)]
    assert main(argv + ["--flip-direction"] * flip) == code
    report = (tmp_path / "verification.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == sha


@pytest.mark.parametrize("flag,value", [("--nr", "3"), ("--ntheta", "7")])
def test_cli_verify_refuses_a_bad_grid_before_the_hypothesis_scan(flag, value,
                                                                  monkeypatch, capsys):
    monkeypatch.setattr(geoball.verify, "hypothesis_report", None)
    assert main(["verify", "--metric", "example1", "--model", "euclidean",
                 "--radius", "1", flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: n_") and err.endswith(f", got {value}\n")


def test_cli_flipped_verify_scans_the_hypothesis_once(tmp_path, monkeypatch):
    scans, scan = [], geoball.verify.hypothesis_report

    def counting(*args):
        scans.append(args)
        return scan(*args)

    for module in (geoball.cli, geoball.verify):
        monkeypatch.setattr(module, "hypothesis_report", counting, raising=False)
    argv = ["verify", "--metric", "example1", "--model", "euclidean", "--radius", "1",
            "--flip-direction", "--output", str(tmp_path)]
    assert main(argv + ["--nr", "16", "--ntheta", "16"]) == 1
    doc = json.loads((tmp_path / "verification.json").read_text())
    assert doc["hypothesis"]["direction"] == "model>=M"
    assert len(scans) == 1
    # a bad grid is refused before any scan
    assert main(argv + ["--nr", "3"]) == 2
    assert len(scans) == 1


def test_cli_surface(tmp_path):
    code = main([
        "surface", "--metric", "radial(euclidean)", "--radius", "2",
        "--nr", "8", "--ntheta", "8", "--output", str(tmp_path),
    ])
    assert code == 0
    rows = (tmp_path / "surface_volumes.csv").read_text().splitlines()
    last = rows[-1].split(",")
    assert float(last[1]) == pytest.approx(4 * math.pi, rel=1e-8)
    assert float(last[2]) == pytest.approx(4 * math.pi, rel=1e-8)


def test_cli_surface_evaluates_metric_a_fixed_number_of_times(tmp_path, monkeypatch):
    calls = {}

    def run(n):
        m = builtin_example_metric()
        w = m.w

        def counted(r, t):
            calls[n] += 1
            return w(r, t)

        object.__setattr__(m, "w", counted)
        monkeypatch.setattr(geoball.cli, "parse_metric_expr", lambda text: m)
        calls[n] = 0
        assert main(["surface", "--metric", "example1", "--radius", "1",
                     "--nr", str(n), "--ntheta", str(n),
                     "--output", str(tmp_path / str(n))]) == 0

    run(8)
    run(64)
    assert calls[64] <= calls[8] <= 40


def test_cli_model_evaluates_warping_independently_of_grid(tmp_path, monkeypatch):
    calls = {}

    def run(grid):
        profile = space_form_profile(-1.0)
        w = profile.w

        def counted(r):
            calls[grid] += 1
            return w(r)

        object.__setattr__(profile, "w", counted)
        monkeypatch.setattr(geoball.cli, "parse_warping_expr", lambda text: profile)
        calls[grid] = 0
        assert main(["model", "--warping", "hyperbolic(1)", "--dim", "3",
                     "--radius", "1", "--kmax", "5", "--grid", str(grid),
                     "--output", str(tmp_path / str(grid))]) == 0

    run(8)
    run(4096)
    assert calls[4096] <= calls[8]


def test_write_csv_matches_per_value_format(tmp_path):
    values = np.array([
        [-1.5, 5e-324, -2.2250738585072014e-308, 1e308],
        [3.0, -0.0, 0.1, -123456789.0],
        [1.7976931348623157e308, 2.0**-1074 * 3, 1e-310, 7.0],
    ])
    header = ["a", "b", "c", "d"]
    path = tmp_path / "t.csv"
    _write_csv(path, header, list(values.T))
    expected = ",".join(header) + "\n" + "".join(
        ",".join(FLOAT_FMT % x for x in row) + "\n" for row in values
    )
    assert path.read_bytes() == expected.encode()


# a table the writer formats value by value once: 0.0 and -0.0 down a
# column and across a row, values repeated down columns and across rows,
# NaNs of three bit patterns, infinities and subnormals
_REPEATS = np.array([
    [0.0, -0.0, 0.1, np.nan],
    [-0.0, 0.0, 0.1, -np.nan],
    [0.0, 5e-324, -0.0, np.inf],
    [0.1, -5e-324, 0.0, -np.inf],
    [0.0, -0.0, 2.2250738585072009e-308, 0.1],
    [-0.0, 0.1, 0.1, -0.0],
])
_REPEATS.view(np.int64)[5, 3] = 0x7FF0000000000001  # a signalling NaN payload


@pytest.mark.parametrize("values", [
    np.array([
        [np.nan, np.inf, -np.inf, -0.0],
        [5e-324, 1e300, -1e300, 0.1],
        [2.0**-1074 * 3, -2.2250738585072014e-308, 1.0, -123456789.0],
    ]),
    np.array([[np.nan, -0.0, 1e300, 5e-324]]),
    _REPEATS,
    _REPEATS[:, 1:2],
], ids=["specials", "one-row", "repeats", "one-column"])
def test_write_csv_matches_savetxt_bytes(tmp_path, values):
    header = ["a", "b", "c", "d"][:values.shape[1]]
    _write_csv(tmp_path / "fast.csv", header, list(values.T))
    np.savetxt(tmp_path / "ref.csv", values, fmt=FLOAT_FMT, delimiter=",",
               header=",".join(header), comments="")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_cli_output_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("GEOBALL_OUTPUT_DIR", str(tmp_path))
    code = main([
        "surface", "--metric", "radial(euclidean)", "--radius", "1",
        "--nr", "8", "--ntheta", "8",
    ])
    assert code == 0
    assert (tmp_path / "surface_curvature.csv").exists()


def test_cli_bad_expression_exit_code(capsys):
    code = main(["model", "--warping", "spiral(2)", "--radius", "1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["model", "--warping", "sphere(1)", "--dim", "3", "--radius", "3.1384"],
        # moments pass at k_max = 5; the model eigenvalue does not settle
        ["model", "--warping", "hyperbolic(1)", "--dim", "3", "--radius", "20",
         "--kmax", "5"],
    ],
    ids=["sphere-cut-locus", "hyperbolic-20"],
)
def test_cli_model_numerical_failure_is_one_line(argv, tmp_path, capsys):
    assert main(argv + ["--output", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    if argv[2] == "sphere(1)":
        # A_1 names the largest Chebyshev size it tried, which --grid (the
        # size of the profile table) does not set
        assert "N=1025" in err and "increase" not in err
    else:
        # the moments are written before the model eigenvalue fails
        assert (tmp_path / "model_moments.csv").stat().st_size > 0


@pytest.mark.parametrize(
    "argv",
    [
        ["model", "--warping", "euclidean", "--radius", "1", "--grid", "0"],
        ["model", "--warping", "euclidean", "--radius", "1", "--kmax", "0"],
        # the eigenvalue extrapolation needs 4 moments, and a count below
        # that must fail before any table is written
        ["model", "--warping", "euclidean", "--radius", "1", "--kmax", "3"],
        ["surface", "--metric", "example1", "--radius", "1", "--nr", "0"],
        ["surface", "--metric", "example1", "--radius", "1", "--ntheta", "-3"],
        ["verify", "--metric", "example1", "--model", "euclidean", "--radius", "1",
         "--kmax", "0"],
        ["symmetrize", "--metric", "example1", "--model", "euclidean", "--radius",
         "1", "--nr", "x"],
    ],
    ids=["grid", "kmax", "kmax-below-4", "nr", "ntheta", "verify-kmax",
         "not-an-integer"],
)
def test_cli_nonpositive_count_exit_code(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--output", str(tmp_path)])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("radius,kmax,message", [
    ("1", "171", "k_max must be in 1..170, got 171"),
    # the model's A_132 is the first moment past 1.8e308
    ("5", "150", "moment A_132 = 132! * "),
], ids=["kmax-171", "radius-5-kmax-150"])
def test_cli_verify_moment_a_double_cannot_hold_is_one_line(radius, kmax, message,
                                                            tmp_path, capsys):
    argv = ["verify", "--metric", "example1", "--model", "euclidean", "--radius", radius,
            "--nr", "16", "--ntheta", "16", "--kmax", kmax, "--output", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_cli_verify_writes_no_json_for_a_non_finite_report(tmp_path, monkeypatch, capsys):
    run = geoball.cli.run_verification

    def with_nan_margin(*args, **kwargs):
        report = run(*args, **kwargs)
        entries = (dataclasses.replace(report.entries[0], margin=math.nan),)
        return dataclasses.replace(report, entries=entries + report.entries[1:])

    monkeypatch.setattr(geoball.cli, "run_verification", with_nan_margin)
    assert main(["verify", "--metric", "example1", "--model", "euclidean", "--radius", "1",
                 "--nr", "16", "--ntheta", "16", "--output", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Out of range float values") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("tol", ["nan", "-1e-3", "-0.5", "-inf", "x"])
def test_cli_symmetrize_bad_tol_exit_code(tol, capsys):
    # a tolerance no comparison can meet is a usage error, not a failed
    # symmetrization (exit 1); "--tol=" keeps argparse from reading a
    # negative value as an option
    with pytest.raises(SystemExit) as exc:
        main(["symmetrize", "--metric", "example1", "--model", "euclidean",
              "--radius", "1", f"--tol={tol}"])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
