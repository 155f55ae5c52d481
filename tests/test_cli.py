"""Tests for the command-line frontend and the expression parsers."""

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

    for module in (geoball.cli, geoball.symmetrize):
        monkeypatch.setattr(module, "level_profile", counted_profile, raising=False)
    for module in (geoball.model, geoball.symmetrize):
        monkeypatch.setattr(module, "ball_volume_model", counted_volume)
    rc = main(["symmetrize", "--metric", "example1", "--model", "euclidean",
               "--radius", "1", "--output", str(tmp_path)])
    assert rc == 0
    assert (len(profiles), len(tables)) == (1, 1)


def test_cli_model_builds_one_hierarchy(tmp_path, monkeypatch):
    calls = []
    arrays = geoball.hierarchy._hierarchy_arrays

    def counted(*args):
        calls.append(1)
        return arrays(*args)

    monkeypatch.setattr(geoball.hierarchy, "_hierarchy_arrays", counted)
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
        # the moment cross-check names the grid it used, which --grid
        # (the size of the profile table) does not set
        assert "N=2048" in err and "increase" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["model", "--warping", "euclidean", "--radius", "1", "--grid", "0"],
        ["model", "--warping", "euclidean", "--radius", "1", "--kmax", "0"],
        ["surface", "--metric", "example1", "--radius", "1", "--nr", "0"],
        ["surface", "--metric", "example1", "--radius", "1", "--ntheta", "-3"],
        ["verify", "--metric", "example1", "--model", "euclidean", "--radius", "1",
         "--kmax", "0"],
        ["symmetrize", "--metric", "example1", "--model", "euclidean", "--radius",
         "1", "--nr", "x"],
    ],
    ids=["grid", "kmax", "nr", "ntheta", "verify-kmax", "not-an-integer"],
)
def test_cli_nonpositive_count_exit_code(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


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
