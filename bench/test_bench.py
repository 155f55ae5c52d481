"""Self-tests of the benchmark: seeded inputs, output checkers, tracer.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import inspect
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import geoball as gb  # noqa: E402
from geoball.verify import Entry  # noqa: E402

import layertrace  # noqa: E402
import workloads  # noqa: E402
import run  # noqa: E402


def test_same_seed_same_inputs(tmp_path):
    for cls in workloads.WORKLOADS.values():
        w = cls(tmp_path)
        first = w.inputs(w.setup(3))
        assert first == w.inputs(w.setup(3)), cls.name
        assert len(first) == w.cycle, cls.name
    for name in ("model-spectra", "surface-cli"):
        w = workloads.WORKLOADS[name](tmp_path)
        assert w.inputs(w.setup(3)) != w.inputs(w.setup(4)), name


def _report(margins: dict, passed: bool | None = None) -> gb.VerificationReport:
    entries = tuple(
        Entry(name=k, inequality="", lhs=0.0, rhs=0.0, margin=v,
              passed=(v >= 0) if passed is None else passed)
        for k, v in margins.items())
    return gb.VerificationReport(metric="example1", model="euclidean", radius=1.0,
                                 direction="model<=M", hypothesis_min_margin=0.0,
                                 entries=entries, grid=(256, 256))


def test_report_checker_flags_perturbed_margin():
    ref = workloads.load_reference()
    margins = dict(ref["margins"])
    assert workloads.check_report(_report(margins), False, ref) == []
    margins["eigenvalue"] += 2e-9
    assert workloads.check_report(_report(margins), False, ref)
    del margins["torsional_coarse_bound"]
    assert workloads.check_report(_report(margins), False, ref)


def test_report_checker_flags_passing_control():
    ref = workloads.load_reference()
    negated = {k: -v for k, v in ref["margins"].items()}
    assert workloads.check_report(_report(negated), True, ref) == []
    assert workloads.check_report(_report(ref["margins"]), True, ref)
    one_passing = dict(negated, eigenvalue=1e-3)
    assert workloads.check_report(_report(one_passing), True, ref)


class _Eigen:
    def __init__(self, value):
        self.power_value = value


def test_disk_model_and_cli_checkers(tmp_path):
    oracles = {"radial(euclidean)": 5.783185962946784}
    ok, err = workloads.check_disk([("radial(euclidean)", _Eigen(5.7831638))], oracles)
    assert ok == [] and 3e-6 < err < 5e-6
    bad, _ = workloads.check_disk([("radial(euclidean)", _Eigen(5.7831))], oracles)
    assert bad

    good = {"R": 1.0, "k_max": 40, "lambda1_moments": 5.7832,
            "lambda1_shooting": 5.7831, "quotient": 0.5, "sphere_volume": 6.0,
            "ball_volume": 3.0, "round_trip_R": 1.0 + 1e-12}
    assert workloads.check_model(good) == []
    for change in ({"lambda1_moments": 5.7831 * 1.02}, {"round_trip_R": 1.0 + 1e-8},
                   {"k_max": 39}, {"ball_volume": 3.0001}):
        assert workloads.check_model(good | change), change

    for name in workloads.SURFACE_CSVS:
        (tmp_path / name).write_text("r\n1\n")
    assert workloads.check_cli((0, 0), tmp_path) == []
    assert workloads.check_cli((0, 1), tmp_path)
    (tmp_path / "surface_volumes.csv").unlink()
    assert workloads.check_cli((0, 0), tmp_path)


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([1.0, 2.0, 3.0]) == (2.0, 50.0)
    assert run.tail([float(x) for x in range(100)]) == (89.0, 90.0)
    assert run.tail([float(x) for x in range(60)]) == (44.0, 75.0)
    assert run.tail([float(x) for x in range(30)]) == (19.0, 200 / 3)


def _bindings():
    owners = [gb, *(sys.modules[f"geoball.{layer}"] for layer in layertrace.LAYERS)]
    owners += [obj for mod in owners[1:] for obj in vars(mod).values()
               if inspect.isclass(obj) and obj.__module__ == mod.__name__]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_tracer_restores_names_and_keeps_the_report():
    metric = gb.builtin_example_metric()
    model = gb.make_space_form(0.0, 2)
    before = _bindings()
    plain = gb.run_verification(metric, model, 1.0, n_r=16, n_theta=16).to_dict()
    tracer = layertrace.Tracer()
    with tracer:
        assert gb.run_verification is not before[(id(gb), "run_verification")]
        traced = gb.run_verification(metric, model, 1.0, n_r=16, n_theta=16).to_dict()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert traced == plain
    counts = tracer.snapshot()
    assert counts["pde.solver_builds"] == 4
    assert counts["surface.hypothesis_scans"] == 6
    assert counts["surface.ball_area_calls"] == 6


def _last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def test_run_prints_every_metric(capsys):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = ["--workload", "model-spectra", "--seed", "1", "--seconds", "0"]
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main([*args, "--trace", str(trace)]) == 0
        result = _last_json(capsys.readouterr().out)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in bench[group]}
        assert all(m["unit"] == result["metrics"][m["name"]]["unit"] for m in bench[group])
