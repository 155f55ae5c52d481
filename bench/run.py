"""geoball benchmark: one seeded workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout: the library is imported from the
checkout's ``src`` and nowhere else.  One client runs a closed loop, so
operation i+1 starts when operation i has returned, until ``--seconds`` have
passed (at least one operation).  Every output is checked; a failed check or
an exception counts the operation as failed.  BLAS threads are pinned to
min(2, nproc).

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median time of
fresh processes that import geoball and build the workload's inputs),
``op_s_p50``, ``op_s_tail`` and ``peak_rss_mb``.  ``--trace 1`` alternates
whole untraced and traced cycles of the workload's inputs and prints the
per-layer metrics of ``layertrace`` (median per traced operation, self times
in wall seconds) and ``trace_overhead``, the traced over the untraced median
operation time.

Times in the end-to-end metrics are wall seconds rescaled to a reference
host speed (see ``HostSpeed``).  The raw wall medians are printed alongside.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
TAIL_BEYOND = 10
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
# HostSpeed kernel time on the reference host: 10th percentile of 40 s of
# samples on a shared 2-vCPU Xeon
CAL_REF_S = 0.0325
SAMPLE_PERIOD_S = 1.0


def pin_threads() -> None:
    """Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples beyond it (nearest rank).  From p75 up it is taken
    from the TAIL_PERCENTILES ladder, which keeps the percentile fixed while
    the sample count drifts from run to run; runs too short for any
    percentile above the median report the median."""
    s = sorted(samples)
    n = len(s)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100 * n)
        if n - rank >= TAIL_BEYOND:
            return s[rank - 1], pct
    if n > 2 * TAIL_BEYOND:
        return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    return statistics.median(s), 50.0


class HostSpeed:
    """Rescales wall times to the speed of a reference host.

    On a shared host the speed of the same work drifts by up to 1.6x over
    seconds to minutes, which no affordable run length averages out.  A
    fixed kernel that does not use geoball is therefore timed before, during
    (every SAMPLE_PERIOD_S) and after each measurement, and the measurement
    is multiplied by CAL_REF_S over the kernel's mean time.  The kernel
    mixes the kinds of work geoball does: an ODE integration with a Python
    right-hand side (as in shooting), small numpy array operations and
    sparse LU solves.  A change to geoball moves the
    rescaled times as it moves wall times on a quiet reference host.
    """

    def __init__(self):
        import numpy as np
        from scipy import sparse
        from scipy.integrate import solve_ivp
        from scipy.sparse.linalg import splu

        n = 64
        t = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        matrix = (sparse.kron(sparse.eye(n), t) + sparse.kron(t, sparse.eye(n))).tocsc()
        rhs = np.ones(n * n)

        def kernel() -> None:
            solve_ivp(lambda s, y: [y[1], -float(np.cos(np.array(s))) * y[0]],
                      (0.0, 12.0), [1.0, 0.0], rtol=1e-10, atol=1e-12)
            a = np.linspace(0.0, 1.0, 512)
            for _ in range(600):
                a = np.sin(a) + 0.1
            for _ in range(2):
                splu(matrix).solve(rhs)

        self._kernel = kernel
        self.factors: list[float] = []
        self._during: list[float] = []
        self._paused = 0.0
        self._sample()  # warm-up
        self._last = self._sample()

    def _sample(self) -> float:
        t0 = perf_counter()
        self._kernel()
        return perf_counter() - t0

    def _on_alarm(self, signum, frame) -> None:
        t0 = perf_counter()
        self._during.append(self._sample())
        self._paused += perf_counter() - t0

    @contextlib.contextmanager
    def sampling(self):
        """Also sample the kernel every SAMPLE_PERIOD_S during the block, from
        a timer signal; the samples' time is taken out of the block's time."""
        self._during, self._paused = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def rescale(self, seconds: float) -> float:
        """Rescale a wall time measured since the previous call (less the
        time of samples taken during it) by the mean kernel time of the
        samples before, during and after it."""
        before, self._last = self._last, self._sample()
        samples = [before, *self._during, self._last]
        factor = CAL_REF_S * len(samples) / sum(samples)
        self.factors.append(factor)
        seconds -= self._paused
        self._during, self._paused = [], 0.0
        return seconds * factor


def time_fresh_setup(name: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__)), "--setup-only",
           "--workload", name, "--seed", str(seed)]
    t0 = perf_counter()
    subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def run_op(workload, state: dict, i: int, context, tracer=None):
    """Time operation i inside ``context`` and check its output.  Returns
    (seconds, problems, layer snapshot if ``tracer`` is given, else None)."""
    snapshot = None
    if tracer is not None:
        tracer.reset()
    t0 = perf_counter()
    try:
        with context:
            result = workload.op(state, i)
    except Exception:  # noqa: BLE001 - any exception fails the operation
        return perf_counter() - t0, [traceback.format_exc()], None
    seconds = perf_counter() - t0
    if tracer is not None:
        snapshot = tracer.snapshot()
    try:
        problems = workload.check(state, i, result)
    except Exception:  # noqa: BLE001 - a check that cannot run fails the operation
        problems = [traceback.format_exc()]
    return seconds, problems, snapshot


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, i: int, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            if not self.failed:
                print(f"operation {i} failed:\n  " + "\n  ".join(problems),
                      file=sys.stderr)
            self.failed += 1


def measure(workload, state: dict, seconds: float, tally: Tally, speed: HostSpeed):
    """(rescaled, wall) operation times."""
    times, wall = [], []
    start = perf_counter()
    i = 0
    while i == 0 or perf_counter() - start < seconds:
        dt, problems, _ = run_op(workload, state, i, speed.sampling())
        tally.add(i, problems)
        times.append(speed.rescale(dt))
        wall.append(dt)
        i += 1
    return times, wall


def measure_traced(workload, state: dict, seconds: float, tally: Tally,
                   speed: HostSpeed):
    """Alternate untraced and traced cycles; at least one of each.  Host
    speed is sampled between operations only, so that no sample falls
    inside a traced span."""
    from layertrace import Tracer

    tracer = Tracer()
    plain, traced, snapshots = [], [], []
    start = perf_counter()
    i = cycles = 0
    while cycles < 2 or perf_counter() - start < seconds:
        use = tracer if cycles % 2 else None
        for _ in range(workload.cycle):
            context = use if use is not None else contextlib.nullcontext()
            dt, problems, snap = run_op(workload, state, i, context, use)
            tally.add(i, problems)
            dt = speed.rescale(dt)
            if use is None:
                plain.append(dt)
            else:
                traced.append(dt)
                if snap is not None:
                    snap["cli.bytes_written"] = int(state.get("bytes_written", 0))
                    snapshots.append(snap)
            i += 1
        cycles += 1
    return plain, traced, snapshots


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "cli.bytes_written":
        return "bytes"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs and exit (times setup_s)")
    args = parser.parse_args(argv)
    if args.seconds is None and not args.setup_only:
        parser.error("--seconds is required")

    if not (SRC / "geoball" / "__init__.py").is_file():
        print(f"error: no geoball sources at {SRC}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(SRC))
    import geoball
    import workloads

    if Path(geoball.__file__).resolve().parent != SRC / "geoball":
        print(f"error: geoball imported from {geoball.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        cls(ROOT).setup(args.seed)
        return 0

    scratch = Path(tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT))
    try:
        workload = cls(scratch)
        tally = Tally()
        speed = HostSpeed()
        if args.trace:
            state = workload.setup(args.seed)
            plain, traced, snapshots = measure_traced(
                workload, state, args.seconds, tally, speed)
            metrics = {}
            for key in snapshots[0] if snapshots else ():
                pick = statistics.median if key.endswith("_s") else statistics.median_low
                value = pick(s[key] for s in snapshots)
                metrics[key] = {"value": value, "unit": unit_of(key)}
            metrics["trace_overhead"] = {
                "value": statistics.median(traced) / statistics.median(plain),
                "unit": "ratio"}
            print(f"{args.workload} seed={args.seed}: {len(traced)} traced and "
                  f"{len(plain)} untraced operations, medians per traced operation")
        else:
            setup = [speed.rescale(time_fresh_setup(args.workload, args.seed))
                     for _ in range(SETUP_REPEATS)]
            state = workload.setup(args.seed)
            times, wall = measure(workload, state, args.seconds, tally, speed)
            tail_value, tail_pct = tail(times)
            metrics = {
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "op_s_p50": {"value": statistics.median(times), "unit": "s"},
                "op_s_tail": {"value": tail_value, "unit": "s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                    "unit": "MB"},
            }
            print(f"{args.workload} seed={args.seed}: {len(times)} operations; "
                  f"op_s_tail is p{tail_pct:.1f} of {len(times)} samples; "
                  f"setup_s is the median of {SETUP_REPEATS} fresh processes")
            print(f"wall op_s_p50 {statistics.median(wall):.6g} s; host speed "
                  f"factors {min(speed.factors):.3f}..{max(speed.factors):.3f} "
                  f"(median {statistics.median(speed.factors):.3f})")
            if state.get("lambda1_rel_err"):
                print(f"lambda1_rel_err {state['lambda1_rel_err']:.6e} "
                      "(worst grid lambda1 against its oracle)")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"failed_share {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    for key, m in metrics.items():
        print(f"{key:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
