"""Per-layer tracing of geoball from outside the library.

`Tracer` replaces every public function of each geoball module, and the
public methods and constructors of its classes, with a timing wrapper.  A
function is replaced under every name it is bound to, so a call made through
the calling module's own import (e.g. ``geoball.verify.solve_hierarchy_grid``)
is seen as well as one through ``geoball``.  Leaving the context restores
every original binding.

Each wrapper opens a span.  A span's self time is its duration minus the
time covered by the spans it opened, so the self times of one operation add
up to the traced part of its wall time without double counting.  Self time
goes to one named metric per callable (``NAMED``) or, for the rest of a
module, to that module's residual metric (``RESIDUAL``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter
from time import perf_counter

LAYERS = ("model", "hierarchy", "surface", "pde", "symmetrize", "verify",
          "quadrature", "cli")

# qualified callable -> (self-time metric, call-count metric or None)
NAMED = {
    "pde.HierarchySolver.__init__": ("pde.solver_build_s", "pde.solver_builds"),
    "pde.HierarchySolver.solve_poisson": ("pde.poisson_solve_s", "pde.poisson_solves"),
    "pde.HierarchySolver.smallest_eigenvalue": ("pde.eigen_s", None),
    "surface.hypothesis_report": ("surface.hypothesis_s", "surface.hypothesis_scans"),
    "surface.ball_area": ("surface.ball_area_s", "surface.ball_area_calls"),
    "surface.sphere_length": ("surface.ball_area_s", "surface.sphere_length_calls"),
    "surface.sphere_mean_curvature": ("surface.pointwise_s", "surface.pointwise_calls"),
    "surface.gauss_curvature": ("surface.pointwise_s", "surface.pointwise_calls"),
    "quadrature.integrate": ("quadrature.integrate_s", "quadrature.integrate_calls"),
    "model.ball_volume_model": ("model.volume_s", "model.volume_calls"),
    "model.isoperimetric_quotient": ("model.volume_s", "model.volume_calls"),
    "model.ball_radius_from_volume": ("model.volume_s", None),
    "model.balance_check": ("model.balance_s", None),
    "hierarchy.lambda1_shooting": ("hierarchy.shooting_s", None),
    # private, but it is the unit of shooting work: one ODE integration
    "hierarchy._shoot": ("hierarchy.shooting_s", "hierarchy.shooting_calls"),
    "hierarchy.moment_spectrum": ("hierarchy.moment_spectrum_s", None),
    "symmetrize.symmetrize_field": ("symmetrize.symmetrize_s", None),
    "symmetrize.transplant_exit_time": ("symmetrize.transplant_s", None),
}

RESIDUAL = {layer: f"{layer}.self_s" for layer in LAYERS}
RESIDUAL["pde"] = "pde.grid_s"

# measured by the benchmark around a span, never inside one
EXTRA = ("pde.factor_nnz",)

TIME_METRICS = tuple(dict.fromkeys(
    [t for t, _ in NAMED.values()] + list(RESIDUAL.values())))
COUNT_METRICS = tuple(dict.fromkeys(
    [c for _, c in NAMED.values() if c] + list(EXTRA)))


def _modules():
    return {layer: importlib.import_module(f"geoball.{layer}") for layer in LAYERS}


def traced_callables():
    """(layer, owner, attribute name, qualified name) for every callable the
    tracer wraps; owner is a module for functions and a class for methods."""
    out = []
    for layer, mod in _modules().items():
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and (not name.startswith("_")
                                            or f"{layer}.{name}" in NAMED):
                out.append((layer, mod, name, f"{layer}.{name}"))
            elif inspect.isclass(obj) and not issubclass(obj, BaseException) \
                    and not name.startswith("_"):
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member) and (
                            not attr.startswith("_")
                            or attr in ("__init__", "__call__")):
                        out.append((layer, obj, attr, f"{layer}.{name}.{attr}"))
    return out


class Tracer:
    """Context manager that wraps geoball's callables while it is active.

    ``counts`` and ``self_s`` accumulate until ``reset()``; the benchmark
    resets them before each traced operation and reads them after it.
    """

    def __init__(self):
        self.counts: Counter = Counter()
        self.self_s: Counter = Counter()
        self._stack: list[float] = []  # child time of each open span
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.counts.clear()
        self.self_s.clear()

    def snapshot(self) -> dict:
        out = {k: float(self.self_s[k]) for k in TIME_METRICS}
        out.update({k: int(self.counts[k]) for k in COUNT_METRICS})
        return out

    def _wrap(self, fn, time_key, count_key, after=None):
        stack = self._stack
        self_s, counts = self.self_s, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_key:
                counts[count_key] += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self_s[time_key] += dt - stack.pop()
                if after is not None:
                    t1 = perf_counter()
                    after(args)
                    # the measurement is no work of the program: hide it
                    # from the enclosing span's self time as well
                    dt += perf_counter() - t1
                if stack:
                    stack[-1] += dt

        return wrapper

    def _count_fill(self, args) -> None:
        lu = args[0]._lu
        self.counts["pde.factor_nnz"] += int(lu.L.nnz + lu.U.nnz)

    def __enter__(self) -> "Tracer":
        import geoball

        bindings = [geoball, *_modules().values()]
        for layer, owner, attr, qual in traced_callables():
            original = vars(owner)[attr]
            time_key, count_key = NAMED.get(qual, (RESIDUAL[layer], None))
            after = self._count_fill if qual == "pde.HierarchySolver.__init__" else None
            wrapper = self._wrap(original, time_key, count_key, after)
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapper)
                continue
            for mod in bindings:
                for name, obj in list(vars(mod).items()):
                    if obj is original:
                        self._patch(mod, name, wrapper)
        return self

    def _patch(self, owner, name, wrapper) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
