"""Every module-level import of a library or test module is used by that
module, every module-level private function of the library is used by the
library, every private attribute a test sets is read by the library, the
library samples on broadcast axes, never on an np.meshgrid mesh, it
builds one sparse matrix, the flux stencil, in one place, it seeds jets
only in the two ``jet`` methods, it imports only the scipy modules it
runs, each only once a command builds a matrix or a factor, it writes
no gate as ``any`` of a comparison, which a NaN passes, every array its
cached functions return is read-only, and it writes CSV tables only
through ``cli._write_csv``."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "geoball"
# __init__.py imports only to re-export
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(TESTS.glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    source = "import math\nimport os\nfrom x import a, b as c\nos.sep\nc()\n"
    assert _unused_imports(source) == ["math (line 1)", "a (line 3)"]


def _unreferenced_private_functions(sources: list[str]) -> list[str]:
    """Module-level private functions of the given modules that no code in
    them refers to outside the function's own definition."""
    trees = [ast.parse(source) for source in sources]
    found = []
    for tree in trees:
        for fn in tree.body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")
                    and not fn.name.startswith("__")):
                continue
            if not any((isinstance(n, ast.Name) and n.id == fn.name)
                       or (isinstance(n, ast.Attribute) and n.attr == fn.name)
                       for t in trees for stmt in t.body if stmt is not fn
                       for n in ast.walk(stmt)):
                found.append(f"{fn.name} (line {fn.lineno})")
    return found


def test_private_functions_used_by_the_library():
    # a route that only the tests keep alive belongs in the tests or nowhere
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert _unreferenced_private_functions(sources) == []


def test_unreferenced_private_function_is_found():
    sources = ["def _a():\n    return _a()\ndef _b(): pass\ndef __c(): pass\n",
               "import m\nm._b()\n"]
    assert _unreferenced_private_functions(sources) == ["_a (line 1)"]


def _assigned_private_attributes(tree: ast.AST) -> list[tuple[str, int]]:
    """Private attributes a module sets, by name: ``x._name = ...`` (any
    store to an attribute), ``setattr(x, "_name", ...)``,
    ``monkeypatch.setattr(x, "_name", ...)`` and
    ``monkeypatch.setattr("module._name", ...)``."""
    found = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store):
            found.append((n.attr, n.lineno))
        elif (isinstance(n, ast.Call) and n.args
              and getattr(n.func, "id", getattr(n.func, "attr", None)) == "setattr"):
            target = n.args[0]
            if isinstance(target, ast.Constant) and isinstance(target.value, str):
                found.append((target.value.rsplit(".", 1)[-1], n.lineno))
            elif (len(n.args) > 1 and isinstance(n.args[1], ast.Constant)
                  and isinstance(n.args[1].value, str)):
                found.append((n.args[1].value, n.lineno))
    return sorted((name, line) for name, line in found
                  if name.startswith("_") and not name.startswith("__"))


def _unread_private_attributes(test_source: str, library_sources: list[str]) -> list[str]:
    """Private attributes a test module sets that no library code reads: an
    assignment the library never looks at tests nothing."""
    read = {n.attr if isinstance(n, ast.Attribute) else n.id
            for source in library_sources for n in ast.walk(ast.parse(source))
            if isinstance(n, (ast.Attribute, ast.Name)) and isinstance(n.ctx, ast.Load)}
    return [f"{name} (line {line})"
            for name, line in _assigned_private_attributes(ast.parse(test_source))
            if name not in read]


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda p: p.name)
def test_private_attributes_set_by_tests_are_read_by_the_library(path):
    library = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert _unread_private_attributes(path.read_text(), library) == []


def test_unread_private_attribute_is_found():
    test = ("s._a = 1\ns._b += 1\nx, s._c = 1, 2\nsetattr(s, '_d', 3)\n"
            "monkeypatch.setattr(m, '_e', 4)\nmonkeypatch.setattr('m._f', 5)\n"
            "s._g = 6\ns.__h = 7\ns.i = 8\nmonkeypatch.setattr(m, name, 9)\n")
    library = ["self._a = 0\nprint(self._a)\n_e()\nself._g = 0\n"]
    assert _unread_private_attributes(test, library) == [
        "_b (line 2)", "_c (line 3)", "_d (line 4)", "_f (line 6)", "_g (line 7)"]


def _meshgrid_uses(source: str) -> list[str]:
    """Lines of a module that name meshgrid (``np.meshgrid`` or a bare
    imported ``meshgrid``)."""
    return [f"line {n.lineno}" for n in ast.walk(ast.parse(source))
            if (isinstance(n, ast.Attribute) and n.attr == "meshgrid")
            or (isinstance(n, ast.Name) and n.id == "meshgrid")
            or (isinstance(n, ast.alias) and n.name == "meshgrid")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_library_samples_without_meshgrid(path):
    # w, the curvatures and grid functions broadcast over (r[:, None],
    # t[None, :]); a materialized mesh only copies the axes
    assert _meshgrid_uses(path.read_text()) == []


def test_planted_meshgrid_is_found():
    source = ("import numpy as np\nfrom numpy import meshgrid\n"
              "rr, tt = np.meshgrid(r, t)\nw(r[:, None], t[None, :])\n")
    assert _meshgrid_uses(source) == ["line 2", "line 3"]


# scipy.sparse constructors, any of which could write a sparse stencil
SPARSE_BUILDERS = {"csc_matrix", "csr_matrix", "coo_matrix", "diags",
                   "csc_array", "csr_array", "coo_array", "diags_array"}


def _sparse_builds(source: str) -> list[str]:
    """Lines of a module that call a scipy.sparse constructor, by bare
    name or as an attribute."""
    return [f"line {line}" for line in sorted(
        n.lineno for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Call)
        and (getattr(n.func, "id", None) or getattr(n.func, "attr", None))
        in SPARSE_BUILDERS)]


def test_flux_stencil_is_built_in_one_place():
    # both solver routes assemble one stencil (pde._assemble_flux), which
    # the tests also apply as the Laplacian; a second sparse build would
    # write it twice
    builds = [f"{p.name} {line}" for p in MODULES for line in _sparse_builds(p.read_text())]
    assert len(builds) == 1 and builds[0].startswith("pde.py "), builds


def test_planted_sparse_builds_are_found():
    source = ("from scipy.sparse import csc_matrix, diags\nimport scipy.sparse as sp\n"
              "def f(a) -> csc_matrix:\n    return csc_matrix(a)\n"
              "b = sp.diags([1.0], [0])\nc = diags\n")
    assert _sparse_builds(source) == ["line 4", "line 5"]


# the methods that seed jets: a warping's and a metric's
JET_SEEDS = {"WarpingProfile.jet", "PolarMetric2D.jet"}


def _scoped_nodes(source: str, skip_class: str = "") -> list[tuple[str, ast.AST]]:
    """Every node of a module outside class skip_class, in source order,
    with its enclosing class.function (``<module>`` at top level)."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef) and child.name == skip_class:
                continue
            found.append((".".join(scope) or "<module>", child))
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, scope + (child.name,) if named else scope)

    visit(ast.parse(source), ())
    return found


def _call_name(node: ast.AST) -> str | None:
    """The bare or attribute name a call calls; None for any other node."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", None) or getattr(node.func, "attr", None)
    return None


def _jet_constructions(source: str) -> list[str]:
    """Every ``_Jet(...)`` call of a module outside class _Jet, by bare name
    or as an attribute, with its enclosing class.function (``<module>`` at
    top level) and line."""
    return [f"{scope} (line {n.lineno})" for scope, n in _scoped_nodes(source, "_Jet")
            if _call_name(n) == "_Jet"]


def test_jets_are_seeded_only_by_the_jet_methods():
    # every partial is read from one evaluation of w in WarpingProfile.jet
    # or PolarMetric2D.jet; a jet seeded elsewhere takes a partial a second way
    sites = [site for p in MODULES for site in _jet_constructions(p.read_text())]
    assert {site.split(" ")[0] for site in sites} == JET_SEEDS, sites


def test_planted_jet_seeds_are_found():
    source = ("class _Jet:\n    def f(self):\n        return _Jet(1.0)\n"
              "class P:\n    def jet(self, r):\n        return self.w(_Jet(r, 1.0))\n"
              "    def w_r(self, r):\n        return self.w(model._Jet(r, 1.0)).r\n"
              "def dw(p, r):\n    return p.w(_Jet(r, 1.0)).r\n"
              "SEED = _Jet(0.0)\n")
    assert _jet_constructions(source) == [
        "P.jet (line 6)", "P.w_r (line 8)", "dw (line 10)", "<module> (line 11)"]


# the scipy the library runs: sparse LU, and LAPACK for the model balls
SCIPY_ALLOWED = {"scipy.sparse", "scipy.sparse.linalg", "scipy.linalg", "scipy.linalg.lapack"}
# each costs start-up time for one small function the library writes itself
SCIPY_UNLOADED = ("scipy.optimize", "scipy.interpolate", "scipy.integrate", "scipy.spatial",
                  "scipy.special", "scipy.fft", "scipy.constants")


def _scipy_imports(source: str) -> list[str]:
    """Every scipy module a module imports, anywhere in it: ``import
    scipy.x``, ``from scipy.x import y`` and ``from scipy import x`` (as
    scipy.x)."""
    found = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Import):
            found += [a.name for a in n.names if a.name.split(".")[0] == "scipy"]
        elif isinstance(n, ast.ImportFrom) and n.module == "scipy":
            found += [f"scipy.{a.name}" for a in n.names]
        elif isinstance(n, ast.ImportFrom) and (n.module or "").startswith("scipy."):
            found.append(n.module)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_library_imports_only_allowed_scipy(path):
    assert set(_scipy_imports(path.read_text())) <= SCIPY_ALLOWED


def test_planted_scipy_imports_are_found():
    source = ("import scipy.optimize\nfrom scipy import integrate as si\n"
              "from scipy.linalg import lu_factor\nimport numpy\n"
              "def f():\n    from scipy.interpolate import CubicSpline\n")
    assert _scipy_imports(source) == [
        "scipy.optimize", "scipy.integrate", "scipy.linalg", "scipy.interpolate"]


def _fresh_run(code: str, unloaded: tuple[str, ...]) -> tuple[int, list[str]]:
    """Run code in a fresh interpreter that imports geoball from this
    checkout; the exit code is the ``rc`` that code sets (0 if it sets
    none).  Returns that code and the modules of unloaded, each with its
    submodules, that the process loaded."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    script = (f"import sys\nrc = 0\n{code}\n"
              f"print(*[m for m in sys.modules if any(m == p or m.startswith(p + '.')"
              f" for p in {unloaded!r})])\n"
              "sys.exit(rc)")
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True)
    assert "Traceback" not in run.stderr, run.stderr
    return run.returncode, run.stdout.splitlines()[-1].split()


def test_fresh_import_leaves_heavy_scipy_unloaded():
    # scipy is imported where a matrix or a factor is built, not with the library
    assert _fresh_run("import geoball, geoball.cli", ("scipy",)) == (0, [])


# a command in a fresh process, the scipy modules it leaves unloaded and its
# exit code: surface builds no matrix or factor, model and symmetrize build
# only the model balls' dense LU, and verify also the grid's sparse one (16^2
# is too coarse for symmetrize's default tolerance, so it exits 1)
FRESH_COMMANDS = {
    "surface": (["surface", "--metric", "example1", "--radius", "1",
                 "--nr", "8", "--ntheta", "8"], ("scipy",), 0),
    "model": (["model", "--warping", "hyperbolic(1)", "--radius", "1",
               "--kmax", "5", "--grid", "8"], ("scipy.sparse",), 0),
    "symmetrize": (["symmetrize", "--metric", "example1", "--model", "euclidean",
                    "--radius", "1", "--nr", "16", "--ntheta", "16"], ("scipy.sparse",), 1),
    "verify": (["verify", "--metric", "example1", "--model", "euclidean",
                "--radius", "1", "--nr", "16", "--ntheta", "16"], SCIPY_UNLOADED, 0),
}


@pytest.mark.parametrize("command", list(FRESH_COMMANDS))
def test_fresh_command_loads_only_the_scipy_it_runs(command, tmp_path):
    argv, unloaded, code = FRESH_COMMANDS[command]
    argv = argv + ["--output", str(tmp_path)]
    assert _fresh_run(f"import geoball.cli\nrc = geoball.cli.main({argv!r})",
                      unloaded) == (code, [])


def _is_comparison(node: ast.AST) -> bool:
    """A comparison, or an elementwise ``&`` or ``|`` with one among its operands."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitAnd, ast.BitOr)):
        return _is_comparison(node.left) or _is_comparison(node.right)
    return isinstance(node, ast.Compare)


def _any_of_comparisons(source: str) -> list[str]:
    """Lines of a module that call ``any`` (builtin, ``np.any`` or the
    method) on a comparison: NaN compares False, so a NaN passes such a
    check; ``not np.all(<ok>)`` refuses it."""
    found = []
    for n in ast.walk(ast.parse(source)):
        if not isinstance(n, ast.Call):
            continue
        name = getattr(n.func, "id", None) or getattr(n.func, "attr", None)
        if name != "any":
            continue
        operands = list(n.args[:1])
        if isinstance(n.func, ast.Attribute):
            operands.append(n.func.value)  # (x < 0).any()
        if any(map(_is_comparison, operands)):
            found.append(f"line {n.lineno}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_gate_is_any_of_a_comparison(path):
    assert _any_of_comparisons(path.read_text()) == []


def test_planted_any_of_comparisons_are_found():
    source = ("import numpy as np\nif np.any(x < 0): pass\nif any(d <= 0): pass\n"
              "if (x > 1).any(): pass\nif np.any((x < 0) | np.isnan(x)): pass\n"
              "if not np.all(x >= 0): pass\nif bad.any(): pass\n"
              "if any(isinstance(a, int) for a in xs): pass\nif np.any(~(x >= 0)): pass\n")
    assert _any_of_comparisons(source) == ["line 2", "line 3", "line 4", "line 5"]


# every functools.cache or lru_cache function of the library, with small
# arguments to call it on
CACHED_CALLS = {"quadrature._gauss_legendre": (4,), "pde._power_start": (5,),
                "pde._flux_pattern": (5, 2), "hierarchy._chebyshev": (5,),
                "cli._parser": ()}


def _cached_functions(source: str) -> list[str]:
    """Functions of a module decorated with ``cache`` or ``lru_cache``, as
    an attribute or a bare name, with or without arguments."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for d in fn.decorator_list:
            target = d.func if isinstance(d, ast.Call) else d
            if (getattr(target, "id", None) or getattr(target, "attr", None)) in (
                    "cache", "lru_cache"):
                found.append(fn.name)
    return found


def _writable_arrays(result) -> list[np.ndarray]:
    """The writable numpy arrays of a result, inside tuples and lists too."""
    if isinstance(result, np.ndarray):
        return [result] if result.flags.writeable else []
    if isinstance(result, (tuple, list)):
        return [a for item in result for a in _writable_arrays(item)]
    return []


def test_cached_functions_return_read_only_arrays():
    # every later caller shares a cached array: one caller's write would
    # corrupt them all (a flux pattern, every later flux of its shape)
    found = {f"{p.stem}.{name}" for p in MODULES for name in _cached_functions(p.read_text())}
    assert found == set(CACHED_CALLS)
    for qualname, args in CACHED_CALLS.items():
        module, name = qualname.split(".")
        result = getattr(importlib.import_module(f"geoball.{module}"), name)(*args)
        assert _writable_arrays(result) == [], qualname


def test_planted_cached_functions_and_writable_arrays_are_found():
    source = ("import functools\nfrom functools import cache, lru_cache\n"
              "@functools.cache\ndef _a(n): pass\n@lru_cache(maxsize=2)\ndef _b(n): pass\n"
              "@functools.lru_cache\ndef _c(n): pass\n@staticmethod\ndef _d(n): pass\n"
              "class K:\n    @cache\n    def e(self): pass\ndef _f(n): pass\n")
    assert _cached_functions(source) == ["_a", "_b", "_c", "e"]
    frozen, writable = np.zeros(2), np.zeros(3)
    frozen.setflags(write=False)
    assert [a.shape for a in _writable_arrays((frozen, [writable, (frozen, 1.0)]))] == [(3,)]


# the calls that could write a table's text a second way
TEXT_WRITERS = {"savetxt", "write_text"}


def _csv_writers(source: str) -> list[str]:
    """Every ``savetxt`` or ``write_text`` call of a module, by bare name or
    as an attribute, and every import of the csv module, with its enclosing
    class.function (``<module>`` at top level) and line."""
    found = []
    for scope, n in _scoped_nodes(source):
        if isinstance(n, ast.Import):
            modules = [a.name for a in n.names]
        else:
            modules = [n.module or ""] if isinstance(n, ast.ImportFrom) else []
        if any(m.split(".")[0] == "csv" for m in modules):
            found.append(f"{scope} import csv (line {n.lineno})")
        elif _call_name(n) in TEXT_WRITERS:
            found.append(f"{scope} {_call_name(n)} (line {n.lineno})")
    return found


def test_csv_tables_are_written_in_one_place():
    # every CSV goes through cli._write_csv, whose bytes the tests pin
    # against np.savetxt; a second writer could format a table another way
    sites = [f"{p.stem}.{site}" for p in sorted(SRC.glob("*.py"))
             for site in _csv_writers(p.read_text())]
    assert [site.split(" (")[0] for site in sites] == ["cli._write_csv write_text"], sites


def test_planted_csv_writers_are_found():
    source = ("import csv\nfrom csv import writer\nimport numpy as np, os.path\n"
              "def _write_csv(p, t):\n    p.write_text(t)\n"
              "class T:\n    def save(self, p):\n        np.savetxt(p, self.a)\n"
              "Path('x').write_text('y')\nsavetxt(p, a)\nprint(csv)\n")
    assert _csv_writers(source) == [
        "<module> import csv (line 1)", "<module> import csv (line 2)",
        "_write_csv write_text (line 5)", "T.save savetxt (line 8)",
        "<module> write_text (line 9)", "<module> savetxt (line 10)"]
