"""Every module-level import of a library or test module is used by that
module, every module-level private function of the library is used by the
library, and every private attribute a test sets is read by the library."""

import ast
from pathlib import Path

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
