"""Every module-level import of a library or test module is used by that
module, and every module-level private function of the library is used by
the library."""

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
