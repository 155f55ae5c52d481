"""Every module-level import of a library or test module is used by that
module."""

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
