"""No module of the package imports a name it never uses.

A stdlib `ast` scan: a name bound by an import must be read somewhere
else in the same module. `__init__.py` only re-exports, so it is exempt,
and so is an import statement marked ``# noqa: F401``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "walksearch"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that `source` imports and never reads, in import order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        statement = lines[node.lineno - 1 : node.end_lineno]
        if any("# noqa: F401" in line for line in statement):
            continue
        for alias in node.names:
            imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_scan_finds_an_unused_import():
    source = (
        "import os\n"
        "import os.path as osp\n"
        "from sys import argv, path  # noqa: F401\n"
        "from math import (\n"
        "    inf,\n"
        "    pi,\n"
        ")\n"
        "print(pi, os.sep)\n"
    )
    assert unused_imports(source) == ["osp", "inf"]


def test_package_modules_found():
    assert {p.name for p in MODULES} >= {"cli.py", "graphs.py", "samplers.py"}


@pytest.mark.parametrize("module", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_import(module):
    assert unused_imports(module.read_text()) == []
