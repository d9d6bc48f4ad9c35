"""No module of the package imports a name it never uses, and no private
helper outlives its last caller.

Two stdlib `ast` scans. A name bound by an import must be read somewhere
else in the same module, be it a package module, a demo or a test file;
the package's `__init__.py` only re-exports, so it is exempt, and so is
an import statement marked ``# noqa: F401``. A module-level
private name (``_x``: a function, class or assigned constant) must be
read somewhere in the package outside its own definition.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "walksearch"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# an import that an API move leaves behind in a demo or test fails here too
SCRIPTS = sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("tests/*.py"))


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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each module-level private name defined in the
    modules `sources` (module name -> source) and never read as a name in
    any of them, outside the lines of its own definition."""
    defined: list[tuple[str, str, int, int]] = []
    reads: list[tuple[str, str, int]] = []
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined.append((module, name, node.lineno, node.end_lineno))
        reads += [
            (module, node.id, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        ]
    return [
        f"{module}:{name}"
        for module, name, first, last in defined
        if not any(
            n == name and (m != module or not first <= line <= last)
            for m, n, line in reads
        )
    ]


def test_scan_finds_an_unread_private_name():
    sources = {
        "a": (
            "_LIMIT = 3\n"
            "_unused: int = 0\n"
            "def _loop(k):\n"
            "    return _loop(k - 1) if k else _LIMIT\n"
            "def _helper():\n"
            "    return 1\n"
            "class _Error(Exception):\n"
            "    pass\n"
            "def __getattr__(name):\n"
            "    raise _Error(name)\n"
        ),
        "b": "from .a import _helper\nprint(_helper())\n",
    }
    # a recursive call is not a read from outside the definition
    assert unread_private_names(sources) == ["a:_unused", "a:_loop"]


def test_every_private_name_is_read():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unread_private_names(sources) == []


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
    assert {p.parent.name for p in SCRIPTS} == {"demos", "tests"}


@pytest.mark.parametrize(
    "module",
    MODULES + SCRIPTS,
    ids=[p.name for p in MODULES] + [str(p.relative_to(ROOT)) for p in SCRIPTS],
)
def test_no_unused_import(module):
    assert unused_imports(module.read_text()) == []
