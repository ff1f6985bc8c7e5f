"""Tooling: no module of the package, the tests or the tools imports a name it
never uses."""

import ast
from pathlib import Path

import mergebet

PACKAGE = Path(mergebet.__file__).parent
ROOT = PACKAGE.parents[1]


def unused_imports(source: str) -> list:
    """Names bound by an import statement and never read as a name.

    An attribute chain such as ``math.log2`` reads ``math``.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in read]


def test_unused_imports_are_found():
    assert unused_imports("import math\nimport os.path\nx = 1\n") == [
        "math", "os"]
    assert unused_imports("from a import b as c\nc.d()\n") == []
    assert unused_imports("from __future__ import annotations\n") == []


def test_no_module_imports_an_unused_name():
    # __init__.py imports names to re-export them
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py"),
             *(ROOT / "tools").glob("*.py")]
    found = {str(path.relative_to(ROOT)): unused_imports(path.read_text())
             for path in sorted(paths) if path.name != "__init__.py"}
    assert {k: v for k, v in found.items() if v} == {}
