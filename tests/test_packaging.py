"""Every module the package imports is either the standard library, the
package itself, or a dependency declared in pyproject.toml."""

import ast
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_every_import_is_stdlib_or_declared():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_")
        for r in requirements
    }
    sources = sorted((ROOT / "src" / "seqforms").glob("*.py"))
    assert sources
    undeclared = {
        f"{path.name}: {name}"
        for path in sources
        for name in _imported_modules(path)
        if name not in sys.stdlib_module_names and name != "seqforms"
        and name not in declared
    }
    assert not undeclared


def _unused_imports(path):
    """Names a module imports but never reads. Attribute chains count as a
    read of their root name (`scipy.linalg.eigh` reads `scipy`)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_no_unused_imports():
    # __init__.py imports in order to re-export
    sources = sorted((ROOT / "src" / "seqforms").glob("*.py"))
    unused = {
        f"{path.name}: {name}"
        for path in sources
        if path.name != "__init__.py"
        for name in _unused_imports(path)
    }
    assert not unused
