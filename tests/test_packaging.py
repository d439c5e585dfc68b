"""Every module the package imports is either the standard library, the
package itself, or a dependency declared in pyproject.toml; no module
imports a name it never reads; the export lists match the modules; no
source line is longer than 88 columns; and the sources hold no more lines
than their cap."""

import ast
import importlib
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


def test_export_lists_match_the_modules():
    """Every __all__ entry exists in its module, and every name the package
    re-exports from a module that has an __all__ is listed there."""
    init = ROOT / "src" / "seqforms" / "__init__.py"
    missing, unlisted = set(), set()
    for path in sorted((ROOT / "src" / "seqforms").glob("*.py")):
        module = importlib.import_module(f"seqforms.{path.stem}")
        missing |= {f"{path.name}: {name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)}
    for node in ast.parse(init.read_text(), filename=str(init)).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exported = getattr(importlib.import_module(f"seqforms.{node.module}"),
                               "__all__", None)
            if exported is not None:
                unlisted |= {f"{node.module}: {a.name}" for a in node.names
                             if a.name not in exported}
    assert not missing
    assert not unlisted


def test_source_lines_fit_88_columns():
    # a line count compares like with like only at a fixed width
    long_lines = {
        f"{path.name}:{number}: {len(line)}"
        for path in sorted((ROOT / "src" / "seqforms").glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > 88
    }
    assert not long_lines


# Lines of src/seqforms/*.py: new code is paid for by deletions, and a change
# that raises the cap says why in CHANGES.md.
SOURCE_LINES_CAP = 2587


def test_source_lines_stay_under_the_cap():
    lines = sum(len(path.read_text().splitlines())
                for path in (ROOT / "src" / "seqforms").glob("*.py"))
    assert lines <= SOURCE_LINES_CAP
