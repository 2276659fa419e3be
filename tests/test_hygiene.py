"""Source hygiene: every name a module imports is used in that module."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "vilogic"
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> line of the import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, string annotations included."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        if annotation is None:
            continue
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _referenced_names(ast.parse(node.value, mode="eval"))
    return used


def test_hygiene_scan_sees_modules():
    assert {p.name for p in MODULES} >= {"cli.py", "lattice.py", "plonka.py"}


def test_unused_import_is_reported():
    tree = ast.parse(
        "import os\nfrom typing import Mapping, Sequence\n"
        "def f(x: 'Mapping[str, int]'): return x\n"
    )
    names = _imported_names(tree)
    assert sorted(set(names) - _referenced_names(tree)) == ["Sequence", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _referenced_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def _relative_imports(path: Path) -> dict[str, set[str]]:
    """Module -> names imported from it, for each relative import in ``path``."""
    found: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.setdefault(node.module, set()).update(a.name for a in node.names)
    return found


def test_vector_engine_sits_behind_one_entry_point():
    # The engine reads only the term and matrix layers, and lattice reads it
    # through its entry point and error class alone: a test that patches an
    # engine name on lattice then raises AttributeError, not a silent pass.
    assert set(_relative_imports(SOURCE / "vector.py")) == {"formulas", "matrices"}
    from_vector = _relative_imports(SOURCE / "lattice.py")["vector"]
    assert from_vector == {"LatticeError", "disagreements"}
