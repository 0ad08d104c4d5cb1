"""The package's imports run at module level, so its import graph is one-way.

A function-level import or an ``if TYPE_CHECKING:`` block is how a cycle
between two modules is hidden; with neither, a cycle fails at import time.
The package imports nothing beyond the standard library and numpy.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "relm"
SOURCES = sorted(PACKAGE.rglob("*.py"))


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


@pytest.mark.parametrize("path", SOURCES, ids=[str(p.relative_to(PACKAGE)) for p in SOURCES])
def test_imports_sit_at_module_level(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lazy = [
        f"line {inner.lineno} in {node.name}()"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    guarded = [
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and _is_type_checking(node.test)
    ]
    assert not lazy, f"imports inside functions: {lazy}"
    assert not guarded, f"if TYPE_CHECKING blocks: {guarded}"


@pytest.mark.parametrize("path", SOURCES, ids=[str(p.relative_to(PACKAGE)) for p in SOURCES])
def test_runtime_imports_are_stdlib_or_numpy(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    names = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
    names += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and not n.level]
    allowed = sys.stdlib_module_names | {"numpy", "relm"}
    foreign = sorted({name for name in names if name.partition(".")[0] not in allowed})
    assert not foreign, f"imports outside the standard library and numpy: {foreign}"


def test_every_module_is_checked():
    assert PACKAGE / "lmclient.py" in SOURCES
    assert PACKAGE / "prompt" / "render.py" in SOURCES
