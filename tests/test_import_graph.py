"""The package's imports run at module level, so its import graph is one-way.

A function-level import or an ``if TYPE_CHECKING:`` block is how a cycle
between two modules is hidden; with neither, a cycle fails at import time.
"""

import ast
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


def test_every_module_is_checked():
    assert PACKAGE / "lmclient.py" in SOURCES
    assert PACKAGE / "prompt" / "render.py" in SOURCES
