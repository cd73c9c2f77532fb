"""Checks on the library source itself."""
from __future__ import annotations

import ast
from pathlib import Path

import sekit

_PACKAGE = Path(sekit.__file__).parent


def test_library_code_has_no_assert():
    # `python -O` strips assert statements, so library code must raise instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(_PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/sekit: {', '.join(found)}"
