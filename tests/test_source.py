"""Checks on the library's source text."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "abelcheck"


def test_no_assert_statements():
    # ``python -O`` strips asserts; invariants raise InternalConsistencyError.
    files = sorted(SOURCE.glob("*.py"))
    assert files, f"no sources under {SOURCE}"
    found = [f"{path.relative_to(SOURCE.parents[1])}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, "assert statements in the library: " + ", ".join(found)
