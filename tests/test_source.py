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


def _module_imports(body):
    """The import statements of a module body, also under its ``if``
    blocks (``if TYPE_CHECKING:``), but not inside functions or classes."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            yield from _module_imports(node.body + node.orelse)


def _used_names(tree):
    """The names a module reads, including those in string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for part in ast.walk(annotation) if annotation else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used.update(n.id for n in ast.walk(ast.parse(part.value, mode="eval"))
                                if isinstance(n, ast.Name))
    return used


def test_no_unused_imports():
    # __init__.py imports to re-export; ``from __future__`` binds nothing.
    files = sorted(path for path in SOURCE.glob("*.py") if path.name != "__init__.py")
    assert files, f"no sources under {SOURCE}"
    found = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used_names(tree)
        for node in _module_imports(tree.body):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    found.append(f"{path.relative_to(SOURCE.parents[1])}:{node.lineno} {name}")
    assert not found, "unused imports in the library: " + ", ".join(found)
