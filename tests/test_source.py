"""Checks on the library's source text."""

import ast
import io
import re
import shlex
from pathlib import Path
from types import ModuleType

import abelcheck
from abelcheck import cli

SOURCE = Path(__file__).resolve().parents[1] / "src" / "abelcheck"
README = SOURCE.parents[1] / "README.md"


def test_no_assert_statements():
    # ``python -O`` strips asserts; invariants raise InternalConsistencyError.
    files = sorted(SOURCE.glob("*.py"))
    assert files, f"no sources under {SOURCE}"
    found = [f"{path.relative_to(SOURCE.parents[1])}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, "assert statements in the library: " + ", ".join(found)


def test_every_lru_cache_keeps_one_entry():
    # A cache that grows with its inputs must be a visible decision, made
    # by editing this test: every ``lru_cache`` in the library is
    # ``lru_cache(maxsize=1)``, and the unbounded ``functools.cache`` is
    # not used.
    kept, found = 0, []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        one_entry = {id(node.func) for node in ast.walk(tree)
                     if isinstance(node, ast.Call) and not node.args
                     and [(k.arg, ast.unparse(k.value)) for k in node.keywords] == [("maxsize", "1")]}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                bad = any(alias.name == "cache" for alias in node.names)
            elif isinstance(node, ast.Attribute) and node.attr == "cache":
                bad = ast.unparse(node.value) == "functools"
            elif getattr(node, "id", None) == "lru_cache" or getattr(node, "attr", None) == "lru_cache":
                bad = id(node) not in one_entry
                kept += not bad
            else:
                continue
            if bad:
                found.append(f"{path.relative_to(SOURCE.parents[1])}:{node.lineno}")
    assert kept, f"no lru_cache(maxsize=1) under {SOURCE}"
    assert not found, "unbounded or larger caches in the library: " + ", ".join(found)


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


# Each half of the library is a chain: a module imports only modules
# before it in its chain, anywhere in its body (inside functions and
# ``if TYPE_CHECKING:`` blocks too).  The finite oracle checks the
# symbolic deciders, so the two halves share only ``errors`` and
# ``arith``, and only the modules in BOTH_HALVES import from both.
CHAINS = {
    "symbolic": ("errors", "arith", "characteristics", "groups", "parser", "deciders"),
    "oracle": ("errors", "arith", "snf", "finite"),
}
BOTH_HALVES = {"cli", "__init__"}


def _library_imports(tree):
    """The library modules that the import statements of a module name,
    anywhere in it: ``from .groups import OMEGA``, ``from . import
    groups`` and ``import abelcheck.groups`` all give "groups"."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            package = "abelcheck." if node.level else ""
            module = f"{package}{node.module}." if node.module else package
            dotted = [module + alias.name for alias in node.names]
        else:
            continue
        yield from (name.split(".")[1] for name in dotted if name.startswith("abelcheck."))


def test_each_half_imports_only_down_its_chain():
    modules = {path.stem for path in SOURCE.glob("*.py")}
    unplaced = modules - set().union(*CHAINS.values()) - BOTH_HALVES
    assert not unplaced, f"library modules in no chain: {sorted(unplaced)}"
    found = set()
    for chain in CHAINS.values():
        for i, name in enumerate(chain):
            path = SOURCE / f"{name}.py"
            tree = ast.parse(path.read_text(), filename=str(path))
            found.update(f"{name} imports {dep}" for dep in _library_imports(tree) if dep not in chain[:i])
    assert not found, "imports against the chains: " + ", ".join(sorted(found))


def test_each_input_rule_is_stated_once():
    # Constructors take primes through ``arith.check_prime``, so only
    # ``arith`` and the parser (whose refusals carry a position) read
    # ``is_prime``; the symbolic half tests integers by ``type(x) is int``,
    # and only ``snf`` (which takes int subclasses other than bool) tests
    # for bool by ``isinstance``.  Both halves name refused text through
    # ``errors.excerpt``, and ``groups`` refuses exponents only in
    # ``check_exponent``.
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        exponent_raises = []
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and path.stem not in ("arith", "parser"):
                if any(alias.name == "is_prime" for alias in node.names):
                    found.append(f"{path.stem}:{node.lineno} imports is_prime")
            elif (isinstance(node, ast.Call) and path.stem != "snf"
                  and ast.unparse(node.func) == "isinstance" and len(node.args) == 2
                  and "bool" in {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}):
                found.append(f"{path.stem}:{node.lineno} calls isinstance(..., bool)")
            elif isinstance(node, ast.FunctionDef) and node.name == "excerpt" and path.stem != "errors":
                found.append(f"{path.stem}:{node.lineno} defines excerpt")
            elif isinstance(node, ast.Raise) and "exponent must be" in ast.unparse(node):
                exponent_raises.append(f"{path.stem}:{node.lineno}")
        if path.stem == "groups" and len(exponent_raises) > 1:
            found.append("exponent refusals at " + ", ".join(exponent_raises))
    assert not found, "input rules stated twice: " + ", ".join(found)


def test_no_public_name_is_a_module():
    # ``from abelcheck import *`` binds the public names, not the submodules.
    modules = [name for name in abelcheck.__all__ if isinstance(getattr(abelcheck, name), ModuleType)]
    assert not modules, f"modules in abelcheck.__all__: {modules}"


def test_readme_python_blocks_run():
    # The quick tour's examples run as written, each in a fresh namespace;
    # the code keeps its README line numbers in tracebacks.
    text = README.read_text()
    blocks = list(re.finditer(r"^```python\n(.*?)^```$", text, re.S | re.M))
    assert blocks, f"no python blocks in {README}"
    for block in blocks:
        code = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
        exec(compile(code, str(README), "exec"), {})


# What the README's comments say a command prints, as a check on stdout.
README_STATED_OUTPUTS = {
    "false": lambda out: out.splitlines()[0].endswith("= false"),
    "true": lambda out: out.splitlines()[0].endswith("= true"),
    "diagonal: [2, 4]": lambda out: out.splitlines()[0] == "diagonal: [2, 4]",
    "all 8 subgroups": lambda out: sum(line.startswith("index=") for line in out.splitlines()) == 8,
}


def test_readme_cli_lines_run(capsys, monkeypatch):
    # Every ``abelcheck`` line of the sh blocks runs in-process and exits 0;
    # a line piped from ``echo`` reads the echoed text on stdin, and the
    # outputs that the comments state hold.
    text = README.read_text()
    lines = [line for block in re.findall(r"^```sh\n(.*?)^```$", text, re.S | re.M)
             for line in block.splitlines() if line.startswith(("abelcheck ", "echo "))]
    assert len(lines) >= 9, lines
    stated = set()
    for line in lines:
        words = shlex.split(line, comments=True)
        feed = ""
        if "|" in words:
            echo, words = words[:words.index("|")], words[words.index("|") + 1:]
            assert echo[0] == "echo", line
            feed = " ".join(echo[1:]) + "\n"
        assert words[0] == "abelcheck", line
        monkeypatch.setattr("sys.stdin", io.StringIO(feed))
        code = cli.main(words[1:])
        out = capsys.readouterr().out
        assert code == 0, line
        comment = line.partition(" # ")[2].strip()
        if comment in README_STATED_OUTPUTS:
            assert README_STATED_OUTPUTS[comment](out), (line, out)
            stated.add(comment)
    assert stated == set(README_STATED_OUTPUTS)
