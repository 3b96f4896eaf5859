"""Every name a module imports is used in it, and every private name a
module defines is used in the package: a deletion leaves no import and no
helper behind. Package `__init__.py` files import to re-export, so their
imports are not scanned."""

import ast
import re
from pathlib import Path

import pytest

import valencelab

SRC = Path(valencelab.__file__).parent
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict:
    """Each name an import binds, with the line that binds it."""
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
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation


def _used(tree: ast.Module) -> set:
    """Names read anywhere, also inside string annotations."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used(ast.parse(node.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_the_scan_sees_a_leftover_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import ClassVar\n"
        "from .errors import NotFoundError, PipelineError as Failure\n"
        "def f(x: 'ClassVar[int]') -> None:\n"
        "    raise Failure(os.sep)\n")
    assert {name for name in _imported(tree) if name not in _used(tree)} \
        == {"NotFoundError"}


def _private_definitions(tree: ast.Module) -> dict:
    """Each module-level `_name` a def, class or assignment binds, with its
    line; dunder names are Python's, not the module's."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            bound = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        names.update((name, node.lineno) for name in bound
                     if name.startswith("_") and not name.startswith("__"))
    return names


def _references(tree: ast.Module) -> set:
    """Names read, attributes and words inside strings: every way code can
    reach a module-level name, other than the statement that binds it."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.update(re.findall(r"\w+", node.value))
    return refs


def test_every_private_name_is_used():
    trees = {p: ast.parse(p.read_text(), filename=str(p))
             for p in SRC.rglob("*.py")}
    used = set().union(*map(_references, trees.values()))
    dead = {f"{path.relative_to(SRC)}:{line} {name}"
            for path, tree in trees.items()
            for name, line in _private_definitions(tree).items()
            if name not in used}
    assert not dead, f"private names nothing uses: {sorted(dead)}"


def test_the_scan_sees_a_dead_private_helper():
    tree = ast.parse(
        "_LIMIT, __version__ = 3, '1'\n"
        "_cache: dict = {}\n"
        "def _used(x): return x\n"
        "def _dead(): return _used(_LIMIT)\n"
        "class _Named: pass\n"
        "def public(): return getattr(_cache, 'get'), '_Named'\n")
    assert set(_private_definitions(tree)) == {
        "_LIMIT", "_cache", "_used", "_dead", "_Named"}
    assert {name for name in _private_definitions(tree)
            if name not in _references(tree)} == {"_dead"}
