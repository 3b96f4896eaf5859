"""Every name a module imports is used in it: a deletion leaves no import
behind. Package `__init__.py` files import to re-export, so they are not
scanned."""

import ast
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
