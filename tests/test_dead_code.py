"""Dead-code guard over the package sources, with the standard library's
``ast`` only: a module must load every name it imports and every private
module-level name (constant, function or class) it defines.

``__init__.py`` is left out, since its imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

import matchbench

SOURCES = sorted(p for p in Path(matchbench.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _bound_names(tree: ast.Module) -> list[str]:
    """Names the module imports (at any depth) and the private names it
    defines at module level."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined = [node.name]
        elif isinstance(node, ast.Assign):
            defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            defined = [node.target.id]
        else:
            continue
        names += [n for n in defined if n.startswith("_") and not n.startswith("__")]
    return names


def unused_names(source: str) -> list[str]:
    tree = ast.parse(source)
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in _bound_names(tree) if name not in loaded]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_loads_every_import_and_private_name(path):
    assert unused_names(path.read_text()) == []


def test_guard_flags_dead_names():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from typing import Callable\n"
        "_SQRT2 = math.sqrt(2.0)\n"
        "_LIMIT: int = 3\n"
        "def _helper():\n"
        "    return 1\n"
        "class _Box:\n"
        "    pass\n"
        "def public():\n"
        "    return _LIMIT\n"
    )
    assert unused_names(source) == ["os", "Callable", "_SQRT2", "_helper", "_Box"]
