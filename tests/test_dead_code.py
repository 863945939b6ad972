"""Dead-code guard over the package sources, with the standard library's
``ast`` only: a module must load every name it imports and every private
module-level name (constant, function or class) it defines.

``__init__.py`` is left out of that check, since its imports are the public
re-exports. Those get their own: each must be loaded by the package itself,
by the benchmark harness or by the acceptance criteria, not by unit tests
alone.
"""

import ast
from pathlib import Path

import pytest

import matchbench

PACKAGE = Path(matchbench.__file__).parent
REPO = PACKAGE.parents[1]
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
CONSUMERS = SOURCES + sorted((REPO / "bench").glob("*.py")) + [REPO / "tests" / "test_acceptance.py"]


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


def re_exports(init_source: str) -> list[str]:
    tree = ast.parse(init_source)
    return [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def unreached_exports(init_source: str, consumer_sources: list[str]) -> list[str]:
    """Re-exported names that no consumer loads, as a name or an attribute."""
    loaded = set()
    for source in consumer_sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return [name for name in re_exports(init_source) if name not in loaded]


def test_every_re_export_is_reached_outside_unit_tests():
    assert all(path.exists() for path in CONSUMERS)
    init_source = (PACKAGE / "__init__.py").read_text()
    assert unreached_exports(init_source, [path.read_text() for path in CONSUMERS]) == []


def test_guard_flags_unreached_exports():
    init_source = (
        "from .estimators import (\n"
        "    cca,\n"
        "    consistency_condition,\n"
        "    counterexample_population_moments,\n"
        "    MomentSet,\n"
        ")\n"
        "from .market import simulate_market, surplus\n"
        "from .saliency import normalize_attributes, svd_decompose as decompose\n"
    )
    consumers = [
        # defining a name, or a call that only tests make, does not count as a load
        "def surplus(spec, x, y):\n    return 0.0\n"
        "def consistency_condition(spec):\n    return MomentSet\n",
        "import matchbench as mb\nresult = mb.cca(mb.simulate_market(spec, 10, 1))\ndecompose(a)\n",
    ]
    assert unreached_exports(init_source, consumers) == [
        "consistency_condition", "counterexample_population_moments", "surplus", "normalize_attributes",
    ]
