"""Hot-path guard, with the standard library's ``ast`` only: the exact
rank-product sum must not reach BLAS.

At n above about 1e4 OpenBLAS runs a dot product on its own threads, which
spin on the CPUs the ``benchmark`` pool's workers need; the sum is exact in
any order, so numpy's own loop gives the same bits. No output test can see
a return to ``@``, only the wall clock can.
"""

import ast
from pathlib import Path

import matchbench.estimators

BLAS_CALLS = {"dot", "vdot", "inner", "matmul"}


def blas_uses(source: str, function: str) -> list[str]:
    """The ``@`` operators and BLAS-backed calls inside ``function``."""
    tree = ast.parse(source)
    (node,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function]
    found = []
    for sub in ast.walk(node):
        if isinstance(sub, (ast.BinOp, ast.AugAssign)) and isinstance(sub.op, ast.MatMult):
            found.append("@")
        elif isinstance(sub, ast.Call):
            name = getattr(sub.func, "attr", getattr(sub.func, "id", None))
            if name in BLAS_CALLS:
                found.append(name)
    return found


def test_exact_dot_stays_off_blas():
    source = Path(matchbench.estimators.__file__).read_text()
    assert blas_uses(source, "_exact_dot4") == []


def test_guard_flags_blas_calls():
    source = (
        "def _exact_dot4(a, b):\n"
        "    s = a @ b\n"
        "    s @= b\n"
        "    return np.dot(a, b) + a.dot(b) + vdot(a, b) + np.inner(a, b) + np.matmul(a, b) + np.sum(a)\n"
        "def other(a, b):\n"
        "    return a @ b\n"
    )
    assert sorted(blas_uses(source, "_exact_dot4")) == ["@", "@", "dot", "dot", "inner", "matmul", "vdot"]
