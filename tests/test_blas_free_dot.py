"""Hot-path guard, with the standard library's ``ast`` only: the exact
rank-product sum, the second moments and the kernel regression must not
reach BLAS, for two reasons.

- Oversubscription. At n above about 1e4 OpenBLAS runs a product on its
  own threads, which spin on the CPUs the ``benchmark`` pool's workers and
  the kernel regression's own workers need.
- Bits that depend on the thread count. OpenBLAS splits a product by its
  thread count, so the rounding of a float product, and with it the
  ``cca``, ``ols`` and ``mrs`` output bytes, would change from one machine
  to the next. The rank sum is exact in any order; the moments use
  ``einsum``'s own loop, and the kernel regression reduces each row with
  numpy's pairwise sum instead.

No output test can see the rank sum return to ``@``, only the wall clock
can. Moments or a kernel regression on BLAS show in their bytes only under
another thread count, which two tests in ``test_estimators.py`` set up.
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


def test_moments_stay_off_blas():
    source = Path(matchbench.estimators.__file__).read_text()
    assert blas_uses(source, "compute_moments") == []


def test_kernel_regression_stays_off_blas():
    source = Path(matchbench.estimators.__file__).read_text()
    assert blas_uses(source, "kernel_regression") == []


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
