"""The benchmark harness's traced layers must exist in the program it traces."""

import importlib
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_layer_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    assert layers.TARGETS
    for module_name, qualname, _ in layers.TARGETS:
        target = importlib.import_module(module_name)
        for part in qualname.split("."):
            target = getattr(target, part, None)
            assert target is not None, f"{module_name}.{qualname} is missing"
        assert callable(target), f"{module_name}.{qualname} is not callable"


def test_harness_selfcheck_passes():
    proc = subprocess.run([sys.executable, str(BENCH / "selfcheck.py")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
