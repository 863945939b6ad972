"""Guard, with the standard library's ``ast`` only: the JSON readers pass
values through unconverted.

``ExperimentConfig.from_json_dict`` and ``MarketSpec.from_json`` read key
sets and hand the values on; the dataclasses' ``__post_init__`` checks
each one by type. An ``int()`` or ``float()`` in a reader would let
``2.5`` or ``"2"`` through as 2 again, and no field check could see it.
"""

import ast
from pathlib import Path

import matchbench.cli
import matchbench.market

CONVERTERS = {"int", "float"}


def converter_uses(source: str, cls: str, method: str) -> list[str]:
    """Every use of ``int`` or ``float`` inside ``cls.method``, called or passed."""
    tree = ast.parse(source)
    (klass,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls]
    (node,) = [n for n in klass.body if isinstance(n, ast.FunctionDef) and n.name == method]
    return [sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name) and sub.id in CONVERTERS]


def test_config_readers_do_not_convert():
    cli = Path(matchbench.cli.__file__).read_text()
    market = Path(matchbench.market.__file__).read_text()
    assert converter_uses(cli, "ExperimentConfig", "from_json_dict") == []
    assert converter_uses(market, "MarketSpec", "from_json") == []


def test_guard_flags_calls_and_converters():
    source = (
        "class Spec:\n"
        "    def from_json(obj):\n"
        "        n = int(obj['n'])\n"
        "        read('sweep', float, None)\n"
        "        return np.asarray(obj['a'], dtype=float), obj.get('x', 0).real\n"
        "    def other(obj):\n"
        "        return int(obj)\n"
    )
    assert converter_uses(source, "Spec", "from_json") == ["int", "float", "float"]
