"""The public names the benchmark harness looks up on the package."""

import importlib.util
from pathlib import Path

import szquad as sq


def _layertrace():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    # `perfbench/run.py --trace 1` wraps each of these by getattr(szquad, name)
    # and replaces PhaseFunction by a subclass
    names = [attr for _, attr in _layertrace().WRAPPED] + ["PhaseFunction"]
    missing = [name for name in names if not hasattr(sq, name)]
    assert not missing
