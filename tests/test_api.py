"""The public names the benchmark harness looks up on the package."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import szquad as sq
from szquad import rulegen

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _layertrace():
    path = PERFBENCH / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    # `perfbench/run.py --trace 1` wraps each of these by getattr(szquad, name)
    # and replaces PhaseFunction by a subclass; layer_table.py times
    # PhaseFunction and weights_second_kind on rulegen.spec_for_rule
    names = [attr for _, attr in _layertrace().WRAPPED] + ["PhaseFunction", "weights_second_kind"]
    missing = [name for name in names if not hasattr(sq, name)]
    assert not missing
    assert hasattr(rulegen, "spec_for_rule")


def test_layer_table_runs():
    out = subprocess.run([sys.executable, str(PERFBENCH / "layer_table.py")],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    # a header line and a separator, then one row per n
    rows = out.stdout.splitlines()[2:]
    assert [row.split("|")[1].strip() for row in rows] == ["64", "256", "1024"]
