"""The benchmark's generic self-tests, run as part of the suite.

``perfbench/selftest.py`` wraps and reads names of the package (for example
``tuning.fit_theta_m``), and ``perfbench/layers.py`` sums spans by name (for
example ``tuning.kfold_cv``), so a refactor that removes or renames one of
them fails here and not only when the benchmark runs, where a layer metric
would silently read 0.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_without_workloads_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py", "--workloads"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


# names in perfbench/layers.py whose code is gone; removing them from the
# benchmark is a benchmark-only change
DEAD_LAYER_NAMES = {"tuning.run_cv", "entry_exit.expected_regime_path", "demand.projection_weight"}


def _layer_names():
    """Every ``<module>.<name>`` string of perfbench/layers.py but its metric names."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import layers
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text())
    return {
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value.split(".")[0] in layers.MODULES and "." in node.value
        and node.value not in layers.PER_LAYER
    }


def test_every_name_the_benchmark_layers_read_exists():
    names = _layer_names()
    missing = set()
    for name in names:
        module, *path = name.split(".")
        obj = importlib.import_module(f"structreg.{module}")
        for attr in path:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.add(name)
    assert {"tuning.kfold_cv", "data.Dataset.subset"} <= names
    assert missing == DEAD_LAYER_NAMES
