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


def _perfbench_modules():
    """perfbench/tracer.py and perfbench/layers.py, imported read-only."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import layers
        import tracer
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return tracer, layers


def _layer_names():
    """Every ``<module>.<name>`` string of perfbench/layers.py but its metric names."""
    _, layers = _perfbench_modules()
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


def test_benchmark_tracer_sees_every_trial(monkeypatch):
    # the layers count a trial per simulate call directly under a
    # ``*_experiment`` span, so a public function between the two (a trial
    # driver, say) would hide every trial and stall a traced benchmark run
    from structreg import harness
    from structreg.config import config_from_mapping

    tracer, layers = _perfbench_modules()
    configs = {
        "auction": {"experiment": "auction", "scenario": 1, "auction": {"M": 40}},
        "entry-exit": {"experiment": "entry-exit", "scenario": 2,
                       "entry_exit": {"n_firms": 400}},
        "demand": {"experiment": "demand", "scenario": 1, "demand": {"M": 100}},
    }
    monkeypatch.delenv("SRE_THREADS", raising=False)
    spans = {}
    recorder = tracer.Tracer()
    patch = tracer.install(recorder, "structreg")
    try:
        for name, config in configs.items():
            harness.run_monte_carlo(config_from_mapping({**config, "trials": 2, "base_seed": 1}))
            spans[name] = recorder.take()
    finally:
        patch.restore()
    assert tracer.leftover_wrappers("structreg") == []
    for name, study_spans in spans.items():
        assert len(layers.SpanView(study_spans).trial_durations_s()) == 2, name
    # the stages the blocks run are the public functions the layers name
    measured_layers = {
        "auction": ["auction.simulate_s", "estimators.baseline_s"],
        "entry-exit": ["entry_exit.simulate_s", "entry_exit.regime_s"],
        "demand": ["demand.simulate_s", "estimators.baseline_s", "demand.sre_s"],
    }
    for name, metric_names in measured_layers.items():
        values = layers.pass_metrics(spans[name], trials=2)
        assert all(values[metric] > 0 for metric in metric_names), (name, values)
    demand_names = {span[0] for span in spans["demand"]}
    assert {"demand.rf_demand", "demand.structural_estimate_demand"} <= demand_names
