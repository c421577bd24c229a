import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from structreg.config import (
    ConfigError,
    RunConfig,
    config_from_mapping,
    load_config,
)
from structreg.harness import (
    emit_outputs,
    load_report,
    recompute_aggregates_from_curves,
    run_monte_carlo,
)
from structreg.metrics import MetricsError, metrics, metrics_table, sort_curves


def test_metrics_zero_error_fixture():
    records = [(r, "m", "in", float(x), 1.0 + x, 1.0 + x) for r in range(3) for x in range(4)]
    row = metrics(records)[0]
    assert row.bias == 0.0 and row.variance == 0.0 and row.mse == 0.0


def test_metrics_constant_offset_fixture():
    # predictions = truth + 2 in every trial: bias 2, variance 0, mse 4
    records = [(r, "m", "in", float(x), float(x), float(x) + 2.0) for r in range(5) for x in range(3)]
    row = metrics(records)[0]
    assert row.bias == 2.0 and row.variance == 0.0 and row.mse == 4.0


def test_metrics_two_trial_fixture():
    # trials at truth+1 and truth-1: bias 1, variance 1, mse 1; and the
    # decomposition mse = variance + squared mean signed error holds
    records = []
    for x in range(4):
        records.append((0, "m", "in", float(x), 10.0, 11.0))
        records.append((1, "m", "in", float(x), 10.0, 9.0))
    row = metrics(records)[0]
    assert row.bias == 1.0 and row.variance == 1.0 and row.mse == 1.0
    signed_mean_error = 0.0
    assert row.mse == pytest.approx(row.variance + signed_mean_error**2)


def test_metrics_mismatched_trial_counts_error():
    records = [
        (0, "m", "in", 0.0, 1.0, 1.0),
        (1, "m", "in", 0.0, 1.0, 1.0),
        (0, "m", "in", 1.0, 1.0, 1.0),
    ]
    with pytest.raises(MetricsError, match="mismatched trial counts"):
        metrics(records)


def test_metrics_trial_order_independence():
    gen = np.random.default_rng(0)
    records = [
        (r, "m", d, float(x), float(gen.normal()), float(gen.normal()))
        for r in range(4)
        for d in ("in", "out")
        for x in range(5)
    ]
    shuffled = records[::-1]
    assert metrics(records) == metrics(shuffled)


def test_metrics_supports_per_trial_truth():
    records = [
        (0, "m", "in", 0.0, 1.0, 1.5),
        (1, "m", "in", 0.0, 2.0, 1.5),
    ]
    row = metrics(records)[0]
    assert row.bias == 0.5
    assert row.variance == 0.0
    assert row.mse == 0.25


BASE_CONFIG = {
    "experiment": "auction",
    "scenario": 1,
    "trials": 2,
    "base_seed": 77,
    "auction": {"M": 40},
    "lambda_grid": [0.0, 1.0, 100.0],
}


def test_config_schema_is_a_valid_schema():
    # config validation builds its validator once and does not re-check the schema
    import jsonschema

    from structreg.config import CONFIG_SCHEMA

    jsonschema.validators.validator_for(CONFIG_SCHEMA).check_schema(CONFIG_SCHEMA)


def test_config_rejects_unknown_keys():
    bad = dict(BASE_CONFIG)
    bad["bogus_key"] = 1
    with pytest.raises(ConfigError, match="bogus_key"):
        config_from_mapping(bad)
    nested = dict(BASE_CONFIG)
    nested["auction"] = {"M": 40, "squid": 1}
    with pytest.raises(ConfigError, match="squid"):
        config_from_mapping(nested)


def test_config_validates_scenario_and_estimators():
    bad = dict(BASE_CONFIG)
    bad["scenario"] = 9
    with pytest.raises(ConfigError, match="scenario"):
        config_from_mapping(bad)
    bad = dict(BASE_CONFIG)
    bad["estimators"] = ["rf"]
    with pytest.raises(ConfigError, match="estimator"):
        config_from_mapping(bad)


def test_config_reads_exponent_form_floats(tmp_path):
    # plain YAML 1.1 reads these as strings
    path = tmp_path / "run.yaml"
    path.write_text(
        "experiment: auction\nscenario: 3\ntrials: 1\nbase_seed: 0\n"
        "lambda_grid: [0, 1E4, 1.0e8, 1e12]\nauction: {overbid_sigma: 5e-1}\n"
    )
    cfg = load_config(path)
    assert cfg.lambda_grid == (0, 1e4, 1e8, 1e12)
    assert cfg.auction == {"overbid_sigma": 0.5}


def test_config_yaml_roundtrip(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(
        "experiment: demand\nscenario: 2\ntrials: 3\nbase_seed: 5\n"
        "demand:\n  M: 120\n"
    )
    config = load_config(path)
    assert config.experiment == "demand"
    assert config.demand["M"] == 120
    assert config.estimators == ("rf", "structural", "sre")


def run_config(**overrides) -> RunConfig:
    raw = dict(BASE_CONFIG)
    raw.update(overrides)
    return config_from_mapping(raw)


def test_run_monte_carlo_report_and_outputs(tmp_path):
    report = run_monte_carlo(run_config())
    assert report.trials == 2
    assert {row.domain for row in report.aggregates} == {"in", "out"}
    assert report.aggregate("structural", "out").mse == 0.0
    assert list(report.curves) == sort_curves(report.curves)

    out = tmp_path / "results"
    paths = emit_outputs(report, out)
    assert sorted(p.name for p in paths) == [
        "config.snapshot", "curves.csv", "report.json", "summary.csv",
    ]
    reloaded = load_report(out / "report.json")
    assert reloaded == report

    recomputed = {(r.estimator, r.domain): r for r in recompute_aggregates_from_curves(out / "curves.csv")}
    for row in report.aggregates:
        again = recomputed[(row.estimator, row.domain)]
        assert abs(again.bias - row.bias) <= 1e-12
        assert abs(again.variance - row.variance) <= 1e-12
        assert abs(again.mse - row.mse) <= 1e-12


def test_rerun_is_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    emit_outputs(run_monte_carlo(run_config()), a)
    emit_outputs(run_monte_carlo(run_config()), b)
    for name in ("summary.csv", "curves.csv", "config.snapshot"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("value", ["two", "0", "-1", "1.5", ""])
def test_sre_threads_must_be_a_positive_integer(monkeypatch, value):
    import structreg.harness

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(structreg.harness, "ProcessPoolExecutor", no_pool)
    monkeypatch.setenv("SRE_THREADS", value)
    with pytest.raises(ConfigError, match="SRE_THREADS must be a positive integer"):
        run_monte_carlo(run_config(trials=2))


def test_worker_pool_matches_sequential(tmp_path, monkeypatch):
    sequential = run_monte_carlo(run_config(trials=3))
    monkeypatch.setenv("SRE_THREADS", "3")
    pooled = run_monte_carlo(run_config(trials=3))
    assert pooled.curves == sequential.curves
    assert pooled.aggregates == sequential.aggregates


def _cli_env() -> dict:
    """The environment plus this checkout's package on PYTHONPATH, for CLI subprocesses."""
    import structreg

    src = os.path.dirname(os.path.dirname(structreg.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_cli_run_validate_and_list(tmp_path):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(BASE_CONFIG))
    out_dir = tmp_path / "out"
    env = _cli_env()
    base = [sys.executable, "-m", "structreg.cli"]

    proc = subprocess.run(
        base + ["validate", "--config", str(config_path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0

    proc = subprocess.run(
        base + ["run", "--config", str(config_path), "--out", str(out_dir)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out_dir / "summary.csv").exists()

    proc = subprocess.run(base + ["list-experiments"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "entry-exit" in proc.stdout

    bad = dict(BASE_CONFIG)
    bad["whatever"] = True
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    proc = subprocess.run(
        base + ["validate", "--config", str(bad_path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1
    assert "whatever" in json.loads(proc.stderr.strip())["error"]


def test_cli_flags_override_config(tmp_path):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(BASE_CONFIG))
    out_dir = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "structreg.cli", "run", "--config", str(config_path),
         "--trials", "1", "--seed", "9", "--out", str(out_dir)],
        capture_output=True, text=True, env=_cli_env(),
    )
    assert proc.returncode == 0, proc.stderr
    snapshot = json.loads((out_dir / "config.snapshot").read_text())
    assert snapshot["trials"] == 1 and snapshot["base_seed"] == 9


@pytest.mark.parametrize(
    "experiment, cv, key",
    [("auction", {"kind": "rolling"}, "kind"), ("demand", {"K": 3}, "cv")],
)
def test_cli_validate_rejects_cv_settings_no_study_reads(tmp_path, capsys, experiment, cv, key):
    from structreg.cli import main

    path = tmp_path / "run.json"
    path.write_text(json.dumps(
        {"experiment": experiment, "scenario": 1, "trials": 1, "base_seed": 0, "cv": cv}
    ))
    assert main(["validate", "--config", str(path)]) == 1
    assert key in json.loads(capsys.readouterr().err.strip())["error"]


@pytest.mark.parametrize(
    "experiment, block",
    [("entry-exit", "demand"), ("entry-exit", "auction"), ("demand", "entry_exit"),
     ("auction", "demand")],
)
def test_config_rejects_blocks_the_run_does_not_read(experiment, block):
    raw = {"experiment": experiment, "scenario": 1, "trials": 1, "base_seed": 0, block: {}}
    with pytest.raises(ConfigError, match=f"'{block}' does not apply"):
        config_from_mapping(raw)


@pytest.mark.parametrize(
    "scenario, key, value",
    [(1, "overbid_sigma", 0.3), (2, "overbid_sigma", 0.3), (1, "beta_shape", [3.0, 3.0]),
     (3, "beta_shape", [3.0, 3.0])],
)
def test_config_rejects_auction_keys_another_scenario_reads(scenario, key, value):
    raw = dict(BASE_CONFIG, scenario=scenario, auction={key: value})
    with pytest.raises(ConfigError, match=f"auction.{key}"):
        config_from_mapping(raw)


def test_auction_block_overrides_scenario_defaults():
    from structreg.harness import configured_study

    config = run_config(scenario=3, auction={"M": 30, "overbid_sigma": 0.3})
    _, (scenario,), _ = configured_study(config)
    assert (scenario.overbid_sigma, scenario.M) == (0.3, 30)
    config = run_config(scenario=2, auction={"beta_shape": [3.0, 4.0], "n_test": [31, 40]})
    _, (scenario,), _ = configured_study(config)
    assert scenario.beta_shape == (3.0, 4.0) and scenario.n_range_test == (31, 40)


def test_readme_config_example_validates(tmp_path, capsys):
    import re

    from structreg.cli import main

    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("### Config files", 1)[1]
    example = re.search(r"```yaml\n(.*?)```", section, re.S).group(1)
    path = tmp_path / "run.yaml"
    path.write_text(example)
    assert main(["validate", "--config", str(path)]) == 0, capsys.readouterr().err


@pytest.mark.parametrize(
    "experiment, block, message",
    [("entry-exit", {"entry_exit": {"t_total": 100, "t_train": 200}},
      "t_train must be smaller than t_total"),
     ("demand", {"demand": {"z_low": 5.0, "z_high": 1.0}}, "z interval is empty"),
     ("auction", {"auction": {"n_train": [30, 5]}}, "run from low to high"),
     # YAML .inf and .nan, which the schema's "number" accepts
     ("auction", {"lambda_grid": [0.0, float("inf")]},
      "invalid config value at lambda_grid.1: must be finite"),
     ("demand", {"demand": {"alpha": float("nan")}},
      "invalid config value at demand.alpha: must be finite"),
     ("entry-exit", {"entry_exit": {"mu": float("inf")}},
      "invalid config value at entry_exit.mu: must be finite"),
     ("auction", {"scenario": 3, "auction": {"overbid_sigma": -0.5}},
      "overbid_sigma must be nonnegative and finite"),
     ("auction", {"scenario": 2, "auction": {"beta_shape": [-1.0, 5.0]}},
      "beta_shape entries must be positive and finite"),
     # the fitting half of 100 auctions leaves 41 far-part rows for forward CV
     ("auction", {"cv": {"K": 45}}, "cv.K = 45 forward folds need 45 far-part rows, "
      "but auction.M = 100 leaves 41"),
     ("auction", {"auction": {"M": 8}}, "auction.M = 8 leaves 3")],
)
def test_cli_validate_rejects_what_run_rejects(tmp_path, capsys, experiment, block, message):
    import yaml

    from structreg.cli import main

    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(
        {"experiment": experiment, "scenario": 1, "trials": 1, "base_seed": 0, **block}
    ))
    assert main(["validate", "--config", str(path)]) == 1
    assert message in json.loads(capsys.readouterr().err.strip())["error"]
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert message in json.loads(capsys.readouterr().err.strip())["error"]


def _cli_outputs(config: dict, out: Path) -> dict:
    """``structreg run`` of ``config`` into ``out``; the bytes of both CSVs."""
    from structreg.cli import main

    path = out.with_suffix(".json")
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    return {name: (out / name).read_bytes() for name in ("summary.csv", "curves.csv")}


def test_partial_demand_block_starts_from_the_study_defaults(tmp_path):
    # M is the default market count, so the block changes nothing; the
    # dampened scenario must keep its dampened markup
    run = {"experiment": "demand", "scenario": 2, "trials": 1, "base_seed": 0}
    without = _cli_outputs(run, tmp_path / "without")
    assert _cli_outputs({**run, "demand": {"M": 1000}}, tmp_path / "with") == without


@pytest.mark.parametrize(
    "config",
    [{"experiment": "entry-exit", "scenario": 2, "trials": 2, "base_seed": 3,
      "entry_exit": {"n_firms": 2000}},
     {"experiment": "demand", "scenario": 4, "trials": 3, "base_seed": 3}],
    ids=["entry-exit", "demand"],
)
def test_two_worker_pool_matches_sequential_bytes(tmp_path, monkeypatch, config):
    monkeypatch.delenv("SRE_THREADS", raising=False)
    sequential = _cli_outputs(config, tmp_path / "sequential")
    monkeypatch.setenv("SRE_THREADS", "2")
    assert _cli_outputs(config, tmp_path / "pooled") == sequential


def test_failing_trial_in_worker_pool_is_named_and_writes_no_outputs(tmp_path, monkeypatch,
                                                                      capsys):
    from structreg.cli import main

    # with this noise scale, trial 2 of seed 2 draws too many nonpositive
    # quantities while trials 0 and 1 and the price grid's reference draw pass
    config = {"experiment": "demand", "scenario": 1, "trials": 3, "base_seed": 2,
              "demand": {"eps_sd": 52.0}}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    monkeypatch.setenv("SRE_THREADS", "2")
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err.strip())["error"]
    assert "trial 2 failed" in error and "nonpositive price or quantity" in error
    assert not (out / "summary.csv").exists() and not (out / "curves.csv").exists()
