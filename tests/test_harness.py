import dataclasses
import errno
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from structreg.auction import AuctionScenario, auction_experiment
from structreg.config import (
    ConfigError,
    RunConfig,
    _config_loader,
    _ConfigLoader,
    config_from_mapping,
    load_config,
)
from structreg.demand import demand_experiment
from structreg.entry_exit import DdcParams, entry_exit_experiment
from structreg.harness import (
    CURVES_HEADER,
    SUMMARY_HEADER,
    MonteCarloReport,
    _run_slice,
    _write_curves,
    emit_outputs,
    load_report,
    recompute_aggregates_from_curves,
    run_monte_carlo,
)
from structreg.metrics import (
    TRIAL_BLOCK,
    AggregateRow,
    Curves,
    MetricsError,
    _run_trials,
    metrics,
    metrics_table,
    sort_curves,
)


def test_metrics_zero_error_fixture():
    records = [(r, "m", "in", float(x), 1.0 + x, 1.0 + x) for r in range(3) for x in range(4)]
    row = metrics(records)[0]
    assert row.bias == 0.0 and row.variance == 0.0 and row.mse == 0.0


def test_metrics_constant_offset_fixture():
    # predictions = truth + 2 in every trial: bias 2, variance 0, mse 4
    records = [(r, "m", "in", float(x), float(x), float(x) + 2.0) for r in range(5) for x in range(3)]
    row = metrics(records)[0]
    assert row.bias == 2.0 and row.variance == 0.0 and row.mse == 4.0


def test_metrics_equal_predictions_have_exactly_zero_variance():
    # the mean of 100 copies of 2/3 does not round back to 2/3, so a plain
    # variance of equal predictions is rounding noise (4.9e-32), not 0
    records = [(r, "m", "in", 5.0, 0.5, 2.0 / 3.0) for r in range(100)]
    assert np.var(np.full(100, 2.0 / 3.0)) > 0.0
    assert metrics(records)[0].variance == 0.0


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


def per_point_metrics(records):
    """Bias, variance and MSE of each (estimator, domain), one evaluation
    point at a time: the reference for the vectorized ``metrics``."""
    cells = {}
    for trial, estimator, domain, x, truth, prediction in records:
        cells.setdefault((estimator, domain), {}).setdefault(x, []).append((truth, prediction))
    out = []
    for key, by_x in sorted(cells.items()):
        bias, var, mse = [], [], []
        for x in sorted(by_x):
            arr = np.asarray(by_x[x], dtype=float)
            err = arr[:, 1] - arr[:, 0]
            bias.append(np.abs(err).mean())
            var.append(arr[:, 1].var(ddof=0))
            mse.append((err**2).mean())
        out.append((*key, float(np.mean(bias)), float(np.mean(var)), float(np.mean(mse)),
                    len(arr)))
    return out


@pytest.mark.parametrize("trials", [1, 2, 7, 8, 9, 127, 128, 129, 1000])
def test_metrics_match_the_per_point_reference(trials):
    # 127-129 straddle the block size of numpy's pairwise summation, 7-9 its
    # unrolled width; the records arrive shuffled, so each point's trials
    # keep the order they have in the records
    gen = np.random.default_rng(trials)
    records = [
        (r, est, dom, float(x), float(gen.normal() * 10.0 ** gen.integers(-3, 3)),
         float(gen.normal() * 10.0 ** gen.integers(-3, 3)))
        for r in range(trials)
        for est in ("sre", "statistical")
        for dom, xs in (("in", range(5, 31)), ("out", range(31, 51)))
        for x in xs
    ]
    records = [records[i] for i in gen.permutation(len(records))]
    rows = [(r.estimator, r.domain, r.bias, r.variance, r.mse, r.trials)
            for r in metrics(records)]
    assert rows == per_point_metrics(records)
    # held as arrays, each point's trials come in trial order
    assert metrics(Curves.from_records(records)) == metrics(sort_curves(records))


BASE_CONFIG = {
    "experiment": "auction",
    "scenario": 1,
    "trials": 2,
    "base_seed": 77,
    "auction": {"M": 40},
    "lambda_grid": [0.0, 1.0, 100.0],
}


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


@pytest.mark.parametrize(
    "experiment, setting, path",
    [("auction", {"auction": {"M": 40.0}}, "auction.M"),
     ("demand", {"demand": {"M": 100.0}}, "demand.M"),
     ("entry-exit", {"entry_exit": {"t_total": 160.0}}, "entry_exit.t_total"),
     ("auction", {"cv": {"K": 4.0}}, "cv.K"),
     ("auction", {"trials": 2.0}, "trials"),
     ("entry-exit", {"entry_exit": {"n_firms": 600.0}}, "entry_exit.n_firms"),
     ("auction", {"trials": True}, "trials"),
     ("auction", {"auction": {"n_train": [5.0, 30]}}, "auction.n_train.0")],
)
def test_integer_keys_take_integers_only(tmp_path, experiment, setting, path):
    # an integral float such as 40.0 would fail in the study's first trial or
    # run as a float, so it is rejected when the config is loaded
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump(
        {"experiment": experiment, "scenario": 2, "trials": 1, "base_seed": 0, **setting}))
    with pytest.raises(ConfigError,
                       match=re.escape(f"invalid config value at {path}: must be an integer")):
        load_config(config)


def test_config_rejects_repeated_estimators():
    with pytest.raises(ConfigError, match="estimators must name each estimator once"):
        run_config(estimators=["structural", "sre", "structural"])


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


def _typed(value):
    """``value`` with each scalar as (type name, repr): equal only for equal
    values of one type, NaN included."""
    if isinstance(value, dict):
        return {key: _typed(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_typed(item) for item in value]
    return type(value).__name__, repr(value)


def _suite_config_texts() -> list[str]:
    """The text of every shipped and golden config, the README example and
    the suite's inline configs, YAML and JSON."""
    root = Path(__file__).resolve().parents[1]
    paths = sorted(root.glob("perfbench/configs/*/*.yaml")) + sorted(
        root.glob("tests/golden/*/config.yaml"))
    section = (root / "README.md").read_text().split("### Config files", 1)[1]
    return [path.read_text() for path in paths] + [
        re.search(r"```yaml\n(.*?)```", section, re.S).group(1),
        "experiment: auction\nscenario: 3\ntrials: 1\nbase_seed: 0\n"
        "lambda_grid: [0, 1E4, 1.0e8, 1e12]\nauction: {overbid_sigma: 5e-1}\n",
        "experiment: demand\nscenario: 2\ntrials: 3\nbase_seed: 5\ndemand:\n  M: 120\n",
        json.dumps(BASE_CONFIG),
        yaml.safe_dump({"experiment": "auction", "scenario": 1, "trials": 1, "base_seed": 0,
                        "lambda_grid": [0.0, float("inf")], "cv": {"K": 4.0},
                        "auction": {"n_train": [5.0, 30], "overbid_sigma": True},
                        "demand": {"alpha": float("nan"), "eps_sd": -0.1}}),
        "values: [1e12, 1E5, -1e-3, .5e2, +2.5E+3, 1.0e+8, 1_000, 0x1F, 0o17, .inf, -.Inf,\n"
        "         .NaN, 1.5, 7, -0, yes, Off, ~, '1e3', 1e3x, 1e, e5, 2020-01-01]\n",
    ]


def test_both_yaml_loaders_read_every_config_alike():
    if not yaml.__with_libyaml__:
        pytest.skip("PyYAML is built without libyaml")
    assert issubclass(_ConfigLoader, yaml.CSafeLoader)
    python, libyaml = (_config_loader(base) for base in (yaml.SafeLoader, yaml.CSafeLoader))
    for text in _suite_config_texts():
        assert _typed(yaml.load(text, Loader=libyaml)) == _typed(yaml.load(text, Loader=python))
    for loader in (python, libyaml):
        values = yaml.load("[1e12, 1E5, -1e-3, .5e2, .inf]", Loader=loader)
        assert _typed(values) == _typed([1e12, 1e5, -1e-3, 50.0, float("inf")])


@pytest.mark.parametrize("base", ["SafeLoader", "CSafeLoader"])
def test_malformed_yaml_is_a_config_error(tmp_path, monkeypatch, base):
    if not hasattr(yaml, base):
        pytest.skip("PyYAML is built without libyaml")
    monkeypatch.setattr(importlib.import_module("structreg.config"), "_ConfigLoader",
                        _config_loader(getattr(yaml, base)))
    path = tmp_path / "run.yaml"
    wording = f"^cannot parse config file {re.escape(str(path))}: "
    for text in ("experiment: [auction\nscenario: 1\n", "experiment: auction: 1\n",
                 "trials: 'two\n"):
        path.write_text(text)
        with pytest.raises(ConfigError, match=wording):
            load_config(path)


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
    # the curves are written once, to curves.csv, and read back from there;
    # report.json holds every other field, in field order
    payload = json.loads((out / "report.json").read_text())
    assert list(payload) == [f.name for f in dataclasses.fields(MonteCarloReport)
                             if f.name != "curves"]
    assert list(payload["aggregates"][0]) == [f.name for f in dataclasses.fields(AggregateRow)]
    reloaded = load_report(out / "report.json")
    assert reloaded == report

    recomputed = {(r.estimator, r.domain): r for r in recompute_aggregates_from_curves(out / "curves.csv")}
    for row in report.aggregates:
        again = recomputed[(row.estimator, row.domain)]
        assert abs(again.bias - row.bias) <= 1e-12
        assert abs(again.variance - row.variance) <= 1e-12
        assert abs(again.mse - row.mse) <= 1e-12


def test_load_report_names_the_missing_curves_file(tmp_path):
    emit_outputs(run_monte_carlo(run_config(trials=1)), tmp_path)
    (tmp_path / "curves.csv").unlink()
    with pytest.raises(FileNotFoundError, match="curves.csv"):
        load_report(tmp_path / "report.json")


def test_emit_outputs_removes_a_file_whose_write_fails_halfway(tmp_path, monkeypatch):
    report = run_monte_carlo(run_config(trials=1))
    write_text = Path.write_text

    def disk_full_in_curves(path, text, *args, **kwargs):
        if path.name != "curves.csv":
            return write_text(path, text, *args, **kwargs)
        write_text(path, text[: len(text) // 2], *args, **kwargs)
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Path, "write_text", disk_full_in_curves)
    with pytest.raises(OSError, match="No space left on device"):
        emit_outputs(report, tmp_path)
    assert list(tmp_path.iterdir()) == []


def per_record_curves(records) -> str:
    """One f-string and three ``.17g`` format calls per record: the reference
    for the block-wise ``%`` formatting of ``_write_curves``."""
    g17 = lambda value: format(float(value), ".17g")  # noqa: E731
    lines = [CURVES_HEADER]
    for trial, estimator, domain, x, truth, prediction in records:
        lines.append(f"{trial},{estimator},{domain},{g17(x)},{g17(truth)},{g17(prediction)}")
    return "\n".join(lines) + "\n"


def test_write_curves_matches_the_per_record_reference(tmp_path):
    # a rectangular Curves: every trial at every point of each (estimator,
    # domain). The points are listed in x order (NaN last), so the records in
    # canonical order are the listed values; -0.0 and 0.0, which sort equal,
    # are points of different domains
    gen = np.random.default_rng(41)
    points = {
        "in": [-float("inf"), -1.7976931348623157e308, np.int64(-4), -2.2250738585072e-309,
               -0.0, 5e-324, 0.1, 1 / 3, 7, 12.0, 2.0**53 + 1, 1e16, 1e308, float("inf"),
               float("nan")],
        "out": [-1e308, 0.0, np.float64(0.3), 2.0**53, 1e300],
    }
    edge = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, -2.2250738585072e-309,
            1e308, -1.7976931348623157e308, 0.1, 1 / 3, 1e16, 2.0**53 + 1, 12.0, 7,
            np.float64(0.3), np.int64(-4)]
    trials = [0, np.int64(3), 4, np.int64(11)]

    def values(shape):
        drawn = gen.standard_normal(shape) * 10.0 ** gen.integers(-300, 300, shape)
        picked = gen.random(shape) < 0.3
        drawn[picked] = gen.choice(np.array(edge, dtype=float), picked.sum())
        return drawn

    blocks = {}
    for estimator, domain in (("sre", "in"), ("sre", "out"), ("structural", "in"),
                              ("s%re", "out")):
        n = len(points[domain])
        # one truth row for every trial (auction, demand) or a row per trial (entry/exit)
        truth = (np.tile(values(n), (len(trials), 1)) if estimator == "sre"
                 else values((len(trials), n)))
        blocks[estimator, domain] = (points[domain], truth, values((len(trials), n)))
    curves = Curves(trials, blocks)
    records = [(trial, estimator, domain, x, truth[t][p], prediction[t][p])
               for t, trial in enumerate(trials)
               for (estimator, domain), (xs, truth, prediction) in sorted(blocks.items())
               for p, x in enumerate(xs)]
    report = MonteCarloReport("demand", 1, len(trials), 0, ("sre", "structural"), (), curves, {})
    _write_curves(report, tmp_path / "curves.csv")
    assert (tmp_path / "curves.csv").read_text() == per_record_curves(records)
    assert per_record_curves(curves) == per_record_curves(records)


def old_metrics(records) -> list[AggregateRow]:
    """The per-record aggregation: records grouped per (estimator, domain) in
    a dict, each group stable-sorted by x and reduced over points × trials."""
    groups = {}
    for trial, estimator, domain, x, truth, prediction in records:
        groups.setdefault((estimator, domain), []).append((x, truth, prediction))
    rows = []
    for (estimator, domain), cells in sorted(groups.items()):
        arr = np.asarray(cells, dtype=float)
        x, truth, pred = arr[np.argsort(arr[:, 0], kind="stable")].T.copy()
        n_trials = int(np.unique(np.unique(x, return_counts=True)[1])[0])
        truth, pred = truth.reshape(-1, n_trials), pred.reshape(-1, n_trials)
        err = pred - truth
        rows.append(AggregateRow(
            estimator, domain, float(np.mean(np.abs(err).mean(axis=1))),
            float(np.mean(np.where((pred == pred[:, :1]).all(axis=1), 0.0,
                                   pred.var(axis=1, ddof=0)))),
            float(np.mean((err**2).mean(axis=1))), n_trials))
    return rows


@pytest.mark.parametrize(
    "config, workers",
    [({"experiment": "auction", "scenario": 2, "trials": 3, "base_seed": 4,
       "auction": {"M": 40}}, 1),
     ({"experiment": "entry-exit", "scenario": 2, "trials": 2, "base_seed": 4,
       "entry_exit": {"n_firms": 2000}}, 1),
     ({"experiment": "demand", "scenario": 4, "trials": TRIAL_BLOCK * 2 + 3, "base_seed": 4,
       "demand": {"M": 200}}, 1),
     ({"experiment": "auction", "scenario": 1, "trials": 5, "base_seed": 6,
       "auction": {"M": 40}}, 2)],
    ids=["auction", "entry-exit", "demand-blocks", "auction-pooled"],
)
def test_outputs_match_the_per_record_oracle(tmp_path, monkeypatch, config, workers):
    # the per-record formulation the columnar curves replaced: the records
    # sorted as tuples, one "%" per record, and the dict-grouping aggregation
    config = config_from_mapping(config)
    monkeypatch.setenv("SRE_THREADS", str(workers))
    emit_outputs(run_monte_carlo(config), tmp_path)
    curves, _ = _run_slice(config, tuple(range(config.trials)))
    records = sorted(list(curves)[::-1], key=lambda r: (r[0], r[1], r[2], r[3]))
    if config.experiment == "entry-exit":
        first = [r for r in records if r[0] == 0]
        second = [r for r in records if r[0] == 1]
        assert [r[4] for r in first] != [r[4] for r in second]  # truth varies by trial
    summary = SUMMARY_HEADER + "\n" + "".join(
        "%s,%s,%s,%s,%.17g,%.17g,%.17g,%s,%s\n" % (
            config.experiment, config.scenario, row.estimator, row.domain, row.bias,
            row.variance, row.mse, row.trials, config.base_seed) for row in old_metrics(records))
    lines = CURVES_HEADER + "\n" + "".join(
        "%d,%s,%s,%.17g,%.17g,%.17g\n" % record for record in records)
    assert (tmp_path / "summary.csv").read_text() == summary
    assert (tmp_path / "curves.csv").read_text() == lines


def test_curves_are_a_sequence_of_records():
    curves = Curves([2, 5], {("m", "in"): ([3.0, 1.0], [[30.0, 10.0], [31.0, 11.0]],
                                           [[0.3, 0.1], [0.4, 0.2]]),
                             ("a", "out"): ([9], [[9.0], [9.0]], [[1.0], [2.0]])})
    expected = [(2, "a", "out", 9.0, 9.0, 1.0), (2, "m", "in", 1.0, 10.0, 0.1),
                (2, "m", "in", 3.0, 30.0, 0.3), (5, "a", "out", 9.0, 9.0, 2.0),
                (5, "m", "in", 1.0, 11.0, 0.2), (5, "m", "in", 3.0, 31.0, 0.4)]
    assert list(curves) == expected and len(curves) == 6
    assert all(type(value) is float for record in curves for value in record[3:])
    assert [curves[i] for i in range(-6, 6)] == expected * 2
    assert curves[1:3] == tuple(expected[1:3])
    with pytest.raises(IndexError):
        curves[6]
    assert curves == tuple(expected) and curves != expected[:-1]
    assert Curves.from_records(expected[::-1]) == curves
    assert Curves.join([Curves.from_records(expected[:3]),
                        Curves.from_records(expected[3:])]) == curves
    assert metrics(curves) == metrics(expected)
    with pytest.raises(MetricsError, match="repeats an evaluation point"):
        Curves([0], {("m", "in"): ([1.0, 1.0], [[0.0, 0.0]], [[0.0, 0.0]])})
    with pytest.raises(MetricsError, match="holds 1 of the 2 trials"):
        Curves.from_records(expected[1:3] + [(5, "a", "out", 9.0, 9.0, 2.0)])


def test_a_trial_whose_output_does_not_fit_its_points_is_named():
    def setup(rng):
        def block(rngs):
            return [({"in": [0.0, 1.0, 2.0]},
                     {"m": {"in": [0.0, 1.0] if r.stream_index == 3 else [0.0, 1.0, 2.0]}})
                    for r in rngs]
        return {"in": [1.0, 2.0, 3.0]}, block, {}

    curves, _ = _run_trials(3, None, None, setup)
    assert curves.trials == (0, 1, 2) and len(curves) == 9
    for indices in (None, range(2, 6), (3,)):
        with pytest.raises(RuntimeError, match=r"^trial 3 failed: 2 values for 3 evaluation "
                                               r"points$"):
            _run_trials(6, None, indices, setup)


def test_rerun_is_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    emit_outputs(run_monte_carlo(run_config()), a)
    emit_outputs(run_monte_carlo(run_config()), b)
    for name in ("summary.csv", "curves.csv", "config.snapshot"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("value", ["two", "0", "-1", "1.5", ""])
def test_sre_threads_must_be_a_positive_integer(monkeypatch, value):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    # run_monte_carlo imports the pool class from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
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


def test_cli_import_does_not_load_scipy_stats():
    # a fresh interpreter: this one may have imported scipy.stats for other tests
    code = "import sys, structreg.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_cli_env(), check=True)
    assert proc.stdout.strip() == "False"


def test_declared_dependencies_are_the_imported_ones():
    # every non-stdlib import of the package, function-level ones included, is a
    # dependency in pyproject.toml, and every dependency is imported
    import ast

    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    imported = set()
    for path in (root / "src" / "structreg").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    distributions = {{"yaml": "pyyaml"}.get(name, name)
                     for name in imported - sys.stdlib_module_names}
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower()
                for dep in project["dependencies"]}
    assert distributions == declared


_LAZY_IMPORT_PROBE = """
import contextlib, io, json, sys
from pathlib import Path
from structreg.cli import main

golden, out = Path(sys.argv[1]), Path(sys.argv[2])
def run(case):
    return main(["run", "--config", str(golden / case / "config.yaml"), "--out", str(out / case)])
# an overbidding auction: its truth is a Monte Carlo table, no scipy function
overbid = out / "auction-3.json"
overbid.write_text(json.dumps({"experiment": "auction", "scenario": 3, "trials": 2,
                               "base_seed": 0, "auction": {"M": 40}}))
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["validate", "--config", str(path)])
             for path in sorted(golden.glob("*/config.yaml"))]
    codes += [run(case) for case in
              ("auction-1", "demand-4", "entry-exit-2", "entry-exit-1-all-keys")]
    codes.append(main(["run", "--config", str(overbid), "--out", str(out / "auction-3")]))
    loaded = sorted(name for name in sys.modules
                    if name == "scipy" or name.startswith("scipy.")
                    or name == "concurrent.futures.process")
    codes.append(run("auction-2-all-keys"))
beta_loaded = sorted(name for name in ("scipy.special", "scipy.integrate") if name in sys.modules)
schema_loaded = sorted(name for name in sys.modules if name.partition(".")[0]
                       in ("jsonschema", "referencing", "attrs", "rpds"))
print(json.dumps({"codes": codes, "loaded": loaded, "beta_loaded": beta_loaded,
                  "schema_loaded": schema_loaded}))
"""


def test_studies_without_beta_values_never_import_scipy(tmp_path):
    # scipy and the worker pool are imported where a run first computes with
    # them; a fresh interpreter, since this one has imported scipy for other tests
    golden = Path(__file__).parent / "golden"
    env = _cli_env()
    env.pop("SRE_THREADS", None)
    proc = subprocess.run([sys.executable, "-c", _LAZY_IMPORT_PROBE, str(golden), str(tmp_path)],
                          capture_output=True, text=True, env=env, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0] * 12
    assert result["loaded"] == []
    # the first beta-value run imports scipy.special on first use, and not
    # scipy.integrate, which only the reference equilibrium_bid needs; it
    # reproduces its golden files
    assert result["beta_loaded"] == ["scipy.special"]
    # config checking needs no schema library
    assert result["schema_loaded"] == []
    for name in ("summary.csv", "curves.csv"):
        assert ((tmp_path / "auction-2-all-keys" / name).read_bytes()
                == (golden / "auction-2-all-keys" / name).read_bytes())


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
     # YAML .inf and .nan, which load as floats
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
     ("auction", {"auction": {"M": 8}}, "auction.M = 8 leaves 3"),
     # ARX orders need 8 training periods, and scoring starts at period 11
     ("entry-exit", {"entry_exit": {"t_train": 7}},
      "entry_exit.t_train = 7 ends training before period 11"),
     ("entry-exit", {"entry_exit": {"t_train": 10}},
      "entry_exit.t_train = 10 ends training before period 11"),
     # the fitting half of 15 markets is 7, so a 5-fold training part has 5
     ("demand", {"demand": {"M": 15}}, "demand.M = 15 leaves 5 markets"),
     ("demand", {"demand": {"M": 14}}, "demand.M = 14 leaves 5 markets"),
     # without sre the structural estimator still needs its three coefficients identified
     ("demand", {"estimators": ["rf", "structural"], "demand": {"M": 3}},
      "demand.M = 3 is fewer than the 4 markets the structural estimator needs"),
     # one market leaves the 2SLS line underdetermined, two make it interpolate
     ("demand", {"estimators": ["rf"], "demand": {"M": 1}},
      "demand.M = 1 is fewer than the 3 markets the reduced-form 2SLS needs"),
     ("demand", {"estimators": ["rf"], "demand": {"M": 2}},
      "demand.M = 2 is fewer than the 3 markets the reduced-form 2SLS needs"),
     # the bounds of a block's keys, checked by the study's parameter classes
     ("auction", {"auction": {"M": 0}}, "invalid auction settings: M must be >= 1"),
     ("entry-exit", {"entry_exit": {"entry_cost": -0.1}}, "entry_cost must be nonnegative"),
     ("entry-exit", {"entry_exit": {"discount": -0.1}}, "discount must lie in [0, 1)"),
     ("entry-exit", {"entry_exit": {"discount": 1.0}}, "discount must lie in [0, 1)"),
     ("entry-exit", {"entry_exit": {"n_firms": 1}}, "n_firms must be >= 2"),
     ("entry-exit", {"entry_exit": {"t_total": 1}}, "t_train must be smaller than t_total"),
     ("entry-exit", {"entry_exit": {"t_train": 0}},
      "entry_exit.t_train = 0 ends training before period 11"),
     ("entry-exit", {"entry_exit": {"ar_coef": -1.0}}, "ar_coef must lie in (-1, 1)"),
     ("entry-exit", {"entry_exit": {"ar_coef": 1.0}}, "ar_coef must lie in (-1, 1)"),
     ("entry-exit", {"entry_exit": {"innovation_sd": -0.1}}, "innovation_sd must be nonnegative"),
     ("demand", {"demand": {"beta": 0.0}}, "beta must be positive"),
     # the dampened-pricing scenario 2 reads lambda_markup
     ("demand", {"scenario": 2, "demand": {"lambda_markup": 0.0}},
      "lambda_markup must lie in (0, 1]"),
     ("demand", {"scenario": 2, "demand": {"lambda_markup": 1.5}},
      "lambda_markup must lie in (0, 1]"),
     ("demand", {"demand": {"eps_sd": -0.1}}, "eps_sd must be nonnegative"),
     ("demand", {"demand": {"M": 0}}, "invalid demand settings: M must be >= 1"),
     # the statistical estimator's AIC search needs a degree-1 fit: four
     # auctions and two distinct bidder counts
     ("auction", {"estimators": ["statistical"], "auction": {"M": 3}},
      "auction.M = 3 auctions over auction.n_train = [5, 30] fit no polynomial"),
     # the optimal-pricing scenario 1 fixes the markup at 1
     ("demand", {"demand": {"lambda_markup": 0.7}},
      "config key 'demand.lambda_markup' applies only to demand scenario 2 or 4"),
     ("auction", {"auction": {"n_train": [5, 5]}},
      "auction.M = 100 auctions over auction.n_train = [5, 5] fit no polynomial; the "
      "statistical estimator needs at least 4 auctions and 2 bidder counts"),
     ("demand", {"demand": {"z_low": 10.0, "z_high": 10.0}},
      "demand.z_low = demand.z_high = 10.0 leaves the cost shifter"),
     ("auction", {"auction": {"n_train": [1, 30]}},
      "invalid auction settings: n_train = [1, 30]: bidder counts must be >= 2"),
     ("auction", {"auction": {"n_test": [1, 2]}},
      "invalid auction settings: n_test = [1, 2]: bidder counts must be >= 2"),
     # without a demand shock the pricing regression's columns (1, z, q) are collinear
     ("demand", {"demand": {"eps_sd": 0.0}},
      "invalid demand settings: demand.eps_sd = 0 makes the pricing regression singular at "
      "every seed, and the structural and sre estimators need it; only rf runs without a "
      "demand shock"),
     ("demand", {"scenario": 2, "estimators": ["structural"], "demand": {"eps_sd": 0.0}},
      "singular at every seed, and the structural estimator needs it"),
     ("demand", {"estimators": ["rf", "sre"], "demand": {"eps_sd": 0.0}},
      "singular at every seed, and the sre estimator needs it")],
)
def test_cli_validate_rejects_what_run_rejects(tmp_path, capsys, experiment, block, message):
    import yaml

    from structreg.cli import main

    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(
        {"experiment": experiment, "scenario": 1, "trials": 1, "base_seed": 0, **block}
    ))
    assert main(["validate", "--config", str(path)]) == 1
    rejected = capsys.readouterr().err
    assert message in json.loads(rejected.strip())["error"]
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == rejected  # run words it as validate does


@pytest.mark.parametrize(
    "experiment, block",
    [("entry-exit", {"entry_exit": {"t_train": 11, "t_total": 60}}),
     ("demand", {"demand": {"M": 16}}),
     ("demand", {"estimators": ["rf"], "demand": {"M": 3}}),
     # the AIC degree search stops at what the drawn sample identifies
     ("auction", {"estimators": ["statistical"], "auction": {"M": 6}}),
     ("auction", {"estimators": ["statistical"], "auction": {"M": 7}}),
     ("auction", {"estimators": ["statistical"], "auction": {"n_train": [5, 9]}}),
     ("demand", {"estimators": ["rf"], "demand": {"eps_sd": 0.0}})],
    ids=["t_train-11", "M-16", "rf-M-3", "statistical-M-6", "statistical-M-7",
         "statistical-n_train-5-9", "rf-eps_sd-0"],
)
def test_cli_runs_the_smallest_sizes_validate_accepts(tmp_path, capsys, experiment, block):
    import yaml

    from structreg.cli import main

    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(
        {"experiment": experiment, "scenario": 2, "trials": 1, "base_seed": 0, **block}
    ))
    assert main(["validate", "--config", str(path)]) == 0
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert ",in," in (tmp_path / "out" / "curves.csv").read_text()


@pytest.mark.parametrize("base_seed", [1, 2, 3])
def test_statistical_auction_runs_samples_of_few_distinct_bidder_counts(tmp_path, capsys,
                                                                        base_seed):
    # 8 auctions draw fewer than six distinct bidder counts in some trial of
    # each of these seeds, which a degree-5 search could not fit
    from structreg.cli import main

    path = tmp_path / "run.json"
    path.write_text(json.dumps({"experiment": "auction", "scenario": 1, "trials": 20,
                                "base_seed": base_seed, "estimators": ["statistical"],
                                "auction": {"M": 8}}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "curves.csv").read_text().count(",in,") == 20 * 26


def test_thin_entry_exit_panel_names_the_degenerate_structural_estimate(
        tmp_path, capsys, monkeypatch):
    # the half-panel's CCP-Euler estimate is degenerate: its synthetic panels
    # never leave the empty state, so the benchmark projection is singular,
    # and the error names the estimate before any fold is built
    from structreg.cli import main
    from structreg.tuning import RidgeFold

    def no_fold(*args):
        raise AssertionError("a fold was built from a singular projection")

    monkeypatch.setattr(RidgeFold, "of_samples", classmethod(no_fold))

    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "experiment": "entry-exit", "scenario": 2, "trials": 1, "base_seed": 0,
        "entry_exit": {"t_train": 20, "t_total": 100, "n_firms": 2000}}))
    assert main(["validate", "--config", str(path)]) == 0
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    error = json.loads(capsys.readouterr().err.strip())["error"]
    assert "trial 0 failed: singular feature Gram matrix" in error
    assert re.search(r"degenerate CCP-Euler estimate mu=\S+, alpha=\S+, entry_cost=\S+", error)


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
    "config, workers",
    [({"experiment": "auction", "scenario": 2, "trials": 3, "base_seed": 3, "auction": {"M": 40}},
      2),
     ({"experiment": "entry-exit", "scenario": 2, "trials": 2, "base_seed": 3,
       "entry_exit": {"n_firms": 2000}}, 2),
     ({"experiment": "demand", "scenario": 4, "trials": 3, "base_seed": 3}, 2),
     # more trials than a block, and not a multiple of it: the sequential run
     # and each worker's slice meet block boundaries at different trials
     ({"experiment": "auction", "scenario": 2, "trials": TRIAL_BLOCK * 3 + 4, "base_seed": 3,
       "auction": {"M": 40}}, 3),
     ({"experiment": "auction", "scenario": 1, "trials": TRIAL_BLOCK * 2 + 6, "base_seed": 5,
       "auction": {"M": 60}, "cv": {"K": 4}, "lambda_grid": [0.0, 0.1, 1.0, 10.0]}, 3),
     ({"experiment": "demand", "scenario": 3, "trials": TRIAL_BLOCK * 2 + 3, "base_seed": 7,
       "demand": {"M": 200}}, 3)],
    ids=["auction", "entry-exit", "demand", "auction-blocks", "auction-blocks-zero-lambda",
         "demand-blocks"],
)
def test_two_worker_pool_matches_sequential_bytes(tmp_path, monkeypatch, config, workers):
    monkeypatch.delenv("SRE_THREADS", raising=False)
    sequential = _cli_outputs(config, tmp_path / "sequential")
    monkeypatch.setenv("SRE_THREADS", str(workers))
    assert _cli_outputs(config, tmp_path / "pooled") == sequential
    # the reloaded reports differ only in their timings
    pooled, alone = (dataclasses.replace(load_report(tmp_path / side / "report.json"), metadata={})
                     for side in ("pooled", "sequential"))
    assert pooled == alone


def test_large_demand_blocks_give_the_same_bytes_at_one_and_two_blas_threads(tmp_path):
    # OpenBLAS splits a call of about 1,800 rows or more between its threads,
    # and some rows then round differently. 5,000 markets leave 2,500-row
    # fitting halves; two blocks of trials, each stacked, must give the bytes
    # of one BLAS thread at two. Fresh interpreters, since BLAS reads its
    # thread count at load.
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"experiment": "demand", "scenario": 4,
                                  "trials": TRIAL_BLOCK + 2, "base_seed": 1,
                                  "demand": {"M": 5000}}))
    outputs = []
    for threads in ("1", "2"):
        env = _cli_env()
        env.pop("SRE_THREADS", None)
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        out = tmp_path / f"threads-{threads}"
        subprocess.run([sys.executable, "-m", "structreg.cli", "run", "--config", str(config),
                        "--out", str(out)], env=env, capture_output=True, check=True)
        outputs.append({name: (out / name).read_bytes()
                        for name in ("summary.csv", "curves.csv")})
    assert outputs[0] == outputs[1]


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


@pytest.mark.parametrize(
    "experiment, args",
    [(auction_experiment, (AuctionScenario.from_index(1),)),
     (entry_exit_experiment, ("adaptive", DdcParams())),
     (demand_experiment, (1,))],
    ids=["auction", "entry-exit", "demand"],
)
def test_every_experiment_needs_at_least_one_trial(experiment, args):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        experiment(*args, trials=0)


def test_entry_exit_experiment_rejects_an_unknown_regime():
    with pytest.raises(ValueError, match="unknown regime: rational"):
        entry_exit_experiment("rational", DdcParams(), trials=1)
