"""Monte Carlo orchestration, report assembly, and result persistence.

A run is fully determined by its config and seed (the per-trial contract is
that of the trial driver, :func:`structreg.metrics._run_trials`: a trial's
curves depend on its own rng stream alone, whichever worker's slice and
whichever block of ``TRIAL_BLOCK`` trials it runs in), so the emitted
``summary.csv`` / ``curves.csv`` are byte-identical across reruns and worker
counts.
Timestamps and wall time live only in ``report.json`` metadata. The
``SRE_THREADS`` environment variable caps worker processes (default 1,
sequential).
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .auction import FORWARD_K, AuctionScenario, auction_experiment
from .config import ConfigError, RunConfig
from .data import SeededRng, forward_far_rows
from .demand import (
    CV_FOLDS,
    INSTRUMENT_POWERS,
    RF_MIN_MARKETS,
    STRUCTURAL_MIN_MARKETS,
    DemandParams,
    demand_experiment,
)
from .entry_exit import PREDICTION_START, REGIMES, DdcParams, RPathSpec, entry_exit_experiment
from .metrics import AggregateRow, Curves, metrics
from .tuning import FORWARD_FRACTION

SUMMARY_HEADER = "experiment,scenario,estimator,domain,bias,variance,mse,trials,seed"
CURVES_HEADER = "trial,estimator,domain,x,truth,prediction"


@dataclass(frozen=True)
class MonteCarloReport:
    """Everything a run produced: aggregates, raw curves, and provenance."""

    experiment: str
    scenario: int
    trials: int
    base_seed: int
    estimators: tuple[str, ...]
    aggregates: tuple[AggregateRow, ...]
    curves: Curves
    config_snapshot: dict
    software_version: str = __version__
    metadata: dict = field(default_factory=dict)

    def aggregate(self, estimator: str, domain: str) -> AggregateRow:
        for row in self.aggregates:
            if row.estimator == estimator and row.domain == domain:
                return row
        raise KeyError((estimator, domain))


# auction config keys that differ from the AuctionScenario field they set
_AUCTION_RENAMES = {"n_train": "n_range_train", "n_test": "n_range_test"}


def _from_block(cls, block: dict):
    """``cls`` built from the keys of a config block that name its fields."""
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{key: value for key, value in block.items() if key in names})


def configured_study(config: RunConfig):
    """The configured experiment as ``(function, args, kwargs)``.

    Each study block maps onto the study's parameter dataclasses by their own
    field names, so building them runs every check the study makes of its
    parameters; ``structreg validate`` calls this too, and a failed check is
    a :class:`ConfigError`.
    """
    try:
        if config.experiment == "auction":
            overrides = {_AUCTION_RENAMES.get(k, k): tuple(v) if isinstance(v, list) else v
                         for k, v in config.auction.items()}
            scenario = AuctionScenario.from_index(config.scenario, **overrides)
            lo, hi = scenario.n_range_train
            if "statistical" in config.estimators and (scenario.M < 4 or lo == hi):
                # a degree-1 fit of the AIC search needs four rows and two distinct counts
                raise ValueError(f"auction.M = {scenario.M} auctions over auction.n_train = "
                                 f"[{lo}, {hi}] fit no polynomial; the statistical estimator "
                                 f"needs at least 4 auctions and 2 bidder counts")
            K = config.cv.get("K", FORWARD_K)
            # the fold is built on the second half of the sample, M // 2 rows
            far = forward_far_rows(scenario.M // 2, FORWARD_FRACTION)
            if "sre" in config.estimators and far < K:
                raise ValueError(f"cv.K = {K} forward folds need {K} far-part rows, but "
                                 f"auction.M = {scenario.M} leaves {far} in the fitting half")
            return auction_experiment, (scenario,), {"forward_K": K}
        if config.experiment == "entry-exit":
            params, rpath = (_from_block(cls, config.entry_exit) for cls in (DdcParams, RPathSpec))
            if params.t_train < PREDICTION_START:
                raise ValueError(f"entry_exit.t_train = {params.t_train} ends training before "
                                 f"period {PREDICTION_START}, the first one scored")
            if "sre" in config.estimators and params.n_firms < 4:
                # a lone firm leaves one state empty in every period, so its
                # half-panel's CCP-Euler fit has no usable period
                raise ValueError(f"entry_exit.n_firms = {params.n_firms} leaves one firm in each "
                                 f"half-panel; the sre estimator needs at least 4 firms")
            return entry_exit_experiment, (REGIMES[config.scenario - 1], params), {"rpath": rpath}
        params = _from_block(DemandParams, config.demand)
        if params.z_low == params.z_high:
            raise ValueError(f"demand.z_low = demand.z_high = {params.z_low} leaves the cost "
                             f"shifter, every estimator's instrument, constant")
        pricing = [name for name in ("structural", "sre") if name in config.estimators]
        if pricing and params.eps_sd == 0.0:
            # without a demand shock the price is affine in the shifter and the
            # quantity affine in the price: the regression columns (1, z, q) are collinear
            need = "estimator needs" if len(pricing) == 1 else "estimators need"
            raise ValueError(f"demand.eps_sd = 0 makes the pricing regression singular at "
                             f"every seed, and the {' and '.join(pricing)} {need} it; only "
                             f"rf runs without a demand shock")
        if "structural" in config.estimators and params.M < STRUCTURAL_MIN_MARKETS:
            raise ValueError(f"demand.M = {params.M} is fewer than the "
                             f"{STRUCTURAL_MIN_MARKETS} markets the structural estimator needs")
        if "rf" in config.estimators and params.M < RF_MIN_MARKETS:
            raise ValueError(f"demand.M = {params.M} is fewer than the {RF_MIN_MARKETS} "
                             f"markets the reduced-form 2SLS needs")
        # the fit is on the second half of the markets; each training part
        # of its K-fold CV needs a nonsingular instrument block
        half = params.M // 2
        train = half - math.ceil(half / CV_FOLDS)
        if "sre" in config.estimators and train <= INSTRUMENT_POWERS:
            raise ValueError(f"demand.M = {params.M} leaves {train} markets in a training part "
                             f"of the {CV_FOLDS}-fold CV, fewer than the "
                             f"{INSTRUMENT_POWERS + 1} instrument columns")
        return demand_experiment, (config.scenario,), {"params": params}
    except ValueError as exc:
        raise ConfigError(f"invalid {config.experiment} settings: {exc}") from exc


def _run_slice(config: RunConfig, indices: tuple[int, ...]) -> tuple[Curves, dict]:
    """Run a subset of trial indices of the configured experiment."""
    experiment, args, kwargs = configured_study(config)
    grid = None if config.lambda_grid is None else np.asarray(config.lambda_grid, float)
    return experiment(*args, estimators=config.estimators, trials=config.trials,
                      rng=SeededRng(config.base_seed), lambda_grid=grid,
                      trial_indices=indices, **kwargs)


def _worker_count(trials: int) -> int:
    raw = os.environ.get("SRE_THREADS", "1")
    try:
        limit = int(raw)
    except ValueError:
        limit = 0
    if limit < 1:
        raise ConfigError(f"SRE_THREADS must be a positive integer, got {raw!r}")
    return min(limit, trials)


def run_monte_carlo(config: RunConfig) -> MonteCarloReport:
    """Execute an experiment config and assemble its report.

    Trials run on a worker pool when ``SRE_THREADS`` allows; the report is
    identical either way because trial streams are independent and the
    workers' slices of trials, each in canonical order, are joined in trial
    order.
    """
    started = time.time()
    workers = _worker_count(config.trials)
    indices = tuple(range(config.trials))
    if workers == 1:
        curves, metadata = _run_slice(config, indices)
    else:
        # imported here: a sequential run never loads the multiprocessing machinery
        from concurrent.futures import ProcessPoolExecutor

        # plain ints, so pooled curves carry the same trial types as sequential ones
        chunks = [tuple(int(i) for i in chunk)
                  for chunk in np.array_split(indices, workers) if len(chunk)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts, metas = zip(*pool.map(_run_slice, [config] * len(chunks), chunks))
        curves, metadata = Curves.join(parts), metas[-1]
    aggregates = tuple(metrics(curves))
    metadata = dict(metadata)
    metadata["wall_time_s"] = time.time() - started
    metadata["finished_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    # canonicalize to JSON-representable values so a reloaded report compares
    # equal to the in-memory one
    metadata = json.loads(json.dumps(metadata))
    return MonteCarloReport(
        experiment=config.experiment,
        scenario=config.scenario,
        trials=config.trials,
        base_seed=config.base_seed,
        estimators=tuple(config.estimators),
        aggregates=aggregates,
        curves=curves,
        config_snapshot=config.to_mapping(),
        metadata=metadata,
    )


def _write_summary(report: MonteCarloReport, path: Path) -> None:
    path.write_text(SUMMARY_HEADER + "\n" + "".join(
        ["%s,%s,%s,%s,%.17g,%.17g,%.17g,%s,%s\n" % (
            report.experiment, report.scenario, row.estimator, row.domain, row.bias,
            row.variance, row.mse, row.trials, report.base_seed) for row in report.aggregates]))


def _write_curves(report: MonteCarloReport, path: Path) -> None:
    """The curves as ``trial,estimator,domain,x,truth,prediction`` lines.

    Each (estimator, domain) formats its x and truth strings once into a
    template, shared by the estimators of one domain, and truth once per
    trial where it varies by trial; each trial's lines of it then take one
    ``%`` over its line prefix and values.
    """
    curves, templates, blocks = report.curves, {}, []
    for (estimator, domain), (points, truth, prediction) in curves.blocks.items():
        if not prediction.size:
            continue
        bits = truth.view(np.int64)
        shared = bool((bits == bits[0]).all())  # one truth for every trial, bit for bit
        key = (points.tobytes(), truth[0].tobytes() if shared else None)
        if key not in templates:
            if shared:
                pairs = np.stack([points, truth[0]], axis=1).ravel().tolist()
                templates[key] = ("%%s%.17g,%.17g,%%.17g\n" * points.size) % tuple(pairs)
            else:
                templates[key] = ("%%s%.17g,%%.17g,%%.17g\n" * points.size) % tuple(
                    points.tolist())
        blocks.append((estimator, domain, templates[key],
                       (prediction,) if shared else (truth, prediction)))
    text = [CURVES_HEADER + "\n"]
    for t, trial in enumerate(curves.trials):
        for estimator, domain, template, columns in blocks:
            width = len(columns) + 1
            line = ["%d,%s,%s," % (trial, estimator, domain)] * (width * columns[0].shape[1])
            for i, column in enumerate(columns, 1):
                line[i::width] = column[t].tolist()
            text.append(template % tuple(line))
    path.write_text("".join(text))


def read_curves(path: str | Path) -> Curves:
    """The :class:`Curves` of a curves.csv, read through its records."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != CURVES_HEADER:
        raise ValueError(f"unexpected header in {path}")
    return Curves.from_records(
        (int(trial), estimator, domain, float(x), float(truth), float(prediction))
        for trial, estimator, domain, x, truth, prediction
        in (line.split(",") for line in lines[1:]))


def report_to_dict(report: MonteCarloReport) -> dict:
    """Every field of ``report`` but the curves, in field order; the
    aggregates as mappings, and the other fields the report's own values."""
    payload = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)
               if f.name != "curves"}
    return payload | {"aggregates": [dataclasses.asdict(row) for row in report.aggregates]}


def report_from_dict(payload: dict, curves: Curves) -> MonteCarloReport:
    """The report of a :func:`report_to_dict` payload and its curves."""
    return MonteCarloReport(**{
        **payload,
        "estimators": tuple(payload["estimators"]),
        "aggregates": tuple(AggregateRow(**row) for row in payload["aggregates"]),
    }, curves=curves)


def load_report(path: str | Path) -> MonteCarloReport:
    """The report.json at ``path``, with its curves read by :func:`read_curves`
    from the curves.csv beside it."""
    path = Path(path)
    return report_from_dict(json.loads(path.read_text()), read_curves(path.with_name("curves.csv")))


def emit_outputs(report: MonteCarloReport, out_dir: str | Path) -> list[Path]:
    """Write summary.csv, curves.csv, config.snapshot, and report.json.

    Numbers use 17 significant digits (lossless for doubles). report.json holds
    everything but the curves, which :func:`load_report` reads from curves.csv.
    On failure, partially written files are removed before the error propagates.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "summary": out / "summary.csv",
        "curves": out / "curves.csv",
        "config": out / "config.snapshot",
        "report": out / "report.json",
    }
    # a path is recorded before its write, so a write that fails halfway is removed too
    written: list[Path] = []
    try:
        written.append(paths["summary"])
        _write_summary(report, paths["summary"])
        written.append(paths["curves"])
        _write_curves(report, paths["curves"])
        written.append(paths["config"])
        paths["config"].write_text(
            json.dumps(report.config_snapshot, sort_keys=True, indent=2) + "\n"
        )
        written.append(paths["report"])
        paths["report"].write_text(json.dumps(report_to_dict(report)) + "\n")
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return list(paths.values())


def recompute_aggregates_from_curves(path: str | Path) -> list[AggregateRow]:
    """Re-derive the summary metrics from an emitted curves.csv."""
    return metrics(read_curves(path))
