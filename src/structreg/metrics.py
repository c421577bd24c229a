"""Monte Carlo evaluation metrics over per-trial prediction curves.

A curve record is ``(trial, estimator, domain, x, truth, prediction)``. At
each evaluation point the pointwise bias is the trial average of the absolute
prediction error, the pointwise variance is the trial variance of the
predictions (exactly 0 where every trial predicts the same value), and the
pointwise MSE is the trial average squared error; the reported
bias/variance/MSE average those over the evaluation points. Because
the bias uses absolute errors, MSE = bias^2 + variance does not hold; the
identity MSE = variance + mean squared (signed) error does.

The three studies produce their records through one trial driver,
:func:`_run_trials`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SeededRng


class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class AggregateRow:
    """Bias/variance/MSE of one estimator on one evaluation domain."""

    estimator: str
    domain: str
    bias: float
    variance: float
    mse: float
    trials: int


def _run_trials(trials: int, rng: SeededRng | None, trial_indices, setup
                ) -> tuple[list[tuple], dict]:
    """Run a study's trials and return ``(records, metadata)``.

    ``setup(rng)`` runs the study's trial-independent set-up once and returns
    ``(points, trial, metadata)``: the evaluation points per domain, and a
    function from a trial's rng to its truth per domain and its predictions
    per estimator and domain.

    The run contract: trial r draws from stream r of the run's rng (default
    ``SeededRng(0)``) and from nothing else, so it gives the same records in
    any slice of ``trial_indices`` (default ``range(trials)``); records come
    in the order of those indices, and the harness merges slices in index
    order; a failure anywhere in trial r, record building included, is
    raised as a ``RuntimeError`` named ``trial r failed``.
    """
    # Private, like the studies' trial functions: the benchmark's outside
    # tracer wraps every public function and counts a trial per simulate call
    # directly under a ``*_experiment`` span, so a public driver would hide them.
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = rng if rng is not None else SeededRng(0)
    points, run_trial, metadata = setup(rng)
    points = {domain: _floats(x) for domain, x in points.items()}
    records: list[tuple] = []
    for trial in range(trials) if trial_indices is None else trial_indices:
        try:
            truth, predictions = run_trial(rng.stream(trial))
            truth = {domain: _floats(values) for domain, values in truth.items()}
            for estimator, by_domain in predictions.items():
                for domain, x in points.items():
                    records.extend((trial, estimator, domain, *point) for point in zip(
                        x, truth[domain], _floats(by_domain[domain])))
        except Exception as exc:
            raise RuntimeError(f"trial {trial} failed: {exc}") from exc
    return records, metadata


def _floats(values) -> list[float]:
    return np.asarray(values, dtype=float).ravel().tolist()


def sort_curves(records) -> list[tuple]:
    """Canonical curve order: (trial, estimator, domain, x)."""
    return sorted(records, key=lambda r: (r[0], r[1], r[2], r[3]))


def metrics(records) -> list[AggregateRow]:
    """Aggregate curve records into per-estimator, per-domain metrics.

    Every (estimator, domain, x) cell must contain the same number of trials.
    Truth may vary by trial (conditioning on per-trial exogenous paths); bias
    and MSE compare each prediction with its own trial's truth, while the
    variance is taken over predictions alone.
    """
    groups: dict[tuple, list[tuple]] = {}
    for trial, estimator, domain, x, truth, prediction in records:
        groups.setdefault((estimator, domain), []).append((x, truth, prediction))

    rows = []
    for (estimator, domain), cells in sorted(groups.items()):
        arr = np.asarray(cells, dtype=float)
        # stable: each point keeps its trials in record order
        x, truth, pred = arr[np.argsort(arr[:, 0], kind="stable")].T.copy()
        counts = np.unique(np.unique(x, return_counts=True)[1])
        if counts.shape[0] != 1:
            raise MetricsError(
                f"mismatched trial counts for estimator={estimator!r} "
                f"domain={domain!r}: {counts.tolist()}"
            )
        n_trials = int(counts[0])
        truth = truth.reshape(-1, n_trials)
        pred = pred.reshape(-1, n_trials)
        err = pred - truth
        rows.append(
            AggregateRow(
                estimator,
                domain,
                float(np.mean(np.abs(err).mean(axis=1))),
                float(np.mean(np.where((pred == pred[:, :1]).all(axis=1), 0.0,
                                       pred.var(axis=1, ddof=0)))),
                float(np.mean((err**2).mean(axis=1))),
                n_trials,
            )
        )
    return rows


def metrics_table(records) -> dict[tuple[str, str], AggregateRow]:
    """Metrics keyed by (estimator, domain) for direct lookups."""
    return {(row.estimator, row.domain): row for row in metrics(records)}
