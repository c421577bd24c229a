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
:func:`_run_trials`, which hands a study its trials a block at a time.
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


# trials a study receives at once: bounds the stacked arrays of a block
TRIAL_BLOCK = 32


class _TrialFailure(Exception):
    """Trial ``position`` of a block failed with ``error``."""

    def __init__(self, position: int, error: Exception):
        super().__init__(str(error))
        self.position, self.error = position, error


def _each(function, items) -> list:
    """``function`` of each item in turn; a failure is a :class:`_TrialFailure`
    naming the position of the item that raised."""
    out = []
    for position, item in enumerate(items):
        try:
            out.append(function(item))
        except Exception as exc:
            raise _TrialFailure(position, exc) from exc
    return out


def _run_trials(trials: int, rng: SeededRng | None, trial_indices, setup
                ) -> tuple[list[tuple], dict]:
    """Run a study's trials and return ``(records, metadata)``.

    ``setup(rng)`` runs the study's trial-independent set-up once and returns
    ``(points, run_block, metadata)``: the evaluation points per domain, and a
    function from a block of trial rngs (up to ``TRIAL_BLOCK``, in trial
    order) to each trial's truth per domain and predictions per estimator and
    domain. The auction and demand studies stack a block's trials into one
    array program; entry/exit, which does not, runs its trial function on
    each rng through :func:`_each`.

    The run contract: trial r draws from stream r of the run's rng (default
    ``SeededRng(0)``) and from nothing else, so it gives the same records in
    any slice of ``trial_indices`` (default ``range(trials)``) and in any
    block; records come in the order of those indices, and the harness merges
    slices in index order. A failure is raised as a ``RuntimeError`` named
    ``trial r failed``, for the first trial r that fails when run alone,
    record building included: ``run_block`` names a failing trial by raising
    a :class:`_TrialFailure` (as :func:`_each` does), and the trials of the
    block before it are then run alone, one at a time; any other failure of a
    block, as in its stacked work, has every trial of the block run alone,
    and one that no trial repeats alone is named by the block's first and
    last trial.
    """
    # Private, like the studies' trial functions: the benchmark's outside
    # tracer wraps every public function and counts a trial per simulate call
    # directly under a ``*_experiment`` span, so a public driver would hide them.
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = rng if rng is not None else SeededRng(0)
    points, run_block, metadata = setup(rng)
    points = {domain: _floats(x) for domain, x in points.items()}

    def trial_records(trial, outputs) -> list[tuple]:
        truth, predictions = outputs
        truth = {domain: _floats(values) for domain, values in truth.items()}
        return [(trial, estimator, domain, *point)
                for estimator, by_domain in predictions.items()
                for domain, x in points.items()
                for point in zip(x, truth[domain], _floats(by_domain[domain]))]

    def block_records(block) -> list[list[tuple]]:
        outputs = run_block([rng.stream(trial) for trial in block])
        return _each(lambda item: trial_records(*item), list(zip(block, outputs)))

    def first_failure(block, exc) -> tuple[str, Exception]:
        tagged = isinstance(exc, _TrialFailure)
        if len(block) == 1:
            return str(block[0]), exc.error if tagged else exc
        for trial in block[:exc.position] if tagged else block:
            try:
                block_records([trial])
            except Exception as alone:
                return first_failure([trial], alone)
        if tagged:
            return str(block[exc.position]), exc.error
        return f"{block[0]}-{block[-1]}", exc  # fails only as a block

    indices = list(range(trials) if trial_indices is None else trial_indices)
    records: list[tuple] = []
    for start in range(0, len(indices), TRIAL_BLOCK):
        block = indices[start:start + TRIAL_BLOCK]
        try:
            for part in block_records(block):
                records.extend(part)
        except Exception as exc:
            trial, error = first_failure(block, exc)
            raise RuntimeError(f"trial {trial} failed: {error}") from error
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
