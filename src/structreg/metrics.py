"""Monte Carlo evaluation metrics over per-trial prediction curves.

A curve record is ``(trial, estimator, domain, x, truth, prediction)``. At
each evaluation point the pointwise bias is the trial average of the absolute
prediction error, the pointwise variance is the trial variance of the
predictions (exactly 0 where every trial predicts the same value), and the
pointwise MSE is the trial average squared error; the reported
bias/variance/MSE average those over the evaluation points. Because
the bias uses absolute errors, MSE = bias^2 + variance does not hold; the
identity MSE = variance + mean squared (signed) error does.

The three studies produce their curves through one trial driver,
:func:`_run_trials`, which hands a study its trials a block at a time and
returns them as one :class:`Curves`: per (estimator, domain), the domain's
points and trials × points arrays of truth and prediction. That is the one
in-memory form of a run's curves; records exist only where a curves.csv is
written or read, and as what iterating a :class:`Curves` yields.
:func:`metrics` reduces its arrays; plain records are first made into a
:class:`Curves` by :meth:`Curves.from_records`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

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


class Curves:
    """The curves of a run as arrays, in (trial, estimator, domain, x) order.

    ``trials`` holds the trial ids, and ``blocks`` maps each (estimator,
    domain), in sorted order, to ``(points, truth, prediction)``: the
    domain's evaluation points, stable-sorted by x, and truth and prediction
    as read-only trials × points float arrays. Iterating it yields the records
    ``(trial, estimator, domain, x, truth, prediction)``, trial by trial and,
    within a trial, by (estimator, domain) and x, with float values. Two
    curves are equal when their trials, keys and arrays are (a NaN equals
    nothing).
    """

    def __init__(self, trials, blocks):
        self.trials = tuple(trials)
        self.blocks = {}
        for key in sorted(blocks):
            points, truth, prediction = (np.asarray(a, dtype=float) for a in blocks[key])
            order = np.argsort(points, kind="stable")
            points = points[order]
            if np.any(points[1:] == points[:-1]):
                raise MetricsError(f"estimator={key[0]!r} domain={key[1]!r} repeats an "
                                   f"evaluation point")
            shape = (len(self.trials), points.size)
            if truth.shape != shape or prediction.shape != shape:
                raise MetricsError(f"estimator={key[0]!r} domain={key[1]!r} holds truth "
                                   f"{truth.shape} and prediction {prediction.shape} for "
                                   f"{shape[0]} trials at {shape[1]} points")
            self.blocks[key] = (points, truth[:, order], prediction[:, order])
            for array in self.blocks[key]:
                array.flags.writeable = False

    @classmethod
    def join(cls, parts) -> Curves:
        """The curves of ``parts`` one after another on the trial axis: the
        blocks or worker slices of one run, with one (estimator, domain)
        layout and one set of points."""
        if len(parts) < 2:
            return parts[0] if parts else cls((), {})
        first = parts[0].blocks
        for part in parts[1:]:
            if part.blocks.keys() != first.keys() or not all(
                    np.array_equal(part.blocks[key][0], points)
                    for key, (points, _, _) in first.items()):
                raise MetricsError("curves to join differ in estimators, domains or points")
        return cls([trial for part in parts for trial in part.trials],
                   {key: (points, *(np.concatenate([part.blocks[key][i] for part in parts])
                                    for i in (1, 2)))
                    for key, (points, _, _) in first.items()})

    @classmethod
    def from_records(cls, records) -> Curves:
        """The curves of ``(trial, estimator, domain, x, truth, prediction)``
        records, in any order, that hold every trial at every point of each
        (estimator, domain)."""
        records = sort_curves(records)
        position = {trial: t for t, trial in enumerate(dict.fromkeys(r[0] for r in records))}
        n = len(position)
        groups: dict[tuple, list[tuple]] = {}
        for trial, estimator, domain, x, truth, prediction in records:
            groups.setdefault((estimator, domain), []).append(
                (x, position[trial], truth, prediction))
        blocks = {}
        for (estimator, domain), cells in groups.items():
            arr = np.asarray(cells, dtype=float)
            # stable: each point keeps its trials in trial order
            x, t, truth, prediction = arr[np.argsort(arr[:, 0], kind="stable")].T
            counts = np.unique(np.unique(x, return_counts=True)[1])
            if counts.shape[0] != 1:
                raise MetricsError(f"mismatched trial counts for estimator={estimator!r} "
                                   f"domain={domain!r}: {counts.tolist()}")
            if counts[0] != n:
                raise MetricsError(f"estimator={estimator!r} domain={domain!r} holds "
                                   f"{counts[0]} of the {n} trials")
            if np.any(t.reshape(-1, n) != np.arange(n)):
                raise MetricsError(f"estimator={estimator!r} domain={domain!r} holds a "
                                   f"trial twice at one point")
            blocks[estimator, domain] = (x[::n], truth.reshape(-1, n).T,
                                         prediction.reshape(-1, n).T)
        return cls(list(position), blocks)

    def __iter__(self):
        columns = [(estimator, domain, points.tolist(), truth.tolist(), prediction.tolist())
                   for (estimator, domain), (points, truth, prediction) in self.blocks.items()]
        for t, trial in enumerate(self.trials):
            for estimator, domain, x, truth, prediction in columns:
                yield from zip(repeat(trial), repeat(estimator), repeat(domain), x, truth[t],
                               prediction[t])

    def __eq__(self, other):
        if not isinstance(other, Curves):
            return NotImplemented
        return (self.trials == other.trials and self.blocks.keys() == other.blocks.keys()
                and all(np.array_equal(mine, theirs) for key, arrays in self.blocks.items()
                        for mine, theirs in zip(arrays, other.blocks[key])))

    def __repr__(self) -> str:
        return (f"Curves({len(self.trials)} trials, "
                f"{', '.join(f'{e}/{d}' for e, d in self.blocks)})")


def _run_trials(trials: int, rng: SeededRng | None, trial_indices, setup
                ) -> tuple[Curves, dict]:
    """Run a study's trials and return ``(curves, metadata)``.

    ``setup(rng)`` runs the study's trial-independent set-up once and returns
    ``(points, run_block, metadata)``: the evaluation points per domain, and a
    function from a block of trial rngs (up to ``TRIAL_BLOCK``, in trial
    order) to each trial's truth per domain and predictions per estimator and
    domain, each one value per point. The auction and demand studies stack a
    block's trials into one array program; entry/exit, which does not, runs
    its trial function on each rng through :func:`_each`.

    The run contract: trial r draws from stream r of the run's rng (default
    ``SeededRng(0)``) and from nothing else, so it gives the same curves in
    any slice of ``trial_indices`` (default ``range(trials)``) and in any
    block; the curves hold the trials in the order of those indices, and the
    harness joins slices in index order. A failure is raised as a
    ``RuntimeError`` named ``trial r failed``, for the first trial r that
    fails when run alone, its outputs' fit to the points included:
    ``run_block`` names a failing trial by raising a :class:`_TrialFailure`
    (as :func:`_each` does), and the trials of the block before it are then
    run alone, one at a time; any other failure of a block, as in its
    stacked work, has every trial of the block run alone, and one that no
    trial repeats alone is named by the block's first and last trial.
    """
    # Private, like the studies' trial functions: the benchmark's outside
    # tracer wraps every public function and counts a trial per simulate call
    # directly under a ``*_experiment`` span, so a public driver would hide them.
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = rng if rng is not None else SeededRng(0)
    points, run_block, metadata = setup(rng)
    points = {domain: np.asarray(x, dtype=float).ravel() for domain, x in points.items()}

    def trial_rows(outputs) -> dict:
        """A trial's truth and prediction rows per (estimator, domain)."""
        truth, predictions = outputs
        truth = {domain: _row(truth[domain], x) for domain, x in points.items()}
        return {(estimator, domain): (truth[domain], _row(by_domain[domain], x))
                for estimator, by_domain in predictions.items()
                for domain, x in points.items()}

    def block_curves(block) -> Curves:
        rows = _each(trial_rows, run_block([rng.stream(trial) for trial in block]))
        return Curves(block, {key: (points[key[1]], *(np.stack([row[key][i] for row in rows])
                                                      for i in (0, 1)))
                              for key in rows[0]})

    def first_failure(block, exc) -> tuple[str, Exception]:
        tagged = isinstance(exc, _TrialFailure)
        if len(block) == 1:
            return str(block[0]), exc.error if tagged else exc
        for trial in block[:exc.position] if tagged else block:
            try:
                block_curves([trial])
            except Exception as alone:
                return first_failure([trial], alone)
        if tagged:
            return str(block[exc.position]), exc.error
        return f"{block[0]}-{block[-1]}", exc  # fails only as a block

    indices = list(range(trials) if trial_indices is None else trial_indices)
    parts = []
    for start in range(0, len(indices), TRIAL_BLOCK):
        block = indices[start:start + TRIAL_BLOCK]
        try:
            parts.append(block_curves(block))
        except Exception as exc:
            trial, error = first_failure(block, exc)
            raise RuntimeError(f"trial {trial} failed: {error}") from error
    return Curves.join(parts), metadata


def _row(values, points: np.ndarray) -> np.ndarray:
    """``values`` as one float per point of ``points``."""
    row = np.asarray(values, dtype=float).ravel()
    if row.size != points.size:
        raise MetricsError(f"{row.size} values for {points.size} evaluation points")
    return row


def sort_curves(records) -> list[tuple]:
    """Canonical curve order: (trial, estimator, domain, x).

    A run's :class:`Curves` come in this order by construction, and
    :meth:`Curves.from_records` puts plain records in it. It stays public as
    the oracle the tests check that order against, and because the
    benchmark's ``metrics.aggregate_s`` layer names it.
    """
    return sorted(records, key=lambda r: (r[0], r[1], r[2], r[3]))


def metrics(curves) -> list[AggregateRow]:
    """Aggregate curves into per-estimator, per-domain metrics.

    ``curves`` is a :class:`Curves`; any other input is taken for curve
    records and made into one by :meth:`Curves.from_records`, so plain
    records give the same bits in any order, each point's trials reduced in
    trial order. Truth may vary by trial (conditioning on per-trial
    exogenous paths); bias and MSE compare each prediction with its own
    trial's truth, while the variance is taken over predictions alone. Each
    (estimator, domain) is reduced over C-contiguous points × trials arrays.
    """
    if not isinstance(curves, Curves):
        curves = Curves.from_records(curves)
    rows = []
    for (estimator, domain), (_, truth, pred) in curves.blocks.items():
        if not pred.size:
            continue
        truth, pred = truth.T.copy(), pred.T.copy()
        err = pred - truth
        rows.append(
            AggregateRow(
                estimator,
                domain,
                float(np.mean(np.abs(err).mean(axis=1))),
                float(np.mean(np.where((pred == pred[:, :1]).all(axis=1), 0.0,
                                       pred.var(axis=1, ddof=0)))),
                float(np.mean((err**2).mean(axis=1))),
                pred.shape[1],
            )
        )
    return rows


def metrics_table(records) -> dict[tuple[str, str], AggregateRow]:
    """Metrics keyed by (estimator, domain) for direct lookups."""
    return {(row.estimator, row.domain): row for row in metrics(records)}
