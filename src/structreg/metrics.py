"""Monte Carlo evaluation metrics over per-trial prediction curves.

A curve record is ``(trial, estimator, domain, x, truth, prediction)``. At
each evaluation point the pointwise bias is the trial average of the absolute
prediction error, the pointwise variance is the trial variance of the
predictions, and the pointwise MSE is the trial average squared error; the
reported bias/variance/MSE average those over the evaluation points. Because
the bias uses absolute errors, MSE = bias^2 + variance does not hold; the
identity MSE = variance + mean squared (signed) error does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
    cells: dict[tuple, list[tuple[float, float]]] = {}
    for trial, estimator, domain, x, truth, prediction in records:
        cells.setdefault((estimator, domain, x), []).append((truth, prediction))

    groups: dict[tuple, dict[float, list[tuple[float, float]]]] = {}
    for (estimator, domain, x), values in cells.items():
        groups.setdefault((estimator, domain), {})[x] = values

    rows = []
    for (estimator, domain), by_x in sorted(groups.items()):
        counts = {len(v) for v in by_x.values()}
        if len(counts) != 1:
            raise MetricsError(
                f"mismatched trial counts for estimator={estimator!r} "
                f"domain={domain!r}: {sorted(counts)}"
            )
        (n_trials,) = counts
        pw_bias, pw_var, pw_mse = [], [], []
        for x in sorted(by_x):
            arr = np.asarray(by_x[x], dtype=float)
            truth, pred = arr[:, 0], arr[:, 1]
            err = pred - truth
            pw_bias.append(np.abs(err).mean())
            pw_var.append(pred.var(ddof=0))
            pw_mse.append((err**2).mean())
        rows.append(
            AggregateRow(
                estimator,
                domain,
                float(np.mean(pw_bias)),
                float(np.mean(pw_var)),
                float(np.mean(pw_mse)),
                n_trials,
            )
        )
    return rows


def metrics_table(records) -> dict[tuple[str, str], AggregateRow]:
    """Metrics keyed by (estimator, domain) for direct lookups."""
    return {(row.estimator, row.domain): row for row in metrics(records)}
