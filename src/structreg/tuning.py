"""Penalty selection and the second stage's select-and-fit step.

Three cross-validation flavors pick the penalty strength: standard K-fold for
i.i.d. data, a forward variant that always validates on the subsample nearest
a known target input region, and a rolling-window variant for series data.

Every study's second stage is one select-and-fit step on a fold object
(:class:`RidgeFold`, or the demand study's moment fold): it builds the fold
on the half of the sample the structural stage did not use, passes the
fold's :meth:`~RidgeFold.refold` to the cross-validation as the fitter, and
returns :meth:`~RidgeFold.fit` of the resulting :class:`CvTrace`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import (
    DataError,
    Dataset,
    DomainSpec,
    SeededRng,
    StandardizeTransform,
    forward_split,
    partition_indices,
    standardize,
)
from .sre import (
    FeatureMap,
    PenaltySpec,
    SingularPathError,
    SREFit,
    fit_theta_m,  # noqa: F401  perfbench/selftest.py reads it as tuning.fit_theta_m
    quadratic_path,
    sre_ridge,
)

FORWARD_FRACTION = 1.0 / 6.0


class CvError(RuntimeError):
    """Cross-validation failed on a specific fold or window."""


@dataclass(frozen=True)
class CvTrace:
    """Validation-error record of one cross-validation run.

    ``lambda_star`` attains the minimum mean error; exact ties resolve to the
    smallest penalty. ``fold_errors`` has one row per fold (or window) and one
    column per grid point.
    """

    kind: str
    lambda_grid: np.ndarray
    mean_errors: np.ndarray
    lambda_star: float
    fold_errors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lambda_grid", np.asarray(self.lambda_grid, float))
        object.__setattr__(self, "mean_errors", np.asarray(self.mean_errors, float))
        object.__setattr__(self, "fold_errors", np.asarray(self.fold_errors, float))

    @classmethod
    def from_fold_errors(cls, kind, lambda_grid, fold_errors) -> "CvTrace":
        lambda_grid = np.asarray(lambda_grid, float)
        fold_errors = np.asarray(fold_errors, float)
        mean_errors = fold_errors.mean(axis=0)
        star = float(lambda_grid[int(np.argmin(mean_errors))])
        return cls(kind, lambda_grid, mean_errors, star, fold_errors)


def squared_error_scorer(fold, thetas: np.ndarray, val: Dataset) -> np.ndarray:
    """Held-out mean squared error of every coefficient row of a fold's path."""
    resid = val.outcome[:, None] - fold.predict(thetas, val.inputs)
    return np.mean(resid**2, axis=0)


def _concat(parts: list[Dataset]) -> Dataset:
    return Dataset(
        np.vstack([p.inputs for p in parts]),
        np.concatenate([p.outcome for p in parts]),
        None
        if any(p.instruments is None for p in parts)
        else np.vstack([p.instruments for p in parts]),
        None
        if any(p.time_index is None for p in parts)
        else np.concatenate([p.time_index for p in parts]),
    )


def _cv_loop(kind, fitter, scorer, splits, lambda_grid, unit="fold") -> CvTrace:
    """Score every grid point on every ``(train, val)`` split.

    ``fitter(train)`` prepares the split once and returns a fold whose
    ``path(lambda_grid)`` holds one coefficient row per grid point;
    ``scorer(fold, thetas, val)`` scores all rows at once. A singular or
    non-finite path names the split and its first offending grid point.
    """
    lambda_grid = np.asarray(lambda_grid, float)
    if lambda_grid.size == 0:
        raise DataError("lambda grid must be nonempty")
    fold_errors = []
    for k, (train, val) in enumerate(splits):
        try:
            fold = fitter(train)
            thetas = fold.path(lambda_grid)
        except SingularPathError as exc:
            raise CvError(f"fitter failed on {unit} {k} at lambda={exc.lam}: {exc}") from exc
        except Exception as exc:
            raise CvError(f"fitter failed on {unit} {k}: {exc}") from exc
        bad = ~np.isfinite(thetas).all(axis=1)
        if bad.any():
            lam = float(lambda_grid[np.argmax(bad)])
            raise CvError(f"fitter failed on {unit} {k} at lambda={lam}: non-finite coefficients")
        fold_errors.append(scorer(fold, thetas, val))
    return CvTrace.from_fold_errors(kind, lambda_grid, fold_errors)


def _kfold_splits(data: Dataset, K: int, rng: SeededRng):
    all_rows = np.arange(data.n)
    for val_idx in partition_indices(data.n, K, rng):
        yield data.subset(np.setdiff1d(all_rows, val_idx)), data.subset(val_idx)


def kfold_cv(
    fitter,
    scorer,
    data: Dataset,
    lambda_grid,
    K: int,
    rng: SeededRng,
) -> CvTrace:
    """Standard K-fold cross-validation over a penalty grid.

    ``fitter(train)`` prepares a training fold once and returns a fold
    object whose ``path(lambda_grid)`` gives one coefficient row per grid
    point (the studies pass :meth:`RidgeFold.refold` of their final fold);
    ``scorer(fold, thetas, val)`` returns the held-out error of every row.
    The reported error per grid point is the mean over held-out folds.
    """
    return _cv_loop("kfold", fitter, scorer, _kfold_splits(data, K, rng), lambda_grid)


def forward_cv(
    sample: Dataset,
    K: int,
    target: DomainSpec,
    fitter,
    lambda_grid,
    rng: SeededRng,
    fraction: float = FORWARD_FRACTION,
    scorer=squared_error_scorer,
) -> CvTrace:
    """K-fold cross-validation that always validates nearest the target.

    The sample is first split so its near-target part is held out of training
    entirely; the far part is partitioned into K folds. Iteration k trains on
    the far part minus fold k and validates on fold k plus the whole
    near-target part, so every validation set contains the observations
    closest to where the model will be applied. ``fitter(train)``, the
    fold's ``path`` and ``scorer`` follow :func:`kfold_cv`.
    """
    s1, s2 = forward_split(sample, target, fraction)
    if s2.n == 0:
        raise DataError("forward split produced an empty validation block")
    if s1.n < K:
        raise DataError(f"cannot form {K} folds from {s1.n} far-part rows")
    splits = ((train, _concat([val, s2])) for train, val in _kfold_splits(s1, K, rng))
    return _cv_loop("forward", fitter, scorer, splits, lambda_grid)


def rolling_cv(
    data: Dataset,
    fitter,
    lambda_grid,
    window_length: int,
    horizon: int = 1,
    scorer=squared_error_scorer,
) -> CvTrace:
    """Rolling-window cross-validation for time-ordered data.

    Every window origin fits on ``window_length`` consecutive observations
    and scores on the next ``horizon`` observations, so training never sees
    the future. Rows must carry a nondecreasing ``time_index``.
    ``fitter(train)`` prepares a window once and returns a fold whose
    ``path(lambda_grid)`` solves every grid point at once; ``scorer`` follows
    :func:`kfold_cv`.
    """
    if data.time_index is None:
        raise DataError("rolling cross-validation requires time-indexed data")
    if np.any(np.diff(data.time_index) < 0):
        raise DataError("time_index must be nondecreasing")
    T = data.n
    if T < window_length + horizon:
        raise DataError("series shorter than window_length + horizon")
    splits = (
        (
            data.subset(np.arange(t0, t0 + window_length)),
            data.subset(np.arange(t0 + window_length, t0 + window_length + horizon)),
        )
        for t0 in range(0, T - window_length - horizon + 1)
    )
    return _cv_loop("rolling", fitter, scorer, splits, lambda_grid, unit="window")


@dataclass(frozen=True)
class RidgeFold:
    """One training sample's penalized least-squares problem.

    ``design`` is ``(1, standardized features)`` of the sample and
    ``theta_m`` the benchmark projection on the same scale. Cross-validation
    rebuilds the problem on each training fold with :meth:`refold` and takes
    every grid point from :meth:`path` at once; :meth:`fit` then refits at
    the penalty the cross-validation chose, with the per-``lam`` closed form
    of :meth:`solve`.
    """

    design: np.ndarray
    outcome: np.ndarray
    transform: StandardizeTransform
    theta_m: np.ndarray
    penalty: PenaltySpec
    feature_map: FeatureMap

    def refold(self, train: Dataset) -> "RidgeFold":
        """The same problem on another sample, over that sample's own
        standardization, with ``theta_m`` re-expressed on it."""
        return ridge_fold(train, self.feature_map, self.penalty, self.theta_m_in)

    def path(self, lambda_grid) -> np.ndarray:
        """Coefficients at every grid point, one row each."""
        X = self.design
        return quadratic_path(X.T @ X, X.T @ self.outcome, self.penalty.weights, self.theta_m,
                              lambda_grid)

    def predict(self, thetas: np.ndarray, inputs) -> np.ndarray:
        """Predictions at ``inputs``, one column per coefficient row."""
        F = self.transform.transform_inputs(self.feature_map.transform(inputs))
        return thetas[:, 0] + F @ thetas[:, 1:].T

    def solve(self, lam: float) -> np.ndarray:
        """Coefficients at one penalty strength."""
        return sre_ridge(self.design, self.outcome, self.theta_m, self.penalty, lam)

    def fit(self, trace: CvTrace) -> SREFit:
        """The fit at the trace's ``lambda_star``, carrying the trace in ``parts``."""
        lam = trace.lambda_star
        return SREFit(self.solve(lam), self.transform, self.theta_m, lam, self.feature_map,
                      cv=trace.kind, parts=(trace,))

    def theta_m_in(self, transform: StandardizeTransform) -> np.ndarray:
        """``theta_m`` over another standardization of the same features.

        Standardization is affine, so this equals projecting the benchmark
        afresh on that scale, without the projection.
        """
        return _express_in_transform(_to_raw(self.theta_m, self.transform), transform)


def ridge_fold(train: Dataset, feature_map: FeatureMap, penalty: PenaltySpec,
               theta_m) -> RidgeFold:
    """The sample's :class:`RidgeFold` over its standardized expanded features;
    ``theta_m(transform)`` gives the benchmark projection on that scale."""
    std, transform = standardize(Dataset(feature_map.transform(train.inputs), train.outcome))
    design = np.column_stack([np.ones(train.n), std.inputs])
    return RidgeFold(design, train.outcome, transform, theta_m(transform), penalty, feature_map)


def _to_raw(coefficients, transform) -> np.ndarray:
    slopes = coefficients[1:] / transform.column_scales
    intercept = coefficients[0] - float(slopes @ transform.column_means)
    return np.concatenate([[intercept], slopes])


def _express_in_transform(raw, transform) -> np.ndarray:
    slopes = raw[1:] * transform.column_scales
    intercept = raw[0] + float(raw[1:] @ transform.column_means)
    return np.concatenate([[intercept], slopes])
