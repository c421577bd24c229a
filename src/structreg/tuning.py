"""Penalty selection and the second stage's select-and-fit step.

Three cross-validation flavors pick the penalty strength: standard K-fold for
i.i.d. data, a forward variant that always validates on the subsample nearest
a known target input region, and a rolling-window variant for series data.

Every study's second stage is one select-and-fit step on a fold object
(:class:`RidgeFold`, or the demand study's moment fold): it builds the fold
on the half of the sample the structural stage did not use, passes it to the
cross-validation, and returns :meth:`~RidgeFold.fit` of the resulting
:class:`CvTrace`. The fold fixes everything the cross-validation needs: its
penalty's grid and :meth:`~RidgeFold.cv_errors`, which scores that grid on
every split of a :class:`CvSplits` in one stacked array computation. A split
is row indices into the sample with 0/1 row weights (a sliding window of rows
for rolling cross-validation), so no per-split sample or fold is built.

A second-stage problem is posed in one place, the fold's ``_pose``, which
poses a stack of samples at once: the cross-validation's splits, or the
fitting sample itself as a stack of one (every row, weight 1), which is how
:func:`ridge_fold` builds the final fold.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import (
    DataError,
    Dataset,
    DomainSpec,
    SeededRng,
    StandardizeTransform,
    forward_split_rows,
    partition_indices,
    stacked_standardization,
    standardize,  # noqa: F401  perfbench/selftest.py reads it as tuning.standardize
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


@dataclass(frozen=True)
class CvSplits:
    """Every split of one cross-validation run, as row indices into one sample.

    Row ``s`` of ``train`` and ``val`` lists split ``s``'s training and
    validation rows; ``train_weight`` and ``val_weight`` are 1 on the rows the
    split uses and 0 on the others, so splits of unequal size share one
    rectangular stack. ``kind`` names the cross-validation flavor.
    """

    kind: str
    train: np.ndarray
    train_weight: np.ndarray
    val: np.ndarray
    val_weight: np.ndarray

    @property
    def unit(self) -> str:
        return "window" if self.kind == "rolling" else "fold"

    def failure(self, index: int, reason, lam: float | None = None) -> CvError:
        """The error naming split ``index`` and, when known, its grid point;
        ``reason`` is a message or the error the split raised."""
        at = "" if lam is None else f" at lambda={lam}"
        return CvError(f"fitter failed on {self.unit} {index}{at}: {reason}")


def _fold_rows(rows: np.ndarray, K: int, rng: SeededRng) -> tuple[np.ndarray, ...]:
    """``(train, train_weight, val, val_weight)`` of K random folds of ``rows``:
    split k validates on fold k and trains on the others, each padded to the
    largest split with rows of weight 0."""
    label = np.empty(rows.size, dtype=int)
    for k, idx in enumerate(partition_indices(rows.size, K, rng)):
        label[idx] = k
    in_fold = label == np.arange(K)[:, None]
    size = in_fold.sum(axis=1)
    # a stable sort lists a split's own rows first, in sample order
    train = np.argsort(in_fold, axis=1, kind="stable")[:, : rows.size - size.min()]
    val = np.argsort(~in_fold, axis=1, kind="stable")[:, : size.max()]
    return (rows[train], 1.0 - np.take_along_axis(in_fold, train, axis=1),
            rows[val], np.take_along_axis(in_fold, val, axis=1).astype(float))


def kfold_splits(n: int, K: int, rng: SeededRng) -> CvSplits:
    """K random folds of ``n`` rows: fold k validates, the others train."""
    return CvSplits("kfold", *_fold_rows(np.arange(n), K, rng))


def forward_splits(sample: Dataset, K: int, target: DomainSpec, rng: SeededRng) -> CvSplits:
    """K folds of the far part of ``sample``, each validated with the near part.

    The ``FORWARD_FRACTION`` of rows nearest ``target`` never trains; split k
    trains on the far part minus fold k and validates on fold k plus the
    whole near part.
    """
    far, near = forward_split_rows(sample, target, FORWARD_FRACTION)
    if far.size < K:
        raise DataError(f"cannot form {K} folds from {far.size} far-part rows")
    train, train_weight, val, val_weight = _fold_rows(far, K, rng)
    return CvSplits("forward", train, train_weight,
                    np.column_stack([val, np.broadcast_to(near, (K, near.size))]),
                    np.column_stack([val_weight, np.ones((K, near.size))]))


def rolling_splits(n: int, window_length: int) -> CvSplits:
    """Every window of ``window_length`` consecutive rows, validated on the next row."""
    train = sliding_window_view(np.arange(n), window_length)[:-1]
    val = np.arange(window_length, n)[:, None]
    return CvSplits("rolling", train, np.ones(train.shape), val, np.ones(val.shape))


def _cross_validate(final: RidgeFold, data: Dataset, splits: CvSplits) -> CvTrace:
    """``final``'s error curve on ``data`` over every split at once."""
    return CvTrace.from_fold_errors(splits.kind, final.penalty.lambda_grid,
                                    final.cv_errors(data, splits))


def kfold_cv(final: RidgeFold, data: Dataset, K: int, rng: SeededRng) -> CvTrace:
    """Standard K-fold cross-validation over ``final``'s penalty grid.

    Every training fold is standardized on its own rows and scored at every
    grid point on its held-out rows by ``final.cv_errors``, all folds in one
    stacked computation; the reported error per grid point is the mean over
    held-out folds.
    """
    return _cross_validate(final, data, kfold_splits(data.n, K, rng))


def forward_cv(final: RidgeFold, sample: Dataset, K: int, target: DomainSpec,
               rng: SeededRng) -> CvTrace:
    """K-fold cross-validation that always validates nearest the target.

    The ``FORWARD_FRACTION`` of the sample nearest ``target`` is first held
    out of training entirely; the far part is partitioned into K folds.
    Iteration k trains on the far part minus fold k and validates on fold k
    plus the whole near-target part, so every validation set contains the
    observations closest to where the model will be applied. Folds are
    scored as in :func:`kfold_cv`.
    """
    return _cross_validate(final, sample, forward_splits(sample, K, target, rng))


def rolling_cv(final: RidgeFold, data: Dataset, window_length: int) -> CvTrace:
    """Rolling-window cross-validation for time-ordered data.

    Every window origin fits on ``window_length`` consecutive observations
    and scores on the next one, so training never sees the future. Rows must
    carry a nondecreasing ``time_index``. Windows are scored as in
    :func:`kfold_cv`.
    """
    if data.time_index is None:
        raise DataError("rolling cross-validation requires time-indexed data")
    if np.any(np.diff(data.time_index) < 0):
        raise DataError("time_index must be nondecreasing")
    if data.n <= window_length:
        raise DataError("series shorter than window_length + 1")
    return _cross_validate(final, data, rolling_splits(data.n, window_length))


@dataclass(frozen=True)
class RidgeFold:
    """One training sample's penalized least-squares problem.

    ``design`` is ``(1, standardized features)`` of the sample and
    ``theta_m`` the benchmark projection on the same scale. :meth:`_pose`
    poses the problem on a stack of samples; the fold itself is the stack of
    one sample of every row, and cross-validation's :meth:`cv_errors` poses
    every split's training rows at once and scores every grid point on the
    split's held-out rows. :meth:`fit` then refits at the penalty the
    cross-validation chose, with the per-``lam`` closed form of :meth:`solve`.
    """

    design: np.ndarray
    outcome: np.ndarray
    transform: StandardizeTransform
    theta_m: np.ndarray
    penalty: PenaltySpec
    feature_map: FeatureMap

    @classmethod
    def _of_sample(cls, train: Dataset, feature_map: FeatureMap, penalty: PenaltySpec,
                   theta_m) -> RidgeFold:
        """``train``'s fold, posed as a stack of one sample: every row, weight 1."""
        posed = cls._pose(feature_map.transform(train.inputs), train, np.arange(train.n)[None],
                          np.ones((1, train.n)), lambda index, error: error)
        transform = StandardizeTransform(posed["means"][0], posed["scales"][0],
                                         float(train.outcome.mean()))
        arrays = {f.name: posed[f.name][0] for f in fields(cls) if f.name in posed}
        return cls(**arrays, transform=transform, theta_m=theta_m(transform), penalty=penalty,
                   feature_map=feature_map)

    @classmethod
    def _pose(cls, F, data, rows, weight, fail) -> dict:
        """The problem of every sample in a stack, each array with a leading stack axis.

        Sample ``s`` is the rows ``rows[s]`` of ``data`` where ``weight[s]``
        is 1, with expanded features ``F[rows[s]]``; it is standardized on
        those rows alone, as :func:`~structreg.data.standardize` would. The
        result holds the samples' ``means`` and ``scales`` and their
        ``design`` and ``outcome`` (0 on unused rows). A sample that cannot be
        posed raises ``fail(s, error)``.
        """
        count = weight.sum(axis=1)
        if np.any(count < 2):
            raise fail(int(np.argmax(count < 2)),
                       DataError("standardize requires at least two rows"))
        means, scales, centered = stacked_standardization(F[rows], weight)
        design = np.concatenate([weight[:, :, None], centered / scales[:, None, :]], axis=2)
        return {"means": means, "scales": scales, "design": design,
                "outcome": data.outcome[rows] * weight}

    def _normal_equations(self, posed) -> tuple[np.ndarray, np.ndarray]:
        """Every posed sample's ``(X'X, X'y)``."""
        Xt = posed["design"].swapaxes(1, 2)
        return Xt @ posed["design"], (Xt @ posed["outcome"][:, :, None])[:, :, 0]

    def _held_out_error(self, posed, data, splits, resid) -> np.ndarray:
        """Every split's held-out mean squared error, one column per grid point."""
        return (resid * resid).sum(axis=1) / splits.val_weight.sum(axis=1)[:, None]

    def cv_errors(self, data: Dataset, splits: CvSplits) -> np.ndarray:
        """Held-out error of every grid point on every split, ``(splits, grid)``.

        Every split's training rows are posed at once by :meth:`_pose`,
        ``theta_m`` is re-expressed on each split's standardization (which
        equals projecting the benchmark afresh on that scale), and one
        stacked :func:`~structreg.sre.quadratic_path` call solves every
        split's path. A split that cannot be posed or solved raises
        :class:`CvError` naming it and, for a solve, its first offending grid
        point.
        """
        F = self.feature_map.transform(data.inputs)
        posed = self._pose(F, data, splits.train, splits.train_weight, splits.failure)
        means, scales = posed["means"], posed["scales"]
        G, b = self._normal_equations(posed)
        theta_m = _express_in_transform(_to_raw(self.theta_m, self.transform), means, scales)
        finite = np.isfinite(G).all(axis=(1, 2)) & np.isfinite(b).all(axis=1) & np.isfinite(
            theta_m).all(axis=1)
        if not finite.all():
            raise splits.failure(int(np.argmin(finite)), "G, b and theta_m must be finite")
        grid = self.penalty.lambda_grid
        try:
            thetas = quadratic_path(G, b, self.penalty.weights, theta_m, grid)
        except SingularPathError as exc:
            raise splits.failure(exc.index, exc, exc.lam) from exc
        bad = ~np.isfinite(thetas).all(axis=2)
        if bad.any():
            first = int(np.argmax(bad.any(axis=1)))
            raise splits.failure(first, "non-finite coefficients",
                                 float(grid[np.argmax(bad[first])]))
        F_val = (F[splits.val] - means[:, None, :]) / scales[:, None, :]
        predictions = thetas[:, None, :, 0] + F_val @ thetas[:, :, 1:].swapaxes(1, 2)
        resid = (data.outcome[splits.val][:, :, None] - predictions) * splits.val_weight[:, :, None]
        return self._held_out_error(posed, data, splits, resid)

    def solve(self, lam: float) -> np.ndarray:
        """Coefficients at one penalty strength."""
        return sre_ridge(self.design, self.outcome, self.theta_m, self.penalty, lam)

    def fit(self, trace: CvTrace) -> SREFit:
        """The fit at the trace's ``lambda_star``, carrying the trace in ``parts``."""
        lam = trace.lambda_star
        return SREFit(self.solve(lam), self.transform, self.theta_m, lam, self.feature_map,
                      cv=trace.kind, parts=(trace,))


def ridge_fold(train: Dataset, feature_map: FeatureMap, penalty: PenaltySpec,
               theta_m) -> RidgeFold:
    """The sample's :class:`RidgeFold` over its standardized expanded features;
    ``theta_m(transform)`` gives the benchmark projection on that scale."""
    return RidgeFold._of_sample(train, feature_map, penalty, theta_m)


def _to_raw(coefficients, transform) -> np.ndarray:
    slopes = coefficients[1:] / transform.column_scales
    intercept = coefficients[0] - float(slopes @ transform.column_means)
    return np.concatenate([[intercept], slopes])


def _express_in_transform(raw, means, scales) -> np.ndarray:
    """Raw-scale coefficients over ``(F - means) / scales``; ``means`` and
    ``scales`` may carry a leading stack axis, one row per standardization."""
    intercept = raw[0] + means @ raw[1:]
    return np.concatenate([np.asarray(intercept)[..., None], raw[1:] * scales], axis=-1)
