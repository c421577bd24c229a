"""Penalty selection and the second stage's select-and-fit step.

Three cross-validation flavors pick the penalty strength: standard K-fold for
i.i.d. data, a forward variant that always validates on the subsample nearest
a known target input region, and a rolling-window variant for series data.

Every study's second stage is one select-and-fit step on a fold object
(:class:`RidgeFold`, or the demand study's moment fold): it builds the fold
with :meth:`~RidgeFold.of_sample` on the half of the sample the structural
stage did not use, passes it to the cross-validation, and returns
:meth:`~RidgeFold.fit` of the resulting :class:`CvTrace`. The fold keeps its
sample and fixes everything the cross-validation needs: its penalty's grid and
:meth:`~RidgeFold.cv_errors`, which scores that grid on every split of a
:class:`CvSplits` of the sample in one stacked array computation. A split is
row indices into the sample with 0/1 row weights (a sliding window of rows
for rolling cross-validation), so no per-split sample or fold is built.

A second-stage problem is posed in one place, the fold's ``_pose``, which
poses a stack of samples at once: the cross-validation's splits, or the
fitting samples themselves (every row, weight 1), which is how
:meth:`~RidgeFold.of_samples` builds folds. It is solved in one place too:
:func:`~structreg.sre.quadratic_path` solves every split's path, and the
final fit is the fold's path at the one penalty the cross-validation chose.
Several folds of one shape (a block of the auction or demand study's trials)
go through each step as one stack: :meth:`~RidgeFold.of_samples`,
:meth:`~RidgeFold.cross_validate_all` and :meth:`~RidgeFold.fit_all`; a single
fold's :meth:`~RidgeFold.of_sample`, :meth:`~RidgeFold.cross_validate` and
:meth:`~RidgeFold.fit` are their stacks of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

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
    sre_ridge,  # noqa: F401  perfbench/selftest.py reads it as tuning.sre_ridge
)

FORWARD_FRACTION = 1.0 / 6.0


class CvError(RuntimeError):
    """Cross-validation failed on a specific fold or window."""


@dataclass(frozen=True)
class CvTrace:
    """Validation-error record of one cross-validation run.

    ``fold_errors`` has one row per fold (or window) and one column per grid
    point; ``mean_errors`` is its mean over folds, and ``lambda_star`` attains
    the minimum mean error, exact ties resolving to the smallest penalty.
    """

    kind: str
    lambda_grid: np.ndarray
    fold_errors: np.ndarray
    mean_errors: np.ndarray = field(init=False)
    lambda_star: float = field(init=False)

    def __post_init__(self):
        grid = np.asarray(self.lambda_grid, float)
        errors = np.asarray(self.fold_errors, float)
        mean_errors = errors.mean(axis=0)
        object.__setattr__(self, "lambda_grid", grid)
        object.__setattr__(self, "fold_errors", errors)
        object.__setattr__(self, "mean_errors", mean_errors)
        object.__setattr__(self, "lambda_star", float(grid[int(np.argmin(mean_errors))]))


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


def kfold_cv(fold: RidgeFold, K: int, rng: SeededRng) -> CvTrace:
    """Standard K-fold cross-validation of ``fold`` over its penalty grid.

    Every training fold of the fold's sample is standardized on its own rows
    and scored at every grid point on its held-out rows by
    :meth:`RidgeFold.cross_validate`, all folds in one stacked computation;
    the reported error per grid point is the mean over held-out folds.
    """
    return fold.cross_validate(kfold_splits(fold.sample.n, K, rng))


def forward_cv(fold: RidgeFold, K: int, target: DomainSpec, rng: SeededRng) -> CvTrace:
    """K-fold cross-validation that always validates nearest the target.

    The ``FORWARD_FRACTION`` of the fold's sample nearest ``target`` is first
    held out of training entirely; the far part is partitioned into K folds.
    Iteration k trains on the far part minus fold k and validates on fold k
    plus the whole near-target part, so every validation set contains the
    observations closest to where the model will be applied. Folds are
    scored as in :func:`kfold_cv`.
    """
    return fold.cross_validate(forward_splits(fold.sample, K, target, rng))


def rolling_cv(fold: RidgeFold, window_length: int) -> CvTrace:
    """Rolling-window cross-validation for time-ordered data.

    Every window origin fits on ``window_length`` consecutive observations
    of the fold's sample and scores on the next one, so training never sees
    the future. Rows must carry a nondecreasing ``time_index``. Windows are
    scored as in :func:`kfold_cv`.
    """
    data = fold.sample
    if data.time_index is None:
        raise DataError("rolling cross-validation requires time-indexed data")
    if np.any(np.diff(data.time_index) < 0):
        raise DataError("time_index must be nondecreasing")
    if data.n <= window_length:
        raise DataError("series shorter than window_length + 1")
    return fold.cross_validate(rolling_splits(data.n, window_length))


@dataclass(frozen=True)
class RidgeFold:
    """One training sample's penalized least-squares problem.

    ``G`` and ``b`` are the ``sample``'s normal equations ``(X'X, X'y)`` over
    the design ``(1, standardized features)`` and ``theta_m`` the benchmark
    projection on the same scale. :meth:`_pose` poses the problem on a stack
    of samples; :meth:`of_sample` builds the fold as the stack of one sample
    of every row, and cross-validation's :meth:`cv_errors` poses every split's
    training rows at once and scores every grid point on the split's held-out
    rows. :meth:`fit` then solves the fold's own path at the penalty the
    cross-validation chose.
    """

    sample: Dataset
    G: np.ndarray
    b: np.ndarray
    transform: StandardizeTransform
    theta_m: np.ndarray
    penalty: PenaltySpec
    feature_map: FeatureMap

    @classmethod
    def of_sample(cls, sample: Dataset, feature_map: FeatureMap, penalty: PenaltySpec,
                  theta_m) -> RidgeFold:
        """The sample's fold over its standardized expanded features, with
        ``theta_m(transform)`` the benchmark projection on the sample's
        standardization: the stack of one of :meth:`of_samples`."""
        return cls.of_samples([sample], feature_map, penalty,
                              lambda transforms: [theta_m(transforms[0])])[0]

    @classmethod
    def of_samples(cls, samples, feature_map: FeatureMap, penalty: PenaltySpec,
                   theta_m) -> list[RidgeFold]:
        """Each sample's fold over its standardized expanded features, every
        sample posed in one stack (all its rows, weight 1); the samples have
        one row count. ``theta_m(transforms)`` gives every sample's benchmark
        projection, each on its own sample's standardization, so each sample
        brings its own benchmark: the auction study projects one benchmark on
        each trial's scale, the demand study each trial's own pricing model
        in one batched solve."""
        if len({sample.n for sample in samples}) != 1:
            raise DataError("the samples of a stack must have one row count")
        data, offsets = _stacked_sample(samples)
        rows = offsets[:, None] + np.arange(samples[0].n)
        posed = cls._pose(feature_map.transform(data.inputs), data, rows, np.ones(rows.shape),
                          lambda index, error: error)
        G, b = cls._normal_equations(posed)
        transforms = [StandardizeTransform(posed["means"][s], posed["scales"][s],
                                           float(sample.outcome.mean()))
                      for s, sample in enumerate(samples)]
        return [cls(sample, G[s], b[s], transform, projection, penalty, feature_map)
                for s, (sample, transform, projection)
                in enumerate(zip(samples, transforms, theta_m(transforms)))]

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

    @staticmethod
    def _normal_equations(posed) -> tuple[np.ndarray, np.ndarray]:
        """Every posed sample's ``(X'X, X'y)``."""
        Xt = posed["design"].swapaxes(1, 2)
        return Xt @ posed["design"], (Xt @ posed["outcome"][:, :, None])[:, :, 0]

    @classmethod
    def _held_out_error(cls, data, posed, splits, resid) -> np.ndarray:
        """Every split's held-out mean squared error, one column per grid point."""
        return (resid * resid).sum(axis=1) / splits.val_weight.sum(axis=1)[:, None]

    def cv_errors(self, splits: CvSplits) -> np.ndarray:
        """Held-out error of every grid point on every split of the sample,
        ``(splits, grid)``: the stack of one of :meth:`cross_validate_all`."""
        return self.cross_validate_all([self], [splits])[0].fold_errors

    def cross_validate(self, splits: CvSplits) -> CvTrace:
        """The fold's error curve over every split at once."""
        return self.cross_validate_all([self], [splits])[0]

    @staticmethod
    def cross_validate_all(folds, splits) -> list[CvTrace]:
        """Each fold's error curve over its own splits, every split of every
        fold in one stacked array computation.

        The folds share one class, feature map and penalty, and their splits
        one shape. Every split's training rows are posed at once by
        :meth:`_pose`, each fold's ``theta_m`` is re-expressed on each of its
        splits' standardization (which equals projecting the benchmark afresh
        on that scale), and one stacked :func:`~structreg.sre.quadratic_path`
        call solves every split's path. A split that cannot be posed or
        solved raises :class:`CvError` naming its place in the stack and, for
        a solve, its first offending grid point.
        """
        _check_stack(folds)
        cls, first = type(folds[0]), folds[0]
        data, offsets = _stacked_sample([fold.sample for fold in folds])
        stack = _stacked_splits(splits, offsets)
        F = first.feature_map.transform(data.inputs)
        posed = cls._pose(F, data, stack.train, stack.train_weight, stack.failure)
        means, scales = posed["means"], posed["scales"]
        G, b = cls._normal_equations(posed)
        ends = list(accumulate(len(part.train) for part in splits))
        rows = [slice(end - len(part.train), end) for part, end in zip(splits, ends)]
        theta_m = np.concatenate([
            _express_in_transform(_to_raw(fold.theta_m, fold.transform), means[r], scales[r])
            for fold, r in zip(folds, rows)])
        finite = np.isfinite(G).all(axis=(1, 2)) & np.isfinite(b).all(axis=1) & np.isfinite(
            theta_m).all(axis=1)
        if not finite.all():
            raise stack.failure(int(np.argmin(finite)), "G, b and theta_m must be finite")
        grid = first.penalty.lambda_grid
        try:
            thetas = quadratic_path(G, b, first.penalty.weights, theta_m, grid)
        except SingularPathError as exc:
            raise stack.failure(exc.index, exc, exc.lam) from exc
        bad = ~np.isfinite(thetas).all(axis=2)
        if bad.any():
            index = int(np.argmax(bad.any(axis=1)))
            raise stack.failure(index, "non-finite coefficients",
                                float(grid[np.argmax(bad[index])]))
        F_val = (F[stack.val] - means[:, None, :]) / scales[:, None, :]
        predictions = thetas[:, None, :, 0] + F_val @ thetas[:, :, 1:].swapaxes(1, 2)
        resid = (data.outcome[stack.val][:, :, None] - predictions) * stack.val_weight[:, :, None]
        errors = cls._held_out_error(data, posed, stack, resid)
        return [CvTrace(part.kind, grid, errors[r]) for part, r in zip(splits, rows)]

    def fit(self, trace: CvTrace) -> SREFit:
        """The fit at the trace's ``lambda_star``, carrying the trace: the
        stack of one of :meth:`fit_all`."""
        return self.fit_all([self], [trace])[0]

    @staticmethod
    def fit_all(folds, traces) -> list[SREFit]:
        """Each fold's fit at its own trace's ``lambda_star``, carrying the
        trace, from one :func:`~structreg.sre.quadratic_path` call with one
        penalty row per fold.

        A fold that is singular at its ``lambda_star`` raises
        :class:`~structreg.sre.SingularPathError` naming that penalty and the
        fold's place in the stack.
        """
        _check_stack(folds)
        lam = np.array([[trace.lambda_star] for trace in traces])
        theta = quadratic_path(np.stack([fold.G for fold in folds]),
                               np.stack([fold.b for fold in folds]), folds[0].penalty.weights,
                               np.stack([fold.theta_m for fold in folds]), lam)[:, 0]
        return [SREFit(t, fold.transform, fold.theta_m, trace.lambda_star, fold.feature_map, trace)
                for t, fold, trace in zip(theta, folds, traces)]


def _check_stack(folds) -> None:
    first = folds[0]
    if any(type(fold) is not type(first) or fold.feature_map != first.feature_map
           or not np.array_equal(fold.penalty.lambda_grid, first.penalty.lambda_grid)
           or not np.array_equal(fold.penalty.weights, first.penalty.weights)
           for fold in folds[1:]):
        raise ValueError("the folds of a stack must share one class, feature map and penalty")


def _stacked_sample(samples) -> tuple[Dataset, np.ndarray]:
    """One sample of every sample's rows in turn, and the row each one starts at."""
    if len(samples) == 1:
        return samples[0], np.zeros(1, dtype=int)
    sizes = [sample.n for sample in samples]

    def rows(name):
        parts = [getattr(sample, name) for sample in samples]
        return None if parts[0] is None else np.concatenate(parts)

    return (Dataset(rows("inputs"), rows("outcome"), rows("instruments"), rows("time_index")),
            np.cumsum(sizes) - sizes)


def _stacked_splits(splits, offsets) -> CvSplits:
    """Every fold's splits in one stack, their rows moved to the stacked
    sample's; the splits share one width, so no sum over a split's rows is
    padded with rows of weight 0 it would not have alone."""
    if len(splits) == 1:
        return splits[0]
    if len({(part.train.shape[1], part.val.shape[1]) for part in splits}) != 1:
        raise DataError("the splits of a stack must have one width")
    shift = np.repeat(offsets, [part.train.shape[0] for part in splits])[:, None]
    return CvSplits(splits[0].kind, np.concatenate([part.train for part in splits]) + shift,
                    np.concatenate([part.train_weight for part in splits]),
                    np.concatenate([part.val for part in splits]) + shift,
                    np.concatenate([part.val_weight for part in splits]))


def _to_raw(coefficients, transform) -> np.ndarray:
    slopes = coefficients[1:] / transform.column_scales
    intercept = coefficients[0] - float(slopes @ transform.column_means)
    return np.concatenate([[intercept], slopes])


def _express_in_transform(raw, means, scales) -> np.ndarray:
    """Raw-scale coefficients over ``(F - means) / scales``; ``means`` and
    ``scales`` may carry a leading stack axis, one row per standardization."""
    intercept = raw[0] + means @ raw[1:]
    return np.concatenate([np.asarray(intercept)[..., None], raw[1:] * scales], axis=-1)
