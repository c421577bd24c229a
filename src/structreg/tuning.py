"""Penalty selection and the second stage's select-and-fit step.

Three cross-validation flavors pick the penalty strength: standard K-fold for
i.i.d. data, a forward variant that always validates on the subsample nearest
a known target input region, and a rolling-window variant for series data.

Every study's second stage is one select-and-fit step on a fold
(:class:`RidgeFold`, or the demand study's moment fold): the posed problems
of a stack of fitting samples of one size, a block of the auction or demand
study's trials or the entry/exit study's one trial. It builds the fold with
:meth:`~RidgeFold.of_samples` on the halves of the samples the structural
stage did not use, cross-validates it with :func:`kfold_cv`,
:func:`forward_cv` or :func:`rolling_cv` (one :class:`CvTrace` per sample),
and returns :meth:`~RidgeFold.fit` of the traces (one fit per sample). The
fold keeps its samples and fixes everything the cross-validation needs: its
penalty's grid and :meth:`~RidgeFold.cross_validate`, which scores that grid
on every split of every sample's :class:`CvSplits` in one stacked array
computation. A split is row indices into its sample with 0/1 row weights (a
sliding window of rows for rolling cross-validation), so no per-split sample
or fold is built.

A fold takes the benchmark ``theta_m`` as raw-scale coefficients over
``(1, F(x))`` and keeps it so; each solve re-expresses it on the
standardization it poses, every split's and each sample's own, by its affine
map.

A second-stage problem is posed in one place, the fold's ``_pose``, which
poses a stack of samples at once: the cross-validation's splits, or the
fitting samples themselves (every row, weight 1), which is how
:meth:`~RidgeFold.of_samples` builds the fold. It is solved in one place too:
:func:`~structreg.sre.quadratic_path` solves every split's path, and each
final fit is its sample's path at the one penalty its cross-validation chose.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import (
    DataError,
    Dataset,
    DomainSpec,
    StandardizeTransform,
    forward_split_rows,
    partition_sizes,
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
    Every fold error must be finite, so that no ``lambda_star`` is read off
    an overflow or a NaN.
    """

    kind: str
    lambda_grid: np.ndarray
    fold_errors: np.ndarray
    mean_errors: np.ndarray = field(init=False)
    lambda_star: float = field(init=False)

    def __post_init__(self):
        grid = np.asarray(self.lambda_grid, float)
        errors = np.asarray(self.fold_errors, float)
        if not np.isfinite(errors).all():
            raise CvError("fold errors must be finite")
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

    def failure(self, index: int, reason, lam: float | None = None,
                sample: int | None = None) -> CvError:
        """The error naming split ``index``, when given the sample of a stack
        it belongs to, and, when known, its grid point; ``reason`` is a
        message or the error the split raised."""
        of = "" if sample is None else f" of sample {sample}"
        at = "" if lam is None else f" at lambda={lam}"
        return CvError(f"fitter failed on {self.unit} {index}{of}{at}: {reason}")


def _fold_rows(rows: np.ndarray, K: int, rngs) -> tuple[np.ndarray, ...]:
    """``(train, train_weight, val, val_weight)`` of K random folds of each
    sample's rows, ``rows[s]`` partitioned by ``rngs[s]`` as
    :func:`~structreg.data.partition_indices` would: split ``s * K + k``
    validates on fold k of sample s and trains on its other folds, each
    padded to the largest split with rows of weight 0. Every sample draws
    its own permutation; the splits of all samples are then built in one
    pass."""
    S, n = rows.shape
    size = partition_sizes(n, K)
    longest, shortest = size[0], size[-1]
    # fold k holds the k-th run of size[k] entries of the sample's permutation
    label = np.empty((S, n), dtype=np.intp)
    np.put_along_axis(label, np.stack([rng.generator().permutation(n)
                                       for _, rng in zip(rows, rngs, strict=True)]),
                      np.repeat(np.arange(K), size)[None], axis=1)
    in_fold = (label[:, None, :] == np.arange(K)[:, None]).reshape(S * K, n)
    # a stable sort lists a split's training rows, then its own, each in sample order
    order = np.argsort(in_fold, axis=1, kind="stable")
    own = np.tile(size, S)[:, None]
    train = order[:, : n - shortest]
    # the split's own rows, then its first training rows as padding
    val = np.take_along_axis(order, (n - own + np.arange(longest)) % n, axis=1)

    def sample_rows(positions):
        return np.take_along_axis(rows, positions.reshape(S, -1), axis=1).reshape(S * K, -1)

    return (sample_rows(train), (np.arange(n - shortest) < n - own).astype(float),
            sample_rows(val), (np.arange(longest) < own).astype(float))


def _each_sample(kind: str, K: int, *arrays) -> list[CvSplits]:
    """The per-sample :class:`CvSplits` of a block's split arrays, K splits a sample."""
    return [CvSplits(kind, *(part[start:start + K] for part in arrays))
            for start in range(0, len(arrays[0]), K)]


def kfold_splits(n: int, K: int, rngs) -> list[CvSplits]:
    """K random folds of each sample of a block of samples of ``n`` rows,
    sample ``s`` partitioned by ``rngs[s]``: fold k validates, the others
    train."""
    return _each_sample("kfold", K, *_fold_rows(np.broadcast_to(np.arange(n), (len(rngs), n)),
                                                K, rngs))


def forward_splits(samples, K: int, target: DomainSpec, rngs) -> list[CvSplits]:
    """K folds of the far part of each sample of a block of samples of one
    size, each validated with the near part; sample ``s`` is partitioned by
    ``rngs[s]``.

    The ``FORWARD_FRACTION`` of a sample's rows nearest ``target`` never
    trains; split k trains on the far part minus fold k and validates on
    fold k plus the whole near part.
    """
    far, near = (np.stack(part) for part in zip(
        *(forward_split_rows(sample, target, FORWARD_FRACTION) for sample in samples)))
    if far.shape[1] < K:
        raise DataError(f"cannot form {K} folds from {far.shape[1]} far-part rows")
    train, train_weight, val, val_weight = _fold_rows(far, K, rngs)
    near = np.repeat(near, K, axis=0)
    return _each_sample("forward", K, train, train_weight, np.concatenate([val, near], axis=1),
                        np.concatenate([val_weight, np.ones(near.shape)], axis=1))


def rolling_splits(n: int, window_length: int) -> CvSplits:
    """Every window of ``window_length`` consecutive rows, validated on the next row."""
    train = sliding_window_view(np.arange(n), window_length)[:-1]
    val = np.arange(window_length, n)[:, None]
    return CvSplits("rolling", train, np.ones(train.shape), val, np.ones(val.shape))


def kfold_cv(fold: RidgeFold, K: int, rngs) -> list[CvTrace]:
    """Standard K-fold cross-validation of every sample of ``fold`` over its
    penalty grid, sample ``s`` partitioned by ``rngs[s]``.

    Every training fold of a sample is standardized on its own rows and
    scored at every grid point on its held-out rows by
    :meth:`RidgeFold.cross_validate`, every fold of every sample in one
    stacked computation; the reported error per grid point is the mean over
    held-out folds.
    """
    return fold.cross_validate(kfold_splits(fold.samples[0].n, K, rngs))


def forward_cv(fold: RidgeFold, K: int, target: DomainSpec, rngs) -> list[CvTrace]:
    """K-fold cross-validation that always validates nearest the target.

    The ``FORWARD_FRACTION`` of each sample of ``fold`` nearest ``target``
    is first held out of training entirely; the far part is partitioned
    into K folds by the sample's own rng in ``rngs``. Iteration k trains on
    the far part minus fold k and validates on fold k plus the whole
    near-target part, so every validation set contains the observations
    closest to where the model will be applied. Folds are scored as in
    :func:`kfold_cv`.
    """
    return fold.cross_validate(forward_splits(fold.samples, K, target, rngs))


def rolling_cv(fold: RidgeFold, window_length: int) -> list[CvTrace]:
    """Rolling-window cross-validation for time-ordered data.

    Every window origin fits on ``window_length`` consecutive observations
    of a sample of ``fold`` and scores on the next one, so training never
    sees the future. Every sample's rows must carry a nondecreasing
    ``time_index``. Windows are scored as in :func:`kfold_cv`.
    """
    for data in fold.samples:
        if data.time_index is None:
            raise DataError("rolling cross-validation requires time-indexed data")
        if np.any(np.diff(data.time_index) < 0):
            raise DataError("time_index must be nondecreasing")
    n = fold.samples[0].n
    if n <= window_length:
        raise DataError("series shorter than window_length + 1")
    return fold.cross_validate([rolling_splits(n, window_length)] * len(fold.samples))


@dataclass(frozen=True)
class RidgeFold:
    """The penalized least-squares problems of a stack of training samples of one size.

    ``stacked`` holds every sample's rows in turn and ``features`` their
    expanded features. ``G`` and ``b`` are each sample's normal equations
    ``(X'X, X'y)`` over the design ``(1, standardized features)``, with the
    standardization's ``means`` and ``scales``, and ``theta_m`` each sample's
    benchmark projection as raw-scale coefficients over ``(1, features)``,
    all with a leading stack axis. :meth:`_pose` poses the problem on a
    stack of samples; :meth:`of_samples` poses the samples themselves (every
    row, weight 1), and cross-validation's :meth:`cross_validate` poses every
    split's training rows at once and scores every grid point on the split's
    held-out rows. :meth:`fit` then solves each sample's own path at the
    penalty its cross-validation chose.
    """

    samples: tuple[Dataset, ...]
    stacked: Dataset
    features: np.ndarray
    G: np.ndarray
    b: np.ndarray
    means: np.ndarray
    scales: np.ndarray
    theta_m: np.ndarray
    penalty: PenaltySpec
    feature_map: FeatureMap

    @classmethod
    def of_samples(cls, samples, feature_map: FeatureMap, penalty: PenaltySpec,
                   theta_m) -> RidgeFold:
        """The samples' fold over their standardized expanded features, every
        sample posed in one stack (all its rows, weight 1); the samples have
        one row count. ``theta_m`` holds raw-scale benchmark coefficients,
        one row per sample or one vector that every sample shares: the
        auction study's one cached projection, the demand study each trial's
        estimated demand line. A sample that cannot be posed raises its
        error, naming the sample in a stack of more than one."""
        if len({sample.n for sample in samples}) != 1:
            raise DataError("the samples of a stack must have one row count")
        data, n = _stacked_sample(samples), samples[0].n
        features = feature_map.transform(data.inputs)
        rows = n * np.arange(len(samples))[:, None] + np.arange(n)

        def fail(index, error):
            # a stack of several samples names the one that cannot be posed
            return error if len(samples) == 1 else type(error)(f"{error} of sample {index}")

        posed = cls._pose(features, data, rows, np.ones(rows.shape), fail)
        G, b = cls._normal_equations(posed)
        return cls(tuple(samples), data, features, G, b, posed["means"], posed["scales"],
                   np.broadcast_to(theta_m, (len(samples), feature_map.n_features + 1)),
                   penalty, feature_map)

    @classmethod
    def _pose(cls, F, data, rows, weight, fail) -> dict:
        """The problem of every sample in a stack, each array with a leading stack axis.

        Sample ``s`` is the rows ``rows[s]`` of ``data`` where ``weight[s]``
        is 1, with expanded features ``F[rows[s]]``; it is standardized on
        those rows alone, as :func:`~structreg.data.standardize` would. The
        result holds the samples' ``means`` and ``scales`` and their
        ``design`` and ``outcome`` (0 on unused rows). A sample that cannot be
        posed raises ``fail(s, error)``.

        The standardization keeps one summation order over a sample's rows:
        row by row for two or more feature columns, numpy's pairwise sum for
        one column (:func:`~structreg.data.stacked_standardization`). The
        design is written into a C-ordered ``(S, r, c + 1)`` array, because
        :meth:`_normal_equations` multiplies it by its own transpose and a
        matrix product's rounding can follow the layout of its operands;
        ``means`` and ``scales`` are C-ordered for the same reason.
        """
        count = weight.sum(axis=1)
        if np.any(count < 2):
            raise fail(int(np.argmax(count < 2)),
                       DataError("standardize requires at least two rows"))
        means, scales, standardized = stacked_standardization(F, rows, weight)
        design = np.empty(rows.shape + (F.shape[1] + 1,))
        design[:, :, 0] = weight
        design[:, :, 1:] = standardized
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

    def cross_validate(self, splits) -> list[CvTrace]:
        """Each sample's error curve over its own splits, ``splits[s]`` the
        :class:`CvSplits` of sample ``s``, every split of every sample in one
        stacked array computation.

        The splits share one shape. Every split's training rows are posed at
        once by :meth:`_pose`, each sample's ``theta_m`` is re-expressed on
        each of its splits' standardization, and one stacked
        :func:`~structreg.sre.quadratic_path` call solves every split's path.
        A split that cannot be posed or solved, or whose held-out error is
        not finite (an overflow, say), raises :class:`CvError` naming its
        index, in a stack of more than one sample also its sample, and, for
        a solve or an error, its first offending grid point.
        """
        if len(splits) != len(self.samples):
            raise DataError(f"{len(splits)} sets of splits for {len(self.samples)} samples")
        stack = _stacked_splits(splits, self.samples[0].n)
        ends = list(accumulate(len(part.train) for part in splits))
        rows = [slice(end - len(part.train), end) for part, end in zip(splits, ends)]

        def fail(index, reason, lam=None):
            s = bisect_right(ends, index)
            return splits[s].failure(index - rows[s].start, reason, lam,
                                     s if len(splits) > 1 else None)

        data, F = self.stacked, self.features
        posed = self._pose(F, data, stack.train, stack.train_weight, fail)
        means, scales = posed["means"], posed["scales"]
        G, b = self._normal_equations(posed)
        theta_m = np.concatenate([_express_in_transform(m, means[r], scales[r])
                                  for m, r in zip(self.theta_m, rows)])
        finite = np.isfinite(G).all(axis=(1, 2)) & np.isfinite(b).all(axis=1) & np.isfinite(
            theta_m).all(axis=1)
        if not finite.all():
            raise fail(int(np.argmin(finite)), "G, b and theta_m must be finite")
        grid = self.penalty.lambda_grid
        try:
            thetas = quadratic_path(G, b, self.penalty.weights, theta_m, grid)
        except SingularPathError as exc:
            raise fail(exc.index, exc, exc.lam) from exc
        bad = ~np.isfinite(thetas).all(axis=2)
        if bad.any():
            index = int(np.argmax(bad.any(axis=1)))
            raise fail(index, "non-finite coefficients", float(grid[np.argmax(bad[index])]))
        F_val = (F[stack.val] - means[:, None, :]) / scales[:, None, :]
        predictions = thetas[:, None, :, 0] + F_val @ thetas[:, :, 1:].swapaxes(1, 2)
        resid = (data.outcome[stack.val][:, :, None] - predictions) * stack.val_weight[:, :, None]
        with np.errstate(over="ignore", invalid="ignore"):
            errors = self._held_out_error(data, posed, stack, resid)
        bad = ~np.isfinite(errors)
        if bad.any():
            index = int(np.argmax(bad.any(axis=1)))
            raise fail(index, "non-finite held-out error", float(grid[np.argmax(bad[index])]))
        return [CvTrace(part.kind, grid, errors[r]) for part, r in zip(splits, rows)]

    def fit(self, traces) -> list[SREFit]:
        """Each sample's fit at its own trace's ``lambda_star``, carrying the
        trace and the sample's ``theta_m`` re-expressed on its
        standardization, from one :func:`~structreg.sre.quadratic_path` call
        with one penalty row per sample.

        A sample that is singular at its ``lambda_star`` raises
        :class:`~structreg.sre.SingularPathError` naming that penalty and the
        sample's place in the stack.
        """
        lam = np.array([[trace.lambda_star] for trace in traces])
        theta_m = np.stack([_express_in_transform(m, mu, sd)
                            for m, mu, sd in zip(self.theta_m, self.means, self.scales)])
        theta = quadratic_path(self.G, self.b, self.penalty.weights, theta_m, lam)[:, 0]
        return [SREFit(t, StandardizeTransform(mu, sd, float(sample.outcome.mean())), m,
                       trace.lambda_star, self.feature_map, trace)
                for t, m, mu, sd, sample, trace in zip(theta, theta_m, self.means, self.scales,
                                                        self.samples, traces, strict=True)]


def _stacked_sample(samples) -> Dataset:
    """One sample of every sample's rows in turn."""
    if len(samples) == 1:
        return samples[0]

    def rows(name):
        parts = [getattr(sample, name) for sample in samples]
        return None if parts[0] is None else np.concatenate(parts)

    return Dataset(rows("inputs"), rows("outcome"), rows("instruments"), rows("time_index"))


def _stacked_splits(splits, n: int) -> CvSplits:
    """Every sample's splits in one stack, their rows moved to the stacked
    sample's, where sample ``s`` starts at row ``s * n``; the splits share
    one width, so no sum over a split's rows is padded with rows of weight 0
    it would not have alone."""
    if len(splits) == 1:
        return splits[0]
    if len({(part.train.shape[1], part.val.shape[1]) for part in splits}) != 1:
        raise DataError("the splits of a stack must have one width")
    shift = np.repeat(n * np.arange(len(splits)), [part.train.shape[0] for part in splits])[:, None]
    return CvSplits(splits[0].kind, np.concatenate([part.train for part in splits]) + shift,
                    np.concatenate([part.train_weight for part in splits]),
                    np.concatenate([part.val for part in splits]) + shift,
                    np.concatenate([part.val_weight for part in splits]))


def _express_in_transform(raw, means, scales) -> np.ndarray:
    """Raw-scale coefficients over ``(F - means) / scales``; ``means`` and
    ``scales`` may carry a leading stack axis, one row per standardization."""
    intercept = raw[0] + means @ raw[1:]
    return np.concatenate([np.asarray(intercept)[..., None], raw[1:] * scales], axis=-1)
