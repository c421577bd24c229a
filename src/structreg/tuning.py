"""Penalty selection and the second stage's select-and-fit step.

Three cross-validation flavors pick the penalty strength: standard K-fold for
i.i.d. data, a forward variant that always validates on the subsample nearest
a known target input region, and a rolling-window variant for series data.

Every study's second stage is one select-and-fit step on a fold
(:class:`RidgeFold`, or the demand study's moment fold): the posed problems
of a stack of fitting samples of one size, a block of the auction or demand
study's trials or the entry/exit study's one trial. It builds the fold with
:meth:`~RidgeFold.of_samples` (or :meth:`~RidgeFold.of_stack` on rows
already stacked) on the halves of the samples the structural stage did not
use, cross-validates it with :func:`kfold_cv`,
:func:`forward_cv` or :func:`rolling_cv` (one :class:`CvTrace` per sample),
and returns :meth:`~RidgeFold.fit` of the traces (one fit per sample). The
fold keeps its samples' rows and fixes everything the cross-validation
needs: its penalty's grid and :meth:`~RidgeFold.cross_validate`, which
scores that grid on every split of the block's one :class:`CvSplits` in one
stacked array computation. A split is row indices into the block's stacked sample with 0/1
row weights (a sliding window of rows for rolling cross-validation), so no
per-split sample or fold is built.

A split's held-out score is formed in one place, the fold's
``_held_out_error`` hook, from the standardized features of its validation
rows and its solved path: the held-out mean squared error of the residuals
for :class:`RidgeFold`, the held-out moment objective from the split's
instrument cross-products for the demand study's moment fold. The
cross-validation passes on only each sample's ``lambda_star``, so a hook may
order its arithmetic for speed: the moment fold's fold errors differ from
those of its residual form at rounding level, while no ``lambda_star`` the
studies choose moves.

A fold takes the benchmark ``theta_m`` as raw-scale coefficients over
``(1, F(x))`` and keeps it so; each solve re-expresses it on the
standardization it poses, every split's and each sample's own, by its affine
map.

A second-stage problem is posed in one place, the fold's ``_pose``, which
poses a stack of samples at once: the cross-validation's splits, or the
fitting samples themselves (every row, weight 1), which is how
:meth:`~RidgeFold.of_stack` builds the fold. It is solved in one place too:
the solver of :func:`~structreg.sre.quadratic_path` solves every split's
path, and each final fit is its sample's path at the one penalty its
cross-validation chose. The fold calls that solver directly, past the
public function's checks: the fold has checked that ``G``, ``b`` and
``theta_m`` are finite, and its :class:`~structreg.sre.PenaltySpec` the
grid and the weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import (
    DataError,
    Dataset,
    DomainSpec,
    StandardizeTransform,
    _forward_rows,
    _partition_labels,
    partition_sizes,
    stacked_standardization,
    standardize,  # noqa: F401  perfbench/selftest.py reads it as tuning.standardize
)
from .sre import (
    FeatureMap,
    PenaltyError,
    PenaltySpec,
    SingularPathError,
    SREFit,
    _solve_path,
    fit_theta_m,  # noqa: F401  perfbench/selftest.py reads it as tuning.fit_theta_m
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
    """Every split of one cross-validation run of a block of samples of one
    size, as row indices into the block's stacked sample.

    Sample ``s`` of a block of ``n``-row samples starts at row ``s * n`` of
    the stacked sample, as :meth:`RidgeFold.of_stack` holds it. Each
    sample has ``per_sample`` splits, and split ``j`` of sample ``s`` is row
    ``s * per_sample + j`` of ``train`` and ``val``, which list its training
    and validation rows; ``train_weight`` and ``val_weight`` are 1 on the
    rows the split uses and 0 on the others, so splits of unequal size share
    one rectangular stack. ``kind`` names the cross-validation flavor.
    """

    kind: str
    train: np.ndarray
    train_weight: np.ndarray
    val: np.ndarray
    val_weight: np.ndarray
    per_sample: int

    @property
    def sample_count(self) -> int:
        return len(self.train) // self.per_sample

    @property
    def unit(self) -> str:
        return "window" if self.kind == "rolling" else "fold"

    def failure(self, index: int, reason, lam: float | None = None) -> CvError:
        """The error naming split ``index`` of the block by its index in its
        sample, that sample in a block of more than one, and, when known, its
        grid point; ``reason`` is a message or the error the split raised."""
        sample, own = divmod(index, self.per_sample)
        of = f" of sample {sample}" if self.sample_count > 1 else ""
        at = "" if lam is None else f" at lambda={lam}"
        return CvError(f"fitter failed on {self.unit} {own}{of}{at}: {reason}")


def _block_rows(samples: int, n: int) -> np.ndarray:
    """Each sample's rows of a block of ``n``-row samples in the stacked
    sample, where sample ``s`` starts at row ``s * n``; one row per sample."""
    return n * np.arange(samples)[:, None] + np.arange(n)


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
    label = _partition_labels(n, K, [rng for _, rng in zip(rows, rngs, strict=True)])
    in_fold = (label[:, None, :] == np.arange(K)[:, None]).reshape(S * K, n)
    # a stable sort lists a split's training rows, then its own, each in sample order
    order = np.argsort(in_fold, axis=1, kind="stable")
    own = np.tile(size, S)[:, None]
    # the split's own rows, then its first training rows as padding
    val = order[np.arange(S * K)[:, None], (n - own + np.arange(longest)) % n]
    # row positions within the block's rows, one sample after another
    offset = n * np.repeat(np.arange(S), K)[:, None]
    rows = rows.ravel()
    return (rows[order[:, : n - shortest] + offset],
            (np.arange(n - shortest) < n - own).astype(float),
            rows[val + offset], (np.arange(longest) < own).astype(float))


def kfold_splits(n: int, K: int, rngs) -> CvSplits:
    """K random folds of each sample of a block of samples of ``n`` rows,
    sample ``s`` partitioned by ``rngs[s]``: fold k validates, the others
    train."""
    return CvSplits("kfold", *_fold_rows(_block_rows(len(rngs), n), K, rngs), K)


def forward_splits(inputs, K: int, target: DomainSpec, rngs) -> CvSplits:
    """K folds of the far part of each sample of a block of samples of one
    size, each validated with the near part; ``inputs`` holds the samples'
    inputs ``(samples, rows, p)``, and sample ``s`` is partitioned by
    ``rngs[s]``.

    The ``FORWARD_FRACTION`` of a sample's rows nearest ``target`` never
    trains (:func:`~structreg.data.forward_split_rows`, every sample in one
    pass); split k trains on the far part minus fold k and validates on fold
    k plus the whole near part.
    """
    inputs = np.asarray(inputs, dtype=float)
    far, near = _forward_rows(inputs, target, FORWARD_FRACTION)
    if far.shape[1] < K:
        raise DataError(f"cannot form {K} folds from {far.shape[1]} far-part rows")
    shift = _block_rows(inputs.shape[0], inputs.shape[1])[:, :1]
    train, train_weight, val, val_weight = _fold_rows(far + shift, K, rngs)
    near = np.repeat(near + shift, K, axis=0)
    return CvSplits("forward", train, train_weight, np.concatenate([val, near], axis=1),
                    np.concatenate([val_weight, np.ones(near.shape)], axis=1), K)


def rolling_splits(n: int, window_length: int, samples: int) -> CvSplits:
    """Every window of ``window_length`` consecutive rows of each sample of a
    block of ``samples`` samples of ``n`` rows, validated on the next row."""
    rows = _block_rows(samples, n)
    train = sliding_window_view(rows, window_length, axis=1)[:, :-1].reshape(-1, window_length)
    val = rows[:, window_length:].reshape(-1, 1)
    return CvSplits("rolling", train, np.ones(train.shape), val, np.ones(val.shape),
                    n - window_length)


def kfold_cv(fold: RidgeFold, K: int, rngs) -> list[CvTrace]:
    """Standard K-fold cross-validation of every sample of ``fold`` over its
    penalty grid, sample ``s`` partitioned by ``rngs[s]``.

    Every training fold of a sample is standardized on its own rows and
    scored at every grid point on its held-out rows by
    :meth:`RidgeFold.cross_validate`, every fold of every sample in one
    stacked computation; the reported error per grid point is the mean over
    held-out folds.
    """
    return fold.cross_validate(kfold_splits(fold.sample_size, K, rngs))


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
    return fold.cross_validate(forward_splits(fold.per_sample(fold.stacked.inputs), K,
                                               target, rngs))


def rolling_cv(fold: RidgeFold, window_length: int) -> list[CvTrace]:
    """Rolling-window cross-validation for time-ordered data.

    Every window origin fits on ``window_length`` consecutive observations
    of a sample of ``fold`` and scores on the next one, so training never
    sees the future. Every sample's rows must carry a nondecreasing
    ``time_index``. Windows are scored as in :func:`kfold_cv`.
    """
    time_index = fold.stacked.time_index
    if time_index is None:
        raise DataError("rolling cross-validation requires time-indexed data")
    if np.any(np.diff(fold.per_sample(time_index), axis=1) < 0):
        raise DataError("time_index must be nondecreasing")
    n = fold.sample_size
    if n <= window_length:
        raise DataError("series shorter than window_length + 1")
    return fold.cross_validate(rolling_splits(n, window_length, fold.sample_count))


@dataclass(frozen=True)
class RidgeFold:
    """The penalized least-squares problems of a stack of training samples of one size.

    ``stacked`` holds the rows of each of the ``sample_count`` samples in
    turn and ``features`` their expanded features. ``G`` and ``b`` are each
    sample's normal equations ``(X'X, X'y)`` over the design ``(1,
    standardized features)``, with the standardization's ``means`` and
    ``scales``, and ``theta_m`` each sample's benchmark projection as
    raw-scale coefficients over ``(1, features)``, all with a leading stack
    axis. :meth:`_pose` poses the problem on a stack of samples;
    :meth:`of_stack` poses the samples themselves (every row, weight 1), and
    cross-validation's :meth:`cross_validate` poses every split's training
    rows at once and scores every grid point on the split's held-out rows.
    :meth:`fit` then solves each sample's own path at the penalty its
    cross-validation chose.
    """

    sample_count: int
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
        """:meth:`of_stack` of the samples' rows in turn; the samples have
        one row count."""
        if len({sample.n for sample in samples}) != 1:
            raise DataError("the samples of a stack must have one row count")
        return cls.of_stack(_stacked_sample(samples), len(samples), feature_map, penalty,
                            theta_m)

    @classmethod
    def of_stack(cls, stacked: Dataset, sample_count: int, feature_map: FeatureMap,
                 penalty: PenaltySpec, theta_m) -> RidgeFold:
        """The fold of ``sample_count`` samples of one size, whose rows
        ``stacked`` holds in turn, over their standardized expanded features,
        every sample posed in one stack (all its rows, weight 1).
        ``theta_m`` holds raw-scale benchmark coefficients, one row per
        sample or one vector that every sample shares: the auction study's
        one cached projection, the demand study each trial's estimated
        demand line. A sample that cannot be posed raises its error, naming
        the sample in a stack of more than one."""
        if sample_count < 1 or stacked.n % sample_count:
            raise DataError(f"{stacked.n} rows cannot be {sample_count} samples of one size")
        if penalty.weights.shape != (feature_map.n_features + 1,):
            raise PenaltyError("G, b, weights and theta_m must share one width")
        features = feature_map.transform(stacked.inputs)
        rows = _block_rows(sample_count, stacked.n // sample_count)

        def fail(index, error):
            # a stack of several samples names the one that cannot be posed
            return error if sample_count == 1 else type(error)(f"{error} of sample {index}")

        posed = cls._pose(features, stacked, rows, np.ones(rows.shape), fail)
        G, b = cls._normal_equations(posed)
        return cls(sample_count, stacked, features, G, b, posed["means"], posed["scales"],
                   np.broadcast_to(theta_m, (sample_count, feature_map.n_features + 1)),
                   penalty, feature_map)

    @property
    def sample_size(self) -> int:
        """Rows of each sample."""
        return self.stacked.n // self.sample_count

    def per_sample(self, values: np.ndarray) -> np.ndarray:
        """``values`` of the stacked rows with one leading row per sample."""
        return values.reshape(self.sample_count, self.sample_size, *values.shape[1:])

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

    def _held_out_error(self, posed, splits, F_val, thetas) -> np.ndarray:
        """Every split's held-out mean squared error, one column per grid
        point, from its standardized validation features ``F_val`` and its
        path ``thetas`` (split, grid point, coefficient)."""
        # the prediction, residual and its square in one buffer, in place
        resid = F_val @ thetas[:, :, 1:].swapaxes(1, 2)
        resid += thetas[:, None, :, 0]
        np.subtract(self.stacked.outcome[splits.val][:, :, None], resid, out=resid)
        resid *= splits.val_weight[:, :, None]
        resid *= resid
        return resid.sum(axis=1) / splits.val_weight.sum(axis=1)[:, None]

    def cross_validate(self, splits: CvSplits) -> list[CvTrace]:
        """Each sample's error curve over its own splits, every split of the
        block's :class:`CvSplits` in one stacked array computation.

        Every split's training rows are posed at once by :meth:`_pose`, each
        sample's ``theta_m`` is re-expressed on each of its splits'
        standardization, and one stacked solve of
        :func:`~structreg.sre.quadratic_path` (its solver, on inputs the fold
        and its penalty have checked) solves every split's path. The fold's
        ``_held_out_error`` hook then scores every split's path on its
        held-out rows: the only place a held-out score is formed. Only each
        sample's ``lambda_star`` leaves the cross-validation, so a hook may
        round its fold errors differently from another arithmetic form of the
        same score. A split that cannot be posed or solved, or whose held-out
        error is not finite (an overflow, say), raises :class:`CvError`
        naming its index, in a block of more than one sample also its sample,
        and, for a solve or an error, its first offending grid point.
        """
        S = self.sample_count
        if splits.sample_count != S:
            raise DataError(f"{splits.sample_count} sets of splits for {S} samples")
        F = self.features
        posed = self._pose(F, self.stacked, splits.train, splits.train_weight, splits.failure)
        means, scales = posed["means"], posed["scales"]
        G, b = self._normal_equations(posed)
        theta_m = _express_in_transform(self.theta_m, means.reshape(S, splits.per_sample, -1),
                                        scales.reshape(S, splits.per_sample, -1)
                                        ).reshape(len(G), -1)
        finite = np.isfinite(G).all(axis=(1, 2)) & np.isfinite(b).all(axis=1) & np.isfinite(
            theta_m).all(axis=1)
        if not finite.all():
            raise splits.failure(int(np.argmin(finite)), "G, b and theta_m must be finite")
        grid = self.penalty.lambda_grid
        try:
            thetas = _solve_path(G, b, self.penalty.weights, theta_m, grid[None])
        except SingularPathError as exc:
            raise splits.failure(exc.index, exc, exc.lam) from exc
        bad = ~np.isfinite(thetas).all(axis=2)
        if bad.any():
            index = int(np.argmax(bad.any(axis=1)))
            raise splits.failure(index, "non-finite coefficients",
                                 float(grid[np.argmax(bad[index])]))
        F_val = (F[splits.val] - means[:, None, :]) / scales[:, None, :]
        with np.errstate(over="ignore", invalid="ignore"):
            errors = self._held_out_error(posed, splits, F_val, thetas)
        bad = ~np.isfinite(errors)
        if bad.any():
            index = int(np.argmax(bad.any(axis=1)))
            raise splits.failure(index, "non-finite held-out error",
                                 float(grid[np.argmax(bad[index])]))
        return [CvTrace(splits.kind, grid, sample)
                for sample in errors.reshape(S, splits.per_sample, -1)]

    def fit(self, traces) -> list[SREFit]:
        """Each sample's fit at its own trace's ``lambda_star``, carrying the
        trace and the sample's ``theta_m`` re-expressed on its
        standardization, from one stacked solve of
        :func:`~structreg.sre.quadratic_path` with one penalty row per
        sample; ``G``, ``b`` and ``theta_m`` must be finite, as
        :func:`~structreg.sre.quadratic_path` requires.

        A sample that is singular at its ``lambda_star`` raises
        :class:`~structreg.sre.SingularPathError` naming that penalty and the
        sample's place in the stack.
        """
        if len(traces) != self.sample_count:
            raise DataError(f"{len(traces)} traces for {self.sample_count} samples")
        lam = np.array([[trace.lambda_star] for trace in traces])
        theta_m = _express_in_transform(self.theta_m, self.means[:, None],
                                        self.scales[:, None])[:, 0]
        if not (np.isfinite(self.G).all() and np.isfinite(self.b).all()
                and np.isfinite(theta_m).all()):
            raise PenaltyError("G, b and theta_m must be finite")
        theta = _solve_path(self.G, self.b, self.penalty.weights, theta_m, lam)[:, 0]
        outcome_means = self.per_sample(self.stacked.outcome).mean(axis=1).tolist()
        return [SREFit(t, StandardizeTransform(mu, sd, mean), m, trace.lambda_star,
                       self.feature_map, trace)
                for t, m, mu, sd, mean, trace in zip(theta, theta_m, self.means, self.scales,
                                                      outcome_means, traces)]


def _stacked_sample(samples) -> Dataset:
    """One sample of every sample's rows in turn."""
    if len(samples) == 1:
        return samples[0]

    def rows(name):
        parts = [getattr(sample, name) for sample in samples]
        return None if parts[0] is None else np.concatenate(parts)

    return Dataset(rows("inputs"), rows("outcome"), rows("instruments"), rows("time_index"))


def _express_in_transform(raw, means, scales) -> np.ndarray:
    """Raw-scale coefficients over ``(F - means) / scales``, for a stack of
    samples: ``raw`` holds each sample's coefficients ``(samples, k)``, and
    ``means`` and ``scales`` each sample's standardizations ``(samples, m,
    k - 1)``; the result is ``(samples, m, k)``. A sample's intercepts are
    one matrix-vector product of its means, or one dot product when it has
    one standardization."""
    intercept = raw[:, None, 0] + (means @ raw[:, 1:, None])[:, :, 0]
    return np.concatenate([intercept[:, :, None], raw[:, None, 1:] * scales], axis=2)
