"""Penalty selection and estimation orchestration.

Three cross-validation flavors pick the penalty strength: standard K-fold for
i.i.d. data, a forward variant that always validates on the subsample nearest
a known target input region, and a rolling-window variant for series data.
The orchestrators split the sample so the structural benchmark is estimated
on data independent of the penalized second stage, either once
(sample-splitting) or in both directions with averaging (cross-fitting).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, replace

import numpy as np

from .data import (
    DataError,
    Dataset,
    DomainSpec,
    SeededRng,
    forward_split,
    partition,
    partition_indices,
    standardize,
)
from .sre import (
    FeatureMap,
    PenaltySpec,
    SREFit,
    StructuralBenchmark,
    fit_theta_m,
    sre_ridge,
)

FORWARD_FRACTION = 1.0 / 6.0


class CvError(RuntimeError):
    """Cross-validation failed on a specific fold or window."""


class StageError(RuntimeError):
    """A stage of the two-stage procedure failed."""


@dataclass(frozen=True)
class CvPlan:
    """How to choose the penalty strength.

    ``kind`` is one of ``kfold`` (default K=5), ``forward`` (default K=6,
    requires ``target``), or ``rolling`` (requires time-ordered data;
    ``window_length`` defaults to a fifth of the series).
    """

    kind: str = "kfold"
    K: int = 0
    target: DomainSpec | None = None
    window_length: int | None = None
    horizon: int = 1
    fraction: float = FORWARD_FRACTION

    def __post_init__(self):
        if self.kind not in ("kfold", "forward", "rolling"):
            raise DataError(f"unknown cv kind: {self.kind}")
        if self.K == 0:
            object.__setattr__(self, "K", 6 if self.kind == "forward" else 5)
        if self.kind in ("kfold", "forward") and self.K < 2:
            raise DataError("fold-based cross-validation requires K >= 2")
        if self.kind == "forward" and self.target is None:
            raise DataError("forward cross-validation requires a target domain")
        if self.horizon < 1:
            raise DataError("horizon must be >= 1")


@dataclass(frozen=True)
class CvTrace:
    """Validation-error record of one cross-validation run.

    ``lambda_star`` attains the minimum mean error; exact ties resolve to the
    smallest penalty. ``fold_errors`` has one row per fold (or window) and one
    column per grid point, and ``rng`` records the seed that fixed the fold
    assignment.
    """

    kind: str
    lambda_grid: np.ndarray
    mean_errors: np.ndarray
    lambda_star: float
    fold_errors: np.ndarray
    rng: SeededRng | None = None

    def __post_init__(self):
        object.__setattr__(self, "lambda_grid", np.asarray(self.lambda_grid, float))
        object.__setattr__(self, "mean_errors", np.asarray(self.mean_errors, float))
        object.__setattr__(self, "fold_errors", np.asarray(self.fold_errors, float))

    @classmethod
    def from_fold_errors(cls, kind, lambda_grid, fold_errors, rng=None) -> "CvTrace":
        lambda_grid = np.asarray(lambda_grid, float)
        fold_errors = np.asarray(fold_errors, float)
        mean_errors = fold_errors.mean(axis=0)
        star = float(lambda_grid[int(np.argmin(mean_errors))])
        return cls(kind, lambda_grid, mean_errors, star, fold_errors, rng)


def squared_error_scorer(model, val: Dataset) -> float:
    resid = val.outcome - model.predict(val.inputs)
    return float(np.mean(resid**2))


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


def _cv_loop(kind, fitter, scorer, splits, lambda_grid, unit="fold", rng=None) -> CvTrace:
    """Score every grid point on every ``(train, val)`` split.

    ``fitter(train)`` does the split's penalty-independent work once and
    returns ``solve``; ``solve(lam)`` returns a model scored by
    ``scorer(model, val)``.
    """
    lambda_grid = np.asarray(lambda_grid, float)
    if lambda_grid.size == 0:
        raise DataError("lambda grid must be nonempty")
    fold_errors = []
    for k, (train, val) in enumerate(splits):
        try:
            solve = fitter(train)
        except Exception as exc:
            raise CvError(f"fitter failed on {unit} {k}") from exc
        row = []
        for lam in lambda_grid:
            try:
                model = solve(float(lam))
            except Exception as exc:
                raise CvError(f"fitter failed on {unit} {k} at lambda={lam}") from exc
            row.append(scorer(model, val))
        fold_errors.append(row)
    return CvTrace.from_fold_errors(kind, lambda_grid, fold_errors, rng)


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

    ``fitter(train)`` prepares a training fold once and returns ``solve``;
    ``solve(lam)`` returns a model scored by ``scorer(model, val)``. The
    reported error per grid point is the mean over held-out folds.
    """
    return _cv_loop("kfold", fitter, scorer, _kfold_splits(data, K, rng), lambda_grid, rng=rng)


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
    closest to where the model will be applied. ``fitter(train)`` and
    ``solve(lam)`` follow :func:`kfold_cv`.
    """
    s1, s2 = forward_split(sample, target, fraction)
    if s2.n == 0:
        raise DataError("forward split produced an empty validation block")
    if s1.n < K:
        raise DataError(f"cannot form {K} folds from {s1.n} far-part rows")
    splits = ((train, _concat([val, s2])) for train, val in _kfold_splits(s1, K, rng))
    return _cv_loop("forward", fitter, scorer, splits, lambda_grid, rng=rng)


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
    ``fitter(train)`` prepares a window once and returns ``solve``;
    ``solve(lam)`` returns the model for one grid point.
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


def run_cv(plan: CvPlan, fitter, data: Dataset, lambda_grid, rng: SeededRng,
           scorer=squared_error_scorer) -> CvTrace:
    """Dispatch to the cross-validation flavor named by ``plan``."""
    if plan.kind == "kfold":
        return kfold_cv(fitter, scorer, data, lambda_grid, plan.K, rng)
    if plan.kind == "forward":
        return forward_cv(
            data, plan.K, plan.target, fitter, lambda_grid, rng, plan.fraction, scorer
        )
    window = plan.window_length if plan.window_length is not None else max(2, data.n // 5)
    return rolling_cv(data, fitter, lambda_grid, window, plan.horizon, scorer)


class BenchmarkFamily(abc.ABC):
    """An estimable structural model: fits itself to data and returns the
    estimated benchmark."""

    @abc.abstractmethod
    def estimate(self, data: Dataset, rng: SeededRng) -> StructuralBenchmark:
        ...


def ridge_stage(design, y, transform, theta_m, penalty: PenaltySpec, feature_map: FeatureMap):
    """``solve(lam)`` for one prepared training sample.

    Everything but the ``sre_ridge`` call is fixed by the arguments, so a
    cross-validation fold pays for standardization and the benchmark
    projection once, not once per grid point.
    """

    def solve(lam: float) -> SREFit:
        theta = sre_ridge(design, y, theta_m, penalty, lam)
        return SREFit(theta, transform, theta_m, lam, feature_map)

    return solve


@dataclass
class SreRidgeFitter:
    """Second-stage fitter: standardized features shrunk toward a benchmark.

    Calling ``fitter(train)`` standardizes the expanded features of the
    training sample and projects the benchmark's implied mean onto the same
    standardized basis over ``synthetic_domain``; the returned ``solve(lam)``
    solves the penalized least-squares problem. Pure in its inputs, so fold
    evaluations can run in any order.
    """

    feature_map: FeatureMap
    benchmark: StructuralBenchmark
    penalty: PenaltySpec
    synthetic_domain: DomainSpec
    synthetic_size: int | None = None

    def __call__(self, train: Dataset):
        features = Dataset(self.feature_map.transform(train.inputs), train.outcome)
        std, transform = standardize(features)
        theta_m = fit_theta_m(self.feature_map, self.benchmark, self.synthetic_domain,
                              self.synthetic_size, transform=transform)
        design = np.column_stack([np.ones(train.n), std.inputs])
        return ridge_stage(design, train.outcome, transform, theta_m, self.penalty,
                           self.feature_map)


def _hull_with_target(data: Dataset, target: DomainSpec | None) -> DomainSpec:
    lo = data.inputs.min(axis=0)
    hi = data.inputs.max(axis=0)
    if target is not None:
        lo = np.minimum(lo, target.lower)
        hi = np.maximum(hi, target.upper)
    return DomainSpec(lo, hi)


def _orientation(est: Dataset, fit_half: Dataset, benchmark_family: BenchmarkFamily,
                 feature_map: FeatureMap, penalty: PenaltySpec, cv_plan: CvPlan,
                 synthetic_domain: DomainSpec, synthetic_size: int | None,
                 rng_estimate: SeededRng, rng_cv: SeededRng) -> SREFit:
    """Estimate the benchmark on ``est``; select and fit the penalty on ``fit_half``."""
    try:
        benchmark = benchmark_family.estimate(est, rng_estimate)
    except Exception as exc:
        raise StageError(f"structural stage failed: {exc}") from exc
    fitter = SreRidgeFitter(feature_map, benchmark, penalty, synthetic_domain, synthetic_size)
    trace = run_cv(cv_plan, fitter, fit_half, penalty.lambda_grid, rng_cv)
    fit = fitter(fit_half)(trace.lambda_star)
    return replace(fit, cv=cv_plan.kind, parts=(trace,))


def sre_sample_split(
    data: Dataset,
    benchmark_family: BenchmarkFamily,
    feature_map: FeatureMap,
    penalty: PenaltySpec,
    cv_plan: CvPlan,
    rng: SeededRng,
    synthetic_domain: DomainSpec | None = None,
    synthetic_size: int | None = None,
) -> SREFit:
    """Two-stage structurally regularized fit with sample-splitting.

    The sample is randomly halved; the structural model is estimated on the
    first half, and the second half carries penalty selection (per
    ``cv_plan``) and the final penalized fit at the selected strength.
    """
    d1, d2 = partition(data, 2, rng.split(0))
    domain = synthetic_domain or _hull_with_target(data, cv_plan.target)
    return _orientation(
        d1, d2, benchmark_family, feature_map, penalty, cv_plan, domain,
        synthetic_size, rng.split(1), rng.split(3),
    )


def _to_raw(coefficients, transform) -> np.ndarray:
    slopes = coefficients[1:] / transform.column_scales
    intercept = coefficients[0] - float(slopes @ transform.column_means)
    return np.concatenate([[intercept], slopes])


def raw_affine_coefficients(fit: SREFit) -> np.ndarray:
    """Coefficients of the fit over raw features ``(1, F_1(x), ..., F_k(x))``."""
    return _to_raw(fit.theta, fit.transform)


def _express_in_transform(raw, transform) -> np.ndarray:
    slopes = raw[1:] * transform.column_scales
    intercept = raw[0] + float(raw[1:] @ transform.column_means)
    return np.concatenate([[intercept], slopes])


def sre_cross_fit(
    data: Dataset,
    benchmark_family: BenchmarkFamily,
    feature_map: FeatureMap,
    penalty: PenaltySpec,
    cv_plan: CvPlan,
    rng: SeededRng,
    synthetic_domain: DomainSpec | None = None,
    synthetic_size: int | None = None,
) -> SREFit:
    """Cross-fitting: run both (estimate, fit) orientations and average.

    Each half's fit lives in its own standardized basis, so the coefficient
    average is taken on the raw feature scale and then re-expressed over a
    standardization of the full sample. ``lambda_star`` reports the first
    orientation's choice; both full fits are kept in ``parts``.
    """
    d1, d2 = partition(data, 2, rng.split(0))
    domain = synthetic_domain or _hull_with_target(data, cv_plan.target)
    halves = [
        _orientation(
            est, fit_half, benchmark_family, feature_map, penalty, cv_plan, domain,
            synthetic_size, rng.split(1, j), rng.split(3, j),
        )
        for j, (est, fit_half) in enumerate(((d1, d2), (d2, d1)))
    ]
    raw = 0.5 * (raw_affine_coefficients(halves[0]) + raw_affine_coefficients(halves[1]))
    raw_m = 0.5 * (
        _to_raw(halves[0].theta_m, halves[0].transform)
        + _to_raw(halves[1].theta_m, halves[1].transform)
    )
    features = Dataset(feature_map.transform(data.inputs), data.outcome)
    _, transform = standardize(features)
    return SREFit(
        _express_in_transform(raw, transform),
        transform,
        _express_in_transform(raw_m, transform),
        halves[0].lambda_star,
        feature_map,
        method="cross-fit",
        cv=cv_plan.kind,
        parts=tuple(halves),
    )
