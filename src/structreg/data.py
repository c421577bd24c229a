"""Data containers, domain descriptors, seeded RNG streams, and splitting primitives.

Everything in this module is immutable after construction and safe to share
across threads. Randomized operations take a :class:`SeededRng` value and are
pure functions of it: calling them twice with the same rng yields identical
results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class DataError(ValueError):
    """Invalid data container or incompatible shapes."""


def _as_matrix(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise DataError(f"{name} must be a vector or matrix, got ndim={arr.ndim}")
    return arr


@dataclass(frozen=True)
class Dataset:
    """Observed sample of covariates and outcomes.

    Parameters
    ----------
    inputs : (N, p) array
        Covariate rows.
    outcome : (N,) array
        Outcome per row.
    instruments : (N, l) array, optional
        Instrument rows for moment-based estimators.
    time_index : (N,) int array, optional
        Integer period labels for time-ordered data.
    """

    inputs: np.ndarray
    outcome: np.ndarray
    instruments: np.ndarray | None = None
    time_index: np.ndarray | None = None

    def __post_init__(self):
        inputs = _as_matrix(self.inputs, "inputs")
        outcome = np.asarray(self.outcome, dtype=float).ravel()
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outcome", outcome)
        n = inputs.shape[0]
        if n == 0:
            raise DataError("empty dataset")
        if outcome.shape[0] != n:
            raise DataError(f"outcome has {outcome.shape[0]} rows, inputs have {n}")
        if not np.isfinite(inputs).all() or not np.isfinite(outcome).all():
            raise DataError("non-finite entries in dataset")
        if self.instruments is not None:
            z = _as_matrix(self.instruments, "instruments")
            object.__setattr__(self, "instruments", z)
            if z.shape[0] != n:
                raise DataError(f"instruments have {z.shape[0]} rows, inputs have {n}")
            if not np.isfinite(z).all():
                raise DataError("non-finite entries in instruments")
        if self.time_index is not None:
            t = np.asarray(self.time_index)
            if not np.issubdtype(t.dtype, np.integer):
                t = t.astype(np.int64)
            object.__setattr__(self, "time_index", t.ravel())
            if self.time_index.shape[0] != n:
                raise DataError("time_index length does not match inputs")

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def p(self) -> int:
        return self.inputs.shape[1]

    def subset(self, indices) -> "Dataset":
        """Row subset, preserving optional columns."""
        idx = np.asarray(indices)
        return Dataset(
            self.inputs[idx],
            self.outcome[idx],
            None if self.instruments is None else self.instruments[idx],
            None if self.time_index is None else self.time_index[idx],
        )


@dataclass(frozen=True)
class DomainSpec:
    """Axis-aligned box of closed per-dimension intervals."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise DataError("lower and upper must be vectors of equal length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise DataError("non-finite domain bounds")
        if np.any(lo > hi):
            raise DataError("domain requires lower <= upper in every dimension")

    @property
    def dimension(self) -> int:
        return self.lower.shape[0]

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    @classmethod
    def interval(cls, lo: float, hi: float) -> "DomainSpec":
        return cls(np.array([lo]), np.array([hi]))

    def point_distance(self, x) -> np.ndarray:
        """Euclidean distance from each point to the nearest point of the box.

        Zero for points inside the box.
        """
        pts = _as_matrix(x, "x")
        if pts.shape[1] != self.dimension:
            raise DataError("point dimension does not match domain")
        gap = np.maximum(self.lower - pts, 0.0) + np.maximum(pts - self.upper, 0.0)
        return np.sqrt((gap**2).sum(axis=1))


@dataclass(frozen=True)
class StandardizeTransform:
    """Column-wise affine transform fitted by :func:`standardize`.

    ``column_scales`` are strictly positive; zero-variance columns keep scale 1
    (centered only). The outcome is centered by ``outcome_mean``.
    """

    column_means: np.ndarray
    column_scales: np.ndarray
    outcome_mean: float

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.column_means, dtype=float))
        sc = np.atleast_1d(np.asarray(self.column_scales, dtype=float))
        object.__setattr__(self, "column_means", mu)
        object.__setattr__(self, "column_scales", sc)
        if mu.shape != sc.shape:
            raise DataError("means and scales must have equal length")
        if np.any(sc <= 0):
            raise DataError("scales must be strictly positive")

    def transform_inputs(self, X) -> np.ndarray:
        X = _as_matrix(X, "X")
        return (X - self.column_means) / self.column_scales

    def apply(self, data: Dataset) -> Dataset:
        return Dataset(
            self.transform_inputs(data.inputs),
            data.outcome - self.outcome_mean,
            data.instruments,
            data.time_index,
        )


def standardize(data: Dataset) -> tuple[Dataset, StandardizeTransform]:
    """Center every input column and scale nondegenerate columns to unit spread.

    Scales are the per-column standard deviations of the sample (``ddof=0``);
    columns with zero variance, up to the rounding of their mean, are centered
    but left unscaled. The outcome is centered by its mean.

    Returns
    -------
    (Dataset, StandardizeTransform)
        The transformed data and the transform that produced it.
    """
    if data.n < 2:
        raise DataError("standardize requires at least two rows")
    means = data.inputs.mean(axis=0)
    scales = _column_scales(data.inputs.std(axis=0, ddof=0), means)
    transform = StandardizeTransform(means, scales, float(data.outcome.mean()))
    return transform.apply(data), transform


def stacked_standardization(values: np.ndarray, weight: np.ndarray):
    """:func:`standardize`'s column means and scales for a stack of samples.

    ``values`` has shape ``(S, r, c)``: ``S`` samples of ``r`` rows each, of
    which sample ``s`` uses the rows where ``weight[s]`` is 1 (0 elsewhere).
    Returns ``(means, scales, centered)``: the ``(S, c)`` means and ``ddof=0``
    scales of the used rows, with zero-variance columns at scale 1, and the
    centered values, which are 0 on unused rows.
    """
    w = weight[:, :, None]
    count = weight.sum(axis=1)[:, None]
    means = (values * w).sum(axis=1) / count
    centered = (values - means[:, None, :]) * w
    scales = np.sqrt((centered * centered).sum(axis=1) / count)
    return means, _column_scales(scales, means), centered


def _column_scales(std: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Standard deviations with zero-variance columns at scale 1.

    A column is zero-variance when its standard deviation is at most
    ``64 * eps * |mean|``, the spread that rounding alone leaves in a constant
    column whose mean is not exactly representable.
    """
    return np.where(std > 64 * np.finfo(float).eps * np.abs(means), std, 1.0)


@dataclass(frozen=True)
class SeededRng:
    """Deterministic, splittable random stream.

    A value object: ``generator()`` builds a fresh counter-based generator, so
    repeated calls replay the same draw sequence. Distinct ``stream_index``
    values (and distinct ``split`` paths) give statistically independent
    streams, which is how parallel Monte Carlo trials stay reproducible.
    """

    base_seed: int
    stream_index: int = 0
    subkey: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if not (0 <= int(self.base_seed) < 2**64):
            raise DataError("base_seed must fit in 64 unsigned bits")
        if not (0 <= int(self.stream_index) < 2**64):
            raise DataError("stream_index must fit in 64 unsigned bits")

    def stream(self, index: int) -> "SeededRng":
        """The rng for an independent top-level stream (e.g. trial number)."""
        return SeededRng(self.base_seed, index)

    def split(self, *indices: int) -> "SeededRng":
        """A child rng, independent across distinct index paths."""
        return SeededRng(self.base_seed, self.stream_index, self.subkey + tuple(indices))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(
            self.base_seed, spawn_key=(self.stream_index, *self.subkey)
        )
        return np.random.Generator(np.random.Philox(seq))


def partition_indices(n: int, K: int, rng: SeededRng) -> list[np.ndarray]:
    """Random partition of ``range(n)`` into K near-equal index groups.

    Group sizes differ by at most one; the assignment depends only on the rng.
    Indices within each group are sorted.
    """
    if K < 2:
        raise DataError("partition requires K >= 2")
    if K > n:
        raise DataError(f"cannot partition {n} rows into {K} parts")
    perm = rng.generator().permutation(n)
    base, extra = divmod(n, K)
    folds, start = [], 0
    for k in range(K):
        size = base + (1 if k < extra else 0)
        folds.append(np.sort(perm[start : start + size]))
        start += size
    return folds


def forward_split_rows(
    data: Dataset, target: DomainSpec, fraction: float
) -> tuple[np.ndarray, np.ndarray]:
    """Split a sample's rows so the second part sits nearest a target input region.

    The second part collects the ``ceil(fraction * N)`` observations whose
    inputs are closest to the target box (distance to the nearest box point;
    ties broken by distance to the box center, then by original row index).
    By construction its input hull is at least as close to the target, in
    Hausdorff distance, as the first part's whenever the sample is not
    equidistant from the target.

    Returns
    -------
    (far, near)
        Sorted row indices of the far and near parts.
    """
    if not (0.0 < fraction < 1.0):
        raise DataError("fraction must lie strictly between 0 and 1")
    if target.dimension != data.p:
        raise DataError("target dimension does not match data inputs")
    n_far = forward_far_rows(data.n, fraction)
    if n_far <= 0:
        raise DataError("fraction leaves no observations for the far part")
    box_dist = target.point_distance(data.inputs)
    center_dist = np.sqrt(((data.inputs - target.center) ** 2).sum(axis=1))
    order = np.lexsort((np.arange(data.n), center_dist, box_dist))
    return np.sort(order[-n_far:]), np.sort(order[:-n_far])


def forward_far_rows(n: int, fraction: float) -> int:
    """Rows :func:`forward_split_rows` leaves in the far part of an ``n``-row sample."""
    return n - math.ceil(fraction * n)
