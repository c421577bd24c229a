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


def stacked_standardization(values: np.ndarray, rows: np.ndarray, weight: np.ndarray):
    """:func:`standardize` of every sample in a stack.

    ``values`` has shape ``(n, c)`` and ``rows`` shape ``(S, r)``: sample
    ``s`` is the rows ``values[rows[s]]`` where ``weight[s]`` is 1 (0
    elsewhere). Returns ``(means, scales, standardized)``: the C-ordered
    ``(S, c)`` means and ``ddof=0`` scales of the used rows, with
    zero-variance columns at scale 1, and the ``(S, r, c)`` standardized
    values, which are 0 on unused rows.

    Every sum over a sample's rows keeps one order: row by row for two or
    more columns, numpy's pairwise sum for one column. Two or more samples
    of two or more columns are gathered column by column, as ``(c, r, S)``,
    so that numpy's inner loops run over the stack, not over the few
    columns, and ``standardized`` is a view of that layout. Matrix products
    can round by the layout of their operands, so the means and scales come
    back C-ordered; a caller that multiplies the standardized values copies
    them into a C-ordered array first.
    """
    count = weight.sum(axis=1)
    # Summing over the row axis adds row by row unless that axis is the
    # contiguous one: one column, or a stack of one laid out as (c, r, 1),
    # is summed pairwise. So these keep the (S, r, c) layout, and its order.
    columnar = rows.shape[0] > 1 and values.shape[1] > 1
    if columnar:
        stacked, w = np.take(values.T, rows.T, axis=1), np.ascontiguousarray(weight.T)
    else:
        stacked, w, count = values[rows], weight[:, :, None], count[:, None]
    # stacked is a fresh gather, standardized in place; one buffer holds
    # both products
    products = stacked * w
    means = products.sum(axis=1) / count
    stacked -= means[:, None, :]
    stacked *= w
    scales = np.sqrt(np.multiply(stacked, stacked, out=products).sum(axis=1) / count)
    scales = _column_scales(scales, means)
    stacked /= scales[:, None, :]
    if columnar:
        return (np.ascontiguousarray(means.T), np.ascontiguousarray(scales.T),
                stacked.transpose(2, 1, 0))
    return means, scales, stacked


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
    label = _partition_labels(n, K, [rng])[0]
    return [np.flatnonzero(label == k) for k in range(K)]


def _partition_labels(n: int, K: int, rngs) -> np.ndarray:
    """Each row's group in the :func:`partition_indices` of ``range(n)`` by
    each rng of ``rngs``, one row per rng: group k holds the k-th run of
    ``partition_sizes(n, K)[k]`` entries of the rng's permutation. One
    generator per rng; the labels of every rng are then set in one call."""
    size = partition_sizes(n, K)
    label = np.empty((len(rngs), n), dtype=np.intp)
    label[np.arange(len(rngs))[:, None], [rng.generator().permutation(n) for rng in rngs]] = (
        np.repeat(np.arange(K), size))
    return label


def partition_sizes(n: int, K: int) -> np.ndarray:
    """The group sizes of :func:`partition_indices`: the first ``n % K`` of
    the K groups hold one row more than the others."""
    if K < 2:
        raise DataError("partition requires K >= 2")
    if K > n:
        raise DataError(f"cannot partition {n} rows into {K} parts")
    base, extra = divmod(n, K)
    return base + (np.arange(K) < extra)


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
    far, near = _forward_rows(data.inputs[None], target, fraction)
    return far[0], near[0]


def _forward_rows(inputs: np.ndarray, target: DomainSpec,
                  fraction: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`forward_split_rows` of each sample of a block of samples of one
    size, from their inputs ``(samples, rows, p)``: the ``(far, near)`` rows
    of each sample, one row per sample, every sample ordered in one call."""
    if not (0.0 < fraction < 1.0):
        raise DataError("fraction must lie strictly between 0 and 1")
    S, n, p = inputs.shape
    if target.dimension != p:
        raise DataError("target dimension does not match data inputs")
    n_far = forward_far_rows(n, fraction)
    if n_far <= 0:
        raise DataError("fraction leaves no observations for the far part")
    flat = inputs.reshape(S * n, p)
    box_dist = target.point_distance(flat).reshape(S, n)
    center_dist = np.sqrt(((flat - target.center) ** 2).sum(axis=1)).reshape(S, n)
    order = np.lexsort((np.broadcast_to(np.arange(n), (S, n)), center_dist, box_dist))
    return np.sort(order[:, -n_far:]), np.sort(order[:, :-n_far])


def forward_far_rows(n: int, fraction: float) -> int:
    """Rows :func:`forward_split_rows` leaves in the far part of an ``n``-row sample."""
    return n - math.ceil(fraction * n)
