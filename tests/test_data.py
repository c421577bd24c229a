import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structreg.data import (
    DataError,
    Dataset,
    DomainSpec,
    SeededRng,
    forward_split_rows,
    partition_indices,
    stacked_standardization,
    standardize,
)


def test_dataset_validates_shapes_and_finiteness():
    with pytest.raises(DataError):
        Dataset(np.empty((0, 1)), np.empty(0))
    with pytest.raises(DataError):
        Dataset([[1.0], [2.0]], [1.0])
    with pytest.raises(DataError):
        Dataset([[np.nan]], [1.0])
    ds = Dataset([[1.0], [2.0]], [1.0, 2.0], instruments=[[3.0], [4.0]], time_index=[1, 2])
    assert ds.n == 2 and ds.p == 1
    sub = ds.subset([1])
    assert sub.instruments[0, 0] == 4.0 and sub.time_index[0] == 2


def test_standardize_two_point_example():
    ds = Dataset([[1.0], [3.0]], [2.0, 4.0])
    out, tr = standardize(ds)
    assert np.allclose(out.inputs, [[-1.0], [1.0]])
    assert np.allclose(out.outcome, [-1.0, 1.0])
    assert tr.column_means[0] == 2.0
    assert tr.column_scales[0] == 1.0
    assert tr.outcome_mean == 3.0


def test_standardize_identity_on_centered_unit_variance():
    gen = np.random.default_rng(0)
    x = gen.normal(size=200)
    x = (x - x.mean()) / x.std(ddof=0)
    ds = Dataset(x[:, None], np.zeros(200))
    out, tr = standardize(ds)
    assert np.allclose(out.inputs[:, 0], x, atol=1e-12)
    assert abs(tr.column_means[0]) < 1e-12 and abs(tr.column_scales[0] - 1.0) < 1e-12


def test_standardize_roundtrip_and_moments():
    gen = np.random.default_rng(42)
    ds = Dataset(gen.normal(5.0, 3.0, size=(100, 3)), gen.normal(size=100))
    out, tr = standardize(ds)
    assert np.all(np.abs(out.inputs.mean(axis=0)) <= 1e-12 * ds.n)
    assert np.allclose(out.inputs.std(axis=0, ddof=0), 1.0)
    # the transform records the means and scales it applied
    back = out.inputs * tr.column_scales + tr.column_means
    scale = np.abs(ds.inputs).max()
    assert np.abs(back - ds.inputs).max() <= 1e-12 * scale
    assert np.abs(out.outcome + tr.outcome_mean - ds.outcome).max() <= 1e-12


def test_standardize_zero_variance_column_centered_not_scaled():
    ds = Dataset(np.column_stack([np.full(10, 7.0), np.arange(10.0)]), np.zeros(10))
    out, tr = standardize(ds)
    assert tr.column_scales[0] == 1.0
    assert np.allclose(out.inputs[:, 0], 0.0)


def test_constant_non_dyadic_column_counts_as_zero_variance():
    # 0.7 is not a binary fraction: the mean of seven copies rounds one ulp
    # away, which leaves a computed std of about 1e-16 instead of 0
    column = np.full(7, 0.7)
    assert column.std() > 0.0
    ds = Dataset(np.column_stack([column, np.arange(7.0)]), np.zeros(7))
    out, tr = standardize(ds)
    assert tr.column_scales[0] == 1.0
    assert np.abs(out.inputs[:, 0]).max() <= 1e-15
    # the stacked statistics of two samples, the constant one on five rows
    values = np.stack([ds.inputs, ds.inputs])
    weight = np.array([[1.0] * 7, [0.0, 0.0] + [1.0] * 5])
    means, scales, centered = stacked_standardization(values, weight)
    assert np.array_equal(scales[:, 0], [1.0, 1.0])
    assert np.allclose(scales[:, 1], [np.arange(7.0).std(), np.arange(2.0, 7.0).std()])
    assert np.abs(centered[:, :, 0]).max() <= 1e-15
    assert np.array_equal(scales[0], tr.column_scales)


def test_standardize_rejects_tiny_samples():
    with pytest.raises(DataError):
        standardize(Dataset([[1.0]], [1.0]))


def test_partition_sizes_and_disjointness():
    folds = partition_indices(10, 2, SeededRng(3))
    assert [f.size for f in folds] == [5, 5]
    folds11 = partition_indices(11, 2, SeededRng(3))
    assert sorted(f.size for f in folds11) == [5, 6]
    assert sorted(np.concatenate(folds11).tolist()) == list(range(11))
    assert all(np.array_equal(f, np.sort(f)) for f in folds11)


def test_partition_deterministic_in_seed():
    a = partition_indices(20, 4, SeededRng(9, 2))
    b = partition_indices(20, 4, SeededRng(9, 2))
    for fa, fb in zip(a, b):
        assert np.array_equal(fa, fb)
    c = partition_indices(20, 4, SeededRng(9, 3))
    assert any(not np.array_equal(fa, fc) for fa, fc in zip(a, c))


def test_partition_rejects_more_folds_than_rows():
    with pytest.raises(DataError):
        partition_indices(3, 4, SeededRng(0))


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_partition_union_property(K, seed):
    n = 3 * K + 1
    folds = partition_indices(n, K, SeededRng(seed))
    assert sorted(np.concatenate(folds).tolist()) == list(range(n))
    sizes = {f.size for f in folds}
    assert max(sizes) - min(sizes) <= 1


def test_seeded_rng_streams_reproducible_and_distinct():
    a = SeededRng(7, 1).generator().uniform(size=5)
    b = SeededRng(7, 1).generator().uniform(size=5)
    c = SeededRng(7, 2).generator().uniform(size=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    d = SeededRng(7, 1).split(4).generator().uniform(size=5)
    assert not np.array_equal(a, d)


def test_forward_split_equal_spacing_example():
    ds = Dataset(np.arange(1.0, 7.0)[:, None], np.zeros(6))
    far, near = forward_split_rows(ds, DomainSpec.interval(7.0, 10.0), 1.0 / 6.0)
    assert near.tolist() == [5]
    assert far.tolist() == [0, 1, 2, 3, 4]


def test_forward_split_degenerate_target_uses_center_distance():
    # all points inside the target: the nearest-to-center points go second
    ds = Dataset(np.array([0.0, 4.0, 5.0, 10.0])[:, None], np.zeros(4))
    far, near = forward_split_rows(ds, DomainSpec.interval(0.0, 10.0), 0.25)
    assert near.tolist() == [2]


def test_forward_split_2d_grid_northeast():
    xs, ys = np.meshgrid(np.arange(4.0), np.arange(4.0))
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    ds = Dataset(pts, np.zeros(16))
    target = DomainSpec(np.array([6.0, 6.0]), np.array([8.0, 8.0]))
    far, near = forward_split_rows(ds, target, 1.0 / 16.0)
    assert ds.inputs[near].tolist() == [[3.0, 3.0]]


def test_forward_split_partition_and_ordering_properties():
    gen = np.random.default_rng(5)
    ds = Dataset(gen.uniform(0, 5, size=(40, 1)), np.zeros(40))
    target = DomainSpec.interval(8.0, 9.0)
    far, near = forward_split_rows(ds, target, 0.2)
    assert near.size == 8
    assert np.array_equal(np.sort(np.concatenate([far, near])), np.arange(ds.n))
    assert np.all(np.diff(far) > 0) and np.all(np.diff(near) > 0)
    d_far = target.point_distance(ds.inputs[far])
    d_near = target.point_distance(ds.inputs[near])
    assert d_near.max() <= d_far.min() + 1e-12
    # hull of the near part is closer to the target in Hausdorff distance,
    # which for intervals [a, b] and [c, d] is max(|a - c|, |b - d|)
    def hausdorff(rows):
        lo, hi = ds.inputs[rows].min(), ds.inputs[rows].max()
        return max(abs(lo - target.lower[0]), abs(hi - target.upper[0]))

    assert hausdorff(near) < hausdorff(far)


def test_forward_split_rejects_bad_fraction():
    ds = Dataset(np.arange(5.0)[:, None], np.zeros(5))
    with pytest.raises(DataError):
        forward_split_rows(ds, DomainSpec.interval(0, 1), 0.0)
    with pytest.raises(DataError):
        forward_split_rows(ds, DomainSpec.interval(0, 1), 1.0)
