import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from structreg.auction import AuctionScenario, simulate_auctions, sre_auction
from structreg.data import (
    DataError,
    Dataset,
    DomainSpec,
    SeededRng,
    _column_scales,
    forward_split_rows,
    partition_indices,
    standardize,
)
from structreg.demand import DemandParams, GmmFold, simulate_markets, sre_demand
from structreg.entry_exit import (
    DdcParams,
    RPathSpec,
    draw_profit_path,
    regime_ccps,
    simulate_market,
    sre_entry_exit,
)
from structreg.estimators import fit_ols
from structreg.sre import (
    LinearFeatures,
    PenaltyError,
    PenaltySpec,
    PolynomialFeatures,
    SingularPathError,
    fit_theta_m,
    quadratic_path,
)
from structreg.tuning import (
    FORWARD_FRACTION,
    CvError,
    CvTrace,
    RidgeFold,
    forward_cv,
    forward_splits,
    kfold_cv,
    kfold_splits,
    rolling_cv,
    rolling_splits,
)

from .test_data import partition_indices_previous
from .test_path import assert_matches_each_split, closed_form, split_rows
from .test_sre import line_rows


def _record_cv(monkeypatch):
    """Record ``(fold, splits)`` of every cross-validation run: the fold and
    its block's :class:`CvSplits`."""
    seen = []
    cross_validate = RidgeFold.cross_validate

    def recording(fold, splits):
        seen.append((fold, splits))
        return cross_validate(fold, splits)

    monkeypatch.setattr(RidgeFold, "cross_validate", recording)
    return seen


def _line_fold(train, line, domain, grid):
    """The sample's ridge fold of a line, shrunk toward the benchmark line
    ``(intercept, slope)`` projected over ``domain``."""
    fmap = PolynomialFeatures(1)
    return RidgeFold.of_samples([train], fmap, PenaltySpec(grid, WEIGHTS),
                                fit_theta_m(fmap, line_rows(*line, *domain)))


def _noisy_line_data(n=60, seed=0, noise=0.5):
    gen = np.random.default_rng(seed)
    x = gen.uniform(0.0, 10.0, size=n)
    y = 1.0 + 2.0 * x + noise * gen.normal(size=n)
    return Dataset(x[:, None], y)


GRID = np.array([0.0, 1.0, 100.0, 1e7])
WEIGHTS = np.array([0.0, 1.0])


def test_kfold_singleton_grid():
    data = _noisy_line_data()
    [trace] = kfold_cv(_line_fold(data, (0.0, 0.0), (0, 10), [0.0]), 5, [SeededRng(1)])
    assert trace.lambda_star == 0.0


def test_kfold_benchmark_true_dgp_prefers_max_lambda():
    # when the benchmark equals the conditional mean, shrinkage only removes
    # estimation variance, so validation error falls monotonically in lambda
    gen = np.random.default_rng(2)
    x = gen.uniform(0.0, 10.0, size=60)
    data = Dataset(x[:, None], 1.0 + 2.0 * x + 0.5 * gen.normal(size=60))
    [trace] = kfold_cv(_line_fold(data, (1.0, 2.0), (0, 10), GRID), 5, [SeededRng(3)])
    assert trace.lambda_star == GRID[-1]
    assert np.all(np.diff(trace.mean_errors) <= 1e-12)


def test_kfold_misspecified_benchmark_prefers_min_lambda():
    data = _noisy_line_data(n=400, seed=4, noise=0.1)
    bad = (-30.0, -7.0)  # far from the true line
    [trace] = kfold_cv(_line_fold(data, bad, (0, 10), GRID), 5, [SeededRng(5)])
    assert trace.lambda_star == GRID[0]


def test_kfold_propagates_fitter_failure_with_fold_id():
    # two identical feature columns: every training fold is singular at lambda = 0
    x = _noisy_line_data(n=20).inputs
    data = Dataset(np.column_stack([x, x]), np.arange(20.0))
    final = RidgeFold.of_samples([data], LinearFeatures(2),
                                 PenaltySpec([0.0], [0.0, 1.0, 1.0]), np.zeros(3))
    with pytest.raises(CvError, match="fold 0 at lambda=0.0: singular"):
        kfold_cv(final, 4, [SeededRng(6)])


def test_a_failing_split_in_a_stack_names_its_sample_and_its_own_index():
    # sample 2's second column is constant: every training fold standardizes
    # it to zeros, which is singular at lambda = 0; samples 0 and 1 are regular
    gen = np.random.default_rng(9)
    samples = [Dataset(gen.normal(size=(20, 2)), gen.normal(size=20)) for _ in range(3)]
    samples[2] = Dataset(np.column_stack([samples[2].inputs[:, 0], np.full(20, 0.7)]),
                         samples[2].outcome)
    penalty = PenaltySpec([0.0, 1.0], [0.0, 1.0, 1.0])
    rngs = [SeededRng(10).split(s) for s in range(3)]
    stack = RidgeFold.of_samples(samples, LinearFeatures(2), penalty, np.zeros(3))
    with pytest.raises(CvError, match=r"^fitter failed on fold 0 of sample 2 at lambda=0\.0: "):
        kfold_cv(stack, 4, rngs)
    # alone, the sample's split keeps the wording of a single sample
    alone = RidgeFold.of_samples(samples[2:], LinearFeatures(2), penalty, np.zeros(3))
    with pytest.raises(CvError, match=r"^fitter failed on fold 0 at lambda=0\.0: singular"):
        kfold_cv(alone, 4, rngs[2:])


def test_cv_trace_lambda_star_attains_minimum():
    data = _noisy_line_data(n=80, seed=7)
    [trace] = kfold_cv(_line_fold(data, (1.0, 2.0), (0, 10), GRID), 4, [SeededRng(8)])
    assert trace.lambda_star == trace.lambda_grid[np.argmin(trace.mean_errors)]
    assert trace.fold_errors.shape == (4, GRID.size)
    assert np.allclose(trace.fold_errors.mean(axis=0), trace.mean_errors)


def test_forward_cv_near_target_rows_always_validated_never_trained(monkeypatch):
    seen = _record_cv(monkeypatch)
    data = Dataset(np.arange(1.0, 61.0)[:, None], np.zeros(60))
    target = DomainSpec.interval(61.0, 100.0)
    forward_cv(_line_fold(data, (0.0, 0.0), (1, 100), [0.0, 1.0]), 5, target, [SeededRng(9)])
    [(_, splits)] = seen
    near = set(range(51, 61))  # ceil(60/6) = 10 nearest points
    assert splits.kind == "forward" and splits.train.shape[0] == 5
    for s in range(5):
        train, val = (set(data.inputs[rows, 0].astype(int)) for rows in split_rows(splits, s))
        assert near.isdisjoint(train)
        assert near.issubset(val)
        assert train.isdisjoint(val) and len(train | val) == 60


def test_forward_cv_fold_count_and_guards():
    data = Dataset(np.arange(1.0, 13.0)[:, None], np.zeros(12))
    target = DomainSpec.interval(20.0, 30.0)
    final = _line_fold(data, (0.0, 0.0), (1, 30), [0.0])
    [trace] = forward_cv(final, 5, target, [SeededRng(10)])
    assert trace.fold_errors.shape[0] == 5
    # the near-target sixth leaves 10 far-part rows, too few for 11 folds
    with pytest.raises(DataError, match="cannot form 11 folds from 10 far-part rows"):
        forward_cv(final, 11, target, [SeededRng(10)])


def test_rolling_cv_constant_series_zero_error_smallest_lambda():
    # a constant regressor standardizes to zeros in every window, so the slope
    # sits at its zero target and every grid point predicts the window mean
    T = 40
    data = Dataset(
        np.column_stack([np.ones(T)]), np.full(T, 0.3), time_index=np.arange(T)
    )
    final = RidgeFold.of_samples([data], LinearFeatures(1),
                                 PenaltySpec([0.5, 1.0, 2.0], WEIGHTS), np.zeros(2))
    [trace] = rolling_cv(final, 10)
    assert np.allclose(trace.mean_errors, 0.0)
    assert trace.lambda_star == 0.5


def test_rolling_cv_window_covering_all_but_last_is_single_holdout(monkeypatch):
    seen = _record_cv(monkeypatch)
    gen = np.random.default_rng(11)
    T = 30
    x = gen.normal(size=T)
    data = Dataset(x[:, None], gen.normal(size=T), time_index=np.arange(T))
    [trace] = rolling_cv(_line_fold(data, (0.0, 0.0), (-3, 3), [0.0]), T - 1)
    assert trace.fold_errors.shape[0] == 1
    [(_, splits)] = seen
    assert [rows.size for rows in split_rows(splits, 0)] == [T - 1, 1]


def test_rolling_cv_never_trains_on_future(monkeypatch):
    seen = _record_cv(monkeypatch)
    T = 60
    data = Dataset(
        np.arange(T, dtype=float)[:, None],
        np.arange(T, dtype=float),
        time_index=np.arange(T),
    )
    rolling_cv(_line_fold(data, (0.0, 1.0), (0, T), [1.0]), 12)
    [(_, splits)] = seen
    assert splits.train.shape[0] == T - 12
    for s in range(T - 12):
        train, val = split_rows(splits, s)
        assert train.size == 12 and val.size == 1
        assert data.time_index[train].max() < data.time_index[val].min()


def test_rolling_cv_benchmark_true_series_prefers_large_lambda():
    gen = np.random.default_rng(12)
    T = 120
    x = gen.uniform(0, 5, size=T)
    y = 1.0 + 2.0 * x + 0.8 * gen.normal(size=T)
    data = Dataset(x[:, None], y, time_index=np.arange(T))
    grid = np.array([0.0, 1e8])
    [trace] = rolling_cv(_line_fold(data, (1.0, 2.0), (0, 5), grid), 24)
    assert trace.lambda_star == grid[-1]


def test_rolling_cv_requires_time_index():
    data = Dataset(np.arange(10.0)[:, None], np.zeros(10))
    with pytest.raises(DataError):
        rolling_cv(_line_fold(data, (0.0, 0.0), (0, 10), [0.0]), 4)


def test_rolling_cv_checks_every_sample_of_a_stack():
    gen = np.random.default_rng(19)
    samples = [Dataset(gen.normal(size=(30, 1)), gen.normal(size=30), time_index=time)
               for time in (np.arange(30), np.arange(30)[::-1])]
    fold = RidgeFold.of_samples(samples, LinearFeatures(1), PenaltySpec([0.0], WEIGHTS),
                                np.zeros(2))
    with pytest.raises(DataError, match="time_index must be nondecreasing"):
        rolling_cv(fold, 10)


def _study_sample(name):
    """A sample shaped like a study's fitting half: its inputs and feature map."""
    gen = np.random.default_rng(17)
    if name == "auction":  # bidder counts, polynomial degree 5
        return gen.integers(2, 8, size=150).astype(float)[:, None], PolynomialFeatures(5)
    if name == "demand":  # prices, polynomial degree 2
        return gen.uniform(40.0, 120.0, size=500)[:, None], PolynomialFeatures(2)
    # lagged shares and profit-path terms, 6 linear columns
    return np.column_stack([gen.uniform(0.3, 0.7, size=(90, 4)),
                            gen.normal(1.0, 0.5, size=(90, 2))]), LinearFeatures(6)


@pytest.mark.parametrize("name", ["auction", "demand", "entry-exit"])
def test_of_sample_is_the_standardize_built_fold(name):
    inputs, fmap = _study_sample(name)
    train = Dataset(inputs, np.random.default_rng(18).normal(size=inputs.shape[0]))
    std, transform = standardize(Dataset(fmap.transform(inputs), train.outcome))
    theta_m = np.arange(fmap.n_features + 1.0)
    final = RidgeFold.of_samples([train], fmap,
                                 PenaltySpec(GRID, np.ones(fmap.n_features + 1)), theta_m)
    X = np.column_stack([np.ones(train.n), std.inputs])
    assert np.array_equal(final.G[0], X.T @ X)
    assert np.array_equal(final.b[0], X.T @ train.outcome)
    assert np.array_equal(final.means[0], transform.column_means)
    assert np.array_equal(final.scales[0], transform.column_scales)
    [fit] = final.fit([CvTrace("kfold", GRID, [[1.0, 0.0, 1.0, 1.0]])])
    assert fit.transform.outcome_mean == transform.outcome_mean
    # the fold keeps the benchmark's raw-scale coefficients as given
    assert np.array_equal(final.theta_m[0], theta_m)


def test_final_fold_and_split_of_one_row_fail_typed():
    data = Dataset(np.arange(6.0)[:, None], np.arange(6.0) ** 2, time_index=np.arange(6))
    with pytest.raises(DataError, match="standardize requires at least two rows"):
        _line_fold(data.subset([2]), (0.0, 0.0), (0, 6), GRID)
    with pytest.raises(CvError, match="window 0: standardize requires at least two rows"):
        rolling_cv(_line_fold(data, (0.0, 0.0), (0, 6), GRID), 1)


def test_a_fold_of_another_width_of_weights_fails_typed():
    # weights one short or one long of the design (1, x) fail before any solve
    data = _noisy_line_data(n=20)
    for weights in ([1.0], [0.0, 1.0, 1.0]):
        with pytest.raises(PenaltyError, match="G, b, weights and theta_m must share one width"):
            RidgeFold.of_samples([data], LinearFeatures(1), PenaltySpec(GRID, weights),
                                 np.zeros(2))


def test_a_stack_of_rows_that_are_not_whole_samples_fails_typed():
    data = _noisy_line_data(n=20)
    penalty = PenaltySpec(GRID, WEIGHTS)
    with pytest.raises(DataError, match="20 rows cannot be 3 samples of one size"):
        RidgeFold.of_stack(data, 3, LinearFeatures(1), penalty, np.zeros(2))
    with pytest.raises(DataError, match="20 rows cannot be 0 samples of one size"):
        RidgeFold.of_stack(data, 0, LinearFeatures(1), penalty, np.zeros(2))
    # rows that are whole samples pose each sample alone
    halves = RidgeFold.of_stack(data, 2, LinearFeatures(1), penalty, np.zeros(2))
    first = RidgeFold.of_samples([data.subset(np.arange(10))], LinearFeatures(1), penalty,
                                 np.zeros(2))
    assert np.array_equal(halves.G[0], first.G[0]) and np.array_equal(halves.b[0], first.b[0])


def test_final_fit_on_a_collinear_sample_at_lambda_zero_fails_typed():
    x = np.linspace(0.0, 1.0, 20)
    train = Dataset(np.column_stack([x, 2.0 * x + 1.0]), np.sin(7.0 * x))
    final = RidgeFold.of_samples([train], LinearFeatures(2),
                                 PenaltySpec(GRID, [0.0, 1.0, 1.0]), np.zeros(3))
    with pytest.raises(SingularPathError) as info:
        final.fit([CvTrace("kfold", GRID, [[0.0, 1.0, 2.0, 3.0]])])
    assert info.value.lam == 0.0
    # a positive penalty makes the same fold regular
    trace = CvTrace("kfold", GRID, [[1.0, 0.0, 2.0, 3.0]])
    [fit] = final.fit([trace])
    assert fit.lambda_star == 1.0 and np.isfinite(fit.theta).all()
    assert fit.trace is trace


def test_cv_trace_computes_its_mean_and_takes_the_smallest_tied_lambda():
    errors = np.array([[3.0, 1.0, 2.0, 1.0], [1.0, 2.0, 1.0, 2.0]])
    trace = CvTrace("kfold", GRID, errors)
    # grid points 1 and 3 tie at the minimum mean error 1.5
    assert np.array_equal(trace.mean_errors, errors.mean(axis=0))
    assert trace.mean_errors[1] == trace.mean_errors[3] == trace.mean_errors.min()
    assert trace.lambda_star == GRID[1]
    assert trace.fold_errors.dtype == trace.lambda_grid.dtype == float


def _select_and_fit_on_half(data, line, grid, rng):
    """The select-and-fit step on the second half of ``data``: the final fold,
    5-fold cross-validation of it, and the fit at lambda*."""
    fit_half = data.subset(partition_indices(data.n, 2, rng.split(0))[1])
    final = _line_fold(fit_half, line, (0, 10), grid)
    return final.fit(kfold_cv(final, 5, [rng.split(3)]))[0], fit_half


def test_sample_split_lambda_zero_reduces_to_plain_fit():
    data = _noisy_line_data(n=80, seed=13)
    fit, fit_half = _select_and_fit_on_half(data, (0.0, 0.0), [0.0], SeededRng(14))
    plain = fit_ols(fit_half.inputs, fit_half.outcome)
    grid = np.linspace(0, 10, 9)[:, None]
    assert fit.lambda_star == 0.0
    assert np.abs(fit.predict(grid) - plain.predict(grid)).max() <= 1e-8


def test_sample_split_exact_benchmark_noiseless():
    gen = np.random.default_rng(15)
    x = gen.uniform(0.0, 10.0, size=100)
    data = Dataset(x[:, None], 1.0 + 2.0 * x)
    fit, _ = _select_and_fit_on_half(data, (1.0, 2.0), np.array([0.0, 1.0, 1e9]),
                                     SeededRng(16))
    grid = np.linspace(0, 10, 21)[:, None]
    assert np.abs(fit.predict(grid) - (1.0 + 2.0 * grid[:, 0])).max() <= 1e-6


def _auction_second_stage():
    scenario = AuctionScenario.from_index(1)
    return sre_auction([simulate_auctions(scenario, SeededRng(30))], scenario,
                       [SeededRng(31)])[0]


def _entry_exit_second_stage():
    params = DdcParams(mu=-2.0, alpha=1.0, entry_cost=2.0, discount=0.9,
                       n_firms=1000, t_total=140, t_train=100)
    R = draw_profit_path(RPathSpec(), 140, SeededRng(22))
    ccps = regime_ccps("myopic", params, R)
    pa, pb = (simulate_market(ccps, R, params.n_firms, SeededRng(seed)).truncate(100)
              for seed in (23, 24))
    return sre_entry_exit(pa, pb, params.discount, R, SeededRng(25))


def _demand_second_stage():
    data = simulate_markets(DemandParams(M=600), SeededRng(11))
    return sre_demand([data], [SeededRng(12)])[0]


@pytest.mark.parametrize(
    "second_stage, kind",
    [(_auction_second_stage, "forward"),
     (_entry_exit_second_stage, "rolling"),
     (_demand_second_stage, "kfold")],
    ids=["auction", "entry-exit", "demand"],
)
def test_second_stage_refits_the_fold_its_cv_refolded(monkeypatch, second_stage, kind):
    # record the fold and splits of the study's one CV run
    seen = _record_cv(monkeypatch)
    fit = second_stage()
    [(final, splits)] = seen
    trace = fit.trace
    assert isinstance(trace, CvTrace)
    assert fit.lambda_star == trace.lambda_star
    assert trace.kind == splits.kind == kind
    # the fold the CV scored made the fit: its own path at lambda*, toward its
    # raw-scale theta_m re-expressed on the fold's standardization
    lam = trace.lambda_star
    assert np.array_equal(trace.lambda_grid, final.penalty.lambda_grid)
    slopes = final.theta_m[0, 1:]
    assert np.array_equal(fit.theta_m, np.concatenate([
        [final.theta_m[0, 0] + final.means[0] @ slopes], slopes * final.scales[0]]))
    assert np.array_equal(fit.theta, quadratic_path(final.G[0], final.b[0], final.penalty.weights,
                                                    fit.theta_m, [lam])[0])
    # which is the per-lambda closed form of the whole sample posed alone
    reference = closed_form(final, np.arange(final.sample_size))[0](lam)
    assert np.linalg.norm(fit.theta - reference) <= 1e-9 * np.linalg.norm(reference)
    # every split posed the problem it poses alone
    assert_matches_each_split(final, splits, errors=trace.fold_errors)


def test_an_overflowing_held_out_error_names_its_split_and_lambda():
    # every prediction is finite, but its squared residual overflows
    gen = np.random.default_rng(11)
    X = gen.normal(size=(40, 2))
    huge = Dataset(X, 1e160 * (X @ [1.0, 2.0] + gen.normal(size=40)))
    penalty = PenaltySpec([0.0, 1.0, 10.0], [0.0, 1.0, 1.0])
    alone = RidgeFold.of_samples([huge], LinearFeatures(2), penalty, np.zeros(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the typed error, not a RuntimeWarning
        with pytest.raises(CvError, match=r"^fitter failed on fold 0 at lambda=0\.0: "
                                          r"non-finite held-out error$"):
            kfold_cv(alone, 5, [SeededRng(12)])
        regular = Dataset(X, huge.outcome / 1e160)
        stack = RidgeFold.of_samples([regular, huge], LinearFeatures(2), penalty, np.zeros(3))
        with pytest.raises(CvError, match=r"^fitter failed on fold 0 of sample 1 at lambda=0\.0"):
            kfold_cv(stack, 5, [SeededRng(12), SeededRng(13)])


def test_an_overflowing_held_out_moment_objective_names_its_split_and_lambda():
    # every path is finite, but the held-out moments' objective overflows
    regular = simulate_markets(DemandParams(M=200), SeededRng(14))
    huge = Dataset(regular.inputs, 1e160 * regular.outcome, regular.instruments)
    penalty = PenaltySpec([0.0, 1.0, 10.0], [0.0, 1.0, 1.0])
    theta_m = np.array([260.0, -2.0, 0.0])
    alone = GmmFold.of_samples([huge], PolynomialFeatures(2), penalty, theta_m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the typed error, not a RuntimeWarning
        with pytest.raises(CvError, match=r"^fitter failed on fold 0 at lambda=0\.0: "
                                          r"non-finite held-out error$"):
            kfold_cv(alone, 5, [SeededRng(15)])
        stack = GmmFold.of_samples([regular, huge], PolynomialFeatures(2), penalty, theta_m)
        with pytest.raises(CvError, match=r"^fitter failed on fold 0 of sample 1 at "
                                          r"lambda=0\.0: non-finite held-out error$"):
            kfold_cv(stack, 5, [SeededRng(15), SeededRng(16)])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cv_trace_rejects_non_finite_fold_errors(bad):
    with pytest.raises(CvError, match="fold errors must be finite"):
        CvTrace("kfold", GRID, [[1.0, 2.0, 3.0, 4.0], [1.0, bad, 3.0, 4.0]])


def _bits(array) -> np.ndarray:
    """The array's float64 bits, so that zero signs count."""
    return np.ascontiguousarray(array).view(np.int64)


def _previous_pose(F, outcome, rows, weight):
    """``RidgeFold._pose`` and ``stacked_standardization`` as they were
    before the columnar gather: the oracle of their bits."""
    values, w = F[rows], weight[:, :, None]
    count = weight.sum(axis=1)[:, None]
    means = (values * w).sum(axis=1) / count
    centered = (values - means[:, None, :]) * w
    scales = _column_scales(np.sqrt((centered * centered).sum(axis=1) / count), means)
    design = np.concatenate([weight[:, :, None], centered / scales[:, None, :]], axis=2)
    return means, scales, design, outcome[rows] * weight


@given(seed=st.integers(0, 2**32 - 1), S=st.sampled_from([1, 2, 25]),
       c=st.sampled_from([1, 2, 5, 6]))
@settings(max_examples=60, deadline=None)
def test_pose_matches_its_previous_form(seed, S, c):
    # More than eight rows a sample, where numpy's pairwise sum of one
    # column parts from a row-by-row sum.
    gen = np.random.default_rng(seed)
    r = int(gen.integers(9, 150))
    n = int(gen.integers(r, 300))
    F = gen.normal(gen.uniform(-5.0, 5.0), gen.uniform(0.1, 10.0), size=(n, c))
    # column 0 sits at the edge of the zero-variance rule: a constant spread
    # by a few dozen ulps, about 64 eps |mean| in standard deviation
    mean = gen.uniform(0.1, 10.0)
    F[:, 0] = mean + mean * np.finfo(float).eps * gen.integers(-90, 91, size=n)
    rows = np.stack([gen.choice(n, size=r, replace=False) for _ in range(S)])
    weight = (gen.random((S, r)) < gen.uniform(0.3, 1.0)).astype(float)
    weight[:, :2] = 1.0  # at least two used rows, the rest padded at random
    data = Dataset(gen.normal(size=(n, 1)), gen.normal(size=n))
    posed = RidgeFold._pose(F, data, rows, weight, None)
    means, scales, design, outcome = _previous_pose(F, data.outcome, rows, weight)
    for name, expected in [("means", means), ("scales", scales), ("design", design),
                           ("outcome", outcome)]:
        assert posed[name].flags.c_contiguous, name
        assert np.array_equal(_bits(posed[name]), _bits(expected)), name
    G, b = RidgeFold._normal_equations(posed)
    Xt = design.swapaxes(1, 2)
    assert np.array_equal(_bits(G), _bits(Xt @ design))
    assert np.array_equal(_bits(b), _bits((Xt @ outcome[:, :, None])[:, :, 0]))


def _previous_fold_rows(rows, K, rng):
    """One sample's ``(train, train_weight, val, val_weight)``, as the splits
    were built before a block's were built in one pass: the oracle."""
    label = np.empty(rows.size, dtype=int)
    for k, idx in enumerate(partition_indices_previous(rows.size, K, rng)):
        label[idx] = k
    in_fold = label == np.arange(K)[:, None]
    size = in_fold.sum(axis=1)
    train = np.argsort(in_fold, axis=1, kind="stable")[:, : rows.size - size.min()]
    val = np.argsort(~in_fold, axis=1, kind="stable")[:, : size.max()]
    return (rows[train], 1.0 - np.take_along_axis(in_fold, train, axis=1),
            rows[val], np.take_along_axis(in_fold, val, axis=1).astype(float))


def _sample_split_arrays(splits, s, n):
    """Sample ``s``'s splits of a block of ``n``-row samples, with rows
    moved back to the sample's own indices."""
    own = slice(s * splits.per_sample, (s + 1) * splits.per_sample)
    return (splits.train[own] - s * n, splits.train_weight[own],
            splits.val[own] - s * n, splits.val_weight[own])


@given(seed=st.integers(0, 2**32 - 1), S=st.sampled_from([1, 2, 5]))
@settings(max_examples=60, deadline=None)
def test_block_splits_match_each_samples_previous_form(seed, S):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(2, 60))
    K = int(gen.choice([2, n, int(gen.integers(2, n + 1))]))
    rngs = [SeededRng(seed).split(s) for s in range(S)]
    splits = kfold_splits(n, K, rngs)
    assert splits.kind == "kfold" and splits.per_sample == K and splits.sample_count == S
    for s, rng in enumerate(rngs):
        expected = _previous_fold_rows(np.arange(n), K, rng)
        for got, want in zip(_sample_split_arrays(splits, s, n), expected, strict=True):
            assert got.dtype == want.dtype and np.array_equal(got, want)
    # forward splits of samples of one size: each sample's far part folded
    # by its own rng, validated with its own near part as well
    n = int(gen.integers(12, 60))
    samples = [Dataset(gen.uniform(0.0, 10.0, size=(n, 1)), np.zeros(n)) for _ in range(S)]
    target, K = DomainSpec.interval(9.0, 10.0), int(gen.integers(2, 6))
    splits = forward_splits(np.stack([sample.inputs for sample in samples]), K, target, rngs)
    assert splits.kind == "forward" and splits.per_sample == K and splits.sample_count == S
    for s, (sample, rng) in enumerate(zip(samples, rngs, strict=True)):
        far, near = forward_split_rows(sample, target, FORWARD_FRACTION)
        train, train_weight, val, val_weight = _previous_fold_rows(far, K, rng)
        expected = (train, train_weight,
                    np.column_stack([val, np.broadcast_to(near, (K, near.size))]),
                    np.column_stack([val_weight, np.ones((K, near.size))]))
        for got, want in zip(_sample_split_arrays(splits, s, n), expected, strict=True):
            assert got.dtype == want.dtype and np.array_equal(got, want)
    # rolling windows: every sample's are one sample's windows of its own rows
    length = int(gen.integers(2, n))
    windows = rolling_splits(n, length, S)
    assert windows.per_sample == n - length and windows.sample_count == S
    train = sliding_window_view(np.arange(n), length)[:-1]
    expected = (train, np.ones(train.shape), np.arange(length, n)[:, None], np.ones((n - length, 1)))
    for s in range(S):
        for got, want in zip(_sample_split_arrays(windows, s, n), expected, strict=True):
            assert np.array_equal(got, want)


def test_block_splits_reject_impossible_partitions():
    with pytest.raises(DataError, match="cannot partition 3 rows into 4 parts"):
        kfold_splits(3, 4, [SeededRng(0), SeededRng(1)])
    with pytest.raises(DataError, match="partition requires K >= 2"):
        kfold_splits(3, 1, [SeededRng(0)])
    # a fold of two samples cross-validates two sets of splits, no fewer
    data = _noisy_line_data(n=20)
    fold = RidgeFold.of_samples([data, data], LinearFeatures(1),
                                PenaltySpec(GRID, WEIGHTS), np.zeros(2))
    with pytest.raises(DataError, match="1 sets of splits for 2 samples"):
        kfold_cv(fold, 4, [SeededRng(0)])
    # and each sample of a block is partitioned by its own rng
    with pytest.raises(ValueError, match="zip"):
        forward_splits(np.stack([data.inputs, data.inputs]), 4, DomainSpec.interval(0.0, 1.0),
                       [SeededRng(0)])
