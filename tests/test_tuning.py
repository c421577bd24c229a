import numpy as np
import pytest

from structreg.auction import AuctionScenario, simulate_auctions, sre_auction
from structreg.data import (
    DataError,
    Dataset,
    DomainSpec,
    SeededRng,
    partition_indices,
    standardize,
)
from structreg.demand import DemandParams, simulate_markets, sre_demand
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
    PenaltySpec,
    PolynomialFeatures,
    SingularPathError,
    fit_theta_m,
    quadratic_path,
)
from structreg.tuning import (
    CvError,
    CvTrace,
    RidgeFold,
    forward_cv,
    kfold_cv,
    rolling_cv,
)

from .test_path import assert_matches_each_split, closed_form, split_rows
from .test_sre import line_rows


def _record_cv(monkeypatch):
    """Record ``(fold, splits)`` of every cross-validation run, alone or stacked."""
    seen = []
    cross_validate_all = RidgeFold.cross_validate_all

    def recording(folds, splits):
        seen.extend(zip(folds, splits))
        return cross_validate_all(folds, splits)

    monkeypatch.setattr(RidgeFold, "cross_validate_all", staticmethod(recording))
    return seen


def _line_fold(train, line, domain, grid):
    """The sample's ridge fold of a line, shrunk toward the benchmark line
    ``(intercept, slope)`` projected over ``domain``."""
    fmap = PolynomialFeatures(1)
    return RidgeFold.of_sample(train, fmap, PenaltySpec(grid, WEIGHTS),
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
    trace = kfold_cv(_line_fold(data, (0.0, 0.0), (0, 10), [0.0]), 5, SeededRng(1))
    assert trace.lambda_star == 0.0


def test_kfold_benchmark_true_dgp_prefers_max_lambda():
    # when the benchmark equals the conditional mean, shrinkage only removes
    # estimation variance, so validation error falls monotonically in lambda
    gen = np.random.default_rng(2)
    x = gen.uniform(0.0, 10.0, size=60)
    data = Dataset(x[:, None], 1.0 + 2.0 * x + 0.5 * gen.normal(size=60))
    trace = kfold_cv(_line_fold(data, (1.0, 2.0), (0, 10), GRID), 5, SeededRng(3))
    assert trace.lambda_star == GRID[-1]
    assert np.all(np.diff(trace.mean_errors) <= 1e-12)


def test_kfold_misspecified_benchmark_prefers_min_lambda():
    data = _noisy_line_data(n=400, seed=4, noise=0.1)
    bad = (-30.0, -7.0)  # far from the true line
    trace = kfold_cv(_line_fold(data, bad, (0, 10), GRID), 5, SeededRng(5))
    assert trace.lambda_star == GRID[0]


def test_kfold_propagates_fitter_failure_with_fold_id():
    # two identical feature columns: every training fold is singular at lambda = 0
    x = _noisy_line_data(n=20).inputs
    data = Dataset(np.column_stack([x, x]), np.arange(20.0))
    final = RidgeFold.of_sample(data, LinearFeatures(2), PenaltySpec([0.0], [0.0, 1.0, 1.0]),
                                np.zeros(3))
    with pytest.raises(CvError, match="fold 0 at lambda=0.0: singular"):
        kfold_cv(final, 4, SeededRng(6))


def test_cv_trace_lambda_star_attains_minimum():
    data = _noisy_line_data(n=80, seed=7)
    trace = kfold_cv(_line_fold(data, (1.0, 2.0), (0, 10), GRID), 4, SeededRng(8))
    assert trace.lambda_star == trace.lambda_grid[np.argmin(trace.mean_errors)]
    assert trace.fold_errors.shape == (4, GRID.size)
    assert np.allclose(trace.fold_errors.mean(axis=0), trace.mean_errors)


def test_forward_cv_near_target_rows_always_validated_never_trained(monkeypatch):
    seen = _record_cv(monkeypatch)
    data = Dataset(np.arange(1.0, 61.0)[:, None], np.zeros(60))
    target = DomainSpec.interval(61.0, 100.0)
    forward_cv(_line_fold(data, (0.0, 0.0), (1, 100), [0.0, 1.0]), 5, target, SeededRng(9))
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
    trace = forward_cv(final, 5, target, SeededRng(10))
    assert trace.fold_errors.shape[0] == 5
    # the near-target sixth leaves 10 far-part rows, too few for 11 folds
    with pytest.raises(DataError, match="cannot form 11 folds from 10 far-part rows"):
        forward_cv(final, 11, target, SeededRng(10))


def test_rolling_cv_constant_series_zero_error_smallest_lambda():
    # a constant regressor standardizes to zeros in every window, so the slope
    # sits at its zero target and every grid point predicts the window mean
    T = 40
    data = Dataset(
        np.column_stack([np.ones(T)]), np.full(T, 0.3), time_index=np.arange(T)
    )
    final = RidgeFold.of_sample(data, LinearFeatures(1), PenaltySpec([0.5, 1.0, 2.0], WEIGHTS),
                                np.zeros(2))
    trace = rolling_cv(final, 10)
    assert np.allclose(trace.mean_errors, 0.0)
    assert trace.lambda_star == 0.5


def test_rolling_cv_window_covering_all_but_last_is_single_holdout(monkeypatch):
    seen = _record_cv(monkeypatch)
    gen = np.random.default_rng(11)
    T = 30
    x = gen.normal(size=T)
    data = Dataset(x[:, None], gen.normal(size=T), time_index=np.arange(T))
    trace = rolling_cv(_line_fold(data, (0.0, 0.0), (-3, 3), [0.0]), T - 1)
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
    trace = rolling_cv(_line_fold(data, (1.0, 2.0), (0, 5), grid), 24)
    assert trace.lambda_star == grid[-1]


def test_rolling_cv_requires_time_index():
    data = Dataset(np.arange(10.0)[:, None], np.zeros(10))
    with pytest.raises(DataError):
        rolling_cv(_line_fold(data, (0.0, 0.0), (0, 10), [0.0]), 4)


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
    final = RidgeFold.of_sample(train, fmap, PenaltySpec(GRID, np.ones(fmap.n_features + 1)),
                                theta_m)
    X = np.column_stack([np.ones(train.n), std.inputs])
    assert np.array_equal(final.G, X.T @ X)
    assert np.array_equal(final.b, X.T @ train.outcome)
    assert np.array_equal(final.transform.column_means, transform.column_means)
    assert np.array_equal(final.transform.column_scales, transform.column_scales)
    assert final.transform.outcome_mean == transform.outcome_mean
    # the fold keeps the benchmark's raw-scale coefficients as given
    assert np.array_equal(final.theta_m, theta_m)


def test_final_fold_and_split_of_one_row_fail_typed():
    data = Dataset(np.arange(6.0)[:, None], np.arange(6.0) ** 2, time_index=np.arange(6))
    with pytest.raises(DataError, match="standardize requires at least two rows"):
        _line_fold(data.subset([2]), (0.0, 0.0), (0, 6), GRID)
    with pytest.raises(CvError, match="window 0: standardize requires at least two rows"):
        rolling_cv(_line_fold(data, (0.0, 0.0), (0, 6), GRID), 1)


def test_final_fit_on_a_collinear_sample_at_lambda_zero_fails_typed():
    x = np.linspace(0.0, 1.0, 20)
    train = Dataset(np.column_stack([x, 2.0 * x + 1.0]), np.sin(7.0 * x))
    final = RidgeFold.of_sample(train, LinearFeatures(2), PenaltySpec(GRID, [0.0, 1.0, 1.0]),
                                np.zeros(3))
    with pytest.raises(SingularPathError) as info:
        final.fit(CvTrace("kfold", GRID, [[0.0, 1.0, 2.0, 3.0]]))
    assert info.value.lam == 0.0
    # a positive penalty makes the same fold regular
    trace = CvTrace("kfold", GRID, [[1.0, 0.0, 2.0, 3.0]])
    fit = final.fit(trace)
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
    return final.fit(kfold_cv(final, 5, rng.split(3))), fit_half


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
    slopes = final.theta_m[1:]
    assert np.array_equal(fit.theta_m, np.concatenate([
        [final.theta_m[0] + final.transform.column_means @ slopes],
        slopes * final.transform.column_scales]))
    assert np.array_equal(
        fit.theta, quadratic_path(final.G, final.b, final.penalty.weights, fit.theta_m, [lam])[0])
    # which is the per-lambda closed form of the whole sample posed alone
    reference = closed_form(final, np.arange(final.sample.n))[0](lam)
    assert np.linalg.norm(fit.theta - reference) <= 1e-9 * np.linalg.norm(reference)
    # every split posed the problem it poses alone
    assert_matches_each_split(final, splits, errors=trace.fold_errors)
