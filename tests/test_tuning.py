import numpy as np
import pytest

from structreg import tuning
from structreg.auction import (
    SRE_POLY_DEGREE,
    AuctionScenario,
    UniformAuctionModel,
    auction_penalty,
    simulate_auctions,
)
from structreg.data import DataError, Dataset, DomainSpec, SeededRng
from structreg.demand import DemandParams, _gmm_fold, simulate_markets, sre_demand
from structreg.entry_exit import (
    DdcParams,
    RPathSpec,
    draw_profit_path,
    regime_ccps,
    simulate_market,
    sre_entry_exit,
)
from structreg.estimators import fit_ols
from structreg.sre import PenaltySpec, PolynomialFeatures, fit_theta_m
from structreg.tuning import (
    BenchmarkFamily,
    CvError,
    CvPlan,
    CvTrace,
    forward_cv,
    kfold_cv,
    raw_affine_coefficients,
    ridge_fold,
    rolling_cv,
    sre_cross_fit,
    sre_sample_split,
    squared_error_scorer,
)

from .test_sre import LineBenchmark


class LineFamily(BenchmarkFamily):
    def __init__(self, a, b):
        self.a, self.b = a, b

    def estimate(self, data):
        return LineBenchmark(self.a, self.b)


class _RecordingFitter:
    """Wraps a fitter, recording every training sample it sees."""

    def __init__(self, inner):
        self.inner = inner
        self.train_inputs = []

    def __call__(self, train):
        self.train_inputs.append(train.inputs.copy())
        return self.inner(train)


class _FixedFold:
    """A fold whose every grid point predicts ``predict(inputs)``."""

    def __init__(self, predict):
        self._predict = predict

    def path(self, grid):
        return np.zeros((len(grid), 1))

    def predict(self, thetas, inputs):
        return np.repeat(self._predict(inputs)[:, None], thetas.shape[0], axis=1)


def _line_fitter(benchmark, domain, weights, grid):
    """Each training fold standardized on its own, with the benchmark projected on it."""
    fmap, penalty = PolynomialFeatures(1), PenaltySpec(grid, weights)
    return lambda train: ridge_fold(train, fmap, penalty, lambda transform: fit_theta_m(
        fmap, benchmark, domain, transform=transform))


def _noisy_line_data(n=60, seed=0, noise=0.5):
    gen = np.random.default_rng(seed)
    x = gen.uniform(0.0, 10.0, size=n)
    y = 1.0 + 2.0 * x + noise * gen.normal(size=n)
    return Dataset(x[:, None], y)


GRID = np.array([0.0, 1.0, 100.0, 1e7])
WEIGHTS = np.array([0.0, 1.0])


def test_kfold_singleton_grid():
    data = _noisy_line_data()
    fitter = _line_fitter(LineBenchmark(0.0, 0.0), DomainSpec.interval(0, 10), WEIGHTS, [0.0])
    trace = kfold_cv(fitter, squared_error_scorer, data, [0.0], 5, SeededRng(1))
    assert trace.lambda_star == 0.0


def test_kfold_benchmark_true_dgp_prefers_max_lambda():
    # when the benchmark equals the conditional mean, shrinkage only removes
    # estimation variance, so validation error falls monotonically in lambda
    gen = np.random.default_rng(2)
    x = gen.uniform(0.0, 10.0, size=60)
    data = Dataset(x[:, None], 1.0 + 2.0 * x + 0.5 * gen.normal(size=60))
    fitter = _line_fitter(LineBenchmark(1.0, 2.0), DomainSpec.interval(0, 10), WEIGHTS, GRID)
    trace = kfold_cv(fitter, squared_error_scorer, data, GRID, 5, SeededRng(3))
    assert trace.lambda_star == GRID[-1]
    assert np.all(np.diff(trace.mean_errors) <= 1e-12)


def test_kfold_misspecified_benchmark_prefers_min_lambda():
    data = _noisy_line_data(n=400, seed=4, noise=0.1)
    bad = LineBenchmark(-30.0, -7.0)  # far from the true line
    fitter = _line_fitter(bad, DomainSpec.interval(0, 10), WEIGHTS, GRID)
    trace = kfold_cv(fitter, squared_error_scorer, data, GRID, 5, SeededRng(5))
    assert trace.lambda_star == GRID[0]


def test_kfold_propagates_fitter_failure_with_fold_id():
    data = _noisy_line_data(n=20)

    def bad_fitter(train):
        raise RuntimeError("boom")

    with pytest.raises(CvError, match="fold 0"):
        kfold_cv(bad_fitter, squared_error_scorer, data, [0.0], 4, SeededRng(6))


def test_cv_trace_lambda_star_attains_minimum():
    data = _noisy_line_data(n=80, seed=7)
    fitter = _line_fitter(LineBenchmark(1.0, 2.0), DomainSpec.interval(0, 10), WEIGHTS, GRID)
    trace = kfold_cv(fitter, squared_error_scorer, data, GRID, 4, SeededRng(8))
    assert trace.lambda_star == trace.lambda_grid[np.argmin(trace.mean_errors)]
    assert trace.fold_errors.shape == (4, GRID.size)
    assert np.allclose(trace.fold_errors.mean(axis=0), trace.mean_errors)


def test_forward_cv_near_target_rows_always_validated_never_trained():
    data = Dataset(np.arange(1.0, 61.0)[:, None], np.zeros(60))
    target = DomainSpec.interval(61.0, 100.0)
    inner = _line_fitter(LineBenchmark(0.0, 0.0), DomainSpec.interval(1, 100), WEIGHTS, [0.0, 1.0])
    fitter = _RecordingFitter(inner)
    captured_vals = []

    def scorer(fold, thetas, val):
        captured_vals.append(val.inputs.copy())
        return squared_error_scorer(fold, thetas, val)

    forward_cv(data, 5, target, fitter, [0.0, 1.0], SeededRng(9), scorer=scorer)
    near = set(range(51, 61))  # ceil(60/6) = 10 nearest points
    for train_inputs in fitter.train_inputs:
        assert near.isdisjoint(set(train_inputs.ravel().astype(int)))
    for val_inputs in captured_vals:
        assert near.issubset(set(val_inputs.ravel().astype(int)))


def test_forward_cv_fold_count_and_guards():
    data = Dataset(np.arange(1.0, 13.0)[:, None], np.zeros(12))
    target = DomainSpec.interval(20.0, 30.0)
    inner = _line_fitter(LineBenchmark(0.0, 0.0), DomainSpec.interval(1, 30), WEIGHTS, [0.0])
    fitter = _RecordingFitter(inner)
    trace = forward_cv(data, 5, target, fitter, [0.0], SeededRng(10))
    assert trace.fold_errors.shape[0] == 5
    # a fraction that swallows nearly everything leaves too few far-part rows
    with pytest.raises(DataError):
        forward_cv(data, 5, target, fitter, [0.0], SeededRng(10), fraction=0.95)


def test_rolling_cv_constant_series_zero_error_smallest_lambda():
    T = 40
    data = Dataset(
        np.column_stack([np.ones(T)]), np.full(T, 0.3), time_index=np.arange(T)
    )

    def constant(inputs):
        return np.full(inputs.shape[0], 0.3)

    trace = rolling_cv(data, lambda train: _FixedFold(constant), [0.0, 1.0, 2.0], 10, 1)
    assert np.allclose(trace.mean_errors, 0.0)
    assert trace.lambda_star == 0.0


def test_rolling_cv_window_covering_all_but_last_is_single_holdout():
    gen = np.random.default_rng(11)
    T = 30
    x = gen.normal(size=T)
    data = Dataset(x[:, None], gen.normal(size=T), time_index=np.arange(T))

    calls = []

    def fitter(train):
        calls.append(train.n)
        return _FixedFold(lambda inputs: np.zeros(inputs.shape[0]))

    trace = rolling_cv(data, fitter, [0.0], T - 1, 1)
    assert trace.fold_errors.shape[0] == 1
    assert calls == [T - 1]


def test_rolling_cv_never_trains_on_future():
    T = 60
    data = Dataset(
        np.arange(T, dtype=float)[:, None],
        np.arange(T, dtype=float),
        time_index=np.arange(T),
    )
    windows = []

    def fitter(train):
        windows.append((train.time_index.min(), train.time_index.max()))
        return _FixedFold(lambda inputs: inputs[:, 0])

    seen = []

    def scorer(fold, thetas, val):
        seen.append(val.time_index.min())
        return np.zeros(thetas.shape[0])

    rolling_cv(data, fitter, [1.0], 12, 1, scorer=scorer)
    for (lo, hi), val_min in zip(windows, seen):
        assert hi < val_min


def test_rolling_cv_benchmark_true_series_prefers_large_lambda():
    gen = np.random.default_rng(12)
    T = 120
    x = gen.uniform(0, 5, size=T)
    y = 1.0 + 2.0 * x + 0.8 * gen.normal(size=T)
    data = Dataset(x[:, None], y, time_index=np.arange(T))
    grid = np.array([0.0, 1e8])
    fitter = _line_fitter(LineBenchmark(1.0, 2.0), DomainSpec.interval(0, 5), WEIGHTS, grid)
    trace = rolling_cv(data, fitter, grid, 24, 1)
    assert trace.lambda_star == grid[-1]


def test_rolling_cv_requires_time_index():
    data = Dataset(np.arange(10.0)[:, None], np.zeros(10))
    with pytest.raises(DataError):
        rolling_cv(data, lambda t: None, [0.0], 4, 1)


def test_sample_split_lambda_zero_reduces_to_plain_fit():
    data = _noisy_line_data(n=80, seed=13)
    rng = SeededRng(14)
    fit = sre_sample_split(
        data,
        LineFamily(0.0, 0.0),
        PolynomialFeatures(1),
        PenaltySpec([0.0], WEIGHTS),
        CvPlan(kind="kfold", K=5),
        rng,
    )
    from structreg.data import partition

    _, d2 = partition(data, 2, rng.split(0))
    plain = fit_ols(d2.inputs, d2.outcome)
    grid = np.linspace(0, 10, 9)[:, None]
    assert np.abs(fit.predict(grid) - plain.predict(grid)).max() <= 1e-8


def test_sample_split_exact_benchmark_noiseless():
    gen = np.random.default_rng(15)
    x = gen.uniform(0.0, 10.0, size=100)
    data = Dataset(x[:, None], 1.0 + 2.0 * x)
    fit = sre_sample_split(
        data,
        LineFamily(1.0, 2.0),
        PolynomialFeatures(1),
        PenaltySpec(np.array([0.0, 1.0, 1e9]), WEIGHTS),
        CvPlan(kind="kfold", K=5),
        SeededRng(16),
    )
    grid = np.linspace(0, 10, 21)[:, None]
    assert np.abs(fit.predict(grid) - (1.0 + 2.0 * grid[:, 0])).max() <= 1e-6


def test_sample_split_deterministic():
    data = _noisy_line_data(n=70, seed=17)
    kwargs = dict(
        benchmark_family=LineFamily(1.0, 2.0),
        feature_map=PolynomialFeatures(1),
        penalty=PenaltySpec(GRID, WEIGHTS),
        cv_plan=CvPlan(kind="kfold", K=5),
    )
    a = sre_sample_split(data, rng=SeededRng(18), **kwargs)
    b = sre_sample_split(data, rng=SeededRng(18), **kwargs)
    assert np.array_equal(a.theta, b.theta)
    assert a.lambda_star == b.lambda_star


def test_cross_fit_raw_average_identity():
    # raw-scale averaging: two fits with raw coefficients (0, 2) and (2, 0)
    # average to (1, 1) regardless of each fit's standardization
    from structreg.data import standardize
    from structreg.sre import SREFit

    def make_fit(intercept, slope, xs):
        fmap = PolynomialFeatures(1)
        F = fmap.transform(xs[:, None])
        _, transform = standardize(Dataset(F, np.zeros(xs.size)))
        theta = np.array(
            [intercept + slope * transform.column_means[0],
             slope * transform.column_scales[0]]
        )
        return SREFit(theta, transform, np.zeros(2), 0.0, fmap)

    f1 = make_fit(0.0, 2.0, np.array([0.0, 1.0, 4.0]))
    f2 = make_fit(2.0, 0.0, np.array([5.0, 7.0, 11.0]))
    avg = 0.5 * (raw_affine_coefficients(f1) + raw_affine_coefficients(f2))
    assert np.allclose(avg, [1.0, 1.0], atol=1e-12)


def test_cross_fit_noiseless_matches_sample_split_predictions():
    gen = np.random.default_rng(19)
    x = gen.uniform(0.0, 10.0, size=100)
    data = Dataset(x[:, None], 1.0 + 2.0 * x)
    kwargs = dict(
        benchmark_family=LineFamily(1.0, 2.0),
        feature_map=PolynomialFeatures(1),
        penalty=PenaltySpec(np.array([0.0, 1e9]), WEIGHTS),
        cv_plan=CvPlan(kind="kfold", K=5),
    )
    cross = sre_cross_fit(data, rng=SeededRng(20), **kwargs)
    split = sre_sample_split(data, rng=SeededRng(20), **kwargs)
    grid = np.linspace(0, 10, 13)[:, None]
    assert np.abs(cross.predict(grid) - split.predict(grid)).max() <= 1e-6
    assert cross.method == "cross-fit"
    assert len(cross.parts) == 2


def test_cv_plan_validation():
    with pytest.raises(DataError):
        CvPlan(kind="bogus")
    with pytest.raises(DataError):
        CvPlan(kind="forward")  # missing target
    plan = CvPlan(kind="forward", target=DomainSpec.interval(0, 1))
    assert plan.K == 6
    assert CvPlan(kind="kfold").K == 5


def _auction_second_stage():
    scenario = AuctionScenario.from_index(1)
    data = simulate_auctions(scenario, SeededRng(30)).to_dataset()
    target = DomainSpec.interval(*scenario.n_range_test)
    return sre_sample_split(
        data, UniformAuctionModel(), PolynomialFeatures(SRE_POLY_DEGREE),
        auction_penalty(data.n), CvPlan(kind="forward", K=6, target=target), SeededRng(31),
        synthetic_domain=DomainSpec.interval(5, 50),
    )


def _entry_exit_second_stage():
    params = DdcParams(mu=-2.0, alpha=1.0, entry_cost=2.0, discount=0.9,
                       n_firms=1000, t_total=140, t_train=100)
    R = draw_profit_path(RPathSpec(), 140, SeededRng(22))
    ccps = regime_ccps("myopic", params, R)
    pa, pb = (simulate_market("myopic", params, R, SeededRng(seed), ccps=ccps).truncate(100)
              for seed in (23, 24))
    return sre_entry_exit(pa, pb, params.discount, R, SeededRng(25))


def _demand_second_stage():
    return sre_demand(simulate_markets(DemandParams(M=600), SeededRng(11)), SeededRng(12))


def _ridge_fold_on(final, train):
    return ridge_fold(train, final.feature_map, final.penalty, final.theta_m_in)


def _gmm_fold_on(final, train):
    return _gmm_fold(train, final.penalty, final.theta_m_in)


@pytest.mark.parametrize(
    "second_stage, kind, fold_on",
    [(_auction_second_stage, "forward", _ridge_fold_on),
     (_entry_exit_second_stage, "rolling", _ridge_fold_on),
     (_demand_second_stage, "kfold", _gmm_fold_on)],
    ids=["auction", "entry-exit", "demand"],
)
def test_second_stage_refits_the_fold_its_cv_refolded(monkeypatch, second_stage, kind, fold_on):
    # record the fitter and the first training sample of the study's one CV run
    seen = []
    cv_loop = tuning._cv_loop

    def recording(cv_kind, fitter, scorer, splits, *args, **kwargs):
        splits = list(splits)
        seen.append((fitter, splits[0][0]))
        return cv_loop(cv_kind, fitter, scorer, splits, *args, **kwargs)

    monkeypatch.setattr(tuning, "_cv_loop", recording)
    fit = second_stage()
    [(fitter, train)] = seen
    trace = fit.parts[0]
    assert isinstance(trace, CvTrace)
    assert fit.lambda_star == trace.lambda_star
    assert fit.cv == trace.kind == kind
    # the fitter is the final fold's refold, and the fit is that fold's solve at lambda*
    final = fitter.__self__
    assert fitter == final.refold
    assert np.array_equal(fit.theta, final.solve(trace.lambda_star))
    assert np.array_equal(fit.theta_m, final.theta_m)
    # refold builds the same fold as one built from scratch on the sample
    refolded, scratch = final.refold(train), fold_on(final, train)
    assert type(refolded) is type(scratch)
    assert np.array_equal(refolded.path(trace.lambda_grid), scratch.path(trace.lambda_grid))
