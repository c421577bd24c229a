import numpy as np
import pytest
from dataclasses import replace

from structreg.data import DataError, Dataset, SeededRng, StandardizeTransform
from structreg.demand import (
    DemandParams,
    MarketData,
    _gmm_fold,
    demand_experiment,
    evaluation_grid,
    instrument_basis,
    rf_demand,
    scenario_params,
    simulate_markets,
    sre_demand,
    structural_estimate_demand,
)
from structreg.estimators import SingularDesignError, fit_2sls
from structreg.metrics import metrics_table
from structreg.sre import PenaltySpec, fit_theta_m, sre_gmm, PolynomialFeatures


def test_equilibrium_identities_hold():
    for markup in (1.0, 0.4):
        params = DemandParams(lambda_markup=markup, M=500)
        data = simulate_markets(params, SeededRng(0))
        cost = params.a + params.b * data.cost_shifters
        # demand: q = alpha - beta p + eps and pricing: p = c + (markup/beta) q
        eps = data.quantities - (params.alpha - params.beta * data.prices)
        pricing_gap = data.prices - (cost + markup / params.beta * data.quantities)
        assert np.abs(pricing_gap).max() <= 1e-10
        implied_q = params.alpha - params.beta * data.prices + eps
        assert np.abs(implied_q - data.quantities).max() <= 1e-10


def test_degenerate_noise_gives_identical_markets():
    params = DemandParams(z_low=3.0, z_high=3.0, eps_sd=0.0, M=50)
    data = simulate_markets(params, SeededRng(1))
    assert np.ptp(data.prices) == 0.0
    assert np.ptp(data.quantities) == 0.0


def test_confounding_upward_sloping_scatter():
    params = DemandParams(lambda_markup=1.0, M=50_000)
    data = simulate_markets(params, SeededRng(2))
    slope = np.polyfit(data.quantities, data.prices, 1)[0]
    assert slope > 0.0


def test_simulate_rejects_nonpositive_heavy_parameters():
    params = DemandParams(alpha=5.0, eps_sd=40.0, M=2000)
    with pytest.raises(ValueError, match="nonpositive"):
        simulate_markets(params, SeededRng(3))


def test_structural_estimate_exact_under_optimal_pricing():
    params = DemandParams(lambda_markup=1.0, M=800)
    data = simulate_markets(params, SeededRng(4))
    est = structural_estimate_demand(data)
    assert est.a == pytest.approx(params.a, abs=1e-9)
    assert est.b == pytest.approx(params.b, abs=1e-9)
    assert est.beta == pytest.approx(params.beta, abs=1e-9)
    se = params.eps_sd / np.sqrt(data.m)
    assert abs(est.alpha - params.alpha) <= 6 * se


def test_structural_estimate_alpha_converges():
    params = DemandParams(lambda_markup=1.0, M=200_000)
    est = structural_estimate_demand(simulate_markets(params, SeededRng(5)))
    assert abs(est.alpha - params.alpha) <= 0.5


def test_structural_estimate_dampened_markup_biased_slope():
    params = DemandParams(lambda_markup=0.4, M=2000)
    est = structural_estimate_demand(simulate_markets(params, SeededRng(6)))
    assert est.beta == pytest.approx(params.beta / 0.4, abs=1e-8)


def test_structural_estimate_guards_constant_quantity():
    data = MarketData(np.arange(1.0, 11.0), np.full(10, 5.0), np.arange(10.0))
    with pytest.raises(Exception):
        structural_estimate_demand(data)


def test_rf_linear_slope_consistent():
    params = DemandParams(lambda_markup=1.0)
    slopes = []
    for seed in range(8):
        data = simulate_markets(params, SeededRng(7).stream(seed))
        slopes.append(rf_demand(data, "linear").linear_fit.coefficients[0])
    slopes = np.array(slopes)
    se = slopes.std(ddof=1) / np.sqrt(slopes.size)
    assert abs(slopes.mean() + params.beta) <= 4 * se


def test_rf_loglog_exact_on_loglog_data():
    gen = np.random.default_rng(8)
    p = gen.uniform(1.0, 5.0, size=300)
    q = np.exp(4.0 - 1.5 * np.log(p))
    data = MarketData(p, q, p.copy())  # price is its own (exogenous) shifter
    fit = rf_demand(data, "loglog")
    assert fit.linear_fit.coefficients[0] == pytest.approx(-1.5, abs=1e-8)
    assert np.abs(fit.predict(p) - q).max() <= 1e-6


def test_rf_loglog_rejects_nonpositive_values():
    data = MarketData(np.array([1.0, 2.0]), np.array([-1.0, 2.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="positive"):
        rf_demand(data, "loglog")


def test_rf_weak_instrument_raises():
    gen = np.random.default_rng(9)
    p = gen.uniform(10, 20, size=500)
    q = 100.0 - 2.0 * p + gen.normal(size=500)
    data = MarketData(p, q, np.full(500, 1.0))  # b = 0: shifter carries nothing
    with pytest.raises(Exception):
        rf_demand(data, "linear")


def test_benchmark_affine_and_quadratic_projection():
    from structreg.demand import DemandEstimates

    est = DemandEstimates(alpha=100.0, beta=2.0, a=10.0, b=1.0)
    grid = np.linspace(20, 40, 7)
    assert np.allclose(est.implied_demand(grid), 100.0 - 2.0 * grid)
    deriv = (est.implied_demand(grid + 1e-6) - est.implied_demand(grid - 1e-6)) / 2e-6
    assert np.allclose(deriv, -2.0, atol=1e-6)
    prices = np.linspace(20.0, 40.0, 1000)
    theta = fit_theta_m(PolynomialFeatures(2), Dataset(prices[:, None], est.implied_demand(prices)),
                        StandardizeTransform(np.zeros(2), np.ones(2), 0.0))
    assert abs(theta[2]) <= 1e-6  # projecting a line yields no curvature


def test_benchmark_requires_positive_slope():
    # prices that fall with quantity imply an upward-sloping demand curve,
    # which the structural stage refuses before any benchmark is built
    gen = np.random.default_rng(3)
    z, q = gen.uniform(0, 10, size=50), gen.uniform(10, 20, size=50)
    with pytest.raises(ValueError, match="inverse demand slope is nonpositive"):
        structural_estimate_demand(MarketData(40.0 + z - 0.5 * q, q, z))


def test_sre_gmm_matches_2sls_for_linear_instrument_block():
    params = DemandParams(lambda_markup=1.0, M=600)
    data = simulate_markets(params, SeededRng(10))
    X = np.column_stack([np.ones(data.m), data.prices])
    Z = np.column_stack([np.ones(data.m), data.cost_shifters])
    W = np.linalg.inv(Z.T @ Z)
    pen = PenaltySpec([0.0], np.array([0.0, 1.0]))
    theta = sre_gmm(X, Z, data.quantities, W, np.zeros(2), pen, 0.0)
    ref = fit_2sls(data.quantities, data.prices[:, None], data.cost_shifters[:, None])
    assert abs(theta[0] - ref.intercept) <= 1e-8 * max(1.0, abs(ref.intercept))
    assert abs(theta[1] - ref.coefficients[0]) <= 1e-8


def test_sre_demand_lambda_zero_grid_reduces_to_quadratic_iv():
    params = DemandParams(lambda_markup=1.0, M=600)
    data = simulate_markets(params, SeededRng(11))
    rng = SeededRng(12)
    fit = sre_demand(data, rng, lambda_grid=[0.0])
    trace = fit.parts[0]
    assert trace.lambda_star == 0.0
    # reproduce the unpenalized quadratic moment fit on the same half
    from structreg.data import partition_indices, standardize, Dataset

    folds = partition_indices(data.m, 2, rng.split(0))
    d2 = data.subset(folds[1])
    fmap = PolynomialFeatures(2)
    F = fmap.transform(d2.prices[:, None])
    _, transform = standardize(Dataset(F, d2.quantities))
    design = np.column_stack([np.ones(d2.m), transform.transform_inputs(F)])
    center, scale = d2.cost_shifters.mean(), d2.cost_shifters.std(ddof=0)
    Z = instrument_basis(d2.cost_shifters, center, scale)
    W = np.linalg.inv(Z.T @ Z)
    pen = PenaltySpec([0.0], np.array([0.0, 1.0, 1.0]))
    ref = sre_gmm(design, Z, d2.quantities, W, np.zeros(3), pen, 0.0)
    assert np.abs(fit.theta - ref).max() <= 1e-8


def test_sre_demand_negative_derivative_majority():
    # correctly specified scenario: fitted demand slopes downward over the
    # grid in (nearly) every trial
    params = DemandParams(lambda_markup=1.0)
    grid = evaluation_grid(params, SeededRng(13))
    negatives = 0
    trials = 12
    for trial in range(trials):
        data = simulate_markets(params, SeededRng(13).stream(trial))
        fit = sre_demand(data, SeededRng(13).stream(trial).split(1))
        slopes = fit.derivative(grid[:, None])
        negatives += bool(np.all(slopes < 0.0))
    assert negatives >= 0.95 * trials


def test_scenario_mapping():
    params = DemandParams(lambda_markup=0.4)
    sim, form = scenario_params(1, params)
    assert sim.lambda_markup == 1.0 and form == "linear"
    sim, form = scenario_params(4, params)
    assert sim.lambda_markup == 0.4 and form == "loglog"
    with pytest.raises(ValueError):
        scenario_params(5, params)


def test_demand_experiment_orderings_small():
    rng = SeededRng(14)
    tables = {}
    for sc in (2, 3):
        records, _ = demand_experiment(sc, trials=10, rng=rng)
        tables[sc] = {k[0]: v for k, v in metrics_table(records).items()}
    # misspecified structural pricing is far more biased than the correct RF
    assert tables[2]["structural"].bias >= 5.0 * tables[2]["rf"].bias
    # misspecified log-log RF has much larger MSE than the correct structural
    assert tables[3]["rf"].mse >= 5.0 * tables[3]["structural"].mse


def test_demand_experiment_grid_shared_and_deterministic():
    records_a, meta_a = demand_experiment(1, trials=2, rng=SeededRng(15))
    records_b, meta_b = demand_experiment(1, trials=2, rng=SeededRng(15))
    assert records_a == records_b
    assert meta_a["grid"] == meta_b["grid"]
    assert len(meta_a["grid"]) == 100
    xs = sorted({r[3] for r in records_a})
    assert xs == sorted(meta_a["grid"])


def _markets(z):
    """A moment-fold sample over cost shifters ``z``."""
    z = np.asarray(z, dtype=float)
    p = 50.0 + z + np.linspace(0.0, 1.0, z.size) ** 2
    return Dataset(p[:, None], 200.0 - 2.0 * p, z[:, None])


_PENALTY = PenaltySpec([1.0, 10.0], np.array([0.0, 1.0, 1.0]))


@pytest.mark.parametrize("z", [[3.0, 11.0, 27.0, 35.0], [2.0, 9.0, 17.0, 30.0, 38.0]])
def test_moment_fold_rejects_fewer_rows_than_instruments(z):
    # a floating-point inverse of these rank-deficient Gram matrices need not fail
    with pytest.raises(SingularDesignError, match="singular instrument Gram matrix"):
        _gmm_fold(_markets(z), _PENALTY, lambda transform: np.zeros(3))


def test_moment_fold_rejects_a_singular_instrument_gram_matrix():
    # one shifter value: the instrument powers are (1, 0, ..., 0)
    with pytest.raises(SingularDesignError, match="singular instrument Gram matrix"):
        _gmm_fold(_markets(np.full(10, 7.0)), _PENALTY, lambda transform: np.zeros(3))


def test_moment_fold_of_one_row_is_rejected_by_its_standardization():
    with pytest.raises(DataError, match="standardize requires at least two rows"):
        _gmm_fold(_markets([5.0]), _PENALTY, lambda transform: np.zeros(3))


def test_moment_fold_instruments_and_weight_are_the_sample_alone():
    z = SeededRng(9).generator().uniform(0.0, 40.0, size=300)
    fold = _gmm_fold(_markets(z), _PENALTY, lambda transform: np.zeros(3))
    Z = instrument_basis(z, float(z.mean()), float(z.std(ddof=0)))
    assert np.array_equal(fold.instruments, Z)
    assert np.array_equal(fold.weight, np.linalg.inv(Z.T @ Z))


def test_demand_trial_with_too_few_markets_per_fold_names_the_cause():
    # 12 markets leave 6 for the moment fit and 4-5 per training fold,
    # fewer than the 6 instrument columns
    with pytest.raises(
        RuntimeError,
        match="trial 0 failed: fitter failed on fold 0: singular instrument Gram matrix",
    ):
        demand_experiment(1, DemandParams(M=12), trials=1, rng=SeededRng(0))


def test_kfold_names_the_training_fold_whose_instrument_gram_is_singular():
    from structreg.tuning import CvError, kfold_cv, kfold_splits

    # the cost shifter varies only inside fold 2, so the training part that
    # leaves fold 2 out sees one shifter value: its instrument powers are
    # (1, 0, ..., 0) and their Gram matrix is exactly singular
    n, K = 60, 5
    splits = kfold_splits(n, K, SeededRng(7))
    fold_2 = splits.val[2][splits.val_weight[2] == 1.0]
    gen = np.random.default_rng(8)
    z = np.full(n, 2.0)
    z[fold_2] = gen.uniform(0.0, 40.0, size=fold_2.size)
    p = 50.0 + z + gen.normal(size=n)
    data = Dataset(p[:, None], 200.0 - 2.0 * p + gen.normal(size=n), z[:, None])
    penalty = PenaltySpec([1.0, 10.0], np.array([0.0, 1.0, 1.0]))
    final = _gmm_fold(data, penalty, lambda transform: np.zeros(3))
    with pytest.raises(CvError, match="fitter failed on fold 2: singular instrument Gram matrix"):
        kfold_cv(final, data, K, SeededRng(7))
