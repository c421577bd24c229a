import importlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structreg.data import (
    DataError,
    Dataset,
    SeededRng,
    partition_indices,
    standardize,
)
from structreg import demand
from structreg.demand import (
    EVAL_GRID_POINTS,
    INSTRUMENT_POWERS,
    REFERENCE_MARKETS,
    DemandParams,
    GmmFold,
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
from structreg.sre import (
    PenaltySpec,
    PolynomialFeatures,
    fit_theta_m,
    gmm_normal_equations,
    sre_gmm,
)
from structreg.tuning import kfold_splits


def test_equilibrium_identities_hold():
    for markup in (1.0, 0.4):
        params = DemandParams(lambda_markup=markup, M=500)
        data = simulate_markets(params, SeededRng(0))
        p, q, z = data.inputs[:, 0], data.outcome, data.instruments[:, 0]
        cost = params.a + params.b * z
        # demand: q = alpha - beta p + eps and pricing: p = c + (markup/beta) q
        eps = q - (params.alpha - params.beta * p)
        pricing_gap = p - (cost + markup / params.beta * q)
        assert np.abs(pricing_gap).max() <= 1e-10
        implied_q = params.alpha - params.beta * p + eps
        assert np.abs(implied_q - q).max() <= 1e-10


def test_degenerate_noise_gives_identical_markets():
    params = DemandParams(z_low=3.0, z_high=3.0, eps_sd=0.0, M=50)
    data = simulate_markets(params, SeededRng(1))
    assert np.ptp(data.inputs) == 0.0
    assert np.ptp(data.outcome) == 0.0


def test_confounding_upward_sloping_scatter():
    params = DemandParams(lambda_markup=1.0, M=50_000)
    data = simulate_markets(params, SeededRng(2))
    slope = np.polyfit(data.outcome, data.inputs[:, 0], 1)[0]
    assert slope > 0.0


def test_simulate_rejects_nonpositive_heavy_parameters():
    params = DemandParams(alpha=5.0, eps_sd=40.0, M=2000)
    with pytest.raises(ValueError, match="nonpositive"):
        simulate_markets(params, SeededRng(3))


def test_structural_estimate_exact_under_optimal_pricing():
    params = DemandParams(lambda_markup=1.0, M=800)
    data = simulate_markets(params, SeededRng(4))
    [est] = structural_estimate_demand([data])
    assert est.a == pytest.approx(params.a, abs=1e-9)
    assert est.b == pytest.approx(params.b, abs=1e-9)
    assert est.beta == pytest.approx(params.beta, abs=1e-9)
    se = params.eps_sd / np.sqrt(data.n)
    assert abs(est.alpha - params.alpha) <= 6 * se


def test_structural_estimate_alpha_converges():
    params = DemandParams(lambda_markup=1.0, M=200_000)
    [est] = structural_estimate_demand([simulate_markets(params, SeededRng(5))])
    assert abs(est.alpha - params.alpha) <= 0.5


def test_structural_estimate_dampened_markup_biased_slope():
    params = DemandParams(lambda_markup=0.4, M=2000)
    [est] = structural_estimate_demand([simulate_markets(params, SeededRng(6))])
    assert est.beta == pytest.approx(params.beta / 0.4, abs=1e-8)


def test_structural_estimate_guards_constant_quantity():
    data = Dataset(np.arange(1.0, 11.0), np.full(10, 5.0), np.arange(10.0))
    with pytest.raises(Exception):
        structural_estimate_demand([data])


def test_rf_linear_slope_consistent():
    params = DemandParams(lambda_markup=1.0)
    slopes = []
    for seed in range(8):
        data = simulate_markets(params, SeededRng(7).stream(seed))
        slopes.append(rf_demand([data], "linear")[0].linear_fit.coefficients[0])
    slopes = np.array(slopes)
    se = slopes.std(ddof=1) / np.sqrt(slopes.size)
    assert abs(slopes.mean() + params.beta) <= 4 * se


def test_rf_loglog_exact_on_loglog_data():
    gen = np.random.default_rng(8)
    p = gen.uniform(1.0, 5.0, size=300)
    q = np.exp(4.0 - 1.5 * np.log(p))
    data = Dataset(p, q, p.copy())  # price is its own (exogenous) shifter
    [fit] = rf_demand([data], "loglog")
    assert fit.linear_fit.coefficients[0] == pytest.approx(-1.5, abs=1e-8)
    assert np.abs(fit.predict(p) - q).max() <= 1e-6


def test_rf_loglog_rejects_nonpositive_values():
    data = Dataset(np.array([1.0, 2.0]), np.array([-1.0, 2.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="positive"):
        rf_demand([data], "loglog")


def test_rf_weak_instrument_raises():
    gen = np.random.default_rng(9)
    p = gen.uniform(10, 20, size=500)
    q = 100.0 - 2.0 * p + gen.normal(size=500)
    data = Dataset(p, q, np.full(500, 1.0))  # b = 0: shifter carries nothing
    with pytest.raises(Exception):
        rf_demand([data], "linear")


def test_benchmark_affine_and_quadratic_projection():
    from structreg.demand import DemandEstimates

    est = DemandEstimates(alpha=100.0, beta=2.0, a=10.0, b=1.0)
    grid = np.linspace(20, 40, 7)
    assert np.allclose(est.implied_demand(grid), 100.0 - 2.0 * grid)
    deriv = (est.implied_demand(grid + 1e-6) - est.implied_demand(grid - 1e-6)) / 2e-6
    assert np.allclose(deriv, -2.0, atol=1e-6)
    prices = np.linspace(20.0, 40.0, 1000)
    theta = fit_theta_m(PolynomialFeatures(2), Dataset(prices[:, None], est.implied_demand(prices)))
    assert abs(theta[2]) <= 1e-6  # projecting a line yields no curvature


def test_benchmark_requires_positive_slope():
    # prices that fall with quantity imply an upward-sloping demand curve,
    # which the structural stage refuses before any benchmark is built
    gen = np.random.default_rng(3)
    z, q = gen.uniform(0, 10, size=50), gen.uniform(10, 20, size=50)
    with pytest.raises(ValueError, match="inverse demand slope is nonpositive"):
        structural_estimate_demand([Dataset(40.0 + z - 0.5 * q, q, z)])


def test_sre_gmm_matches_2sls_for_linear_instrument_block():
    params = DemandParams(lambda_markup=1.0, M=600)
    data = simulate_markets(params, SeededRng(10))
    X = np.column_stack([np.ones(data.n), data.inputs])
    Z = np.column_stack([np.ones(data.n), data.instruments])
    W = np.linalg.inv(Z.T @ Z)
    pen = PenaltySpec([0.0], np.array([0.0, 1.0]))
    theta = sre_gmm(X, Z, data.outcome, W, np.zeros(2), pen, 0.0)
    ref = fit_2sls(data.outcome, data.inputs, data.instruments)
    assert abs(theta[0] - ref.intercept) <= 1e-8 * max(1.0, abs(ref.intercept))
    assert abs(theta[1] - ref.coefficients[0]) <= 1e-8


def test_sre_demand_lambda_zero_grid_reduces_to_quadratic_iv():
    params = DemandParams(lambda_markup=1.0, M=600)
    data = simulate_markets(params, SeededRng(11))
    rng = SeededRng(12)
    [fit] = sre_demand([data], [rng], lambda_grid=[0.0])
    trace = fit.trace
    assert trace.lambda_star == 0.0
    # reproduce the unpenalized quadratic moment fit on the same half
    from structreg.data import partition_indices, standardize, Dataset

    folds = partition_indices(data.n, 2, rng.split(0))
    d2 = data.subset(folds[1])
    fmap = PolynomialFeatures(2)
    F = fmap.transform(d2.inputs)
    _, transform = standardize(Dataset(F, d2.outcome))
    design = np.column_stack([np.ones(d2.n), transform.transform_inputs(F)])
    z = d2.instruments[:, 0]
    Z = instrument_basis(z, z.mean(), z.std(ddof=0))
    W = np.linalg.inv(Z.T @ Z)
    pen = PenaltySpec([0.0], np.array([0.0, 1.0, 1.0]))
    ref = sre_gmm(design, Z, d2.outcome, W, np.zeros(3), pen, 0.0)
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
        [fit] = sre_demand([data], [SeededRng(13).stream(trial).split(1)])
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
    assert all(type(value) is float for record in records_a for value in record[3:])


def test_instrument_basis_is_powers_by_running_products():
    # a rescaled shifter of both signs, where numpy's power kernels differ
    z = SeededRng(16).generator().normal(size=20_000)
    Z = instrument_basis(z, 0.0, 1.0)
    assert Z.shape == (z.size, INSTRUMENT_POWERS + 1)
    for j in range(INSTRUMENT_POWERS + 1):
        powers = z**j
        if j <= 2:
            assert np.array_equal(Z[:, j], powers), j
        else:
            assert np.all(np.abs(Z[:, j] - powers) <= 2.0 * np.spacing(np.abs(powers))), j


def test_instrument_basis_of_a_stack_is_the_basis_of_each_row():
    z = SeededRng(17).generator().uniform(0.0, 40.0, size=(4, 50))
    center, scale = z.mean(axis=1, keepdims=True), z.std(axis=1, keepdims=True)
    stacked = instrument_basis(z, center, scale)
    for s in range(z.shape[0]):
        assert np.array_equal(stacked[s], instrument_basis(z[s], center[s], scale[s]))


def test_sre_demand_builds_three_instrument_blocks(monkeypatch):
    # the final fold, the stacked training splits and their held-out rows
    calls = []

    def counting(z, center, scale):
        calls.append(np.shape(z))
        return instrument_basis(z, center, scale)

    monkeypatch.setattr(demand, "instrument_basis", counting)
    data = simulate_markets(DemandParams(M=400), SeededRng(18))
    sre_demand([data], [SeededRng(18).split(1)])
    assert len(calls) == 3
    # a block of five trials builds the same three, each a stack of five
    # fitting halves, 25 training splits and 25 held-out parts
    calls.clear()
    demand_experiment(2, DemandParams(M=400), ("sre",), trials=5, rng=SeededRng(18))
    assert [shape[0] for shape in calls] == [5, 25, 25]


def test_evaluation_grid_is_the_reference_simulation_percentiles():
    params = DemandParams(lambda_markup=1.0)
    grid = evaluation_grid(params, SeededRng(19))
    reference_rng = SeededRng(19).stream(demand._GRID_STREAM)
    ref = simulate_markets(replace(params, M=REFERENCE_MARKETS), reference_rng)
    lo, hi = np.percentile(ref.inputs[:, 0], [1.0, 99.0])
    assert np.array_equal(grid, np.linspace(lo, hi, EVAL_GRID_POINTS))
    with pytest.raises(ValueError, match="read-only"):
        grid[0] = 0.0


def test_evaluation_grid_reads_only_the_parameters_and_the_base_seed():
    params = DemandParams()
    grid = evaluation_grid(params, SeededRng(20))
    assert evaluation_grid(replace(params, M=37), SeededRng(20, 5, (1, 2))) is grid
    assert not np.array_equal(evaluation_grid(params, SeededRng(21)), grid)
    assert not np.array_equal(evaluation_grid(replace(params, lambda_markup=1.0), SeededRng(20)),
                              grid)


def test_demand_experiment_simulates_the_reference_markets_once(monkeypatch):
    reference_draws = []

    def counting(params, rng):
        reference_draws.append(params.M == REFERENCE_MARKETS)
        return simulate_markets(params, rng)

    monkeypatch.setattr(demand, "simulate_markets", counting)
    demand._reference_grid.cache_clear()
    first = demand_experiment(4, DemandParams(M=40), ("structural",), trials=2, rng=SeededRng(22))
    second = demand_experiment(4, DemandParams(M=40), ("structural",), trials=2, rng=SeededRng(22))
    assert first == second
    assert reference_draws.count(True) == 1
    assert reference_draws.count(False) == 4


def _markets(z):
    """A moment-fold sample over cost shifters ``z``."""
    z = np.asarray(z, dtype=float)
    p = 50.0 + z + np.linspace(0.0, 1.0, z.size) ** 2
    return Dataset(p[:, None], 200.0 - 2.0 * p, z[:, None])


_PENALTY = PenaltySpec([1.0, 10.0], np.array([0.0, 1.0, 1.0]))


def _moment_fold(sample, penalty, theta_m):
    """The sample's moment fold of the demand study's quadratic curve."""
    return GmmFold.of_samples([sample], PolynomialFeatures(2), penalty, theta_m)


@pytest.mark.parametrize("z", [[3.0, 11.0, 27.0, 35.0], [2.0, 9.0, 17.0, 30.0, 38.0]])
def test_moment_fold_rejects_fewer_rows_than_instruments(z):
    # a floating-point inverse of these rank-deficient Gram matrices need not fail
    with pytest.raises(SingularDesignError, match="singular instrument Gram matrix"):
        _moment_fold(_markets(z), _PENALTY, np.zeros(3))


def test_moment_fold_rejects_a_singular_instrument_gram_matrix():
    # one shifter value: the instrument powers are (1, 0, ..., 0)
    with pytest.raises(SingularDesignError, match="singular instrument Gram matrix"):
        _moment_fold(_markets(np.full(10, 7.0)), _PENALTY, np.zeros(3))



def test_a_stack_names_the_sample_it_cannot_pose():
    # two 60-market samples; the second's cost shifter is constant, so its
    # instrument powers are (1, 0, ..., 0) and their Gram matrix is singular
    params = DemandParams(M=60)
    drawn, held = (simulate_markets(params, SeededRng(3).stream(s)) for s in (0, 1))
    flat = Dataset(held.inputs, held.outcome, np.full_like(held.instruments, 2.0))
    theta_m = [[100.0, -2.0, 0.0]]
    with pytest.raises(SingularDesignError,
                       match="^singular instrument Gram matrix of sample 1$"):
        GmmFold.of_samples([drawn, flat], PolynomialFeatures(2), _PENALTY, theta_m * 2)
    # a stack of one keeps the wording
    with pytest.raises(SingularDesignError, match="^singular instrument Gram matrix$"):
        _moment_fold(flat, _PENALTY, theta_m)
    _moment_fold(drawn, _PENALTY, theta_m)

def test_moment_fold_of_one_row_is_rejected_by_its_standardization():
    with pytest.raises(DataError, match="standardize requires at least two rows"):
        _moment_fold(_markets([5.0]), _PENALTY, np.zeros(3))


def test_moment_fold_instruments_and_weight_are_the_sample_alone():
    z = SeededRng(9).generator().uniform(0.0, 40.0, size=300)
    sample = _markets(z)
    fold = _moment_fold(sample, _PENALTY, np.zeros(3))
    Z = instrument_basis(z, float(z.mean()), float(z.std(ddof=0)))
    std, _ = standardize(Dataset(PolynomialFeatures(2).transform(sample.inputs), sample.outcome))
    X = np.column_stack([np.ones(sample.n), std.inputs])
    G, b = gmm_normal_equations(X, Z, sample.outcome, np.linalg.inv(Z.T @ Z))
    assert np.array_equal(fold.G[0], G)
    assert np.array_equal(fold.b[0], b)


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
    final = _moment_fold(data, penalty, np.zeros(3))
    with pytest.raises(CvError, match="fitter failed on fold 2: singular instrument Gram matrix"):
        kfold_cv(final, K, [SeededRng(7)])


@pytest.mark.parametrize("scenario", [1, 2])
def test_demand_benchmark_is_the_estimated_line_itself(monkeypatch, scenario):
    params, _ = scenario_params(scenario, DemandParams())
    data, rng = simulate_markets(params, SeededRng(scenario)), SeededRng(40 + scenario)
    [estimate] = structural_estimate_demand(
        [data.subset(partition_indices(data.n, 2, rng.split(0))[0])])
    folds = []
    of_samples = GmmFold.of_samples.__func__

    def recording(cls, *args):
        folds.append(of_samples(cls, *args))
        return folds[-1]

    monkeypatch.setattr(GmmFold, "of_samples", classmethod(recording))
    [fit] = sre_demand([data], [rng])
    # the fold keeps the line's raw coefficients over (1, p, p^2), no fitted projection
    [fold] = folds
    assert np.array_equal(fold.theta_m, [[estimate.alpha, -estimate.beta, 0.0]])
    # re-expressed on the fold's standardization the curvature stays exactly 0,
    # and the benchmark curve is the line at the evaluation grid's prices, up
    # to the rounding of a few operations
    assert fit.theta_m[2] == 0.0
    grid = evaluation_grid(params, SeededRng(0))
    F = fit.transform.transform_inputs(PolynomialFeatures(2).transform(grid))
    line = estimate.implied_demand(grid)
    gap = np.abs(fit.theta_m[0] + F @ fit.theta_m[1:] - line).max()
    assert gap <= 8 * np.finfo(float).eps * np.abs(line).max()


def _trial_samples(scenario, M, seed, trials):
    """Each trial's markets and second-stage rng, as the demand experiment draws them."""
    sim_params, _ = scenario_params(scenario, DemandParams(M=M))
    rngs = [SeededRng(seed).stream(t) for t in trials]
    return [simulate_markets(sim_params, rng.split(0)) for rng in rngs], [
        rng.split(1) for rng in rngs]


@given(seed=st.integers(0, 2**32 - 1), scenario=st.sampled_from([1, 2, 3, 4]),
       M=st.sampled_from([60, 200, 1000]), grid=st.sampled_from([None, (0.0, 0.1, 10.0)]))
@settings(max_examples=20, deadline=None)
def test_stacked_second_stage_is_each_trials_sre_demand(seed, scenario, M, grid):
    gen = np.random.default_rng(seed)
    samples, rngs = _trial_samples(scenario, M, seed, gen.choice(1000, gen.integers(2, 7)))
    fits = sre_demand(samples, rngs, grid)
    for fit, sample, rng in zip(fits, samples, rngs):
        [alone] = sre_demand([sample], [rng], grid)
        assert fit.lambda_star == alone.lambda_star
        assert np.array_equal(fit.theta, alone.theta)
        assert np.array_equal(fit.theta_m, alone.theta_m)
        assert np.array_equal(fit.trace.fold_errors, alone.trace.fold_errors)


@pytest.mark.parametrize("scenario", [1, 2, 3, 4])
def test_stacked_reduced_form_and_structural_fits_are_each_trials_fit(scenario):
    _, rf_form = scenario_params(scenario, DemandParams())
    samples, _ = _trial_samples(scenario, 300, 23, range(7))
    for stacked, sample in zip(rf_demand(samples, rf_form), samples):
        [alone] = rf_demand([sample], rf_form)
        assert stacked.linear_fit.intercept == alone.linear_fit.intercept
        assert np.array_equal(stacked.linear_fit.coefficients, alone.linear_fit.coefficients)
    assert structural_estimate_demand(samples) == [structural_estimate_demand([s])[0]
                                                   for s in samples]


@pytest.mark.parametrize("scenario", [2, 3])  # the linear and the log-log reduced form
@pytest.mark.parametrize("block", [1, 3, 4, 10])
def test_demand_records_do_not_depend_on_the_trial_block(monkeypatch, scenario, block):
    run = dict(params=DemandParams(M=200), trials=10, rng=SeededRng(8))
    expected = demand_experiment(scenario, **run)
    # the package exports a function named metrics, so the module is imported by name
    monkeypatch.setattr(importlib.import_module("structreg.metrics"), "TRIAL_BLOCK", block)
    assert demand_experiment(scenario, **run) == expected


def test_a_singular_split_in_a_stack_names_its_trial_and_fold(monkeypatch):
    # Trial 5's cost shifter is held at 2.0 on its fitting half, except on the
    # rows of that half's CV fold 3. The whole half's instrument block is
    # regular, but the training part that leaves fold 3 out sees one shifter
    # value: its instrument powers are (1, 0, ..., 0), an exactly singular
    # Gram matrix. The other trials are as drawn.
    seed, failing, k, M = 6, 5, 3, 100
    trial_rng = SeededRng(seed).stream(failing).split(1)
    fitting = partition_indices(M, 2, trial_rng.split(0))[1]
    splits = kfold_splits(fitting.size, demand.CV_FOLDS, trial_rng.split(2))
    held = fitting[splits.val[k][splits.val_weight[k] == 1.0]]

    def degenerate(params, rng):
        data = simulate_markets(params, rng)
        if rng.stream_index != failing or params.M != M:
            return data
        z = data.instruments[:, 0].copy()
        z[np.setdiff1d(fitting, held)] = 2.0
        return Dataset(data.inputs, data.outcome, z[:, None])

    monkeypatch.setattr(demand, "simulate_markets", degenerate)
    run = dict(params=DemandParams(M=M), estimators=("sre",), rng=SeededRng(seed))
    demand_experiment(1, trials=5, **run)
    message = (rf"^trial {failing} failed: fitter failed on fold {k}: "
               r"singular instrument Gram matrix$")
    for indices in (None, range(3, 10), (failing,)):
        with pytest.raises(RuntimeError, match=message):
            demand_experiment(1, trials=10, trial_indices=indices, **run)
