import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import structreg.entry_exit as entry_exit
from structreg.data import SeededRng
from structreg.entry_exit import (
    EULER_GAMMA,
    REGIMES,
    SRE_ARX_ORDERS,
    SYNTHETIC_PANEL_REPLICAS,
    DdcBenchmark,
    DdcParams,
    InsufficientTransitionsError,
    PayoffParams,
    RPathSpec,
    _ccp_from_values,
    _expected_value,
    _propagate_shares,
    draw_profit_path,
    entry_exit_experiment,
    estimate_ccp_euler,
    estimate_ccp_euler_from_ccps,
    euler_residuals,
    flow_payoffs,
    merge_panels,
    myopic_ccp,
    regime_ccps,
    simulate_market,
    solve_perfect_foresight,
    solve_stationary,
    sre_entry_exit,
    synthetic_arx_rows,
)
from structreg.estimators import arx_feature_rows, solve_least_squares


def small_params(**overrides) -> DdcParams:
    base = dict(
        mu=-2.0, alpha=1.0, entry_cost=2.0, discount=0.9,
        n_firms=2000, t_total=60, t_train=40,
    )
    base.update(overrides)
    return DdcParams(**base)


def test_stationary_symmetric_fixed_point():
    params = PayoffParams(0.0, 0.0, 0.0, 0.9)
    vbar, ccp, _ = solve_stationary(params, 0.0)
    expected = (EULER_GAMMA + np.log(2.0)) / (1.0 - 0.9)
    assert np.allclose(vbar, expected, atol=1e-9)
    assert np.allclose(ccp, 0.5, atol=1e-12)


def test_stationary_matches_long_backward_induction():
    params = PayoffParams(-1.0, 0.7, 25.0, 0.9)  # huge entry cost
    vbar, ccp, _ = solve_stationary(params, 2.0)
    # brute force: 1000 periods of backward induction at a constant profit
    long_path = np.full(1000, 2.0)
    vbar_bi, ccp_bi, _ = solve_perfect_foresight(params, long_path)
    assert np.allclose(vbar, vbar_bi[0], atol=1e-8)
    assert np.allclose(ccp, ccp_bi[0], atol=1e-10)
    assert ccp[0, 1] < 1e-6  # entry probability is exp-small


def test_stationary_beta_zero_equals_myopic():
    params = PayoffParams(-0.5, 1.0, 1.0, 0.0)
    _, ccp, _ = solve_stationary(params, np.array([0.3, 1.7]))
    assert np.allclose(ccp, myopic_ccp(params, np.array([0.3, 1.7])), atol=1e-14)


def value_iteration(params, R, rtol=1e-11):
    """Stationary values by value iteration from zero, the reference for the
    Newton steps of ``solve_stationary``.

    The map contracts at rate ``b``, so after a sweep that moved the values by
    ``gap`` they are within ``gap * b / (1 - b)`` of the fixed point; iteration
    stops once that bound is ``rtol`` of the values' scale. (An absolute stop
    is out of reach when ``b / (1 - b)`` times the rounding of large values
    exceeds it.)
    """
    b = params.discount
    pi = flow_payoffs(params, R)
    vbar = np.zeros(pi.shape[:-1])
    for _ in range(1_000_000):
        new = _expected_value(pi + b * vbar[..., None, :])
        gap = np.abs(new - vbar).max()
        vbar = new
        if gap * b <= rtol * (1.0 - b) * max(1.0, np.abs(vbar).max()):
            break
    else:
        raise AssertionError("value iteration did not converge")
    cvf = pi + b * vbar[..., None, :]
    return vbar, _ccp_from_values(cvf), cvf


def assert_matches_value_iteration(params, R):
    vbar, ccp, cvf = solve_stationary(params, R)
    vbar_vi, ccp_vi, _ = value_iteration(params, R)
    scale = max(1.0, np.abs(vbar_vi).max())
    assert vbar.shape == vbar_vi.shape and ccp.shape == ccp_vi.shape
    assert np.abs(vbar - vbar_vi).max() <= 1e-10 * scale
    assert np.abs(ccp - ccp_vi).max() <= 1e-10
    # a fixed point to rounding, which value iteration's stop cannot show
    assert np.abs(vbar - _expected_value(cvf)).max() <= 8 * np.finfo(float).eps * scale
    assert np.array_equal(cvf, flow_payoffs(params, R) + params.discount * vbar[..., None, :])


@pytest.mark.parametrize("discount", [0.5, 0.9, 0.95, 0.999])
@pytest.mark.parametrize("seed", range(3))
def test_stationary_newton_matches_value_iteration(seed, discount):
    gen = np.random.default_rng([31, seed])
    params = PayoffParams(mu=gen.uniform(-5.0, 2.0), alpha=gen.uniform(-2.0, 2.0),
                          entry_cost=gen.uniform(0.0, 8.0), discount=discount)
    assert_matches_value_iteration(params, gen.uniform(-50.0, 50.0, size=gen.integers(1, 60)))
    assert_matches_value_iteration(params, gen.uniform(-50.0, 50.0))


@pytest.mark.parametrize("discount", [0.5, 0.9, 0.95, 0.999])
def test_stationary_newton_matches_value_iteration_at_huge_entry_cost(discount):
    params = PayoffParams(-1.0, 0.7, 25.0, discount)
    assert_matches_value_iteration(params, np.linspace(-50.0, 50.0, 41))


def test_stationary_newton_takes_few_steps(monkeypatch):
    import structreg.entry_exit as entry_exit

    # Newton converges quadratically: the study's 500 profit levels need six
    # steps where value iteration needed about 540 sweeps (the fifth moves the
    # values by 1e-8 of their scale, the sixth by 2e-15, at the rounding floor)
    monkeypatch.setattr(entry_exit, "NEWTON_STEPS", 6)
    R = draw_profit_path(RPathSpec(), 500, SeededRng(32))
    assert_matches_value_iteration(DdcParams(), R)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_stationary_non_finite_profit_does_not_converge(bad):
    params = PayoffParams(-1.0, 1.0, 2.0, 0.9)
    with np.errstate(invalid="ignore"):
        with pytest.raises(RuntimeError, match="did not converge"):
            solve_stationary(params, np.array([0.5, bad]))
        with pytest.raises(RuntimeError, match="did not converge"):
            solve_stationary(params, bad)


@pytest.mark.parametrize("discount", [0.5, 0.9, 0.95, 0.999])
def test_foresight_terminal_value_is_the_stationary_fixed_point(discount):
    # backward induction closed by the stationary values equals backward
    # induction over the same path followed by many periods at the final
    # profit, and the Euler identity holds across the closure
    rng = SeededRng(33)
    params = PayoffParams(-3.5, 1.0, 4.0, discount)
    R = draw_profit_path(RPathSpec(), 80, rng)
    _, ccp, _ = solve_perfect_foresight(params, R)
    extended = np.concatenate([R, np.full(40, R[-1])])
    _, ccp_ext, _ = solve_perfect_foresight(params, extended)
    assert np.abs(ccp - ccp_ext[:80]).max() <= 1e-10
    for path, probs in ((R, ccp), (extended, ccp_ext)):
        residuals = euler_residuals(probs, flow_payoffs(params, path), discount)
        assert np.abs(residuals).max() <= 1e-10


def per_block_foresight(params, R):
    """Backward induction one 2x2 numpy block per period: the reference for
    the float loop of ``solve_perfect_foresight``."""
    pi = flow_payoffs(params, R)
    vbar = np.empty((R.shape[0], 2))
    cvf = np.empty((R.shape[0], 2, 2))
    vbar_next = solve_stationary(params, R[-1])[0]
    for t in range(R.shape[0] - 1, -1, -1):
        cvf[t] = pi[t] + params.discount * vbar_next[None, :]
        vbar[t] = vbar_next = _expected_value(cvf[t])
    return vbar, _ccp_from_values(cvf), cvf


@pytest.mark.parametrize("discount", [0.0, 0.5, 0.9, 0.95, 0.999])
@pytest.mark.parametrize("seed", range(4))
def test_perfect_foresight_matches_the_per_block_reference(seed, discount):
    gen = np.random.default_rng([34, seed])
    params = PayoffParams(mu=gen.uniform(-5.0, 2.0), alpha=gen.uniform(-2.0, 2.0),
                          entry_cost=gen.uniform(0.0, 25.0), discount=discount)
    R = gen.uniform(-50.0, 50.0, size=gen.integers(1, 500))
    for got, want in zip(solve_perfect_foresight(params, R), per_block_foresight(params, R)):
        assert np.array_equal(got, want)


def test_perfect_foresight_symmetric_payoffs_half():
    params = PayoffParams(0.0, 0.0, 0.0, 0.9)
    _, ccp, _ = solve_perfect_foresight(params, np.linspace(0, 5, 30))
    assert np.allclose(ccp, 0.5, atol=1e-12)


def test_perfect_foresight_beta_zero_equals_myopic():
    params = PayoffParams(-1.0, 0.8, 1.5, 0.0)
    R = np.linspace(0.0, 4.0, 25)
    _, ccp, _ = solve_perfect_foresight(params, R)
    assert np.allclose(ccp, myopic_ccp(params, R), atol=1e-14)


def test_euler_residuals_vanish_on_exact_solution():
    rng = SeededRng(7)
    for draw in range(20):
        gen = rng.split(draw).generator()
        params = PayoffParams(
            mu=gen.uniform(-4, 1),
            alpha=gen.uniform(0.2, 2.0),
            entry_cost=gen.uniform(0.0, 6.0),
            discount=gen.uniform(0.0, 0.97),
        )
        R = draw_profit_path(RPathSpec(), 80, rng.split(100 + draw))
        _, ccp, _ = solve_perfect_foresight(params, R)
        residuals = euler_residuals(ccp, flow_payoffs(params, R), params.discount)
        assert np.abs(residuals).max() <= 1e-10


def test_estimate_from_exact_ccps_recovers_parameters():
    params = DdcParams()
    R = draw_profit_path(RPathSpec(), 120, SeededRng(8))
    _, ccp, _ = solve_perfect_foresight(params, R)
    mu, alpha, cost = estimate_ccp_euler_from_ccps(ccp, R, params.discount)
    assert abs(mu - params.mu) <= 1e-8
    assert abs(alpha - params.alpha) <= 1e-8
    assert abs(cost - params.entry_cost) <= 1e-8


def test_estimate_requires_enough_transitions():
    ccp = np.full((2, 2, 2), 0.5)
    with pytest.raises(InsufficientTransitionsError, match="insufficient transitions"):
        estimate_ccp_euler_from_ccps(ccp, np.zeros(2), 0.9)


def per_period_euler(ccps, R, discount):
    """Two stacked rows per usable period, one period at a time: the reference
    for the masked arrays of ``estimate_ccp_euler_from_ccps``."""
    rows, targets = [], []
    for t in range(ccps.shape[0] - 1):
        block = ccps[t : t + 2]
        if not np.isfinite(block).all() or block.min() <= 0.0 or block.max() >= 1.0:
            continue
        rows.append([1.0, R[t], -(1.0 - discount)])
        targets.append(np.log(ccps[t, 0, 1] / ccps[t, 0, 0])
                       + discount * np.log(ccps[t + 1, 1, 1] / ccps[t + 1, 0, 1]))
        rows.append([-1.0, -R[t], 0.0])
        targets.append(np.log(ccps[t, 1, 0] / ccps[t, 1, 1])
                       + discount * np.log(ccps[t + 1, 0, 0] / ccps[t + 1, 1, 0]))
    if len(rows) < 6:
        raise InsufficientTransitionsError("insufficient transitions")
    theta = solve_least_squares(np.asarray(rows), np.asarray(targets))
    return float(theta[0]), float(theta[1]), float(theta[2])


def clamped_ccp_hat(panel):
    eps = 1.0 / (2.0 * panel.n_firms)
    p_hat = panel.ccp_hat()
    return np.where(np.isnan(p_hat), np.nan, np.clip(p_hat, eps, 1.0 - eps))


@pytest.mark.parametrize("regime", ["perfect_foresight", "adaptive", "myopic"])
@pytest.mark.parametrize("seed", range(6))
def test_estimate_matches_the_per_period_reference(regime, seed):
    # thin panels: with 6 or 20 firms and a low entry payoff some periods
    # have an empty state (NaN frequencies), which both must skip
    gen = np.random.default_rng([35, seed])
    params = small_params(mu=gen.uniform(-4.0, 0.0), n_firms=[6, 20, 200][seed % 3],
                          t_total=80)
    R = draw_profit_path(RPathSpec(), params.t_total, SeededRng(36).stream(seed))
    ccps = regime_ccps(regime, params, R)
    panel = simulate_market(ccps, R, params.n_firms, SeededRng(37).stream(seed))
    for probs in (ccps, clamped_ccp_hat(panel)):
        try:
            want = per_period_euler(probs, R, params.discount)
        except InsufficientTransitionsError:
            with pytest.raises(InsufficientTransitionsError, match="insufficient transitions"):
                estimate_ccp_euler_from_ccps(probs, R, params.discount)
            continue
        assert estimate_ccp_euler_from_ccps(probs, R, params.discount) == want


def test_estimate_consistency_across_seeds():
    # panel estimates concentrate around the truth as the firm count grows;
    # interior choice probabilities keep the log-frequency bias at the
    # sampling-noise level (with probabilities near 0 the clamp dominates)
    def mean_abs_error(n_firms):
        params = DdcParams(
            mu=-0.5, alpha=0.6, entry_cost=1.0, discount=0.9,
            n_firms=n_firms, t_total=250, t_train=200,
        )
        R = draw_profit_path(RPathSpec(0.0, 0.004, 0.6, 0.5), 250, SeededRng(9))
        ccps = regime_ccps("perfect_foresight", params, R)
        assert ccps.min() > 0.02
        errors = []
        for seed in range(20):
            panel = simulate_market(ccps, R, params.n_firms, SeededRng(10).stream(seed))
            est = estimate_ccp_euler(panel, params.discount)
            errors.append(np.array(est) - [params.mu, params.alpha, params.entry_cost])
        return np.abs(np.array(errors)).mean(axis=0)

    coarse = mean_abs_error(1000)
    fine = mean_abs_error(10_000)
    assert np.all(fine <= coarse)
    # roughly 1/sqrt(N): a 10x firm increase should shrink errors ~3x;
    # allow generous slack for the nonlinearity of the log frequencies
    assert fine.mean() <= coarse.mean() / 1.8
    assert fine.max() <= 0.12


def test_simulate_market_absorbing_ccps_keep_counts_constant():
    T = 30
    ccps = np.zeros((T, 2, 2))
    ccps[:, 0, 0] = 1.0
    ccps[:, 1, 1] = 1.0
    panel = simulate_market(ccps, np.zeros(T), 1000, SeededRng(12))
    assert np.all(panel.n == 500)


def test_simulate_market_symmetric_payoffs_half_occupancy():
    params = small_params(mu=0.0, alpha=0.0, entry_cost=0.0)
    R = np.zeros(params.t_total)
    panel = simulate_market(regime_ccps("myopic", params, R), R, params.n_firms, SeededRng(13))
    se = np.sqrt(0.25 / params.n_firms)
    assert abs(panel.shares.mean() - 0.5) <= 4 * se


def test_simulate_market_frequencies_match_solver_ccps():
    params = small_params(n_firms=1_000_000, t_total=5, t_train=3)
    R = np.array([0.5, 1.0, 1.5, 2.0, 2.5])
    ccps = regime_ccps("perfect_foresight", params, R)
    panel = simulate_market(ccps, R, params.n_firms, SeededRng(14))
    p_hat = panel.ccp_hat()
    for t in (0, 2, 4):
        for j in (0, 1):
            denom = panel.counts[t, j].sum()
            se = np.sqrt(ccps[t, j, 1] * (1 - ccps[t, j, 1]) / denom)
            assert abs(p_hat[t, j, 1] - ccps[t, j, 1]) <= 4 * se + 1e-12


def per_period_counts(n_firms, ccps, rng):
    """Two binomial draws on numpy scalars and four element writes per period:
    the reference for the scalar loop of ``simulate_market``."""
    gen = rng.generator()
    incumbents = n_firms // 2
    counts = np.zeros((ccps.shape[0], 2, 2), dtype=np.int64)
    for t in range(ccps.shape[0]):
        stay = gen.binomial(incumbents, ccps[t, 1, 1])
        enter = gen.binomial(n_firms - incumbents, ccps[t, 0, 1])
        counts[t, 1, 1] = stay
        counts[t, 1, 0] = incumbents - stay
        counts[t, 0, 1] = enter
        counts[t, 0, 0] = (n_firms - incumbents) - enter
        incumbents = stay + enter
    return counts


@pytest.mark.parametrize("regime", ["perfect_foresight", "adaptive", "myopic"])
@pytest.mark.parametrize("seed", range(6))
def test_simulate_market_matches_the_per_period_reference(regime, seed):
    gen = np.random.default_rng([38, seed])
    params = small_params(mu=gen.uniform(-4.0, 0.0), n_firms=[2, 7, 2000][seed % 3],
                          t_total=int(gen.integers(1, 120)), t_train=0)
    R = draw_profit_path(RPathSpec(), params.t_total, SeededRng(39).stream(seed))
    ccps = regime_ccps(regime, params, R)
    panel = simulate_market(ccps, R, params.n_firms, SeededRng(40).stream(seed))
    want = per_period_counts(params.n_firms, ccps, SeededRng(40).stream(seed))
    assert panel.counts.dtype == want.dtype and np.array_equal(panel.counts, want)


def test_panel_counts_conserved_and_rows_sum():
    params = small_params()
    R = draw_profit_path(RPathSpec(), params.t_total, SeededRng(15))
    panel = simulate_market(regime_ccps("adaptive", params, R), R, params.n_firms, SeededRng(16))
    assert np.all(panel.counts.sum(axis=(1, 2)) == params.n_firms)
    p_hat = panel.ccp_hat()
    rows = np.nansum(p_hat, axis=2)
    assert np.allclose(rows[~np.isnan(rows)], 1.0)


def test_ccp_shift_invariance():
    # adding a constant to both next-state values of a given current state
    # leaves that state's choice probabilities unchanged
    from structreg.entry_exit import _ccp_from_values

    gen = np.random.default_rng(17)
    values = gen.normal(size=(6, 2, 2)) * 50
    shifted = values + gen.normal(size=(6, 2, 1)) * 100
    assert np.allclose(
        _ccp_from_values(values), _ccp_from_values(shifted), atol=1e-12
    )


def test_benchmark_one_step_unbiased_under_correct_specification():
    params = small_params(n_firms=4000, t_total=50, t_train=30)
    R = draw_profit_path(RPathSpec(), 50, SeededRng(18))
    ccps = regime_ccps("perfect_foresight", params, R)
    bench = DdcBenchmark.from_estimates(
        (params.mu, params.alpha, params.entry_cost), params.discount, R
    )
    gaps = []
    for seed in range(30):
        panel = simulate_market(ccps, R, params.n_firms, SeededRng(19).stream(seed))
        shares = panel.shares_with_initial()
        preds = bench.step_shares(shares[:-1])
        gaps.append((panel.shares - preds).mean())
    gaps = np.array(gaps)
    assert abs(gaps.mean()) <= 4 * gaps.std(ddof=1) / np.sqrt(gaps.size) + 1e-4


def test_benchmark_half_ccps_propagate_to_half():
    T = 20
    ccps = np.full((T, 2, 2), 0.5)
    bench = DdcBenchmark(np.zeros(T), ccps)
    path = _propagate_shares(bench.ccps, 0.1)
    assert np.allclose(path, 0.5)


def test_benchmark_beta_zero_reduces_to_myopic_propagation():
    params = PayoffParams(-1.0, 1.0, 1.0, 0.0)
    R = np.linspace(0, 3, 15)
    bench = DdcBenchmark.from_estimates((-1.0, 1.0, 1.0), 0.0, R)
    assert np.allclose(bench.ccps, myopic_ccp(params, R), atol=1e-14)


def test_expected_regime_path_tracks_large_simulation():
    params = small_params(n_firms=200_000)
    R = draw_profit_path(RPathSpec(), params.t_total, SeededRng(20))
    for regime in ("perfect_foresight", "adaptive", "myopic"):
        ccps = regime_ccps(regime, params, R)
        truth = _propagate_shares(ccps, 0.5)
        panel = simulate_market(ccps, R, params.n_firms, SeededRng(21))
        assert np.abs(panel.shares - truth).max() <= 0.02


def test_arx_feature_rows_layout():
    shares = np.array([0.5, 0.4, 0.3, 0.2, 0.1])  # s_0 .. s_4
    R = np.array([1.0, 2.0, 3.0, 4.0])
    rows = arx_feature_rows(shares, R, 2, 2)
    assert rows.time_index.tolist() == [2, 3, 4]
    # row for period 2: R_2, R_2^2, s_1, s_0
    assert rows.inputs[0].tolist() == [2.0, 4.0, 0.4, 0.5]
    assert rows.outcome.tolist() == [0.3, 0.2, 0.1]


def test_sre_entry_exit_runs_and_is_deterministic():
    params = small_params(t_total=140, t_train=100)
    R = draw_profit_path(RPathSpec(), 140, SeededRng(22))
    ccps = regime_ccps("myopic", params, R)
    pa = simulate_market(ccps, R, 1000, SeededRng(23))
    pb = simulate_market(ccps, R, 1000, SeededRng(24))
    fit1 = sre_entry_exit(pa.truncate(100), pb.truncate(100), 0.9, R, SeededRng(25))
    fit2 = sre_entry_exit(pa.truncate(100), pb.truncate(100), 0.9, R, SeededRng(25))
    assert np.array_equal(fit1.theta, fit2.theta)
    assert fit1.lambda_star in fit1.trace.lambda_grid


def test_entry_exit_experiment_smoke_and_shapes():
    params = small_params(n_firms=400, t_total=60, t_train=40)
    records, meta = entry_exit_experiment(
        "myopic", params, trials=2, rng=SeededRng(26), rpath=RPathSpec()
    )
    domains = {r[2] for r in records}
    assert domains == {"in", "out"}
    in_periods = {r[3] for r in records if r[2] == "in"}
    assert min(in_periods) == 11.0 and max(in_periods) == 40.0
    out_periods = {r[3] for r in records if r[2] == "out"}
    assert min(out_periods) == 41.0 and max(out_periods) == 60.0
    assert meta["regime"] == "myopic"


def test_merge_panels_adds_counts():
    params = small_params(n_firms=100)
    R = np.zeros(params.t_total)
    ccps = regime_ccps("myopic", params, R)
    a = simulate_market(ccps, R, params.n_firms, SeededRng(27))
    b = simulate_market(ccps, R, params.n_firms, SeededRng(28))
    merged = merge_panels(a, b)
    assert merged.n_firms == 200
    assert np.array_equal(merged.counts, a.counts + b.counts)


def test_entry_exit_experiment_solves_each_regime_once_per_trial(monkeypatch):
    import structreg.entry_exit as entry_exit

    calls = []
    real = entry_exit.regime_ccps

    def counting(regime, params, R_path):
        calls.append(regime)
        return real(regime, params, R_path)

    monkeypatch.setattr(entry_exit, "regime_ccps", counting)
    entry_exit_experiment(
        "adaptive", small_params(n_firms=400), trials=3, rng=SeededRng(29),
        lambda_grid=[0.0, 1.0],
    )
    assert calls == ["adaptive"] * 3


@pytest.mark.parametrize("n_firms", [2, 3])
def test_entry_exit_experiment_accepts_the_smallest_firm_counts(n_firms):
    # the two half-panels of one firm each are valid; the estimators then
    # fail on the trial's data, not on the parameters
    with pytest.raises(RuntimeError, match="trial 0 failed: insufficient transitions"):
        entry_exit_experiment(
            "myopic", DdcParams(n_firms=n_firms), trials=1, rng=SeededRng(30),
            estimators=("structural",),
        )


# The previous forms of the per-trial loops, kept as oracles: each rewrite
# must do the same floating-point operations in the same order, so it must
# match them bit for bit on every input.

seeds = st.integers(min_value=0, max_value=2**32 - 1)
discounts = st.sampled_from([0.0, 0.5, 0.9, 0.95, 0.999])


def _random_params(gen, discount):
    return PayoffParams(mu=gen.uniform(-5.0, 2.0), alpha=gen.uniform(-2.0, 2.0),
                        entry_cost=gen.uniform(0.0, 25.0), discount=discount)


def stationary_previous(params, R):
    """``solve_stationary`` on ``(..., 2, 2)`` blocks, with one exp for the
    CCPs and another for the values."""
    b = params.discount
    pi = flow_payoffs(params, R)
    vbar = _expected_value(pi)
    for _ in range(entry_exit.NEWTON_STEPS):
        cvf = pi + b * vbar[..., None, :]
        ccp = _ccp_from_values(cvf)
        residual = vbar - _expected_value(cvf)
        e, x = b * ccp[..., 0, 1], b * ccp[..., 1, 0]
        det = (1.0 - b) * (1.0 - b + e + x)
        step = np.stack([(1.0 - b + x) * residual[..., 0] + e * residual[..., 1],
                         x * residual[..., 0] + (1.0 - b + e) * residual[..., 1]],
                        axis=-1) / det[..., None]
        vbar = vbar - step
        if np.abs(step).max() <= entry_exit.VALUE_TOL * max(1.0, np.abs(vbar).max()):
            break
    else:
        raise RuntimeError("Newton iteration for the stationary values did not converge")
    cvf = pi + b * vbar[..., None, :]
    return vbar, _ccp_from_values(cvf), cvf


def foresight_previous(params, R_path):
    """``solve_perfect_foresight`` with a fresh array for each period's exp
    and log."""
    T = R_path.shape[0]
    b = params.discount
    v0, v1 = stationary_previous(params, R_path[-1])[0].tolist()
    flows = flow_payoffs(params, R_path).reshape(T, 4).tolist()
    vbar, cvf = [None] * T, [None] * T
    for t in range(T - 1, -1, -1):
        p00, p01, p10, p11 = flows[t]
        c00, c01, c10, c11 = cvf[t] = (p00 + b * v0, p01 + b * v1, p10 + b * v0, p11 + b * v1)
        s0, s1 = max(c00, c01), max(c10, c11)
        e00, e01, e10, e11 = np.exp(np.array([c00 - s0, c01 - s0, c10 - s1, c11 - s1])).tolist()
        l0, l1 = np.log(np.array([e00 + e01, e10 + e11])).tolist()
        v0, v1 = vbar[t] = (EULER_GAMMA + s0 + l0, EULER_GAMMA + s1 + l1)
    cvf = np.array(cvf).reshape(T, 2, 2)
    return np.array(vbar), _ccp_from_values(cvf), cvf


def counts_previous(ccps, R_path, n_firms, rng):
    """``simulate_market``'s counts from a list of (held, stay, enter) steps."""
    gen = rng.generator()
    incumbents = n_firms // 2
    T = R_path.shape[0]
    steps = []
    for p_stay, p_enter in zip(ccps[:T, 1, 1].tolist(), ccps[:T, 0, 1].tolist()):
        stay = gen.binomial(incumbents, p_stay)
        enter = gen.binomial(n_firms - incumbents, p_enter)
        steps.append((incumbents, stay, enter))
        incumbents = stay + enter
    held, stay, enter = np.array(steps, dtype=np.int64).reshape(T, 3).T
    counts = np.empty((T, 2, 2), dtype=np.int64)
    counts[:, 1, 1] = stay
    counts[:, 1, 0] = held - stay
    counts[:, 0, 1] = enter
    counts[:, 0, 0] = (n_firms - held) - enter
    return counts


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype and np.array_equal(g, w)


@given(seeds, discounts)
@settings(max_examples=60, deadline=None)
def test_stationary_matches_its_previous_form(seed, discount):
    gen = np.random.default_rng(seed)
    params = _random_params(gen, discount)
    R = gen.uniform(-50.0, 50.0, size=gen.integers(1, 300))
    assert_same_arrays(solve_stationary(params, R), stationary_previous(params, R))
    assert_same_arrays(solve_stationary(params, R[0]), stationary_previous(params, R[0]))
    assert_same_arrays(solve_stationary(params, float(R[0])),
                       stationary_previous(params, float(R[0])))


@given(seeds, st.sampled_from([np.nan, np.inf, -np.inf]))
@settings(max_examples=30, deadline=None)
def test_stationary_non_finite_profit_matches_its_previous_form(seed, bad):
    # a NaN or +inf operating payoff never converges and raises; a -inf one
    # (firms never operate there) may converge, to the same values
    gen = np.random.default_rng(seed)
    params = _random_params(gen, 0.9)
    R = gen.uniform(-50.0, 50.0, size=gen.integers(1, 50))
    R[gen.integers(R.size)] = bad
    with np.errstate(invalid="ignore", over="ignore"):
        try:
            want = stationary_previous(params, R)
        except RuntimeError:
            assert not params.alpha * bad < 0.0
            with pytest.raises(RuntimeError, match="did not converge"):
                solve_stationary(params, R)
        else:
            assert params.alpha * bad < 0.0
            assert_same_arrays(solve_stationary(params, R), want)


@given(seeds, discounts)
@settings(max_examples=40, deadline=None)
def test_perfect_foresight_matches_its_previous_form(seed, discount):
    gen = np.random.default_rng(seed)
    params = _random_params(gen, discount)
    R = gen.uniform(-50.0, 50.0, size=gen.integers(1, 300))
    assert_same_arrays(solve_perfect_foresight(params, R), foresight_previous(params, R))


@given(seeds, st.sampled_from(REGIMES))
@settings(max_examples=40, deadline=None)
def test_simulate_market_counts_match_their_previous_form(seed, regime):
    gen = np.random.default_rng(seed)
    params = small_params(mu=gen.uniform(-4.0, 0.0), t_total=int(gen.integers(1, 200)),
                          t_train=0)
    R = draw_profit_path(RPathSpec(), params.t_total, SeededRng(seed).stream(0))
    ccps = regime_ccps(regime, params, R)
    n_firms = int(gen.choice([2, 3, 7, 2000, 100_000]))
    panel = simulate_market(ccps, R, n_firms, SeededRng(seed).stream(1))
    assert_same_arrays([panel.counts],
                       [counts_previous(ccps, R, n_firms, SeededRng(seed).stream(1))])


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_profit_path_and_share_propagation_match_their_previous_forms(seed):
    gen = np.random.default_rng(seed)
    spec = RPathSpec(r0=gen.uniform(-1.0, 1.0), ar_coef=gen.uniform(-0.99, 0.99))
    T = int(gen.integers(0, 300))
    shocks = SeededRng(seed).generator().normal(0.0, spec.innovation_sd, size=T)
    u = np.empty(T)
    prev = 0.0
    for t in range(T):
        prev = spec.ar_coef * prev + shocks[t]
        u[t] = prev
    want = spec.r0 + spec.trend * np.arange(1, T + 1) + u
    assert_same_arrays([draw_profit_path(spec, T, SeededRng(seed))], [want])

    ccps = gen.uniform(size=(T, 2, 2))
    share = initial = gen.uniform()
    want = np.empty(T)
    for t in range(T):
        share = share * ccps[t, 1, 1] + (1.0 - share) * ccps[t, 0, 1]
        want[t] = share
    assert_same_arrays([_propagate_shares(ccps, initial)], [want])


@given(seeds, st.sampled_from(REGIMES))
@settings(max_examples=20, deadline=None)
def test_synthetic_rows_are_the_stacked_replica_rows(seed, regime):
    gen = np.random.default_rng(seed)
    params = small_params(mu=gen.uniform(-4.0, 0.0), t_total=int(gen.integers(4, 120)),
                          t_train=0)
    R = draw_profit_path(RPathSpec(), params.t_total, SeededRng(seed).stream(0))
    benchmark = DdcBenchmark(R, regime_ccps(regime, params, R))
    n_firms = int(gen.choice([2, 7, 2000]))
    rng = SeededRng(seed).stream(1)
    parts = [arx_feature_rows(simulate_market(benchmark.ccps, R, n_firms, rng.split(r))
                              .shares_with_initial(), R, *SRE_ARX_ORDERS)
             for r in range(SYNTHETIC_PANEL_REPLICAS)]
    rows = synthetic_arx_rows(benchmark, n_firms, rng)
    assert_same_arrays([rows.inputs, rows.outcome],
                       [np.vstack([part.inputs for part in parts]),
                        np.concatenate([part.outcome for part in parts])])
