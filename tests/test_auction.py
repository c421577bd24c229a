import numpy as np
import pytest

from structreg.auction import (
    AuctionScenario,
    UniformIpvBenchmark,
    _beta_bid_batch,
    _beta_bid_interpolator,
    auction_experiment,
    equilibrium_bid,
    overbid_truth_with_se,
    simulate_auctions,
    true_expected_winning_bid,
)
from structreg.data import DomainSpec, SeededRng
from structreg.metrics import metrics_table


def test_uniform_bid_closed_form():
    assert equilibrium_bid(0.5, 5) == pytest.approx(0.4, abs=1e-15)


def test_bid_vanishes_at_zero_value():
    assert equilibrium_bid(0.0, 7) == 0.0
    assert equilibrium_bid(0.0, 7, "beta") == 0.0
    assert equilibrium_bid(1e-6, 10, "beta") <= 1e-6


def test_bid_rejects_out_of_range_value():
    with pytest.raises(ValueError):
        equilibrium_bid(1.5, 5)


def test_beta_bid_no_profitable_deviation():
    # expected payoff (v - b) * P(win); rivals bid b(V), so P(win at bid x)
    # equals F(b^{-1}(x))^{n-1}. The equilibrium bid must beat a 200-point
    # grid of alternative bids up to numerical tolerance.
    import scipy.stats

    n, v = 10, 0.3
    dist = scipy.stats.beta(2, 5)
    b_star = equilibrium_bid(v, n, "beta")
    value_grid = np.linspace(1e-9, 1.0, 4001)
    bid_curve = _beta_bid_batch(value_grid, n, (2.0, 5.0))

    def win_prob(x):
        if x >= bid_curve[-1]:
            return 1.0
        inverse_value = np.interp(x, bid_curve, value_grid)
        return dist.cdf(inverse_value) ** (n - 1)

    payoff_star = (v - b_star) * win_prob(b_star)
    grid = np.linspace(0.0, v, 200)
    best_alternative = max((v - x) * win_prob(x) for x in grid)
    assert payoff_star >= best_alternative - 1e-6


def test_beta_bid_batch_matches_quadrature():
    gen = np.random.default_rng(0)
    for n in (2, 17, 50):
        vs = gen.uniform(0.01, 1.0, size=6)
        batch = _beta_bid_batch(vs, n, (2.0, 5.0))
        ref = np.array([equilibrium_bid(v, n, "beta") for v in vs])
        assert np.abs(batch - ref).max() < 1e-9


def test_bid_monotone_and_shaded():
    grid = np.linspace(1e-4, 1.0, 1000)
    for dist in ("uniform", "beta"):
        for n in (2, 5, 30):
            if dist == "uniform":
                bids = (n - 1) / n * grid
            else:
                bids = _beta_bid_batch(grid, n, (2.0, 5.0))
            assert np.all(np.diff(bids) > 0.0)
            assert np.all(bids <= grid + 1e-12)


def test_simulate_uniform_bids_bounded():
    data = simulate_auctions(AuctionScenario.from_index(1), SeededRng(1))
    for n, bids in zip(data.n_bidders, data.bids):
        assert bids.max() <= (n - 1) / n + 1e-12
    assert data.winning_bids.max() <= 1.0


def test_simulate_beta_value_mean():
    sc = AuctionScenario.from_index(2, M=400)
    data = simulate_auctions(sc, SeededRng(2))
    # back out values from bids via monotonicity is overkill; instead check
    # the bid-implied moment: winning bid of n i.i.d. Beta(2,5) values has
    # mean true_expected_winning_bid(n)
    total, count = 0.0, 0
    for n, b_star in zip(data.n_bidders, data.winning_bids):
        total += b_star - true_expected_winning_bid(sc, int(n))
        count += 1
    # winning bids lie in [0, 1]; 4 standard errors of the centered mean
    assert abs(total / count) <= 4.0 * 0.5 / np.sqrt(count)


def test_simulate_overbid_factor_mean():
    sc = AuctionScenario.from_index(3, M=500)
    data = simulate_auctions(sc, SeededRng(3))
    uniform = simulate_auctions(AuctionScenario.from_index(1, M=500), SeededRng(3))
    # same seed draws the same values; the bid ratio recovers the half-normal
    # overbid factors
    ratios = np.concatenate(
        [o / u for o, u in zip(data.bids, uniform.bids)]
    )
    expected = 0.5 * np.sqrt(2.0 / np.pi)
    sd = 0.5 * np.sqrt(1.0 - 2.0 / np.pi)
    assert abs(ratios.mean() - expected) <= 4.0 * sd / np.sqrt(ratios.size)


def test_winning_bid_is_bid_of_top_value_without_overbidding():
    data = simulate_auctions(AuctionScenario.from_index(2, M=50), SeededRng(4))
    for bids, b_star in zip(data.bids, data.winning_bids):
        assert b_star == bids.max()


def test_true_winning_bid_uniform_analytic():
    sc = AuctionScenario.from_index(1)
    assert true_expected_winning_bid(sc, 5) == pytest.approx(4.0 / 6.0, abs=1e-15)
    assert true_expected_winning_bid(sc, 10**6) == pytest.approx(1.0, abs=1e-5)


def test_true_winning_bid_uniform_monte_carlo_cross_check():
    sc = AuctionScenario.from_index(1)
    gen = np.random.default_rng(5)
    draws = gen.uniform(size=(1_000_000, 5)).max(axis=1) * (4.0 / 5.0)
    se = draws.std() / np.sqrt(draws.size)
    assert abs(draws.mean() - true_expected_winning_bid(sc, 5)) <= 4 * se


def test_true_winning_bid_beta_dual_oracle():
    sc = AuctionScenario.from_index(2)
    n = 5
    quad_value = true_expected_winning_bid(sc, n)
    gen = np.random.default_rng(6)
    values = gen.beta(2.0, 5.0, size=(400_000, n)).max(axis=1)
    mc = _beta_bid_batch(values, n, (2.0, 5.0))
    se = mc.std() / np.sqrt(mc.size)
    assert abs(mc.mean() - quad_value) <= 4 * se


def test_true_winning_bid_overbid_reports_se():
    sc = AuctionScenario.from_index(3)
    value, se = overbid_truth_with_se(sc, 5)
    assert se > 0.0
    gen = np.random.default_rng(7)
    eta = np.abs(gen.normal(0.0, 0.5, size=(200_000, 5)))
    v = gen.uniform(size=(200_000, 5))
    draws = (eta * v).max(axis=1) * (4.0 / 5.0)
    mc_se = draws.std() / np.sqrt(draws.size)
    assert abs(draws.mean() - value) <= 4 * (se + mc_se)


def test_uniform_benchmark_values():
    bench = UniformIpvBenchmark()
    assert bench.implied_mean(5.0)[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert bench.implied_mean(1e6)[0] == pytest.approx(1.0, abs=1e-5)


def test_uniform_benchmark_zero_variance_predictions():
    bench = UniformIpvBenchmark()
    grid = np.arange(5.0, 51.0)
    a = bench.implied_mean(grid)
    b = bench.implied_mean(grid)
    assert np.array_equal(a, b)


def test_uniform_benchmark_simulation_matches_implied_mean():
    bench = UniformIpvBenchmark()
    draws = bench.simulate(DomainSpec.interval(10, 10), 100_000, SeededRng(8))
    se = draws.outcome.std() / np.sqrt(draws.n)
    assert abs(draws.outcome.mean() - 9.0 / 11.0) <= 4 * se


def test_auction_experiment_structural_error_is_exactly_zero():
    records, _ = auction_experiment(
        AuctionScenario.from_index(1), trials=3, rng=SeededRng(9)
    )
    structural = [r for r in records if r[1] == "structural"]
    assert structural and all(r[4] == r[5] for r in structural)


def test_auction_experiment_grids_and_determinism():
    sc = AuctionScenario.from_index(1)
    records_a, meta = auction_experiment(sc, trials=2, rng=SeededRng(10))
    records_b, _ = auction_experiment(sc, trials=2, rng=SeededRng(10))
    assert records_a == records_b
    assert meta["grid_in"] == list(range(5, 31))
    assert meta["grid_out"] == list(range(31, 51))
    xs = {r[3] for r in records_a if r[2] == "out"}
    assert xs == set(float(n) for n in range(31, 51))


def test_auction_experiment_out_of_domain_blows_up_statistical_fit():
    records, _ = auction_experiment(
        AuctionScenario.from_index(1), estimators=("statistical",), trials=10,
        rng=SeededRng(11),
    )
    table = metrics_table(records)
    assert table[("statistical", "out")].mse >= 10.0 * table[("statistical", "in")].mse


def test_beta_bid_interpolator_is_deterministic():
    # two uncached builds must agree to the last bit, so auction truth values
    # do not depend on the process that computed them
    a = _beta_bid_interpolator.__wrapped__(12, (2.0, 5.0))
    b = _beta_bid_interpolator.__wrapped__(12, (2.0, 5.0))
    assert np.array_equal(a.wi, b.wi)
    v = np.linspace(0.0, 1.0, 1001)
    assert np.array_equal(a(v), b(v))


def test_auction_experiment_names_the_failing_trial(monkeypatch):
    import structreg.auction as auction

    calls = []
    real = auction.simulate_auctions

    def flaky(scenario, rng):
        calls.append(rng)
        if len(calls) == 2:
            raise ValueError("simulated failure")
        return real(scenario, rng)

    monkeypatch.setattr(auction, "simulate_auctions", flaky)
    with pytest.raises(RuntimeError, match="trial 4 failed: simulated failure"):
        auction_experiment(
            AuctionScenario.from_index(1, M=30), trials=6, rng=SeededRng(3),
            lambda_grid=[0.0, 1.0], trial_indices=(3, 4, 5),
        )
