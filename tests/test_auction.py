import dataclasses
import importlib
import os
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from structreg import auction
from structreg.auction import (
    BINOMIAL_CDF_MAX_DEGREE,
    OVERBID_TRUTH_DRAWS,
    SYNTHETIC_ROWS,
    TRUTH_STEP_COARSEST,
    AuctionScenario,
    BetaTruthError,
    _benchmark_projection,
    _beta_bid_batch,
    _beta_cdf,
    _beta_truth,
    _de_nodes,
    _order_stat_means,
    _overbid_max_table,
    _overbid_sample,
    auction_experiment,
    equilibrium_bid,
    overbid_truth_with_se,
    simulate_auctions,
    sre_auction,
    true_expected_winning_bid,
    uniform_ipv_mean,
)
from structreg.data import Dataset, DomainSpec, SeededRng, partition_indices, standardize
from structreg.estimators import solve_least_squares
from structreg.metrics import TRIAL_BLOCK, metrics_table
from structreg.sre import PolynomialFeatures, SingularPathError, predict_features
from structreg.tuning import FORWARD_FRACTION, CvError, RidgeFold, _express_in_transform

from .test_data import forward_split_rows_previous, partition_indices_previous
from .test_tuning import _previous_fold_rows


def test_uniform_bid_closed_form():
    assert equilibrium_bid(0.5, 5) == pytest.approx(0.4, abs=1e-15)


def test_bid_vanishes_at_zero_value():
    assert equilibrium_bid(0.0, 7) == 0.0
    assert equilibrium_bid(0.0, 7, "beta") == 0.0
    assert equilibrium_bid(1e-6, 10, "beta") <= 1e-6


def test_bid_rejects_out_of_range_value():
    with pytest.raises(ValueError):
        equilibrium_bid(1.5, 5)


def test_bid_rejects_an_unknown_value_distribution():
    # a misspelt distribution is not read as beta
    with pytest.raises(ValueError, match="unknown value distribution: unifrom"):
        equilibrium_bid(0.5, 5, "unifrom")


@pytest.mark.parametrize("shape, message", [
    ((2.0,), "beta_shape must have exactly two entries"),
    ((2.0, 5.0, 1.0), "beta_shape must have exactly two entries"),
    ((0.0, 5.0), "beta_shape entries must be positive and finite"),
    ((2.0, -1.0), "beta_shape entries must be positive and finite"),
    ((2.0, np.inf), "beta_shape entries must be positive and finite"),
    ((np.nan, 5.0), "beta_shape entries must be positive and finite"),
])
def test_bid_rejects_a_beta_shape_of_other_than_two_positive_finite_numbers(shape, message):
    for value_dist in ("uniform", "beta"):
        with pytest.raises(ValueError, match=message):
            equilibrium_bid(0.5, 5, value_dist, shape)
        with pytest.raises(ValueError, match=message):
            AuctionScenario(value_dist=value_dist, beta_shape=shape)


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


_BLOCK_PROBE = """
import hashlib
import numpy as np
from structreg.auction import _beta_bid_batch
values = np.random.default_rng(4).beta(2.0, 5.0, size=50_000)
counts = np.random.default_rng(5).integers(2, 51, size=values.size)
edges = [0, 1, 1003, 2049, 7777, values.size]
whole = _beta_bid_batch(values, counts, (2.0, 5.0))
pieces = [_beta_bid_batch(values[lo:hi], counts[lo:hi], (2.0, 5.0))
          for lo, hi in zip(edges, edges[1:])]
print(np.array_equal(whole, np.concatenate(pieces)), hashlib.sha256(whole.tobytes()).hexdigest())
"""


def test_beta_bid_batch_blocks_do_not_change_the_bids():
    # A call spanning many row blocks against calls on slices whose edges
    # fall anywhere inside blocks, in a fresh interpreter with BLAS on one
    # and on two threads: a BLAS product would round a row by its place in
    # the call and split a large call between threads, so the bids would
    # depend on the layout. The bytes must be the same at both thread counts.
    src = os.path.dirname(os.path.dirname(auction.__file__))
    digests = set()
    for blas in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas, OMP_NUM_THREADS=blas,
                   MKL_NUM_THREADS=blas)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _BLOCK_PROBE], env=env,
                              capture_output=True, text=True, check=True)
        same, digest = proc.stdout.split()
        assert same == "True"
        digests.add(digest)
    assert len(digests) == 1


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
    n, winning = data.inputs[:, 0], data.outcome
    assert np.all(winning <= (n - 1) / n + 1e-12)
    assert winning.max() <= 1.0


def test_simulate_beta_value_mean():
    sc = AuctionScenario.from_index(2, M=400)
    data = simulate_auctions(sc, SeededRng(2))
    # back out values from bids via monotonicity is overkill; instead check
    # the bid-implied moment: winning bid of n i.i.d. Beta(2,5) values has
    # mean true_expected_winning_bid(n)
    total, count = 0.0, 0
    for n, b_star in zip(data.inputs[:, 0], data.outcome):
        total += b_star - true_expected_winning_bid(sc, int(n))
        count += 1
    # winning bids lie in [0, 1]; 4 standard errors of the centered mean
    assert abs(total / count) <= 4.0 * 0.5 / np.sqrt(count)


def test_simulate_overbid_factor_mean():
    n = 10
    sc = AuctionScenario.from_index(3, M=4000, n_range_train=(n, n))
    winning = simulate_auctions(sc, SeededRng(3)).outcome
    truth, table_se = overbid_truth_with_se(sc, n)
    se = winning.std() / np.sqrt(winning.size)
    assert abs(winning.mean() - truth) <= 4.0 * (se + table_se)


def every_bid(scenario, rng):
    """Each auction's bids, bidder by bidder, from the simulation's draws."""
    gen = rng.generator()
    lo, hi = scenario.n_range_train
    n_bidders = gen.integers(lo, hi + 1, size=scenario.M)
    if scenario.value_dist == "uniform":
        values = [gen.uniform(0.0, 1.0, size=n) for n in n_bidders]
        bids = [(n - 1) / n * v for n, v in zip(n_bidders, values)]
    else:
        values = [gen.beta(*scenario.beta_shape, size=n) for n in n_bidders]
        bids = [_beta_bid_batch(v, int(n), scenario.beta_shape) for n, v in zip(n_bidders, values)]
    if scenario.overbid_sigma is not None:
        bids = [b * np.abs(gen.normal(0.0, scenario.overbid_sigma, size=b.size)) for b in bids]
    return n_bidders, bids


@pytest.mark.parametrize("index", [1, 2, 3])
def test_winning_bids_are_the_top_bid_over_all_bidders(index):
    # the simulation bids only each auction's top value (or, with
    # overbidding, takes the top of the scaled bids); brute force bids for
    # every bidder. Uniform values round identically; the beta quadrature's
    # batched dot product may round a row differently in a smaller batch.
    for seed in range(5):
        sc = AuctionScenario.from_index(index, M=60)
        data = simulate_auctions(sc, SeededRng(seed))
        n_bidders, bids = every_bid(sc, SeededRng(seed))
        expected = np.array([b.max() for b in bids])
        assert np.array_equal(data.inputs[:, 0], n_bidders)
        if index == 2:
            assert np.all(np.abs(data.outcome - expected) <= 2e-15 * expected)
        else:
            assert np.array_equal(data.outcome, expected)


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


def difference_of_powers(s, n_max):
    """The order-statistic average term by term: ``(p[1:] - p[:-1]) @ s``."""
    k = np.arange(s.shape[0] + 1) / s.shape[0]
    out = np.empty(n_max - 1)
    for i, n in enumerate(range(2, n_max + 1)):
        p = k**n
        out[i] = (p[1:] - p[:-1]) @ s
    return out


def difference_of_powers_table(sigma, n_max, draws, seed, batches=20):
    """The overbid table from one ``k**n`` pass per n over each sorted sample."""
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    u = np.abs(gen.normal(0.0, sigma, size=draws)) * gen.uniform(0.0, 1.0, size=draws)
    estimate = difference_of_powers(np.sort(u), n_max)
    batch_vals = np.stack([difference_of_powers(np.sort(part), n_max)
                           for part in np.array_split(u, batches)])
    return estimate, batch_vals.std(axis=0, ddof=1) / np.sqrt(batches)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 1e3, allow_subnormal=False), min_size=1, max_size=300),
       st.integers(2, 60), st.sampled_from([1, 7, 64, auction._OVERBID_BLOCK]))
def test_order_stat_sweep_matches_the_difference_of_powers(sample, n_max, block):
    # block sizes below the sample size put block edges inside the sweep
    s = np.sort(np.array(sample))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(auction, "_OVERBID_BLOCK", block)
        swept = _order_stat_means(s, n_max)
    np.testing.assert_allclose(swept, difference_of_powers(s, n_max), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("block", [auction._OVERBID_BLOCK, 4096])
def test_overbid_table_matches_the_difference_of_powers(block, monkeypatch):
    # 20,003 draws: a multiple of neither the batch count nor a block
    monkeypatch.setattr(auction, "_OVERBID_BLOCK", block)
    values, ses = _overbid_max_table.__wrapped__(0.5, 60, 20_003, 12345)
    oracle_values, oracle_ses = difference_of_powers_table(0.5, 60, 20_003, 12345)
    assert np.isnan(values[:2]).all() and np.isnan(ses[:2]).all()
    np.testing.assert_allclose(values[2:], oracle_values, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(ses[2:], oracle_ses, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("draws, block", [(20_003, 4096), (3 * auction._OVERBID_BLOCK + 5, None)])
def test_overbid_sample_is_one_normal_then_one_uniform_call(draws, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(auction, "_OVERBID_BLOCK", block)

    def gen():
        return np.random.Generator(np.random.Philox(np.random.SeedSequence(99)))

    one_call = gen()
    expected = (np.abs(one_call.normal(0.0, 0.5, draws))
                * one_call.uniform(0.0, 1.0, draws))
    assert np.array_equal(_overbid_sample(gen(), 0.5, draws), expected)


def test_overbid_truth_is_pinned():
    # the 4M-draw table at its fixed seed; a change of seed, draw order or
    # estimator moves these far past the tolerance
    sc = AuctionScenario.from_index(3)
    pinned = {5: 0.3766732388857563, 30: 0.7797897262497077, 50: 0.8789998745808594}
    for n, value in pinned.items():
        assert true_expected_winning_bid(sc, n) == pytest.approx(value, rel=1e-13, abs=0.0)


def test_a_training_range_past_the_test_range_builds_one_overbid_table():
    # every count of both ranges, and the metadata pass after them, reads the
    # one table that runs to the training range's top
    sc = AuctionScenario.from_index(3, n_range_train=(5, 60))
    _overbid_max_table.cache_clear()
    auction_experiment(sc, estimators=("structural",), trials=1, rng=SeededRng(0))
    assert _overbid_max_table.cache_info().misses == 1


def test_overbid_truth_without_overbidding_is_exactly_zero():
    sc = AuctionScenario.from_index(3, overbid_sigma=0.0)
    assert all(overbid_truth_with_se(sc, n) == (0.0, 0.0) for n in range(2, 51))


def test_overbid_truth_beyond_the_test_range_extends_the_same_table():
    sc = AuctionScenario.from_index(3)
    top = true_expected_winning_bid(sc, 60)
    wide = _overbid_max_table(0.5, 60, OVERBID_TRUTH_DRAWS, auction._OVERBID_TRUTH_SEED)
    narrow = _overbid_max_table(0.5, 50, OVERBID_TRUTH_DRAWS, auction._OVERBID_TRUTH_SEED)
    assert top == 59 / 60 * wide[0][60]
    assert np.array_equal(wide[0][:51], narrow[0], equal_nan=True)
    assert np.array_equal(wide[1][:51], narrow[1], equal_nan=True)


def test_uniform_benchmark_values():
    assert uniform_ipv_mean(5.0)[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert uniform_ipv_mean(1e6)[0] == pytest.approx(1.0, abs=1e-5)


def test_uniform_benchmark_zero_variance_predictions():
    grid = np.arange(5.0, 51.0)
    a = uniform_ipv_mean(grid)
    b = uniform_ipv_mean(grid)
    assert np.array_equal(a, b)


def test_uniform_benchmark_simulation_matches_implied_mean():
    # scenario 1 simulated with ten bidders in every auction
    sc = AuctionScenario.from_index(1, M=20_000, n_range_train=(10, 10))
    winning = simulate_auctions(sc, SeededRng(8)).outcome
    se = winning.std() / np.sqrt(winning.size)
    assert abs(winning.mean() - uniform_ipv_mean(10.0)[0]) <= 4 * se


def test_from_index_overrides_replace_scenario_fields():
    sc = AuctionScenario.from_index(3, overbid_sigma=0.3, M=7)
    assert (sc.value_dist, sc.overbid_sigma, sc.M) == ("uniform", 0.3, 7)
    assert AuctionScenario.from_index(3).overbid_sigma == 0.5
    assert AuctionScenario.from_index(2, beta_shape=(3.0, 3.0)).beta_shape == (3.0, 3.0)


def test_beta_shape_becomes_a_tuple_of_two_floats():
    sc = AuctionScenario(value_dist="beta", beta_shape=[2, 5.0])
    assert sc.beta_shape == (2.0, 5.0) and all(type(a) is float for a in sc.beta_shape)
    # a list would be an unhashable key of the cached truth
    assert true_expected_winning_bid(sc, 5) == true_expected_winning_bid(
        AuctionScenario.from_index(2), 5)
    with pytest.raises(ValueError, match="exactly two"):
        AuctionScenario(value_dist="beta", beta_shape=(2.0, 5.0, 1.0))


def test_overbidding_requires_uniform_values():
    # the overbid truth assumes uniform values, so beta values would be
    # scored against the wrong truth
    with pytest.raises(ValueError, match="uniform values"):
        AuctionScenario.from_index(2, overbid_sigma=0.3)


def test_auction_experiment_structural_error_is_exactly_zero():
    records, _ = auction_experiment(
        AuctionScenario.from_index(1), trials=3, rng=SeededRng(9)
    )
    structural = [r for r in records if r[1] == "structural"]
    assert structural and all(r[4] == r[5] for r in structural)


@pytest.mark.parametrize("seed", range(20))
def test_cached_projection_is_the_projection_on_each_standardization(seed):
    # a fitting half's standardization: 10-200 bidder counts from a random range
    gen = np.random.default_rng(seed)
    lo = int(gen.integers(2, 20))
    counts = gen.integers(lo, lo + gen.integers(5, 40), size=gen.integers(10, 200))
    features = PolynomialFeatures(auction.SRE_POLY_DEGREE)
    _, transform = standardize(Dataset(features.transform(counts.astype(float)), counts))
    # the benchmark's rows projected afresh on that standardization
    n = np.linspace(5, 50, SYNTHETIC_ROWS)
    design = np.column_stack([np.ones(n.size), transform.transform_inputs(features.transform(n))])
    fresh = solve_least_squares(design, uniform_ipv_mean(n))
    cached = _express_in_transform(_benchmark_projection(5, 50)[None],
                                   transform.column_means[None, None],
                                   transform.column_scales[None, None])[0, 0]
    # a backward-stable solve is exact to about cond(design) * eps, so the two
    # agree within cond(design) ulp of the largest coefficient (cond is 4e3-4e5
    # here; the largest gap seen over 2,000 draws was 0.31 cond ulp)
    bound = np.linalg.cond(design) * np.spacing(np.abs(fresh).max())
    assert np.abs(cached - fresh).max() <= bound


def test_one_projection_per_pair_of_bidder_ranges(monkeypatch):
    # scenarios 1 and 3 share both bidder ranges: two runs of two blocks each
    # project once; another test range projects again
    monkeypatch.setattr(importlib.import_module("structreg.metrics"), "TRIAL_BLOCK", 2)
    _benchmark_projection.cache_clear()
    run = dict(estimators=("sre",), trials=4, rng=SeededRng(5), lambda_grid=[0.0, 1.0, 100.0])
    for index in (1, 3):
        auction_experiment(AuctionScenario.from_index(index, M=40), **run)
    assert _benchmark_projection.cache_info()[:2] == (3, 1)  # (hits, misses)
    auction_experiment(AuctionScenario.from_index(1, M=40, n_range_test=(31, 60)), **run)
    assert _benchmark_projection.cache_info().misses == 2
    assert not _benchmark_projection(5, 50).flags.writeable


def test_sre_auction_fits_the_second_part_of_its_split(monkeypatch):
    scenario = AuctionScenario.from_index(1)
    data = simulate_auctions(scenario, SeededRng(12))
    samples = []
    of_stack = RidgeFold.of_stack.__func__

    def recording(cls, stacked, count, *args):
        samples.append((stacked, count))
        return of_stack(cls, stacked, count, *args)

    monkeypatch.setattr(RidgeFold, "of_stack", classmethod(recording))
    sre_auction([data], scenario, [SeededRng(13)])
    [(sample, count)] = samples
    assert count == 1
    # the rows of the second of the two parts the old two-way partition built
    second = partition_indices(data.n, 2, SeededRng(13).split(0))[1]
    assert np.array_equal(sample.inputs, data.inputs[second])
    assert np.array_equal(sample.outcome, data.outcome[second])


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


@pytest.mark.parametrize("shape", [(2.0, 5.0), (2.5, 4.0), (0.7, 1.5)])
@pytest.mark.parametrize("n", [2, 5, 30])
def test_beta_truth_matches_the_bid_function_by_revenue_equivalence(n, shape):
    # the winning bid is the equilibrium bid of the highest of n values,
    # whose density is n F^{n-1} f
    density = scipy.stats.beta(*shape).pdf

    def winning_bid(v):
        F = scipy.special.betainc(*shape, v)
        return equilibrium_bid(v, n, "beta", shape) * n * F ** (n - 1) * density(v)

    oracle, _ = scipy.integrate.quad(winning_bid, 0.0, 1.0, epsabs=1e-11, epsrel=1e-11,
                                     limit=200)
    assert _beta_truth(n, shape) == pytest.approx(oracle, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", range(2, 51))
def test_beta_truth_of_uniform_values_is_exact(n):
    assert _beta_truth(n, (1.0, 1.0)) == pytest.approx((n - 1) / (n + 1), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("shape", [(0.3, 0.8), (200.0, 300.0)])
@pytest.mark.parametrize("n", [2, 5, 30])
def test_beta_truth_matches_quad_at_u_shaped_and_concentrated_shapes(n, shape):
    a, b = shape

    def survival(v):
        F, G = scipy.special.betainc(a, b, v), scipy.special.betainc(b, a, 1.0 - v)
        return 1.0 - F**n - n * F ** (n - 1) * G

    # the concentrated shape's survival falls from 1 to 0 within a few
    # hundredths around its mean
    oracle, _ = scipy.integrate.quad(survival, 0.0, 1.0, points=[a / (a + b)],
                                     epsabs=1e-14, epsrel=1e-14, limit=500)
    assert _beta_truth(n, shape) == pytest.approx(oracle, rel=1e-13, abs=0.0)


def test_beta_truth_names_a_shape_the_rule_cannot_resolve():
    # Beta(1e6, 1e6) has standard deviation 3.5e-4, below the finest step's reach
    with pytest.raises(BetaTruthError, match=r"n = 2, beta_shape = \(1000000.0, 1000000.0\)"):
        _beta_truth(2, (1e6, 1e6))


# integer shapes (a, b) with a + b <= BINOMIAL_CDF_MAX_DEGREE
_BINOMIAL_SHAPES = st.integers(1, BINOMIAL_CDF_MAX_DEGREE - 1).flatmap(
    lambda a: st.tuples(st.just(float(a)), st.integers(1, BINOMIAL_CDF_MAX_DEGREE - a).map(float)))


@settings(max_examples=300, deadline=None)
@given(_BINOMIAL_SHAPES,
       st.lists(st.floats(0.0, 1.0) | st.sampled_from([1e-12, 1.0 - 1e-12]), min_size=1,
                max_size=40),
       st.integers(0, 6))
def test_binomial_beta_cdf_matches_betainc(shape, points, halvings):
    a, b = shape
    x = np.array(points)
    # the truth's nodes at one of its steps: F at x, and 1 - F as I_y(b, a) at
    # the rule's own y, as _beta_truth passes them
    rule_x, rule_y, _ = _de_nodes(TRUTH_STEP_COARSEST / 2**halvings, first=True)
    # the sum is within 2 (a + b) eps of betainc: over every such shape and
    # 200,000 points the largest gap was 0.95 (a + b) eps, 6.6 eps at (5, 2).
    # Below 1e-250 betainc loses its own relative accuracy (at 1.7e-290 it is
    # 2e5 eps from a 50-digit value, the sum 1 eps), so values there are
    # compared absolutely.
    for got, want in ((_beta_cdf(a, b, x, 1.0 - x), scipy.special.betainc(a, b, x)),
                      (_beta_cdf(a, b, rule_x, rule_y), scipy.special.betainc(a, b, rule_x)),
                      (_beta_cdf(b, a, rule_y, rule_x), scipy.special.betainc(b, a, rule_y))):
        np.testing.assert_allclose(got, want, rtol=2 * (a + b) * np.finfo(float).eps,
                                   atol=1e-250)


@pytest.mark.parametrize("shape, by_betainc", [
    ((2.5, 4.0), True),
    ((1.0, float(BINOMIAL_CDF_MAX_DEGREE)), True),  # just past the bound
    ((1.0, float(BINOMIAL_CDF_MAX_DEGREE - 1)), False),
    ((2.0, 5.0), False),
])
def test_beta_cdf_takes_betainc_for_non_integer_and_large_shapes(shape, by_betainc, monkeypatch):
    calls = []
    betainc = scipy.special.betainc

    def recording(a, b, x):
        calls.append((a, b))
        return betainc(a, b, x)

    monkeypatch.setattr(scipy.special, "betainc", recording)
    x = np.linspace(0.0, 1.0, 9)
    cdf = _beta_cdf(*shape, x, 1.0 - x)
    assert calls == ([shape] if by_betainc else [])
    np.testing.assert_allclose(cdf, betainc(*shape, x), rtol=1e-14, atol=0.0)


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


@given(seed=st.integers(0, 2**32 - 1), index=st.sampled_from([1, 2, 3]),
       cv=st.sampled_from([(None, auction.FORWARD_K), ((0.0, 0.1, 1.0, 10.0), 4)]))
@settings(max_examples=25, deadline=None)
def test_stacked_second_stage_is_each_trials_stack_of_one(seed, index, cv):
    grid, K = cv
    gen = np.random.default_rng(seed)
    scenario = AuctionScenario.from_index(index, M=int(gen.choice([40, 100])))
    rngs = [SeededRng(seed).stream(int(t)) for t in gen.choice(1000, gen.integers(2, 9))]
    samples = [simulate_auctions(scenario, rng.split(0)) for rng in rngs]
    widths = []
    cross_validate = RidgeFold.cross_validate

    def recording(fold, splits):
        widths.append((splits.train.shape[1], splits.val.shape[1]))
        return cross_validate(fold, splits)

    def second_stage(stack, stack_rngs):
        return sre_auction(stack, scenario, [rng.split(1) for rng in stack_rngs], grid, K)

    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(RidgeFold, "cross_validate", recording)
            alone = [second_stage([sample], [rng])[0] for sample, rng in zip(samples, rngs)]
    except CvError:
        # at lambda = 0 a split with fewer than six distinct bidder counts is singular
        with pytest.raises(CvError):
            second_stage(samples, rngs)
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RidgeFold, "cross_validate", recording)
        fits = second_stage(samples, rngs)
    # the block's splits are as wide as each trial's alone, so no sum over a
    # split's rows is padded with rows of weight 0 it would not have alone
    assert len(widths) == len(rngs) + 1 and len(set(widths)) == 1
    for fit, single in zip(fits, alone):
        assert fit.lambda_star == single.lambda_star
        assert np.array_equal(fit.theta, single.theta)
        assert np.array_equal(fit.theta_m, single.theta_m)
        assert np.array_equal(fit.trace.fold_errors, single.trace.fold_errors)


def _sre_predict_previous(fit, x):
    """``SREFit.predict`` as it was, one fit at a time: the oracle."""
    F = fit.transform.transform_inputs(fit.feature_map.transform(x))
    return fit.theta[0] + F @ fit.theta[1:]


class _PreviousErrorFold(RidgeFold):
    """The fold scored by its held-out error as it was, before the residual
    was formed in one buffer: the oracle of the fold errors."""

    def _held_out_error(self, posed, splits, F_val, thetas):
        predictions = thetas[:, None, :, 0] + F_val @ thetas[:, :, 1:].swapaxes(1, 2)
        resid = ((self.stacked.outcome[splits.val][:, :, None] - predictions)
                 * splits.val_weight[:, :, None])
        return (resid * resid).sum(axis=1) / splits.val_weight.sum(axis=1)[:, None]


@given(seed=st.integers(0, 2**32 - 1), S=st.sampled_from([1, 3, 4, TRIAL_BLOCK]),
       narrow=st.booleans())
@settings(max_examples=12, deadline=None)
def test_block_halves_splits_and_predictions_match_their_previous_forms(seed, S, narrow):
    # a narrow bidder range with lambda = 0 on the grid makes some trials'
    # splits singular: the block then raises the first such trial's error,
    # naming the trial
    gen = np.random.default_rng(seed)
    M = int(gen.choice([40, 100]))
    scenario = AuctionScenario.from_index(1, M=M, n_range_train=(5, 9) if narrow else (5, 30))
    grid, K = ((0.0, 1.0), 4) if narrow else (None, auction.FORWARD_K)
    trial_rngs = [SeededRng(seed).stream(t) for t in range(S)]
    samples = [simulate_auctions(scenario, rng.split(0)) for rng in trial_rngs]
    rngs = [rng.split(1) for rng in trial_rngs]
    seen = {}
    of_stack, cross_validate = RidgeFold.of_stack.__func__, RidgeFold.cross_validate

    def recording_stack(cls, stacked, count, *args):
        seen["stacked"] = stacked
        seen["fold"] = of_stack(cls, stacked, count, *args)
        return seen["fold"]

    def recording_cv(fold, splits):
        seen["splits"] = splits
        return cross_validate(fold, splits)

    def outcome(stack, stack_rngs):
        try:
            return sre_auction(stack, scenario, stack_rngs, grid, K)
        except (CvError, SingularPathError) as exc:
            return exc

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RidgeFold, "of_stack", classmethod(recording_stack))
        patch.setattr(RidgeFold, "cross_validate", recording_cv)
        fits = outcome(samples, rngs)
    # each trial's fitting half, as its own rng's previous two-way partition chose it
    halves = [data.subset(partition_indices_previous(data.n, 2, rng.split(0))[1])
              for data, rng in zip(samples, rngs)]
    assert np.array_equal(seen["stacked"].inputs, np.concatenate([h.inputs for h in halves]))
    assert np.array_equal(seen["stacked"].outcome, np.concatenate([h.outcome for h in halves]))
    # and its forward splits, in the sample's place in the block
    splits, m = seen["splits"], halves[0].n
    target = DomainSpec.interval(*scenario.n_range_test)
    for s, (half, rng) in enumerate(zip(halves, rngs)):
        far, near = forward_split_rows_previous(half, target, FORWARD_FRACTION)
        train, train_weight, val, val_weight = _previous_fold_rows(far, K, rng.split(3))
        own = slice(s * K, (s + 1) * K)
        near = np.broadcast_to(near, (K, near.size))
        for got, want in ((splits.train[own], train + s * m),
                          (splits.train_weight[own], train_weight),
                          (splits.val[own], np.column_stack([val, near]) + s * m),
                          (splits.val_weight[own], np.column_stack([val_weight,
                                                                    np.ones(near.shape)]))):
            assert got.dtype == want.dtype and np.array_equal(got, want)
    alone = [outcome([sample], [rng]) for sample, rng in zip(samples, rngs)]
    failed = [s for s, result in enumerate(alone) if isinstance(result, Exception)]
    if failed:
        s = failed[0]
        named = str(alone[s]) if S == 1 or isinstance(alone[s], SingularPathError) else re.sub(
            r"^(fitter failed on fold \d+)", rf"\1 of sample {s}", str(alone[s]))
        assert type(fits) is type(alone[s]) and str(fits) == named
        return
    # the fold errors as the previous held-out form scores them, and each
    # benchmark re-expressed on its sample's standardization one at a time
    fold = seen["fold"]
    previous = _PreviousErrorFold(*(getattr(fold, f.name) for f in dataclasses.fields(fold)))
    for fit, trace in zip(fits, previous.cross_validate(splits), strict=True):
        assert np.array_equal(fit.trace.fold_errors, trace.fold_errors)
    for fit, raw, mu, sd in zip(fits, fold.theta_m, fold.means, fold.scales):
        assert np.array_equal(fit.theta_m, np.concatenate([[raw[0] + mu @ raw[1:]], raw[1:] * sd]))
    x = np.arange(5.0, 51.0)[:, None]
    features = PolynomialFeatures(auction.SRE_POLY_DEGREE).transform(x)
    for fit, [single], prediction in zip(fits, alone, predict_features(fits, features),
                                         strict=True):
        assert fit.lambda_star == single.lambda_star
        assert np.array_equal(fit.theta, single.theta)
        assert np.array_equal(prediction, _sre_predict_previous(single, x))
        assert np.array_equal(fit.predict(x), prediction)


@pytest.mark.parametrize("block", [1, 3, 4, 10])
def test_auction_records_do_not_depend_on_the_trial_block(monkeypatch, block):
    run = dict(trials=10, rng=SeededRng(8), lambda_grid=[0.0, 1.0, 100.0], forward_K=4)
    scenario = AuctionScenario.from_index(2, M=40)
    expected = auction_experiment(scenario, **run)
    # the package exports a function named metrics, so the module is imported by name
    monkeypatch.setattr(importlib.import_module("structreg.metrics"), "TRIAL_BLOCK", block)
    assert auction_experiment(scenario, **run) == expected


def test_a_singular_split_in_a_stack_names_its_trial_and_fold():
    # At lambda = 0 a degree-5 fit to the training rows of a forward split
    # with fewer than six distinct bidder counts is singular. At this seed
    # trial 5 is the first trial with such a split, its split 1.
    scenario = AuctionScenario.from_index(1, M=60, n_range_train=(5, 12))
    run = dict(rng=SeededRng(4), lambda_grid=[0.0, 1.0], forward_K=3)
    auction_experiment(scenario, trials=5, **run)
    message = (r"^trial 5 failed: fitter failed on fold 1 at lambda=0\.0: "
               r"singular penalized system$")
    for indices in (None, range(3, 10), (5,)):
        with pytest.raises(RuntimeError, match=message):
            auction_experiment(scenario, trials=10, trial_indices=indices, **run)
