"""First-price sealed-bid auction experiments.

Risk-neutral bidders with independent private values ``v ~ F`` bid to
maximize ``(v - b) * P(win)``; the symmetric equilibrium strategy is::

    b(v) = v - (1 / F(v)^(n-1)) * integral_0^v F(x)^(n-1) dx

which for uniform values reduces to ``b(v) = (n - 1) / n * v`` and makes the
expected winning bid ``(n - 1) / (n + 1)`` (the winning bid is the bid of the
highest value, whose mean is ``n / (n + 1)``).

Three data-generating scenarios share one structural model (uniform values,
equilibrium bidding): uniform values, Beta(2, 5) values, and uniform values
with multiplicative overbidding ``eta ~ |N(0, sigma^2)|``. The experiment
fits a statistical polynomial (AIC degree), the structural model, and the
regularized polynomial on auctions with 5-30 bidders, then scores all three
on bidder counts 5-30 (in-domain) and 31-50 (out-of-domain).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.integrate
import scipy.interpolate
import scipy.special
import scipy.stats

from .data import Dataset, DomainSpec, SeededRng
from .estimators import fit_polynomial, select_degree_aic
from .sre import (
    PenaltySpec,
    PolynomialFeatures,
    StructuralBenchmark,
    default_lambda_grid,
)
from .tuning import BenchmarkFamily, CvPlan, sre_sample_split

OVERBID_TRUTH_DRAWS = 4_000_000
_OVERBID_TRUTH_SEED = 181_000_001  # fixed: truth values are config-independent


@dataclass(frozen=True)
class AuctionScenario:
    """One data-generating mechanism for repeated first-price auctions."""

    value_dist: str = "uniform"
    beta_shape: tuple[float, float] = (2.0, 5.0)
    overbid_sigma: float | None = None
    M: int = 100
    n_range_train: tuple[int, int] = (5, 30)
    n_range_test: tuple[int, int] = (31, 50)

    def __post_init__(self):
        if self.value_dist not in ("uniform", "beta"):
            raise ValueError(f"unknown value distribution: {self.value_dist}")
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if min(self.n_range_train) < 2 or min(self.n_range_test) < 2:
            raise ValueError("bidder counts must be >= 2")

    @classmethod
    def from_index(cls, index: int, **overrides) -> "AuctionScenario":
        if index == 1:
            return cls(value_dist="uniform", **overrides)
        if index == 2:
            return cls(value_dist="beta", **overrides)
        if index == 3:
            return cls(value_dist="uniform", overbid_sigma=0.5, **overrides)
        raise ValueError(f"auction scenario must be 1, 2, or 3, got {index}")


@dataclass(frozen=True)
class AuctionData:
    """Observed bids of M auctions with varying bidder counts."""

    n_bidders: np.ndarray
    bids: tuple[np.ndarray, ...]
    winning_bids: np.ndarray = field(default=None)

    def __post_init__(self):
        n = np.asarray(self.n_bidders, dtype=int)
        object.__setattr__(self, "n_bidders", n)
        object.__setattr__(self, "bids", tuple(np.asarray(b, float) for b in self.bids))
        if self.winning_bids is None:
            object.__setattr__(
                self, "winning_bids", np.array([b.max() for b in self.bids])
            )
        else:
            object.__setattr__(self, "winning_bids", np.asarray(self.winning_bids, float))
        for m, b in enumerate(self.bids):
            if b.shape[0] != n[m]:
                raise ValueError(f"auction {m} has {b.shape[0]} bids for {n[m]} bidders")
            if not np.isclose(self.winning_bids[m], b.max()):
                raise ValueError(f"auction {m} winning bid is not the maximum bid")

    def to_dataset(self) -> Dataset:
        """(bidder count, winning bid) pairs for conditional-mean estimation."""
        return Dataset(self.n_bidders.astype(float)[:, None], self.winning_bids)


def _beta_dist(shape: tuple[float, float]):
    return scipy.stats.beta(*shape)


def _beta_logcdf(x, shape: tuple[float, float]) -> np.ndarray:
    # betainc underflows only below ~1e-154 for these shapes; the clip keeps
    # the log finite without touching any value a simulation can produce
    cdf = scipy.special.betainc(shape[0], shape[1], np.clip(x, 0.0, 1.0))
    return np.log(np.maximum(cdf, 1e-300))


def equilibrium_bid(
    v: float, n: int, value_dist: str = "uniform", beta_shape: tuple[float, float] = (2.0, 5.0)
) -> float:
    """Symmetric equilibrium bid of a bidder with value ``v`` among ``n``.

    The uniform case is the exact closed form; the beta case evaluates the
    shading integral by adaptive quadrature (absolute tolerance 1e-10), using
    the numerically stable ratio form ``exp((n-1) * (log F(x) - log F(v)))``.
    """
    if not 0.0 <= v <= 1.0:
        raise ValueError("value must lie in [0, 1]")
    if n < 2:
        raise ValueError("need at least two bidders")
    if value_dist == "uniform":
        return (n - 1) / n * v
    if v == 0.0:
        return 0.0
    log_fv = _beta_logcdf(v, beta_shape)

    def integrand(x):
        return np.exp((n - 1) * (_beta_logcdf(x, beta_shape) - log_fv))

    shade, _ = scipy.integrate.quad(
        integrand, 0.0, v, epsabs=1e-11, epsrel=1e-11, limit=200
    )
    return v - shade


@functools.lru_cache(maxsize=8)
def _gl_rule(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def _beta_bid_batch(
    values: np.ndarray, n: int, beta_shape: tuple[float, float], n_nodes: int = 256
) -> np.ndarray:
    """Vectorized equilibrium bids for beta-distributed values.

    Evaluates the shading integral with the substitutions ``x = v u`` and
    ``u = 1 - (1 - s)^2``; the latter clusters quadrature nodes where the
    integrand's mass concentrates (near ``u = 1`` for many bidders), so a
    fixed Gauss-Legendre rule reaches quadrature-level accuracy for the whole
    batch in one pass. Agrees with :func:`equilibrium_bid` to ~1e-10.
    """
    v = np.asarray(values, dtype=float).ravel()
    s, w = _gl_rule(n_nodes)
    u = 1.0 - (1.0 - s) ** 2
    jacobian = 2.0 * (1.0 - s)
    positive = v > 0.0
    vp = v[positive]
    log_ratio = (
        _beta_logcdf(vp[:, None] * u[None, :], beta_shape)
        - _beta_logcdf(vp, beta_shape)[:, None]
    )
    shade = vp * ((np.exp((n - 1) * log_ratio) * jacobian[None, :]) @ w)
    out = np.zeros_like(v)
    out[positive] = vp - shade
    return out


@functools.lru_cache(maxsize=256)
def _beta_bid_interpolator(n: int, beta_shape: tuple[float, float], nodes: int = 161):
    """Barycentric interpolant of the beta-value bid function on [0, 1].

    The bid function is smooth on the closed interval, so Chebyshev-Lobatto
    nodes give near machine-precision interpolation; used inside scalar
    quadratures where batch evaluation does not apply. The barycentric
    weights of these nodes have the closed form ``(-1)^j``, halved at both
    ends; passing them keeps scipy from computing them in a random node
    order, which would make the interpolant differ in the last bit between
    processes.
    """
    grid = 0.5 * (1.0 - np.cos(np.linspace(0.0, np.pi, nodes)))
    values = _beta_bid_batch(grid, n, beta_shape)
    weights = (-1.0) ** np.arange(nodes)
    weights[[0, -1]] *= 0.5
    return scipy.interpolate.BarycentricInterpolator(grid, values, wi=weights)


def _bid_vector(values: np.ndarray, n: int, scenario: AuctionScenario) -> np.ndarray:
    if scenario.value_dist == "uniform":
        return (n - 1) / n * values
    return _beta_bid_batch(values, n, scenario.beta_shape)


def simulate_auctions(scenario: AuctionScenario, rng: SeededRng) -> AuctionData:
    """Simulate M auctions with bidder counts uniform on the training range.

    Bids are equilibrium bids of i.i.d. private values, optionally multiplied
    by i.i.d. half-normal overbidding factors; the winning bid is the maximum
    submitted bid.
    """
    gen = rng.generator()
    lo, hi = scenario.n_range_train
    n_bidders = gen.integers(lo, hi + 1, size=scenario.M)
    values = []
    for n in n_bidders:
        if scenario.value_dist == "uniform":
            values.append(gen.uniform(0.0, 1.0, size=n))
        else:
            values.append(gen.beta(*scenario.beta_shape, size=n))
    if scenario.value_dist == "uniform":
        bids = [_bid_vector(v, int(n), scenario) for v, n in zip(values, n_bidders)]
    else:
        # one quadrature batch per distinct bidder count
        bids = [None] * scenario.M
        for n in np.unique(n_bidders):
            where = np.flatnonzero(n_bidders == n)
            flat = _bid_vector(np.concatenate([values[m] for m in where]), int(n), scenario)
            offset = 0
            for m in where:
                bids[m] = flat[offset : offset + n]
                offset += n
    if scenario.overbid_sigma is not None:
        bids = [
            b * np.abs(gen.normal(0.0, scenario.overbid_sigma, size=b.shape[0]))
            for b in bids
        ]
    return AuctionData(n_bidders, tuple(bids))


@functools.lru_cache(maxsize=1024)
def _beta_truth(n: int, beta_shape: tuple[float, float]) -> float:
    # winning bid = bid of the maximum value, whose density is n F^{n-1} f
    dist = _beta_dist(beta_shape)
    interp = _beta_bid_interpolator(n, beta_shape)

    def integrand(v):
        return interp(v) * np.exp((n - 1) * _beta_logcdf(v, beta_shape) + dist.logpdf(v))

    value, _ = scipy.integrate.quad(
        integrand, 0.0, 1.0, epsabs=1e-11, epsrel=1e-11, limit=200
    )
    return n * value


@functools.lru_cache(maxsize=8)
def _overbid_max_table(
    sigma: float, n_max: int, draws: int, seed: int, batches: int = 20
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo ``E[max of n draws of eta * v]`` for every n up to n_max.

    Uses a pooled sample: with the empirical distribution of ``draws``
    products, the expected n-maximum is the order-statistic average
    ``sum_k u_(k) * ((k/S)^n - ((k-1)/S)^n)``. Standard errors come from
    splitting the pool into batches.
    """
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    u = np.abs(gen.normal(0.0, sigma, size=draws)) * gen.uniform(0.0, 1.0, size=draws)
    ns = np.arange(2, n_max + 1)

    def plugin(sample: np.ndarray) -> np.ndarray:
        s = np.sort(sample)
        size = s.shape[0]
        k = np.arange(size + 1) / size
        out = np.empty(ns.shape[0])
        for i, n in enumerate(ns):
            w = k[1:] ** n - k[:-1] ** n
            out[i] = w @ s
        return out

    estimate = plugin(u)
    batch_vals = np.stack([plugin(part) for part in np.array_split(u, batches)])
    se = batch_vals.std(axis=0, ddof=1) / np.sqrt(batches)
    values = np.full(n_max + 1, np.nan)
    errors = np.full(n_max + 1, np.nan)
    values[2:] = estimate
    errors[2:] = se
    return values, errors


def overbid_truth_with_se(scenario: AuctionScenario, n: int) -> tuple[float, float]:
    """Monte Carlo expected winning bid and its standard error, overbid case."""
    values, ses = _overbid_max_table(
        scenario.overbid_sigma,
        max(n, scenario.n_range_test[1]),
        OVERBID_TRUTH_DRAWS,
        _OVERBID_TRUTH_SEED,
    )
    factor = (n - 1) / n
    return factor * float(values[n]), factor * float(ses[n])


def true_expected_winning_bid(scenario: AuctionScenario, n: int) -> float:
    """Expected winning bid under the scenario's true mechanism.

    Uniform values: exact ``(n - 1) / (n + 1)``. Beta values: quadrature of
    the winning bid against the maximum-value density. Overbidding: Monte
    Carlo with a fixed internal seed (see :func:`overbid_truth_with_se` for
    the standard error).
    """
    if n < 2:
        raise ValueError("need at least two bidders")
    if scenario.overbid_sigma is not None:
        return overbid_truth_with_se(scenario, n)[0]
    if scenario.value_dist == "uniform":
        return (n - 1) / (n + 1)
    return _beta_truth(n, scenario.beta_shape)


class UniformIpvBenchmark(StructuralBenchmark):
    """Structural model: uniform independent private values, equilibrium bids.

    Values are identified from bids by ``v = n / (n - 1) * b``, and the
    winning-bid prediction ``(n - 1) / (n + 1)`` involves no free parameter,
    so the model requires no estimation and its predictions have zero
    variance.
    """

    identifier = "uniform-ipv-auction"

    def implied_mean(self, x) -> np.ndarray:
        n = np.asarray(x, dtype=float)
        n = n.ravel() if n.ndim <= 1 else n[:, 0]
        return (n - 1.0) / (n + 1.0)

    def simulate(self, domain: DomainSpec, size: int, rng: SeededRng) -> Dataset:
        gen = rng.generator()
        lo = int(np.ceil(domain.lower[0]))
        hi = int(np.floor(domain.upper[0]))
        n = gen.integers(lo, hi + 1, size=size)
        # max of n uniforms has cdf v^n; invert for a single draw per auction
        top_value = gen.uniform(0.0, 1.0, size=size) ** (1.0 / n)
        winning = (n - 1.0) / n * top_value
        return Dataset(n.astype(float)[:, None], winning)


class UniformAuctionModel(BenchmarkFamily):
    """Benchmark family for the auction experiments (parameter-free)."""

    def estimate(self, data: Dataset, rng: SeededRng) -> UniformIpvBenchmark:
        return UniformIpvBenchmark()


SRE_POLY_DEGREE = 5
SRE_PENALTY_WEIGHTS = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)  # heavier on higher degrees
STAT_MAX_DEGREE = 5


def auction_penalty(data_size: int, lambda_grid=None) -> PenaltySpec:
    grid = default_lambda_grid(data_size) if lambda_grid is None else lambda_grid
    return PenaltySpec(grid, np.asarray(SRE_PENALTY_WEIGHTS))


def auction_experiment(
    scenario: AuctionScenario,
    estimators: tuple[str, ...] = ("statistical", "structural", "sre"),
    trials: int = 100,
    rng: SeededRng | None = None,
    lambda_grid=None,
    forward_K: int = 6,
    trial_indices=None,
) -> tuple[list[tuple], dict]:
    """Monte Carlo comparison of the three estimators on one auction scenario.

    Per trial: simulate training auctions on the in-domain bidder range, fit
    each requested estimator, and record predicted expected winning bids on
    the integer in-domain and out-of-domain grids against the true values.

    Returns
    -------
    (records, metadata)
        ``records`` rows are ``(trial, estimator, domain, x, truth,
        prediction)``; ``metadata`` documents grids and truth standard errors.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = rng if rng is not None else SeededRng(0)
    grid_in = np.arange(scenario.n_range_train[0], scenario.n_range_train[1] + 1)
    grid_out = np.arange(scenario.n_range_test[0], scenario.n_range_test[1] + 1)
    truth_in = np.array([true_expected_winning_bid(scenario, int(n)) for n in grid_in])
    truth_out = np.array([true_expected_winning_bid(scenario, int(n)) for n in grid_out])
    target = DomainSpec.interval(*scenario.n_range_test)
    synth_domain = DomainSpec.interval(scenario.n_range_train[0], scenario.n_range_test[1])
    cv_plan = CvPlan(kind="forward", K=forward_K, target=target)
    benchmark_family = UniformAuctionModel()

    records: list[tuple] = []
    for trial in range(trials) if trial_indices is None else trial_indices:
        trial_rng = rng.stream(trial)
        try:
            data = simulate_auctions(scenario, trial_rng.split(0))
            supervised = data.to_dataset()
            fits = {}
            if "statistical" in estimators:
                x, y = supervised.inputs[:, 0], supervised.outcome
                degree = select_degree_aic(x, y, STAT_MAX_DEGREE)
                fits["statistical"] = fit_polynomial(x, y, degree).predict
            if "structural" in estimators:
                fits["structural"] = UniformIpvBenchmark().implied_mean
            if "sre" in estimators:
                penalty = auction_penalty(supervised.n, lambda_grid)
                sre_fit = sre_sample_split(
                    supervised,
                    benchmark_family,
                    PolynomialFeatures(SRE_POLY_DEGREE),
                    penalty,
                    cv_plan,
                    trial_rng.split(1),
                    synthetic_domain=synth_domain,
                )
                fits["sre"] = sre_fit.predict
            for name, predictor in fits.items():
                for domain, grid, truth in (
                    ("in", grid_in, truth_in),
                    ("out", grid_out, truth_out),
                ):
                    preds = np.asarray(predictor(grid.astype(float)[:, None])).ravel()
                    records.extend(
                        (trial, name, domain, float(x), float(t), float(p))
                        for x, t, p in zip(grid, truth, preds)
                    )
        except Exception as exc:
            raise RuntimeError(f"trial {trial} failed: {exc}") from exc

    metadata = {
        "scenario": scenario.__dict__.copy(),
        "grid_in": grid_in.tolist(),
        "grid_out": grid_out.tolist(),
    }
    if scenario.overbid_sigma is not None:
        metadata["truth_mc_se"] = {
            int(n): overbid_truth_with_se(scenario, int(n))[1]
            for n in np.concatenate([grid_in, grid_out])
        }
    return records, metadata
