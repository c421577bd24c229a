"""First-price sealed-bid auction experiments.

Risk-neutral bidders with independent private values ``v ~ F`` bid to
maximize ``(v - b) * P(win)``; the symmetric equilibrium strategy is::

    b(v) = v - (1 / F(v)^(n-1)) * integral_0^v F(x)^(n-1) dx

which for uniform values reduces to ``b(v) = (n - 1) / n * v``. By revenue
equivalence the expected winning bid equals the expected second-highest
value, ``integral_0^1 1 - F^n - n F^(n-1) (1 - F) dv``; for uniform values
that is ``(n - 1) / (n + 1)``.

Three data-generating scenarios share one structural model (uniform values,
equilibrium bidding): uniform values, Beta(2, 5) values, and uniform values
with multiplicative overbidding ``eta ~ |N(0, sigma^2)|``. The experiment
fits a statistical polynomial (AIC degree), the structural model, and the
regularized polynomial on auctions with 5-30 bidders, then scores all three
on bidder counts 5-30 (in-domain) and 31-50 (out-of-domain).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.special

from .data import Dataset, DomainSpec, SeededRng, partition
from .estimators import fit_polynomial, select_degree_aic
from .sre import (
    PenaltySpec,
    PolynomialFeatures,
    SREFit,
    default_lambda_grid,
    fit_theta_m,
)
from .tuning import forward_cv, ridge_fold

OVERBID_TRUTH_DRAWS = 4_000_000
BID_QUADRATURE_NODES = 256
_OVERBID_TRUTH_SEED = 181_000_001  # fixed: truth values are config-independent

# the fields that set each scenario of the study apart
_SCENARIO_FIELDS = {1: {"value_dist": "uniform"}, 2: {"value_dist": "beta"},
                    3: {"value_dist": "uniform", "overbid_sigma": 0.5}}


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
        if self.overbid_sigma is not None and self.value_dist != "uniform":
            # the overbid truth table draws uniform values
            raise ValueError("overbidding is modelled for uniform values only")
        if self.overbid_sigma is not None and not 0.0 <= self.overbid_sigma < np.inf:
            raise ValueError("overbid_sigma must be nonnegative and finite")
        if not all(0.0 < a < np.inf for a in self.beta_shape):
            raise ValueError("beta_shape entries must be positive and finite")
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if min(self.n_range_train) < 2 or min(self.n_range_test) < 2:
            raise ValueError("bidder counts must be >= 2")
        if any(lo > hi for lo, hi in (self.n_range_train, self.n_range_test)):
            raise ValueError("bidder count ranges must run from low to high")

    @classmethod
    def from_index(cls, index: int, **overrides) -> "AuctionScenario":
        """Scenario 1, 2 or 3 of the study; ``overrides`` replace its fields."""
        if index not in _SCENARIO_FIELDS:
            raise ValueError(f"auction scenario must be 1, 2, or 3, got {index}")
        return cls(**{**_SCENARIO_FIELDS[index], **overrides})


@dataclass(frozen=True)
class AuctionData:
    """Bidder count and winning bid of each of M auctions."""

    n_bidders: np.ndarray
    winning_bids: np.ndarray

    def to_dataset(self) -> Dataset:
        """(bidder count, winning bid) pairs for conditional-mean estimation."""
        return Dataset(self.n_bidders.astype(float)[:, None], self.winning_bids)


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


@functools.lru_cache(maxsize=1)
def _gl_rule() -> tuple[np.ndarray, np.ndarray]:
    """The ``BID_QUADRATURE_NODES``-point Gauss-Legendre rule on ``[0, 1]``."""
    nodes, weights = np.polynomial.legendre.leggauss(BID_QUADRATURE_NODES)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def _beta_bid_batch(values: np.ndarray, n: int, beta_shape: tuple[float, float]) -> np.ndarray:
    """Vectorized equilibrium bids for beta-distributed values.

    Evaluates the shading integral with the substitutions ``x = v u`` and
    ``u = 1 - (1 - s)^2``; the latter clusters quadrature nodes where the
    integrand's mass concentrates (near ``u = 1`` for many bidders), so a
    fixed Gauss-Legendre rule reaches quadrature-level accuracy for the whole
    batch in one pass. Agrees with :func:`equilibrium_bid` to ~1e-10.
    """
    v = np.asarray(values, dtype=float).ravel()
    s, w = _gl_rule()
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


def simulate_auctions(scenario: AuctionScenario, rng: SeededRng) -> AuctionData:
    """Simulate the winning bids of M auctions with bidder counts uniform on
    the training range.

    Bids are equilibrium bids of i.i.d. private values, optionally multiplied
    by i.i.d. half-normal overbidding factors; the winning bid is the maximum
    submitted bid. Without overbidding the equilibrium bid increases with the
    value, so only each auction's top value is bid. The draws come in a fixed
    order: bidder counts, then each auction's values in auction order, then
    each auction's overbidding factors in auction order.
    """
    gen = rng.generator()
    lo, hi = scenario.n_range_train
    n_bidders = gen.integers(lo, hi + 1, size=scenario.M)
    starts = np.cumsum(n_bidders) - n_bidders
    total = int(n_bidders.sum())
    if scenario.value_dist == "uniform":
        values = gen.uniform(0.0, 1.0, size=total)
    else:
        values = gen.beta(*scenario.beta_shape, size=total)
    shading = (n_bidders - 1) / n_bidders
    if scenario.overbid_sigma is not None:
        # overbidding reorders the bidders, so every bid competes
        bids = np.repeat(shading, n_bidders) * values
        bids *= np.abs(gen.normal(0.0, scenario.overbid_sigma, size=total))
        return AuctionData(n_bidders, np.maximum.reduceat(bids, starts))
    top = np.maximum.reduceat(values, starts)
    if scenario.value_dist == "uniform":
        return AuctionData(n_bidders, shading * top)
    winning = np.empty(scenario.M)
    for n in np.unique(n_bidders):
        where = n_bidders == n
        winning[where] = _beta_bid_batch(top[where], int(n), scenario.beta_shape)
    return AuctionData(n_bidders, winning)


@functools.lru_cache(maxsize=1024)
def _beta_truth(n: int, beta_shape: tuple[float, float]) -> float:
    # revenue equivalence: the mean of the second-highest value, integrated
    # from its survival function (see the module docstring)
    def survival(v):
        F = scipy.special.betainc(beta_shape[0], beta_shape[1], v)
        return 1.0 - F**n - n * F ** (n - 1) * (1.0 - F)

    value, _ = scipy.integrate.quad(
        survival, 0.0, 1.0, epsabs=1e-11, epsrel=1e-11, limit=200
    )
    return value


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
            p = k**n
            out[i] = (p[1:] - p[:-1]) @ s
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

    Uniform values: exact ``(n - 1) / (n + 1)``. Beta values: by revenue
    equivalence, the expected second-highest value, one quadrature of its
    survival function. Overbidding: Monte Carlo with a fixed internal seed
    (see :func:`overbid_truth_with_se` for the standard error).
    """
    if n < 2:
        raise ValueError("need at least two bidders")
    if scenario.overbid_sigma is not None:
        return overbid_truth_with_se(scenario, n)[0]
    if scenario.value_dist == "uniform":
        return (n - 1) / (n + 1)
    return _beta_truth(n, scenario.beta_shape)


def uniform_ipv_mean(x) -> np.ndarray:
    """Expected winning bid ``(n - 1) / (n + 1)`` at bidder counts ``x`` under
    the structural model: uniform independent private values, equilibrium bids.

    Values are identified from bids by ``v = n / (n - 1) * b``, and the
    prediction involves no free parameter, so the model requires no
    estimation and its predictions have zero variance.
    """
    n = np.asarray(x, dtype=float)
    n = n.ravel() if n.ndim <= 1 else n[:, 0]
    return (n - 1.0) / (n + 1.0)


SRE_POLY_DEGREE = 5
SRE_PENALTY_WEIGHTS = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)  # heavier on higher degrees
STAT_MAX_DEGREE = 5
FORWARD_K = 6
SYNTHETIC_ROWS = 1000


def sre_auction(
    data: Dataset,
    scenario: AuctionScenario,
    rng: SeededRng,
    lambda_grid=None,
    forward_K: int = FORWARD_K,
) -> SREFit:
    """Sample-split polynomial fit shrunk toward the uniform-values model.

    The sample is halved; the structural model has no free parameter, so the
    first half goes unused and the second carries forward cross-validation
    (validating nearest the out-of-domain bidder counts) and the final fit.
    The benchmark's rows are its expected winning bids on an even grid of
    ``SYNTHETIC_ROWS`` bidder counts over both domains; they are projected
    once, on the fitting half's standardization, and each fold re-expresses
    the projection on its own. The cross-validation trace is ``fit.parts[0]``.
    """
    grid = default_lambda_grid(data.n) if lambda_grid is None else lambda_grid
    penalty = PenaltySpec(grid, np.asarray(SRE_PENALTY_WEIGHTS))
    features = PolynomialFeatures(SRE_POLY_DEGREE)
    n = np.linspace(scenario.n_range_train[0], scenario.n_range_test[1], SYNTHETIC_ROWS)
    synthetic = Dataset(n[:, None], uniform_ipv_mean(n))
    _, fit_half = partition(data, 2, rng.split(0))
    final = ridge_fold(fit_half, features, penalty,
                       functools.partial(fit_theta_m, features, synthetic))
    target = DomainSpec.interval(*scenario.n_range_test)
    return final.fit(forward_cv(final, fit_half, forward_K, target, rng.split(3)))


def auction_experiment(
    scenario: AuctionScenario,
    estimators: tuple[str, ...] = ("statistical", "structural", "sre"),
    trials: int = 100,
    rng: SeededRng | None = None,
    lambda_grid=None,
    forward_K: int = FORWARD_K,
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
                fits["structural"] = uniform_ipv_mean
            if "sre" in estimators:
                fits["sre"] = sre_auction(supervised, scenario, trial_rng.split(1), lambda_grid,
                                          forward_K).predict
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
