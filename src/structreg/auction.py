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
import math
from dataclasses import dataclass

import numpy as np

# scipy.special is imported inside _beta_cdf, the one place that uses it: only
# beta-value auctions with a non-integer shape or one past
# BINOMIAL_CDF_MAX_DEGREE need it, and importing it costs more than the rest
# of the package. After the first call an import is one sys.modules lookup.
# scipy.integrate is imported by the reference equilibrium_bid alone.
from .data import DataError, Dataset, DomainSpec, SeededRng, _partition_labels
from .estimators import select_degree_aic
from .metrics import Curves, _each, _run_trials
from .sre import (
    PenaltySpec,
    PolynomialFeatures,
    SREFit,
    default_lambda_grid,
    fit_theta_m,
    predict_features,
)
from .tuning import RidgeFold, forward_cv

OVERBID_TRUTH_DRAWS = 4_000_000
BID_QUADRATURE_NODES = 256
_BID_BLOCK = 2048  # bid rows per block: bounds the (rows x nodes) arrays of a batch
# the beta truth's double-exponential rule: steps in t, coarsest to finest,
# the agreement of two successive steps it stops at, and the half-width of
# its t range (the weight at |t| = 4 is below 1e-35)
TRUTH_STEP_COARSEST = 2.0**-6
TRUTH_STEP_FINEST = 2.0**-12
TRUTH_RTOL = 1e-14
TRUTH_T_MAX = 4.0
# integer beta shapes with a + b up to this take the value CDF as a binomial
# sum, the others scipy's betainc. On 25,600 values (one block of bids) the
# sum's b - 1 Horner steps cost as much as betainc at Beta(1, 31) and 0.41 of
# it at Beta(16, 16) (one 2-core x86 host). Up to this degree the sum stayed
# within 11 eps of 50-digit values at sampled points where the CDF exceeds
# 1e-290, and within 0.95 (a + b) eps of betainc
BINOMIAL_CDF_MAX_DEGREE = 32
_OVERBID_TRUTH_SEED = 181_000_001  # fixed: truth values are config-independent
_OVERBID_BLOCK = 1 << 13  # overbid rows per block: in cache, and one BLAS thread per dot

# the fields that set each scenario of the study apart
_SCENARIO_FIELDS = {1: {"value_dist": "uniform"}, 2: {"value_dist": "beta"},
                    3: {"value_dist": "uniform", "overbid_sigma": 0.5}}


def _value_law(value_dist: str, beta_shape) -> tuple[float, float]:
    """The beta shape of a checked value law, as a tuple of floats: the
    distribution must be uniform or beta, and the shape two positive, finite
    numbers (checked for either distribution)."""
    if value_dist not in ("uniform", "beta"):
        raise ValueError(f"unknown value distribution: {value_dist}")
    if len(beta_shape) != 2:
        raise ValueError("beta_shape must have exactly two entries")
    shape = tuple(float(a) for a in beta_shape)
    if not all(0.0 < a < np.inf for a in shape):
        raise ValueError("beta_shape entries must be positive and finite")
    return shape


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
        # a tuple of floats: the beta truth's cache key must be hashable
        object.__setattr__(self, "beta_shape", _value_law(self.value_dist, self.beta_shape))
        if self.overbid_sigma is not None and self.value_dist != "uniform":
            # the overbid truth table draws uniform values
            raise ValueError("overbidding is modelled for uniform values only")
        if self.overbid_sigma is not None and not 0.0 <= self.overbid_sigma < np.inf:
            raise ValueError("overbid_sigma must be nonnegative and finite")
        if self.M < 1:
            raise ValueError("M must be >= 1")
        # named by their config keys, n_train and n_test
        for key, (lo, hi) in (("n_train", self.n_range_train), ("n_test", self.n_range_test)):
            if min(lo, hi) < 2:
                raise ValueError(f"{key} = [{lo}, {hi}]: bidder counts must be >= 2")
            if lo > hi:
                raise ValueError(f"{key} = [{lo}, {hi}]: bidder counts must run from low to high")

    @classmethod
    def from_index(cls, index: int, **overrides) -> "AuctionScenario":
        """Scenario 1, 2 or 3 of the study; ``overrides`` replace its fields."""
        if index not in _SCENARIO_FIELDS:
            raise ValueError(f"auction scenario must be 1, 2, or 3, got {index}")
        return cls(**{**_SCENARIO_FIELDS[index], **overrides})


def _beta_cdf(a: float, b: float, x, y) -> np.ndarray:
    """The Beta(a, b) CDF ``I_x(a, b)`` at ``x`` in [0, 1], given ``y = 1 - x``.

    For integer shapes with ``a + b <= BINOMIAL_CDF_MAX_DEGREE`` it is the
    finite sum of positive terms (DLMF 8.17.5)
    ``sum_{j=a}^{m} C(m, j) x^j y^(m-j)``, ``m = a + b - 1``, evaluated as
    ``x^a`` times a polynomial in ``x`` by Horner's rule, with the running
    powers of ``y`` taken from the caller's own ``y``, in place. A complement
    ``1 - I_x(a, b)`` is ``_beta_cdf(b, a, y, x)``: passing a ``y`` formed
    directly keeps it exact near ``x = 1``. Other shapes take
    ``scipy.special.betainc(a, b, x)``.
    """
    if not (float(a).is_integer() and float(b).is_integer()
            and a + b <= BINOMIAL_CDF_MAX_DEGREE):
        import scipy.special

        return scipy.special.betainc(a, b, x)
    a, b = int(a), int(b)
    m = a + b - 1
    x = np.asarray(x, dtype=float)
    cdf = np.ones_like(x)  # C(m, m), the coefficient of x^(b-1)
    y_power = np.ones_like(x)
    term = np.empty_like(x)
    for k in range(b - 2, -1, -1):
        y_power *= y
        cdf *= x
        np.multiply(y_power, math.comb(m, a + k), out=term)
        cdf += term
    cdf *= x**a
    return np.minimum(cdf, 1.0, out=cdf)  # its roundings can pass 1 by a few ulp


def _beta_logcdf(x, shape: tuple[float, float]) -> np.ndarray:
    """``log F(x)`` of Beta(shape) values, by :func:`_beta_cdf`, at ``x``
    clipped to [0, 1]. The CDF is floored at 1e-300 to keep the log finite;
    at Beta(2, 5) it falls below that only for ``x`` under ~2e-151, far below
    any value a simulation draws."""
    x = np.clip(x, 0.0, 1.0)
    return np.log(np.maximum(_beta_cdf(*shape, x, 1.0 - x), 1e-300))


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
    beta_shape = _value_law(value_dist, beta_shape)
    if value_dist == "uniform":
        return (n - 1) / n * v
    if v == 0.0:
        return 0.0
    import scipy.integrate

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


def _beta_bid_batch(values: np.ndarray, n, beta_shape: tuple[float, float]) -> np.ndarray:
    """Vectorized equilibrium bids for beta-distributed values among ``n``
    bidders, one count for all values or one per value.

    Evaluates the shading integral with the substitutions ``x = v u`` and
    ``u = 1 - (1 - s)^2``; the latter clusters quadrature nodes where the
    integrand's mass concentrates (near ``u = 1`` for many bidders), so a
    fixed Gauss-Legendre rule reaches quadrature-level accuracy for the whole
    batch in one pass, ``_BID_BLOCK`` values at a time. Each value's
    quadrature sum is its own row's ``einsum``, not a BLAS product, which
    would round a row by its place in the call and by the thread that takes
    it: a bid's bits depend on its value and count alone. A value of 0 bids
    0. Agrees with :func:`equilibrium_bid` to ~1e-10.
    """
    v = np.asarray(values, dtype=float).ravel()
    counts = np.broadcast_to(np.asarray(n, dtype=float).ravel(), v.shape)
    s, w = _gl_rule()
    u = 1.0 - (1.0 - s) ** 2
    jacobian = 2.0 * (1.0 - s)
    out = np.empty_like(v)
    for start in range(0, v.size, _BID_BLOCK):
        rows = slice(start, start + _BID_BLOCK)
        vb = v[rows]
        log_ratio = (
            _beta_logcdf(vb[:, None] * u[None, :], beta_shape)
            - _beta_logcdf(vb, beta_shape)[:, None]
        )
        integrand = np.exp((counts[rows] - 1.0)[:, None] * log_ratio) * jacobian
        out[rows] = np.where(vb > 0.0, vb - vb * np.einsum("ij,j->i", integrand, w), 0.0)
    return out


def simulate_auctions(scenario: AuctionScenario, rng: SeededRng) -> Dataset:
    """Simulate M auctions with bidder counts uniform on the training range:
    each auction's bidder count (as a float input) and its winning bid.

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
        winning = np.maximum.reduceat(bids, starts)
    elif scenario.value_dist == "uniform":
        winning = shading * np.maximum.reduceat(values, starts)
    else:
        winning = _beta_bid_batch(np.maximum.reduceat(values, starts), n_bidders,
                                  scenario.beta_shape)
    return Dataset(n_bidders.astype(float)[:, None], winning)


class BetaTruthError(ArithmeticError):
    """The double-exponential rule did not resolve a beta-value truth."""


def _de_nodes(step: float, first: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes ``x``, ``1 - x`` and weights ``dx/dt`` of the double-exponential
    rule ``x = (1 + tanh(pi/2 sinh t)) / 2`` at ``t = k * step``, ``|t| <= TRUTH_T_MAX``:
    every ``k`` for the first step, the odd ``k`` (the nodes a halved step adds)
    after it. ``1 - x`` is formed directly, so it keeps full precision near 1."""
    last = round(TRUTH_T_MAX / step)
    t = step * (np.arange(-last, last + 1) if first else np.arange(1 - last, last, 2))
    e = np.exp(-np.pi * np.sinh(t))
    x, y = 1.0 / (1.0 + e), e / (1.0 + e)
    return x, y, np.pi * np.cosh(t) * x * y


@functools.lru_cache(maxsize=1024)
def _beta_truth(n: int, beta_shape: tuple[float, float]) -> float:
    """Expected second-highest of ``n`` Beta values, the integral over [0, 1]
    of its survival function ``1 - F^n - n F^(n-1) (1 - F)``.

    The double-exponential (tanh-sinh) rule of Takahasi & Mori (1974) halves
    its step from ``TRUTH_STEP_COARSEST`` until two successive sums agree to
    ``TRUTH_RTOL`` relative, and raises :class:`BetaTruthError` when they still
    differ at ``TRUTH_STEP_FINEST``. ``F`` and ``1 - F`` are both
    :func:`_beta_cdf`: ``1 - F`` is ``I_y(b, a)`` at the rule's own
    ``y = 1 - x``, formed directly, so nothing cancels near ``v = 1``.
    """
    a, b = beta_shape
    total, previous, step = 0.0, np.nan, TRUTH_STEP_COARSEST
    while step >= TRUTH_STEP_FINEST:
        x, y, w = _de_nodes(step, first=step == TRUTH_STEP_COARSEST)
        F, G = _beta_cdf(a, b, x, y), _beta_cdf(b, a, y, x)
        total += (1.0 - F**n - n * F ** (n - 1) * G) @ w
        value = step * total
        change = abs(value - previous) / abs(value)
        if change <= TRUTH_RTOL:
            return float(value)
        previous, step = value, step / 2
    raise BetaTruthError(
        f"the double-exponential rule did not resolve the beta truth for n = {n}, "
        f"beta_shape = {beta_shape}: halving the step to {2 * step:g} moved the "
        f"integral by {change:.2g} relative"
    )


def _overbid_sample(gen: np.random.Generator, sigma: float, draws: int) -> np.ndarray:
    """``|N(0, sigma^2)| * U(0, 1)`` draws, in place: the normals, then the
    uniforms block by block (the same stream as one call of ``draws``)."""
    u = gen.normal(0.0, sigma, size=draws)
    np.abs(u, out=u)
    for start in range(0, draws, _OVERBID_BLOCK):
        block = u[start:start + _OVERBID_BLOCK]
        block *= gen.uniform(0.0, 1.0, size=block.shape[0])
    return u


def _order_stat_means(s: np.ndarray, n_max: int) -> np.ndarray:
    """``sum_k s_(k) * ((k/S)^n - ((k-1)/S)^n)`` for n = 2..n_max and sorted ``s``,
    by Abel summation ``s_(S) - sum_{k<S} (k/S)^n * (s_(k+1) - s_(k))``: one
    sweep, a block of rows at a time, the powers raised by one product per n."""
    size = s.shape[0]
    sums = np.zeros(n_max - 1)
    for start in range(0, size - 1, _OVERBID_BLOCK):
        gaps = np.diff(s[start:start + _OVERBID_BLOCK + 1])
        q = np.arange(start + 1, start + 1 + gaps.shape[0]) / size
        p = q.copy()
        for i in range(n_max - 1):
            p *= q
            sums[i] += p @ gaps
    return s[-1] - sums


@functools.lru_cache(maxsize=8)
def _overbid_max_table(
    sigma: float, n_max: int, draws: int, seed: int, batches: int = 20
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo ``E[max of n draws of eta * v]`` for every n up to n_max.

    Uses a pooled sample: with the empirical distribution of ``draws``
    products, the expected n-maximum is the order-statistic average
    ``sum_k u_(k) * ((k/S)^n - ((k-1)/S)^n)``, one :func:`_order_stat_means`
    sweep for all n. Standard errors come from batches of the pool, each sorted
    and swept before the pool is sorted in place (4M draws: ~0.5 s, 32 MB).
    """
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    u = _overbid_sample(gen, sigma, draws)
    batch_vals = np.stack([_order_stat_means(np.sort(part), n_max)
                           for part in np.array_split(u, batches)])
    u.sort()
    values, errors = np.full((2, n_max + 1), np.nan)
    values[2:] = _order_stat_means(u, n_max)
    errors[2:] = batch_vals.std(axis=0, ddof=1) / np.sqrt(batches)
    return values, errors


def overbid_truth_with_se(scenario: AuctionScenario, n: int) -> tuple[float, float]:
    """Monte Carlo expected winning bid and its standard error, overbid case.

    Every count of either range reads one table, built up to the largest of
    them; a table's rows do not depend on how far it runs.
    """
    values, ses = _overbid_max_table(
        scenario.overbid_sigma,
        max(n, scenario.n_range_train[1], scenario.n_range_test[1]),
        OVERBID_TRUTH_DRAWS,
        _OVERBID_TRUTH_SEED,
    )
    factor = (n - 1) / n
    return factor * float(values[n]), factor * float(ses[n])


def true_expected_winning_bid(scenario: AuctionScenario, n: int) -> float:
    """Expected winning bid under the scenario's true mechanism.

    Uniform values: exact ``(n - 1) / (n + 1)``. Beta values: by revenue
    equivalence, the expected second-highest value, the integral of its
    survival function by a double-exponential rule to about 1e-15 relative
    (:func:`_beta_truth`; :class:`BetaTruthError` for a shape too
    concentrated for its finest step), on the value CDF of :func:`_beta_cdf`:
    a binomial sum for integer shapes with ``a + b`` up to
    ``BINOMIAL_CDF_MAX_DEGREE``, ``scipy.special.betainc`` for the others.
    Overbidding: the plug-in mean of the top of n of ``OVERBID_TRUTH_DRAWS``
    Monte Carlo draws with a fixed internal seed, one sweep of the sorted
    sample for all n (see :func:`overbid_truth_with_se`).
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


@functools.lru_cache(maxsize=8)
def _benchmark_projection(lo: int, hi: int) -> np.ndarray:
    """Raw-scale coefficients of the degree-``SRE_POLY_DEGREE`` least-squares
    fit to :func:`uniform_ipv_mean` on an even grid of ``SYNTHETIC_ROWS``
    bidder counts over ``[lo, hi]``, read-only. The structural model has no
    free parameter, so no trial's data enters: every trial of a run, and
    every run of one process with the same ranges, shares one projection."""
    n = np.linspace(lo, hi, SYNTHETIC_ROWS)
    theta_m = fit_theta_m(PolynomialFeatures(SRE_POLY_DEGREE),
                          Dataset(n[:, None], uniform_ipv_mean(n)))
    theta_m.flags.writeable = False
    return theta_m


def sre_auction(samples, scenario: AuctionScenario, rngs, lambda_grid=None,
                forward_K: int = FORWARD_K) -> list[SREFit]:
    """Sample-split polynomial fits shrunk toward the uniform-values model,
    one per sample of a block: samples of one size, each with its own rng.

    Each sample is halved; the structural model has no free parameter, so the
    first half goes unused and the second carries forward cross-validation
    (validating nearest the out-of-domain bidder counts) and the final fit.
    The benchmark is the projection of the model's expected winning bids
    over both domains (:func:`_benchmark_projection`), computed once per
    pair of bidder ranges; each fitting half and each of its splits
    re-express it on their own standardization. Each sample's halves are
    its rng's :func:`~structreg.data.partition_indices`, and the fitting
    halves of the block are gathered into one stacked sample in one pass.
    They are one fold (:meth:`~structreg.tuning.RidgeFold.of_stack`),
    cross-validated by :func:`~structreg.tuning.forward_cv` and fitted as one
    stack, and each sample gets the bits it gets in a block of one. The
    cross-validation trace is ``fit.trace``.

    Cost model (one process, BLAS on one thread, 2-core x86 host): a block
    costs about 0.86 ms of fixed cost, mostly the two stacked solves and the
    two stacked standardizations, plus about 0.21 ms per trial: its two
    generators, which draw its halves and folds (about 35 us), its trace,
    and its share of the stacked solves, held-out errors and fit. It was
    about 0.88 ms plus 0.31 ms per trial while each trial's halves, forward
    rows, benchmark re-expressions and fit were built in turn and the
    public path solver checked what the fold had checked: 1.07, 1.67 and
    7.63 ms for blocks of 1, 4 and 32 trials, from 1.18, 2.03 and 10.74 ms.
    """
    n = samples[0].n
    if any(data.n != n for data in samples):
        raise DataError("the samples of a stack must have one row count")
    grid = default_lambda_grid(n) if lambda_grid is None else lambda_grid
    penalty = PenaltySpec(grid, np.asarray(SRE_PENALTY_WEIGHTS))
    # each sample's fitting half, the second group of its two-way partition,
    # as rows of the block's samples in turn: sample s at row s * n
    half = np.flatnonzero(_partition_labels(n, 2, [rng.split(0) for rng in rngs]) == 1)
    fit_halves = Dataset(np.concatenate([data.inputs for data in samples])[half],
                         np.concatenate([data.outcome for data in samples])[half])
    folds = RidgeFold.of_stack(
        fit_halves, len(samples), PolynomialFeatures(SRE_POLY_DEGREE), penalty,
        _benchmark_projection(scenario.n_range_train[0], scenario.n_range_test[1]))
    target = DomainSpec.interval(*scenario.n_range_test)
    return folds.fit(forward_cv(folds, forward_K, target, [rng.split(3) for rng in rngs]))


def auction_experiment(
    scenario: AuctionScenario,
    estimators: tuple[str, ...] = ("statistical", "structural", "sre"),
    trials: int = 100,
    rng: SeededRng | None = None,
    lambda_grid=None,
    forward_K: int = FORWARD_K,
    trial_indices=None,
) -> tuple[Curves, dict]:
    """Monte Carlo comparison of the three estimators on one auction scenario.

    Per trial: simulate training auctions on the in-domain bidder range, fit
    each requested estimator, and predict expected winning bids on the
    integer in-domain and out-of-domain bidder grids. Each trial of a block
    is simulated on its own stream; the block's AIC searches
    (:func:`structreg.estimators.select_degree_aic`) and second stages
    (:func:`sre_auction`) are then fitted as one stack each, with each
    trial's results the bits it gets alone. Returns the run's
    :class:`~structreg.metrics.Curves` (the trial driver
    :func:`structreg.metrics._run_trials` builds them per estimator and
    domain) and metadata holding the grids and, with overbidding, the
    truth's standard errors.
    """

    def setup(rng):
        grids = {"in": np.arange(scenario.n_range_train[0], scenario.n_range_train[1] + 1),
                 "out": np.arange(scenario.n_range_test[0], scenario.n_range_test[1] + 1)}
        truth = {domain: [true_expected_winning_bid(scenario, int(n)) for n in grid]
                 for domain, grid in grids.items()}
        # every trial predicts at the same points: their inputs, the
        # structural model's values and the SRE fits' raw features
        points = {domain: grid.astype(float)[:, None] for domain, grid in grids.items()}
        structural = {domain: uniform_ipv_mean(x) for domain, x in points.items()}
        features = {domain: PolynomialFeatures(SRE_POLY_DEGREE).transform(x)
                    for domain, x in points.items()}

        def block(trial_rngs):
            samples = _each(lambda trial_rng: simulate_auctions(scenario, trial_rng.split(0)),
                            trial_rngs)
            predictions = {}  # per estimator and domain, one row per trial
            if "statistical" in estimators:
                polys = select_degree_aic(np.stack([data.inputs[:, 0] for data in samples]),
                                          np.stack([data.outcome for data in samples]),
                                          STAT_MAX_DEGREE)
                predictions["statistical"] = {domain: [fit.predict(x) for fit in polys]
                                              for domain, x in points.items()}
            if "structural" in estimators:
                predictions["structural"] = {domain: [values] * len(samples)
                                             for domain, values in structural.items()}
            if "sre" in estimators:
                fits = sre_auction(samples, scenario,
                                   [trial_rng.split(1) for trial_rng in trial_rngs],
                                   lambda_grid, forward_K)
                predictions["sre"] = {domain: predict_features(fits, F)
                                      for domain, F in features.items()}
            return [(truth, {name: {domain: rows[t] for domain, rows in by_domain.items()}
                             for name, by_domain in predictions.items()})
                    for t in range(len(samples))]

        metadata = {"scenario": scenario.__dict__.copy(),
                    "grid_in": grids["in"].tolist(), "grid_out": grids["out"].tolist()}
        if scenario.overbid_sigma is not None:
            metadata["truth_mc_se"] = {int(n): overbid_truth_with_se(scenario, int(n))[1]
                                       for n in np.concatenate(list(grids.values()))}
        return grids, block, metadata

    return _run_trials(trials, rng, trial_indices, setup)
