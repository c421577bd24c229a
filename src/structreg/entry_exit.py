"""Dynamic firm entry and exit in a nonstationary environment.

Firms in state ``j`` (0 = out, 1 = in) choose next-period state ``k`` to
maximize flow payoff plus discounted continuation value plus an i.i.d. type-I
extreme-value shock. Flow payoffs are::

    pi_t[j, k] = (mu + alpha * R_t - c * 1{j = 0}) * 1{k = 1}

so operating pays ``mu + alpha * R_t`` and entrants pay a one-time cost
``c``. Extreme-value shocks make choice probabilities logit in the
choice-specific values and expected values log-sum-exp (plus the
Euler-Mascheroni constant).

Three expectation regimes drive the simulated data: perfect foresight over
the profit path, adaptive expectations (firms treat the current profit as
permanent), and myopia (no continuation value). Adaptive firms, and the
foresight recursion beyond its last period, use the stationary values at a
fixed profit level: the fixed point of the smoothed Bellman map, found by
Newton steps, each a closed-form 2x2 solve per profit level, as the map's
Jacobian is the discounted choice-probability matrix. The structural
estimator assumes the foresight model regardless, exploiting finite
dependence: one-period-ahead choice probabilities difference away the
continuation values, leaving a linear system in ``(mu, alpha, c)`` — exact
on noiseless choice probabilities, and the module's primary correctness
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .data import Dataset, SeededRng
from .estimators import (
    SingularDesignError,
    _arx_columns,
    arx_feature_rows,
    select_arx_order_aic,
    solve_least_squares,
)
from .metrics import Curves, _each, _run_trials
from .sre import LinearFeatures, PenaltySpec, SREFit, default_lambda_grid, fit_theta_m
from .tuning import RidgeFold, rolling_cv

EULER_GAMMA = float(np.euler_gamma)
VALUE_TOL = 1e-12
NEWTON_STEPS = 100
# the entry/exit scenario indices 1, 2, 3 follow the experiment ordering of the
# study design: perfect foresight, adaptive expectations, myopic
REGIMES = ("perfect_foresight", "adaptive", "myopic")


@dataclass(frozen=True)
class PayoffParams:
    """Flow-payoff and discounting parameters as the solvers see them.

    No sign restriction on the entry cost: estimated values may come out
    negative and the solvers remain well defined.
    """

    mu: float
    alpha: float
    entry_cost: float
    discount: float

    def __post_init__(self):
        if not 0.0 <= self.discount < 1.0:
            raise ValueError("discount must lie in [0, 1)")


@dataclass(frozen=True)
class DdcParams(PayoffParams):
    """Data-generating parameters and panel dimensions.

    The shipped defaults put the entry wave near the train/test boundary:
    occupancy averages well under 0.3 over the training periods and peaks
    above 0.9 afterwards, with transitory profit dips large enough that the
    expectation regimes produce visibly different dynamics.
    """

    mu: float = -3.5
    alpha: float = 1.0
    entry_cost: float = 4.0
    discount: float = 0.95
    n_firms: int = 10_000
    t_total: int = 500
    t_train: int = 250

    def __post_init__(self):
        super().__post_init__()
        if self.entry_cost < 0.0:
            raise ValueError("entry_cost must be nonnegative")
        if self.t_train >= self.t_total:
            raise ValueError("t_train must be smaller than t_total")
        if self.n_firms < 2:
            raise ValueError("n_firms must be >= 2")


@dataclass(frozen=True)
class RPathSpec:
    """Law of the exogenous operating profit: linear trend plus AR(1) noise."""

    r0: float = 0.0
    trend: float = 0.0115
    ar_coef: float = 0.8
    innovation_sd: float = 0.85

    def __post_init__(self):
        if not -1.0 < self.ar_coef < 1.0:
            raise ValueError("ar_coef must lie in (-1, 1)")
        if self.innovation_sd < 0.0:
            raise ValueError("innovation_sd must be nonnegative")


def draw_profit_path(spec: RPathSpec, t_total: int, rng: SeededRng) -> np.ndarray:
    """A rising-trend profit path ``R_t = r0 + trend * t + u_t`` with AR(1) ``u``."""
    gen = rng.generator()
    u, prev = [], 0.0
    for shock in gen.normal(0.0, spec.innovation_sd, size=t_total).tolist():
        prev = spec.ar_coef * prev + shock
        u.append(prev)
    return spec.r0 + spec.trend * np.arange(1, t_total + 1) + np.array(u, dtype=float)


def flow_payoffs(params: PayoffParams, R) -> np.ndarray:
    """Deterministic payoffs, shape ``R.shape + (2, 2)`` indexed ``[.., j, k]``."""
    R = np.asarray(R, dtype=float)
    operate = params.mu + params.alpha * R
    pi = np.zeros(R.shape + (2, 2))
    pi[..., 1, 1] = operate
    pi[..., 0, 1] = operate - params.entry_cost
    return pi


def _ccp_from_values(cvf: np.ndarray) -> np.ndarray:
    """Logit choice probabilities from choice-specific values ``[.., j, k]``."""
    shift = cvf.max(axis=-1, keepdims=True)
    expv = np.exp(cvf - shift)
    return expv / expv.sum(axis=-1, keepdims=True)


def _expected_value(cvf: np.ndarray) -> np.ndarray:
    """Log-sum-exp expected value over the choice axis, shock mean included."""
    shift = cvf.max(axis=-1)
    return EULER_GAMMA + shift + np.log(np.exp(cvf - shift[..., None]).sum(axis=-1))


def _shifted_exp(cvf: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pieces :func:`_ccp_from_values` and :func:`_expected_value` share,
    for choice-specific values with leading choice axes ``cvf[j, k, ...]``:
    the max over ``k``, the max-shifted exponentials and their sum over ``k``."""
    shift = np.maximum(cvf[:, 0], cvf[:, 1])
    expv = np.exp(cvf - shift[:, None])
    return shift, expv, expv[:, 0] + expv[:, 1]


def solve_stationary(params: PayoffParams, R) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed-point values and CCPs when the profit stays at ``R`` forever.

    Accepts a scalar or a vector of profit levels (solved jointly). The
    values solve ``vbar = T(vbar)`` for the smoothed Bellman map
    ``T(v)[j] = E max_k (pi[j, k] + b * v[k] + eps_k)``, whose Jacobian is
    ``b * ccp``. Newton-Kantorovich steps (the second phase of Rust's NFXP
    poly-algorithm) start from the myopic values and update
    ``vbar -= (I - b * ccp)^-1 (vbar - T(vbar))``, one closed-form 2x2 solve
    per profit level. ``T`` is convex and ``I - b * ccp`` an M-matrix, so the
    iterates converge from any start, quadratically near the fixed point;
    about six steps reach a step of ``VALUE_TOL`` relative to the values at
    ``b = 0.95``, and ``b = 0`` needs one. A NaN or ``+inf`` payoff never
    converges and raises ``RuntimeError``; a ``-inf`` one is a choice never
    made, and its values may converge.

    Returns
    -------
    (vbar, ccp, cvf)
        Expected values ``[.., j]``, choice probabilities ``[.., j, k]``, and
        choice-specific values ``[.., j, k]``.
    """
    b = params.discount
    # the arrays lead with their choice axes, pi[j, k, ...], so that a state's
    # values are one array
    pi = np.ascontiguousarray(np.moveaxis(flow_payoffs(params, R), (-2, -1), (0, 1)))
    shift, expv, total = _shifted_exp(pi)
    vbar = EULER_GAMMA + shift + np.log(total)
    a = 1.0 - b
    for _ in range(NEWTON_STEPS):
        cvf = pi + b * vbar[None]
        # one exp serves the CCPs and T(vbar), as in _ccp_from_values and
        # _expected_value
        shift, expv, total = _shifted_exp(cvf)
        r0, r1 = vbar - (EULER_GAMMA + shift + np.log(total))
        # I - b * ccp = [[1 - b + e, -e], [-x, 1 - b + x]] with e = b * p01 and
        # x = b * p10; its determinant (1 - b) * (1 - b + e + x) is positive
        # and formed without cancellation
        e, x = b * (expv[0, 1] / total[0]), b * (expv[1, 0] / total[1])
        a_e = a + e
        step = np.stack([(a + x) * r0 + e * r1, x * r0 + a_e * r1]) / (a * (a_e + x))
        vbar = vbar - step
        if np.abs(step).max() <= VALUE_TOL * max(1.0, np.abs(vbar).max()):
            break
    else:
        raise RuntimeError("Newton iteration for the stationary values did not converge")
    cvf = pi + b * vbar[None]
    _, expv, total = _shifted_exp(cvf)
    ccp = expv / total[:, None]
    # back to the trailing choice axes of the other solvers
    return (np.ascontiguousarray(np.moveaxis(vbar, 0, -1)),
            np.ascontiguousarray(np.moveaxis(ccp, (0, 1), (-2, -1))),
            np.ascontiguousarray(np.moveaxis(cvf, (0, 1), (-2, -1))))


def solve_perfect_foresight(
    params: PayoffParams, R_path
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward induction along a known profit path.

    The horizon is finite, so the continuation beyond the final period is
    closed with the stationary solution at the final profit level; its
    influence on earlier periods decays at the discount rate.

    Returns
    -------
    (vbar, ccp, cvf)
        Arrays of shape ``(T, 2)``, ``(T, 2, 2)``, ``(T, 2, 2)`` for periods
        ``1..T``.
    """
    R_path = np.asarray(R_path, dtype=float)
    T = R_path.shape[0]
    b = params.discount
    v0, v1 = solve_stationary(params, R_path[-1])[0].tolist()
    flows = flow_payoffs(params, R_path).reshape(T, 4).tolist()
    vbar, cvf = [None] * T, [None] * T
    # _expected_value on Python floats: numpy's per-call overhead would
    # dominate a 2x2 block, while exp and log stay numpy's, into buffers
    # reused across periods, so that every value rounds as in the vectorized
    # form
    exp, log, shifted, sums = np.exp, np.log, np.empty(4), np.empty(2)
    for t in range(T - 1, -1, -1):
        p00, p01, p10, p11 = flows[t]
        w0, w1 = b * v0, b * v1
        c00, c01, c10, c11 = cvf[t] = (p00 + w0, p01 + w1, p10 + w0, p11 + w1)
        s0, s1 = max(c00, c01), max(c10, c11)
        shifted[0], shifted[1], shifted[2], shifted[3] = c00 - s0, c01 - s0, c10 - s1, c11 - s1
        e00, e01, e10, e11 = exp(shifted, out=shifted).tolist()
        sums[0], sums[1] = e00 + e01, e10 + e11
        l0, l1 = log(sums, out=sums).tolist()
        v0, v1 = vbar[t] = (EULER_GAMMA + s0 + l0, EULER_GAMMA + s1 + l1)
    cvf = np.array(cvf).reshape(T, 2, 2)
    return np.array(vbar), _ccp_from_values(cvf), cvf


def myopic_ccp(params: PayoffParams, R) -> np.ndarray:
    """Choice probabilities of firms that ignore continuation values."""
    return _ccp_from_values(flow_payoffs(params, R))


def regime_ccps(regime: str, params: PayoffParams, R_path) -> np.ndarray:
    """Per-period choice probabilities ``(T, 2, 2)`` under an expectation regime."""
    if regime == "perfect_foresight":
        return solve_perfect_foresight(params, R_path)[1]
    if regime == "adaptive":
        return solve_stationary(params, np.asarray(R_path, float))[1]
    if regime == "myopic":
        return myopic_ccp(params, np.asarray(R_path, float))
    raise ValueError(f"unknown regime: {regime}")


def euler_residuals(ccp: np.ndarray, pi: np.ndarray, discount: float) -> np.ndarray:
    """Residuals of the finite-dependence identity linking CCPs across periods.

    For each ``t < T`` and transition ``(j, k)`` with ``j != k``::

        ln(p_t(k|j) / p_t(j|j))
          - [pi_t[j,k] - pi_t[j,j] + b * (pi_{t+1}[k,k] - pi_{t+1}[j,k])]
          + b * ln(p_{t+1}(k|k) / p_{t+1}(k|j))

    which is identically zero on exact foresight solutions. Returned shape is
    ``(T - 1, 2)`` with columns for ``(j, k) = (0, 1)`` and ``(1, 0)``.
    """
    T = ccp.shape[0]
    out = np.empty((T - 1, 2))
    for col, (j, k) in enumerate(((0, 1), (1, 0))):
        lhs = np.log(ccp[:-1, j, k] / ccp[:-1, j, j])
        payoff = (
            pi[:-1, j, k]
            - pi[:-1, j, j]
            + discount * (pi[1:, k, k] - pi[1:, j, k])
        )
        correction = discount * np.log(ccp[1:, k, k] / ccp[1:, j, k])
        out[:, col] = lhs - payoff + correction
    return out


@dataclass(frozen=True)
class MarketPanel:
    """Simulated occupancy panel: per-period transition counts of N firms.

    ``counts[t, j, k]`` is the number of firms in state ``j`` entering period
    ``t + 1`` (1-indexed period ``t + 1``) that chose state ``k``.
    """

    n_firms: int
    initial_incumbents: int
    counts: np.ndarray
    R_path: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "R_path", np.asarray(self.R_path, dtype=float))
        if counts.shape[1:] != (2, 2):
            raise ValueError("counts must have shape (T, 2, 2)")
        if np.any(counts.sum(axis=(1, 2)) != self.n_firms):
            raise ValueError("transition counts must sum to the firm count each period")

    @property
    def t_total(self) -> int:
        return self.counts.shape[0]

    @property
    def n(self) -> np.ndarray:
        """Incumbent count after each period."""
        return self.counts[:, :, 1].sum(axis=1)

    @property
    def shares(self) -> np.ndarray:
        return self.n / self.n_firms

    @property
    def initial_share(self) -> float:
        return self.initial_incumbents / self.n_firms

    def shares_with_initial(self) -> np.ndarray:
        return np.concatenate([[self.initial_share], self.shares])

    def ccp_hat(self) -> np.ndarray:
        """Observed transition frequencies ``(T, 2, 2)``; NaN where a state is empty."""
        denom = self.counts.sum(axis=2, keepdims=True).astype(float)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(denom > 0, self.counts / denom, np.nan)

    def truncate(self, t: int) -> "MarketPanel":
        return MarketPanel(
            self.n_firms, self.initial_incumbents, self.counts[:t], self.R_path[:t]
        )


def merge_panels(a: MarketPanel, b: MarketPanel) -> MarketPanel:
    if a.t_total != b.t_total or not np.array_equal(a.R_path, b.R_path):
        raise ValueError("panels must share the same horizon and profit path")
    return MarketPanel(
        a.n_firms + b.n_firms,
        a.initial_incumbents + b.initial_incumbents,
        a.counts + b.counts,
        a.R_path,
    )


def simulate_market(ccps: np.ndarray, R_path, n_firms: int, rng: SeededRng) -> MarketPanel:
    """Simulate ``n_firms`` firms' transitions under choice probabilities
    ``ccps[t, j, k]`` (from state ``j`` to ``k`` in period ``t``, as
    :func:`regime_ccps` gives them) along the profit path ``R_path``.

    Half the firms start as incumbents. Firms are exchangeable, so per-period
    binomial draws of stayers and entrants carry the full panel information.
    The draws come from one stream of ``rng`` in a fixed order: each period,
    the stayers among the incumbents, then the entrants among the rest.
    """
    R_path = np.asarray(R_path, dtype=float)
    binomial = rng.generator().binomial
    initial = incumbents = n_firms // 2
    T = R_path.shape[0]
    draws = []
    for p_stay, p_enter in zip(ccps[:T, 1, 1].tolist(), ccps[:T, 0, 1].tolist()):
        stay = binomial(incumbents, p_stay)
        enter = binomial(n_firms - incumbents, p_enter)
        draws += stay, enter
        incumbents = stay + enter
    stay, enter = np.array(draws, dtype=np.int64).reshape(T, 2).T
    # each period's incumbents are the previous period's stayers and entrants
    held = np.concatenate([[initial], stay + enter])[:T]
    counts = np.stack([(n_firms - held) - enter, enter, held - stay, stay], axis=1)
    return MarketPanel(n_firms, initial, counts.reshape(T, 2, 2), R_path)


class InsufficientTransitionsError(ValueError):
    pass


def estimate_ccp_euler_from_ccps(
    ccps: np.ndarray, R_path, discount: float
) -> tuple[float, float, float]:
    """Least-squares estimates of ``(mu, alpha, c)`` from choice probabilities.

    Stacks, for every usable period, the two one-period transition equations
    with their cross-equation restrictions (entry intercept ``mu - (1 - b) c``
    and slope ``alpha``; exit intercept ``-mu`` and slope ``-alpha``) and
    solves jointly. Exact foresight CCPs make the system exact.
    """
    ccps = np.asarray(ccps, dtype=float)
    R_path = np.asarray(R_path, dtype=float)
    # a period t is usable when both ccps[t] and ccps[t + 1] are finite and inside (0, 1)
    inside = (np.isfinite(ccps) & (ccps > 0.0) & (ccps < 1.0)).all(axis=(1, 2))
    t = np.flatnonzero(inside[:-1] & inside[1:])
    if len(t) < 3:
        raise InsufficientTransitionsError("insufficient transitions")
    now, nxt = ccps[t], ccps[t + 1]
    # an entry row, then an exit row, for each period
    rows = np.zeros((len(t), 2, 3))
    rows[:, 0, 0], rows[:, 0, 1], rows[:, 0, 2] = 1.0, R_path[t], -(1.0 - discount)
    rows[:, 1, 0], rows[:, 1, 1] = -1.0, -R_path[t]
    lhs_entry = np.log(now[:, 0, 1] / now[:, 0, 0]) + discount * np.log(nxt[:, 1, 1] / nxt[:, 0, 1])
    lhs_exit = np.log(now[:, 1, 0] / now[:, 1, 1]) + discount * np.log(nxt[:, 0, 0] / nxt[:, 1, 0])
    theta = solve_least_squares(rows.reshape(-1, 3), np.column_stack([lhs_entry, lhs_exit]).ravel())
    return float(theta[0]), float(theta[1]), float(theta[2])


def estimate_ccp_euler(panel: MarketPanel, discount: float) -> tuple[float, float, float]:
    """Estimate ``(mu, alpha, c)`` from a simulated panel and its profit path,
    discount known.

    Observed transition frequencies are clamped to ``[1/(2N), 1 - 1/(2N)]``
    before logs as a finite-sample continuity correction; periods with an
    empty state are skipped.
    """
    eps = 1.0 / (2.0 * panel.n_firms)
    p_hat = panel.ccp_hat()
    clamped = np.clip(p_hat, eps, 1.0 - eps)
    return estimate_ccp_euler_from_ccps(clamped, panel.R_path, discount)


def _propagate_shares(ccps: np.ndarray, initial_share: float) -> np.ndarray:
    """Expected occupancy share after each period under choice probabilities
    ``ccps[t, j, k]``, starting from the initial share."""
    out, share = [], initial_share
    for p_stay, p_enter in zip(ccps[:, 1, 1].tolist(), ccps[:, 0, 1].tolist()):
        share = share * p_stay + (1.0 - share) * p_enter
        out.append(share)
    return np.array(out, dtype=float)


@dataclass(frozen=True)
class DdcBenchmark:
    """Estimated foresight model used for prediction and synthetic data: its
    choice probabilities ``ccps[t, j, k]`` along the profit path ``R_path``."""

    R_path: np.ndarray
    ccps: np.ndarray

    @classmethod
    def from_estimates(
        cls, estimates: tuple[float, float, float], discount: float, R_path
    ) -> "DdcBenchmark":
        mu, alpha, cost = estimates
        params = PayoffParams(mu=mu, alpha=alpha, entry_cost=cost, discount=discount)
        ccps = solve_perfect_foresight(params, R_path)[1]
        return cls(np.asarray(R_path, float), ccps)

    def step_shares(self, prev_shares: np.ndarray) -> np.ndarray:
        """Expected occupancy share of every period given the previous period's.

        Entry ``t`` advances ``prev_shares[t]``, the share before period
        ``t + 1``, by the model's CCPs of that period.
        """
        prev = np.asarray(prev_shares, dtype=float)
        return prev * self.ccps[:, 1, 1] + (1.0 - prev) * self.ccps[:, 0, 1]


SRE_ARX_ORDERS = (2, 4)
STAT_EXOG_ORDERS = (1, 2)
STAT_AR_ORDERS = (1, 2, 3, 4)
PREDICTION_START = 11  # early periods reflect the arbitrary initial state mix


SYNTHETIC_PANEL_REPLICAS = 10


def synthetic_arx_rows(benchmark: DdcBenchmark, n_firms: int, rng: SeededRng) -> Dataset:
    """Stacked ARX rows from ``SYNTHETIC_PANEL_REPLICAS`` simulated benchmark
    panels over the full horizon.

    Simulated (rather than deterministic) occupancy paths keep the lagged
    shares from collapsing onto the profit polynomial: on a noise-free path
    the two are collinear and the projection splits their roles arbitrarily,
    which makes a poor shrink target. Matching the second stage's firm count
    reproduces its noise scale; stacking replicas then pins the projection.
    """
    shares = np.array([
        simulate_market(benchmark.ccps, benchmark.R_path, n_firms, rng.split(r))
        .shares_with_initial() for r in range(SYNTHETIC_PANEL_REPLICAS)])
    inputs, outcome, _ = _arx_columns(shares, benchmark.R_path, *SRE_ARX_ORDERS)
    return Dataset(inputs.reshape(-1, inputs.shape[-1]), outcome.ravel())


def sre_entry_exit(
    panel_first: MarketPanel,
    panel_second: MarketPanel,
    discount: float,
    R_path_full: np.ndarray,
    rng: SeededRng,
    lambda_grid=None,
) -> SREFit:
    """Sample-split series fit: structural stage on one half-panel of firms,
    penalized ARX stage with rolling-window penalty selection on the other
    (windows of a fifth of the training rows, one-step-ahead validation).

    The benchmark's synthetic panels cover the full horizon (the profit path
    is exogenous and known), so the shrink target encodes the model's
    out-of-domain behavior. It is projected once, to raw-scale coefficients
    (:func:`~structreg.sre.fit_theta_m`), and the training sample and each
    window re-express them on their own standardization. The training
    sample is a fold of one (:meth:`~structreg.tuning.RidgeFold.of_samples`)
    cross-validated by :func:`~structreg.tuning.rolling_cv`; the rolling
    cross-validation trace is ``fit.trace``.
    """
    t_train = panel_second.t_total
    estimates = estimate_ccp_euler(panel_first, discount=discount)
    benchmark = DdcBenchmark.from_estimates(estimates, discount, R_path_full)
    p, q = SRE_ARX_ORDERS
    synthetic = synthetic_arx_rows(benchmark, panel_second.n_firms, rng.split(101))
    train = arx_feature_rows(
        panel_second.shares_with_initial(), R_path_full[:t_train], p, q
    )
    grid = default_lambda_grid(train.n) if lambda_grid is None else lambda_grid
    penalty = PenaltySpec(grid, np.concatenate([[0.0], np.ones(train.p)]))
    features = LinearFeatures(train.p)
    try:
        theta_m = fit_theta_m(features, synthetic)
    except SingularDesignError as exc:
        mu, alpha, entry_cost = estimates
        raise SingularDesignError(
            f"{exc}: the benchmark's synthetic panels do not identify the ARX model; "
            f"degenerate CCP-Euler estimate mu={mu:.4g}, alpha={alpha:.4g}, "
            f"entry_cost={entry_cost:.4g}") from exc
    fold = RidgeFold.of_samples([train], features, penalty, theta_m)
    return fold.fit(rolling_cv(fold, max(2, train.n // 5)))[0]


def entry_exit_experiment(
    regime: str,
    params: DdcParams,
    estimators: tuple[str, ...] = ("statistical", "structural", "sre"),
    trials: int = 100,
    rng: SeededRng | None = None,
    rpath: RPathSpec | None = None,
    lambda_grid=None,
    trial_indices=None,
) -> tuple[Curves, dict]:
    """Monte Carlo comparison of occupancy-share forecasters under one regime.

    Per trial: draw a profit path, simulate the panel (as two independent
    half-panels so the regularized estimator can keep its stages on disjoint
    firms), fit the ARX baseline and the foresight structural model on the
    merged panel, fit the regularized ARX on the halves, and score one-step-
    ahead share predictions (realized lags) against the regime's expected
    path of that trial, in-domain and out-of-domain. Returns the run's
    :class:`~structreg.metrics.Curves`, whose truth varies by trial, and
    metadata holding the regime, the parameters and the profit-path spec.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime: {regime}")
    rpath = rpath if rpath is not None else RPathSpec()
    T, T_train = params.t_total, params.t_train
    periods = {"in": (PREDICTION_START, T_train), "out": (T_train + 1, T)}

    def by_domain(series: np.ndarray) -> dict[str, np.ndarray]:
        """A series over periods 1..T split into its scored periods per domain."""
        return {domain: series[lo - 1:hi] for domain, (lo, hi) in periods.items()}

    def trial(trial_rng):
        R_path = draw_profit_path(rpath, T, trial_rng.split(0))
        regime_p = regime_ccps(regime, params, R_path)
        truth = _propagate_shares(regime_p, 0.5)
        panel_a, panel_b = (
            simulate_market(regime_p, R_path, params.n_firms // 2, trial_rng.split(stream))
            for stream in (1, 2)
        )
        panel = merge_panels(panel_a, panel_b)
        shares_full = panel.shares_with_initial()

        preds: dict[str, np.ndarray] = {}
        if "statistical" in estimators:
            arx = select_arx_order_aic(shares_full[1 : T_train + 1], R_path[1:T_train],
                                       STAT_EXOG_ORDERS, STAT_AR_ORDERS)
            full = np.full(T + 1, np.nan)
            full[arx.ar_order:] = arx.predict_series(shares_full, R_path)
            preds["statistical"] = full[1:]
        if "structural" in estimators:
            est = estimate_ccp_euler(panel.truncate(T_train), params.discount)
            bench_full = DdcBenchmark.from_estimates(est, params.discount, R_path)
            preds["structural"] = bench_full.step_shares(shares_full[:-1])
        if "sre" in estimators:
            sre_fit = sre_entry_exit(panel_a.truncate(T_train), panel_b.truncate(T_train),
                                     params.discount, R_path, trial_rng.split(3),
                                     lambda_grid=lambda_grid)
            rows = arx_feature_rows(shares_full, R_path, *SRE_ARX_ORDERS)
            full = np.full(T + 1, np.nan)
            full[rows.time_index] = sre_fit.predict(rows.inputs)
            preds["sre"] = full[1:]
        return by_domain(truth), {name: by_domain(series) for name, series in preds.items()}

    def setup(rng):
        metadata = {"regime": regime, "params": params.__dict__.copy(),
                    "rpath": rpath.__dict__.copy(), "prediction_start": PREDICTION_START}
        return by_domain(np.arange(1, T + 1)), partial(_each, trial), metadata

    return _run_trials(trials, rng, trial_indices, setup)
