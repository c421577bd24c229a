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
permanent), and myopia (no continuation value). The structural estimator
assumes the foresight model regardless, exploiting finite dependence: one-
period-ahead choice probabilities difference away the continuation values,
leaving a linear system in ``(mu, alpha, c)`` — exact on noiseless choice
probabilities, and the module's primary correctness oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, SeededRng, standardize
from .estimators import (
    fit_arx,
    select_arx_order_aic,
    solve_least_squares,
)
from .sre import LinearFeatures, PenaltySpec, SREFit, default_lambda_grid
from .tuning import ridge_stage, rolling_cv

EULER_GAMMA = float(np.euler_gamma)
VALUE_TOL = 1e-12
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
            raise ValueError("entry cost must be nonnegative")
        if self.t_train >= self.t_total:
            raise ValueError("t_train must be smaller than t_total")
        if self.n_firms < 2:
            raise ValueError("need at least two firms")


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
    shocks = gen.normal(0.0, spec.innovation_sd, size=t_total)
    u = np.empty(t_total)
    prev = 0.0
    for t in range(t_total):
        prev = spec.ar_coef * prev + shocks[t]
        u[t] = prev
    return spec.r0 + spec.trend * np.arange(1, t_total + 1) + u


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


def solve_stationary(params: PayoffParams, R) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed-point values and CCPs when the profit stays at ``R`` forever.

    Accepts a scalar or a vector of profit levels (solved jointly). Value
    iteration contracts at rate ``discount`` and runs to sup-norm 1e-12.

    Returns
    -------
    (vbar, ccp, cvf)
        Expected values ``[.., j]``, choice probabilities ``[.., j, k]``, and
        choice-specific values ``[.., j, k]``.
    """
    pi = flow_payoffs(params, R)
    vbar = np.zeros(pi.shape[:-1])
    for _ in range(100_000):
        cvf = pi + params.discount * vbar[..., None, :]
        new = _expected_value(cvf)
        gap = np.abs(new - vbar).max()
        vbar = new
        if gap <= VALUE_TOL or params.discount == 0.0:
            break
    else:
        raise RuntimeError("value iteration did not converge")
    cvf = pi + params.discount * vbar[..., None, :]
    return vbar, _ccp_from_values(cvf), cvf


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
    pi = flow_payoffs(params, R_path)
    vbar = np.empty((T, 2))
    cvf = np.empty((T, 2, 2))
    vbar_next = solve_stationary(params, R_path[-1])[0]
    for t in range(T - 1, -1, -1):
        cvf[t] = pi[t] + params.discount * vbar_next[None, :]
        vbar[t] = _expected_value(cvf[t])
        vbar_next = vbar[t]
    return vbar, _ccp_from_values(cvf), cvf


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


PANEL_CSV_HEADER = "t,n,R,stay_out,enter,exit,stay_in"


def panel_to_csv(panel: MarketPanel, path) -> None:
    """Persist a panel as CSV: period, incumbent count, profit, and the four
    transition counts (from-state-0 pair first)."""
    lines = [PANEL_CSV_HEADER]
    n = panel.n
    for t in range(panel.t_total):
        c = panel.counts[t]
        lines.append(
            f"{t + 1},{n[t]},{format(panel.R_path[t], '.17g')},"
            f"{c[0, 0]},{c[0, 1]},{c[1, 0]},{c[1, 1]}"
        )
    from pathlib import Path

    Path(path).write_text("\n".join(lines) + "\n")


def panel_from_csv(path) -> MarketPanel:
    from pathlib import Path

    lines = Path(path).read_text().strip().splitlines()
    if lines[0] != PANEL_CSV_HEADER:
        raise ValueError("unexpected panel CSV header")
    rows = [line.split(",") for line in lines[1:]]
    counts = np.array(
        [[[int(r[3]), int(r[4])], [int(r[5]), int(r[6])]] for r in rows], dtype=np.int64
    )
    R = np.array([float(r[2]) for r in rows])
    n_firms = int(counts[0].sum())
    initial = int(counts[0, 1].sum())
    return MarketPanel(n_firms, initial, counts, R)


def merge_panels(a: MarketPanel, b: MarketPanel) -> MarketPanel:
    if a.t_total != b.t_total or not np.array_equal(a.R_path, b.R_path):
        raise ValueError("panels must share the same horizon and profit path")
    return MarketPanel(
        a.n_firms + b.n_firms,
        a.initial_incumbents + b.initial_incumbents,
        a.counts + b.counts,
        a.R_path,
    )


def simulate_market(
    regime: str,
    params: DdcParams | None,
    R_path,
    rng: SeededRng,
    n_firms: int | None = None,
    ccps: np.ndarray | None = None,
) -> MarketPanel:
    """Simulate firm transitions under a regime's choice probabilities.

    Half the firms start as incumbents. Firms are exchangeable, so per-period
    binomial draws of stayers and entrants carry the full panel information.
    ``params`` may be omitted when explicit ``ccps`` and ``n_firms`` are given.
    """
    R_path = np.asarray(R_path, dtype=float)
    if ccps is None:
        ccps = regime_ccps(regime, params, R_path)
    N = params.n_firms if n_firms is None else n_firms
    gen = rng.generator()
    incumbents = N // 2
    initial = incumbents
    T = R_path.shape[0]
    counts = np.zeros((T, 2, 2), dtype=np.int64)
    for t in range(T):
        stay = gen.binomial(incumbents, ccps[t, 1, 1])
        enter = gen.binomial(N - incumbents, ccps[t, 0, 1])
        counts[t, 1, 1] = stay
        counts[t, 1, 0] = incumbents - stay
        counts[t, 0, 1] = enter
        counts[t, 0, 0] = (N - incumbents) - enter
        incumbents = stay + enter
    return MarketPanel(N, initial, counts, R_path)


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
    T = ccps.shape[0]
    rows, targets = [], []
    for t in range(T - 1):
        block = ccps[t : t + 2]
        if not np.isfinite(block).all() or block.min() <= 0.0 or block.max() >= 1.0:
            continue
        lhs_entry = np.log(ccps[t, 0, 1] / ccps[t, 0, 0]) + discount * np.log(
            ccps[t + 1, 1, 1] / ccps[t + 1, 0, 1]
        )
        lhs_exit = np.log(ccps[t, 1, 0] / ccps[t, 1, 1]) + discount * np.log(
            ccps[t + 1, 0, 0] / ccps[t + 1, 1, 0]
        )
        rows.append([1.0, R_path[t], -(1.0 - discount)])
        targets.append(lhs_entry)
        rows.append([-1.0, -R_path[t], 0.0])
        targets.append(lhs_exit)
    if len(rows) < 6:
        raise InsufficientTransitionsError("insufficient transitions")
    theta = solve_least_squares(np.asarray(rows), np.asarray(targets))
    return float(theta[0]), float(theta[1]), float(theta[2])


def estimate_ccp_euler(
    panel: MarketPanel, R_path=None, discount: float = 0.9
) -> tuple[float, float, float]:
    """Estimate ``(mu, alpha, c)`` from a simulated panel, discount known.

    Observed transition frequencies are clamped to ``[1/(2N), 1 - 1/(2N)]``
    before logs as a finite-sample continuity correction; periods with an
    empty state are skipped.
    """
    R_path = panel.R_path if R_path is None else np.asarray(R_path, float)
    eps = 1.0 / (2.0 * panel.n_firms)
    p_hat = panel.ccp_hat()
    clamped = np.clip(p_hat, eps, 1.0 - eps)
    clamped = np.where(np.isnan(p_hat), np.nan, clamped)
    return estimate_ccp_euler_from_ccps(clamped, R_path, discount)


@dataclass(frozen=True)
class DdcBenchmark:
    """Estimated foresight model used for prediction and synthetic data."""

    mu: float
    alpha: float
    entry_cost: float
    discount: float
    R_path: np.ndarray
    ccps: np.ndarray

    identifier = "ccp-euler-entry-exit"

    @classmethod
    def from_estimates(
        cls, estimates: tuple[float, float, float], discount: float, R_path
    ) -> "DdcBenchmark":
        mu, alpha, cost = estimates
        params = PayoffParams(mu=mu, alpha=alpha, entry_cost=cost, discount=discount)
        ccps = solve_perfect_foresight(params, R_path)[1]
        return cls(mu, alpha, cost, discount, np.asarray(R_path, float), ccps)

    def step_shares(self, prev_shares: np.ndarray, periods: np.ndarray) -> np.ndarray:
        """Expected occupancy share given the previous period's share mix.

        ``periods`` are 1-indexed; entry ``i`` advances ``prev_shares[i]`` one
        period using the model's CCPs at ``periods[i]``.
        """
        idx = np.asarray(periods, dtype=int) - 1
        prev = np.asarray(prev_shares, dtype=float)
        return prev * self.ccps[idx, 1, 1] + (1.0 - prev) * self.ccps[idx, 0, 1]

    def implied_mean(self, prev_shares, periods) -> np.ndarray:
        return self.step_shares(prev_shares, periods)

    def expected_path(self, initial_share: float = 0.5) -> np.ndarray:
        """Deterministic occupancy path propagated from the initial mix."""
        T = self.ccps.shape[0]
        out = np.empty(T)
        share = initial_share
        for t in range(T):
            share = share * self.ccps[t, 1, 1] + (1.0 - share) * self.ccps[t, 0, 1]
            out[t] = share
        return out

    def simulate(self, rng: SeededRng, n_firms: int) -> MarketPanel:
        return simulate_market(
            "perfect_foresight", None, self.R_path, rng, n_firms, ccps=self.ccps
        )


def expected_regime_path(
    regime: str, params: DdcParams, R_path, initial_share: float = 0.5
) -> np.ndarray:
    """True expected occupancy path: exact regime CCPs propagated forward."""
    ccps = regime_ccps(regime, params, R_path)
    T = ccps.shape[0]
    out = np.empty(T)
    share = initial_share
    for t in range(T):
        share = share * ccps[t, 1, 1] + (1.0 - share) * ccps[t, 0, 1]
        out[t] = share
    return out


SRE_ARX_ORDERS = (2, 4)
STAT_EXOG_ORDERS = (1, 2)
STAT_AR_ORDERS = (1, 2, 3, 4)
PREDICTION_START = 11  # early periods reflect the arbitrary initial state mix


def arx_feature_rows(shares_with_initial: np.ndarray, R_path: np.ndarray,
                     p: int, q: int) -> Dataset:
    """Supervised dataset for share prediction: rows are periods ``q..T``.

    Features are ``(R_t, ..., R_t^p, s_{t-1}, ..., s_{t-q})`` where the share
    series includes the initial state mix at position 0.
    """
    s = np.asarray(shares_with_initial, dtype=float)
    R = np.asarray(R_path, dtype=float)
    T = R.shape[0]
    periods = np.arange(q, T + 1)  # 1-indexed targets
    cols = [R[periods - 1] ** j for j in range(1, p + 1)]
    cols.extend(s[periods - ell] for ell in range(1, q + 1))
    return Dataset(np.column_stack(cols), s[periods], time_index=periods)


def _arx_sre_fitter(penalty: PenaltySpec, synthetic: Dataset):
    """Second-stage fitter for series data: ARX features shrunk toward their
    projection on synthetic benchmark panels, re-expressed in each training
    window's standardization."""

    def fitter(train: Dataset):
        std, transform = standardize(Dataset(train.inputs, train.outcome))
        syn = transform.transform_inputs(synthetic.inputs)
        design_m = np.column_stack([np.ones(syn.shape[0]), syn])
        theta_m = solve_least_squares(design_m, synthetic.outcome)
        design = np.column_stack([np.ones(train.n), std.inputs])
        return ridge_stage(
            design, train.outcome, transform, theta_m, penalty, LinearFeatures(train.p)
        )

    return fitter


SYNTHETIC_PANEL_REPLICAS = 10


def synthetic_arx_rows(
    benchmark: DdcBenchmark, n_firms: int, rng: SeededRng,
    replicas: int = SYNTHETIC_PANEL_REPLICAS,
) -> Dataset:
    """Stacked ARX rows from simulated benchmark panels over the full horizon.

    Simulated (rather than deterministic) occupancancy paths keep the lagged
    shares from collapsing onto the profit polynomial: on a noise-free path
    the two are collinear and the projection splits their roles arbitrarily,
    which makes a poor shrink target. Matching the second stage's firm count
    reproduces its noise scale; stacking replicas then pins the projection.
    """
    p, q = SRE_ARX_ORDERS
    parts = []
    for r in range(replicas):
        panel = benchmark.simulate(rng.split(r), n_firms)
        parts.append(arx_feature_rows(panel.shares_with_initial(), benchmark.R_path, p, q))
    return Dataset(
        np.vstack([part.inputs for part in parts]),
        np.concatenate([part.outcome for part in parts]),
    )


def sre_entry_exit(
    panel_first: MarketPanel,
    panel_second: MarketPanel,
    discount: float,
    R_path_full: np.ndarray,
    rng: SeededRng,
    lambda_grid=None,
    window_length: int | None = None,
) -> tuple[SREFit, DdcBenchmark]:
    """Sample-split series fit: structural stage on one half-panel of firms,
    penalized ARX stage with rolling-window penalty selection on the other.

    The benchmark's synthetic panels cover the full horizon (the profit path
    is exogenous and known), so the shrink target encodes the model's
    out-of-domain behavior.
    """
    t_train = panel_second.t_total
    estimates = estimate_ccp_euler(panel_first, discount=discount)
    benchmark = DdcBenchmark.from_estimates(estimates, discount, R_path_full)
    p, q = SRE_ARX_ORDERS
    synthetic = synthetic_arx_rows(benchmark, panel_second.n_firms, rng.split(101))
    train = arx_feature_rows(
        panel_second.shares_with_initial(), R_path_full[:t_train], p, q
    )
    grid = default_lambda_grid(train.n) if lambda_grid is None else np.asarray(lambda_grid, float)
    weights = np.concatenate([[0.0], np.ones(train.p)])
    fitter = _arx_sre_fitter(PenaltySpec(grid, weights), synthetic)
    window = window_length if window_length is not None else max(2, train.n // 5)
    trace = rolling_cv(train, fitter, grid, window, horizon=1)
    fit = replace(fitter(train)(trace.lambda_star), cv="rolling", parts=(trace,))
    return fit, benchmark


def entry_exit_experiment(
    regime: str,
    params: DdcParams,
    estimators: tuple[str, ...] = ("statistical", "structural", "sre"),
    trials: int = 100,
    rng: SeededRng | None = None,
    rpath: RPathSpec | None = None,
    lambda_grid=None,
    trial_indices=None,
) -> tuple[list[tuple], dict]:
    """Monte Carlo comparison of occupancy-share forecasters under one regime.

    Per trial: draw a profit path, simulate the panel (as two independent
    half-panels so the regularized estimator can keep its stages on disjoint
    firms), fit the ARX baseline and the foresight structural model on the
    merged panel, fit the regularized ARX on the halves, and score one-step-
    ahead share predictions (realized lags) against the regime's expected
    path, in-domain and out-of-domain.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime: {regime}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = rng if rng is not None else SeededRng(0)
    rpath = rpath if rpath is not None else RPathSpec()
    T, T_train = params.t_total, params.t_train
    half = replace(params, n_firms=params.n_firms // 2)

    records: list[tuple] = []
    for trial in range(trials) if trial_indices is None else trial_indices:
        trial_rng = rng.stream(trial)
        try:
            R_path = draw_profit_path(rpath, T, trial_rng.split(0))
            truth = expected_regime_path(regime, params, R_path)
            regime_p = regime_ccps(regime, params, R_path)
            panel_a = simulate_market(
                regime, half, R_path, trial_rng.split(1), ccps=regime_p
            )
            panel_b = simulate_market(
                regime, half, R_path, trial_rng.split(2), ccps=regime_p
            )
            panel = merge_panels(panel_a, panel_b)
            shares_full = panel.shares_with_initial()
            prev_share = shares_full[:-1]
            periods = np.arange(1, T + 1)

            preds: dict[str, np.ndarray] = {}
            if "statistical" in estimators:
                p_stat, q_stat = select_arx_order_aic(
                    shares_full[1 : T_train + 1],
                    R_path[:T_train],
                    STAT_EXOG_ORDERS,
                    STAT_AR_ORDERS,
                )
                arx = fit_arx(
                    shares_full[1 : T_train + 1], R_path[:T_train], p_stat, q_stat
                )
                rows = arx_feature_rows(shares_full, R_path, p_stat, q_stat)
                full = np.full(T + 1, np.nan)
                full[rows.time_index] = rows.inputs @ np.concatenate(
                    [arx.exog_coefficients, arx.ar_coefficients]
                ) + arx.intercept
                preds["statistical"] = full[1:]
            if "structural" in estimators:
                est = estimate_ccp_euler(
                    panel.truncate(T_train), R_path[:T_train], params.discount
                )
                bench_full = DdcBenchmark.from_estimates(est, params.discount, R_path)
                preds["structural"] = bench_full.step_shares(prev_share, periods)
            if "sre" in estimators:
                sre_fit, _ = sre_entry_exit(
                    panel_a.truncate(T_train),
                    panel_b.truncate(T_train),
                    params.discount,
                    R_path,
                    trial_rng.split(3),
                    lambda_grid=lambda_grid,
                )
                rows = arx_feature_rows(shares_full, R_path, *SRE_ARX_ORDERS)
                full = np.full(T + 1, np.nan)
                full[rows.time_index] = sre_fit.predict(rows.inputs)
                preds["sre"] = full[1:]
        except Exception as exc:
            raise RuntimeError(f"trial {trial} failed: {exc}") from exc

        for name, series in preds.items():
            for domain, lo, hi in (("in", PREDICTION_START, T_train), ("out", T_train + 1, T)):
                for t in range(lo, hi + 1):
                    records.append(
                        (trial, name, domain, float(t), float(truth[t - 1]), float(series[t - 1]))
                    )

    metadata = {
        "regime": regime,
        "params": params.__dict__.copy(),
        "rpath": (rpath.__dict__.copy() if rpath else None),
        "prediction_start": PREDICTION_START,
    }
    return records, metadata
