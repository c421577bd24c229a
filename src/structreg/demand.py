"""Demand estimation with instrumental variables under monopoly pricing.

Markets share a linear aggregate demand ``q = alpha - beta * p + eps``. A
monopolist with market-specific marginal cost ``c = a + b * z`` sets either
the optimal markup ``p = c + q / beta`` or a dampened one
``p = c + markup * q / beta`` with ``markup < 1``. Jointly with demand this
pins the equilibrium price::

    p = (c + markup * (alpha + eps) / beta) / (1 + markup)

The cost shifter ``z`` moves price but not demand, so it instruments for the
endogenous price. Three estimators of the demand curve are compared:
two-stage least squares in a linear or log-log specification, the structural
pricing model (a deterministic linear system when pricing is optimal), and a
quadratic moment-based fit shrunk toward the structural model's demand line.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, DomainSpec, SeededRng, partition_indices, standardize
from .estimators import LinearFit, SingularDesignError, fit_2sls, solve_least_squares
from .sre import (
    PenaltySpec,
    PolynomialFeatures,
    SREFit,
    StructuralBenchmark,
    default_lambda_grid,
    fit_theta_m,
    sre_gmm,
)
from .tuning import BenchmarkFamily, CvPlan, CvTrace, kfold_cv

INSTRUMENT_POWERS = 5
EVAL_GRID_POINTS = 100
REFERENCE_MARKETS = 20_000
_GRID_STREAM = 2**62  # reserved stream index; trials use small indices


@dataclass(frozen=True)
class DemandParams:
    """Demand, cost, and noise parameters of the market simulator.

    The shipped defaults keep every price and quantity positive, give the
    cost shifter enough sweep that a log-log fit of the linear curve is
    visibly misspecified, and make demand noise large enough that the naive
    price-quantity scatter slopes upward under optimal pricing.
    """

    alpha: float = 260.0
    beta: float = 2.0
    a: float = 10.0
    b: float = 1.2
    lambda_markup: float = 1.0
    z_low: float = 0.0
    z_high: float = 40.0
    eps_sd: float = 29.0
    M: int = 1000

    def __post_init__(self):
        if self.beta <= 0.0:
            raise ValueError("beta must be positive")
        if not 0.0 < self.lambda_markup <= 1.0:
            raise ValueError("lambda_markup must lie in (0, 1]")
        if self.z_high < self.z_low:
            raise ValueError("z interval is empty")
        if self.eps_sd < 0.0 or self.M < 1:
            raise ValueError("invalid noise scale or market count")


@dataclass(frozen=True)
class MarketData:
    """Observed per-market price, quantity, and cost shifter."""

    prices: np.ndarray
    quantities: np.ndarray
    cost_shifters: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.prices, float).ravel()
        q = np.asarray(self.quantities, float).ravel()
        z = np.asarray(self.cost_shifters, float).ravel()
        for name, arr in (("prices", p), ("quantities", q), ("cost_shifters", z)):
            if not np.isfinite(arr).all():
                raise ValueError(f"non-finite {name}")
        if not (p.shape == q.shape == z.shape):
            raise ValueError("per-market arrays must have equal length")
        object.__setattr__(self, "prices", p)
        object.__setattr__(self, "quantities", q)
        object.__setattr__(self, "cost_shifters", z)

    @property
    def m(self) -> int:
        return self.prices.shape[0]

    def to_dataset(self) -> Dataset:
        return Dataset(self.prices[:, None], self.quantities, self.cost_shifters[:, None])

    def subset(self, idx) -> "MarketData":
        idx = np.asarray(idx)
        return MarketData(self.prices[idx], self.quantities[idx], self.cost_shifters[idx])


MARKET_CSV_HEADER = "m,p,q,z"


def markets_to_csv(data: MarketData, path) -> None:
    """Persist per-market observations as CSV rows ``(m, p, q, z)``."""
    from pathlib import Path

    lines = [MARKET_CSV_HEADER]
    for m in range(data.m):
        lines.append(
            f"{m},{format(data.prices[m], '.17g')},"
            f"{format(data.quantities[m], '.17g')},{format(data.cost_shifters[m], '.17g')}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def markets_from_csv(path) -> MarketData:
    from pathlib import Path

    lines = Path(path).read_text().strip().splitlines()
    if lines[0] != MARKET_CSV_HEADER:
        raise ValueError("unexpected market CSV header")
    rows = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
    return MarketData(rows[:, 0], rows[:, 1], rows[:, 2])


def simulate_markets(params: DemandParams, rng: SeededRng) -> MarketData:
    """Draw cost shifters and demand shocks, then solve market equilibria.

    Raises if more than 0.1% of markets come out with a nonpositive price or
    quantity, since downstream log-log fits need positive data; pick gentler
    noise or a larger intercept in that case.
    """
    gen = rng.generator()
    z = gen.uniform(params.z_low, params.z_high, size=params.M)
    eps = gen.normal(0.0, params.eps_sd, size=params.M)
    lam = params.lambda_markup
    cost = params.a + params.b * z
    prices = (cost + lam * (params.alpha + eps) / params.beta) / (1.0 + lam)
    quantities = params.alpha - params.beta * prices + eps
    bad = np.mean((prices <= 0.0) | (quantities <= 0.0))
    if bad > 0.001:
        raise ValueError(
            f"{bad:.2%} of markets have nonpositive price or quantity; "
            "adjust demand parameters (larger alpha or smaller eps_sd)"
        )
    return MarketData(prices, quantities, z)


@dataclass(frozen=True)
class DemandEstimates:
    """Structural parameter estimates ``(alpha, beta, a, b)``."""

    alpha: float
    beta: float
    a: float
    b: float
    residual_sd: float = 0.0

    def implied_demand(self, p) -> np.ndarray:
        return self.alpha - self.beta * np.asarray(p, dtype=float)


def structural_estimate_demand(data: MarketData) -> DemandEstimates:
    """Solve the pricing identity ``p = a + b z + q / beta`` by least squares.

    Exact (zero residual) when prices are set optimally; under dampened
    markups the quantity coefficient is ``markup / beta``, so the recovered
    slope estimates ``beta / markup`` — the model's misspecification bias.
    The demand intercept follows as the mean of ``q + beta_hat * p``.
    """
    if data.m < 4:
        raise ValueError("need at least four markets")
    design = np.column_stack(
        [np.ones(data.m), data.cost_shifters, data.quantities]
    )
    coef = solve_least_squares(design, data.prices)
    a_hat, b_hat, inv_beta = float(coef[0]), float(coef[1]), float(coef[2])
    if inv_beta <= 0.0:
        raise ValueError("estimated inverse demand slope is nonpositive")
    beta_hat = 1.0 / inv_beta
    alpha_hat = float(np.mean(data.quantities + beta_hat * data.prices))
    resid = data.quantities - (alpha_hat - beta_hat * data.prices)
    return DemandEstimates(alpha_hat, beta_hat, a_hat, b_hat, float(resid.std(ddof=0)))


@dataclass(frozen=True)
class RfDemandFit:
    """Reduced-form 2SLS demand curve, linear or log-log."""

    form: str
    linear_fit: LinearFit

    def predict(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if self.form == "linear":
            return self.linear_fit.predict(p[:, None])
        return np.exp(self.linear_fit.predict(np.log(p)[:, None]))


def rf_demand(data: MarketData, form: str = "linear") -> RfDemandFit:
    """Two-stage least squares of quantity on price, instrumented by the cost
    shifter (plus a constant); the log-log form regresses logs on logs."""
    if form not in ("linear", "loglog"):
        raise ValueError(f"unknown reduced form: {form}")
    if form == "linear":
        fit = fit_2sls(data.quantities, data.prices[:, None],
                       data.cost_shifters[:, None], ("p",))
    else:
        if np.any(data.prices <= 0.0) or np.any(data.quantities <= 0.0):
            raise ValueError("log-log form requires positive prices and quantities")
        fit = fit_2sls(np.log(data.quantities), np.log(data.prices)[:, None],
                       data.cost_shifters[:, None], ("log p",))
    return RfDemandFit(form, fit)


@dataclass(frozen=True)
class DemandBenchmark(StructuralBenchmark):
    """Estimated pricing model as a generative demand benchmark."""

    estimates: DemandEstimates
    price_range: tuple[float, float]

    identifier = "monopoly-pricing-demand"

    def implied_mean(self, x) -> np.ndarray:
        p = np.asarray(x, dtype=float)
        p = p.ravel() if p.ndim <= 1 else p[:, 0]
        return self.estimates.implied_demand(p)

    def simulate(self, domain: DomainSpec, size: int, rng: SeededRng) -> Dataset:
        gen = rng.generator()
        p = gen.uniform(domain.lower[0], domain.upper[0], size=size)
        q = self.implied_mean(p) + gen.normal(0.0, self.estimates.residual_sd, size=size)
        return Dataset(p[:, None], q)


def demand_benchmark(estimates: DemandEstimates, price_range: tuple[float, float]) -> DemandBenchmark:
    if estimates.beta <= 0.0:
        raise ValueError("benchmark requires a positive demand slope")
    return DemandBenchmark(estimates, price_range)


class MonopolyPricingModel(BenchmarkFamily):
    """Benchmark family: estimate the pricing system on a market sample."""

    def estimate(self, data: Dataset, rng: SeededRng) -> DemandBenchmark:
        markets = MarketData(data.inputs[:, 0], data.outcome, data.instruments[:, 0])
        estimates = structural_estimate_demand(markets)
        rng_span = (float(markets.prices.min()), float(markets.prices.max()))
        return demand_benchmark(estimates, rng_span)


def instrument_basis(
    z: np.ndarray,
    center: float = 0.0,
    scale: float = 1.0,
    powers: int = INSTRUMENT_POWERS,
) -> np.ndarray:
    """Polynomial instrument block ``(1, z, z^2, ..., z^powers)``.

    Powers are formed on the affinely rescaled shifter ``(z - center) /
    scale``; with the projection weight this spans the same column space as
    raw powers (the moment objective is invariant to affine recombinations of
    the basis) while keeping the Gram matrix well conditioned at degree 5.
    The caller must reuse one (center, scale) pair for every basis that
    shares a weight matrix.
    """
    z = np.asarray(z, dtype=float).ravel()
    zs = (z - center) / scale
    return np.column_stack([zs**j for j in range(powers + 1)])


def projection_weight(Z: np.ndarray) -> np.ndarray:
    """Two-stage-least-squares weight ``(Z'Z)^{-1}`` with a ridge-free inverse."""
    gram = Z.T @ Z
    try:
        return np.linalg.inv(gram)
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError("singular instrument Gram matrix") from exc


@dataclass(frozen=True)
class GmmSreFit:
    """Penalized moment fit of the quadratic demand curve.

    ``theta`` multiplies ``(1, p_std, p_std^2)`` where the price powers are
    standardized by ``fit.transform``. The training-sample projection weight
    and the instrument rescaling constants are kept so held-out moments are
    scored in the same basis.
    """

    fit: SREFit
    weight: np.ndarray
    z_center: float
    z_scale: float

    def predict(self, inputs) -> np.ndarray:
        return self.fit.predict(inputs)


def _gmm_sre_fitter(benchmark: DemandBenchmark, penalty: PenaltySpec,
                    synthetic_domain: DomainSpec):
    features = PolynomialFeatures(2)

    def fitter(train: Dataset):
        F = features.transform(train.inputs)
        _, transform = standardize(Dataset(F, train.outcome))
        theta_m = fit_theta_m(features, benchmark, synthetic_domain, transform=transform)
        design = np.column_stack(
            [np.ones(train.n), transform.transform_inputs(F)]
        )
        z = train.instruments[:, 0]
        center, scale = float(z.mean()), float(z.std(ddof=0) or 1.0)
        Z = instrument_basis(z, center, scale)
        W = projection_weight(Z)

        def solve(lam: float) -> GmmSreFit:
            theta = sre_gmm(design, Z, train.outcome, W, theta_m, penalty, lam)
            return GmmSreFit(SREFit(theta, transform, theta_m, lam, features), W, center, scale)

        return solve

    return fitter


def _gmm_scorer(model: GmmSreFit, val: Dataset) -> float:
    resid = val.outcome - model.predict(val.inputs)
    Z = instrument_basis(val.instruments[:, 0], model.z_center, model.z_scale)
    m_bar = Z.T @ resid / val.n
    return float(m_bar @ (model.weight @ m_bar))


def sre_demand(
    data: MarketData,
    benchmark_family: BenchmarkFamily,
    rng: SeededRng,
    lambda_grid=None,
    cv_plan: CvPlan | None = None,
) -> tuple[SREFit, CvTrace]:
    """Two-stage moment-penalized demand fit with sample splitting.

    Half the markets estimate the pricing model; the other half carry the
    quadratic moment fit with instruments ``(1, z, ..., z^5)`` and projection
    weighting, with the penalty chosen by standard K-fold cross-validation on
    the held-out moment objective (training-fold weight).
    """
    dataset = data.to_dataset()
    cv_plan = cv_plan if cv_plan is not None else CvPlan(kind="kfold", K=5)
    if cv_plan.kind != "kfold":
        raise ValueError("demand penalty selection uses standard K-fold CV")
    folds = partition_indices(dataset.n, 2, rng.split(0))
    d1, d2 = dataset.subset(folds[0]), dataset.subset(folds[1])
    benchmark = benchmark_family.estimate(d1, rng.split(1))
    price_span = DomainSpec.interval(
        float(data.prices.min()), float(data.prices.max())
    )
    grid = default_lambda_grid(d2.n) if lambda_grid is None else np.asarray(lambda_grid, float)
    penalty = PenaltySpec(grid, np.array([0.0, 1.0, 1.0]))
    fitter = _gmm_sre_fitter(benchmark, penalty, price_span)

    trace = kfold_cv(fitter, _gmm_scorer, d2, grid, cv_plan.K, rng.split(2))
    fit = replace(fitter(d2)(trace.lambda_star).fit, cv="kfold", parts=(trace,))
    return fit, trace


SCENARIOS = {
    1: ("optimal", "linear"),
    2: ("dampened", "linear"),
    3: ("optimal", "loglog"),
    4: ("dampened", "loglog"),
}
DAMPENED_MARKUP = 0.4


def scenario_params(index: int, params: DemandParams) -> tuple[DemandParams, str]:
    """Map an experiment index to its pricing rule and reduced-form shape."""
    if index not in SCENARIOS:
        raise ValueError(f"demand scenario must be in {sorted(SCENARIOS)}, got {index}")
    pricing, rf_form = SCENARIOS[index]
    markup = 1.0 if pricing == "optimal" else params.lambda_markup
    return replace(params, lambda_markup=markup), rf_form


def evaluation_grid(params: DemandParams, rng: SeededRng) -> np.ndarray:
    """Shared price grid: evenly spaced between the 1st and 99th percentile of
    a large reference simulation (fixed reserved stream, so every trial and
    rerun sees the same grid)."""
    ref = simulate_markets(
        replace(params, M=REFERENCE_MARKETS), rng.stream(_GRID_STREAM)
    )
    lo, hi = np.percentile(ref.prices, [1.0, 99.0])
    return np.linspace(lo, hi, EVAL_GRID_POINTS)


def demand_experiment(
    scenario: int,
    params: DemandParams | None = None,
    estimators: tuple[str, ...] = ("rf", "structural", "sre"),
    trials: int = 100,
    rng: SeededRng | None = None,
    lambda_grid=None,
    trial_indices=None,
) -> tuple[list[tuple], dict]:
    """Monte Carlo comparison of demand-curve estimators on one scenario.

    All comparisons are in-domain: fitted demand curves are scored against
    the true line ``alpha - beta * p`` on a common price grid spanning the
    simulated price distribution.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = rng if rng is not None else SeededRng(0)
    params = params if params is not None else DemandParams(lambda_markup=DAMPENED_MARKUP)
    sim_params, rf_form = scenario_params(scenario, params)
    grid = evaluation_grid(sim_params, rng)
    truth = sim_params.alpha - sim_params.beta * grid
    family = MonopolyPricingModel()

    records: list[tuple] = []
    for trial in range(trials) if trial_indices is None else trial_indices:
        trial_rng = rng.stream(trial)
        try:
            data = simulate_markets(sim_params, trial_rng.split(0))
            preds: dict[str, np.ndarray] = {}
            if "rf" in estimators:
                preds["rf"] = rf_demand(data, rf_form).predict(grid)
            if "structural" in estimators:
                estimates = structural_estimate_demand(data)
                preds["structural"] = estimates.implied_demand(grid)
            if "sre" in estimators:
                fit, _ = sre_demand(
                    data, family, trial_rng.split(1), lambda_grid=lambda_grid
                )
                preds["sre"] = fit.predict(grid[:, None])
        except Exception as exc:
            raise RuntimeError(f"trial {trial} failed: {exc}") from exc
        for name, values in preds.items():
            records.extend(
                (trial, name, "in", float(x), float(t), float(v))
                for x, t, v in zip(grid, truth, values)
            )

    metadata = {
        "scenario": scenario,
        "rf_form": rf_form,
        "params": sim_params.__dict__.copy(),
        "grid": grid.tolist(),
    }
    return records, metadata
