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
from functools import lru_cache

import numpy as np

from .data import Dataset, SeededRng, partition_indices, stacked_standardization
from .estimators import (
    LinearFit,
    SingularDesignError,
    _powers,
    fit_2sls,
    solve_least_squares,
)
from .metrics import Curves, _each, _run_trials
from .sre import (
    PenaltySpec,
    PolynomialFeatures,
    SREFit,
    default_lambda_grid,
    gmm_normal_equations,
    sre_gmm,  # noqa: F401  perfbench/selftest.py reads it as demand.sre_gmm
)
from .tuning import RidgeFold, kfold_cv

INSTRUMENT_POWERS = 5
EVAL_GRID_POINTS = 100
REFERENCE_MARKETS = 20_000
CV_FOLDS = 5
STRUCTURAL_MIN_MARKETS = 4  # the pricing identity has three coefficients
RF_MIN_MARKETS = 3  # with two, the two-coefficient 2SLS line interpolates
DAMPENED_MARKUP = 0.4
_QUADRATIC = PolynomialFeatures(2)  # the regularized fit's demand curve
_GRID_STREAM = 2**62  # reserved stream index; trials use small indices


@dataclass(frozen=True)
class DemandParams:
    """Demand, cost, and noise parameters of the market simulator.

    The shipped defaults keep every price and quantity positive, give the
    cost shifter enough sweep that a log-log fit of the linear curve is
    visibly misspecified, and make demand noise large enough that the naive
    price-quantity scatter slopes upward under optimal pricing. The default
    markup is the one the dampened-pricing scenarios use; the optimal-pricing
    scenarios set it to 1 (see :func:`scenario_params`).
    """

    alpha: float = 260.0
    beta: float = 2.0
    a: float = 10.0
    b: float = 1.2
    lambda_markup: float = DAMPENED_MARKUP
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
        if self.eps_sd < 0.0:
            raise ValueError("eps_sd must be nonnegative")
        if self.M < 1:
            raise ValueError("M must be >= 1")


def simulate_markets(params: DemandParams, rng: SeededRng) -> Dataset:
    """Draw cost shifters and demand shocks, then solve market equilibria:
    each market's price (the input), quantity (the outcome) and cost shifter
    (the instrument).

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
    return Dataset(prices[:, None], quantities, z[:, None])


@dataclass(frozen=True)
class DemandEstimates:
    """Structural parameter estimates ``(alpha, beta, a, b)``."""

    alpha: float
    beta: float
    a: float
    b: float

    def implied_demand(self, p) -> np.ndarray:
        return self.alpha - self.beta * np.asarray(p, dtype=float)


def _columns(samples) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The prices, quantities and cost shifters of samples of one size, one row each."""
    return (np.stack([data.inputs[:, 0] for data in samples]),
            np.stack([data.outcome for data in samples]),
            np.stack([data.instruments[:, 0] for data in samples]))


def structural_estimate_demand(samples) -> list[DemandEstimates]:
    """Solve the pricing identity ``p = a + b z + q / beta`` by least squares,
    for every sample of a block of samples of one size, by one batched
    least-squares solve.

    Exact (zero residual) when prices are set optimally; under dampened
    markups the quantity coefficient is ``markup / beta``, so the recovered
    slope estimates ``beta / markup`` — the model's misspecification bias.
    The demand intercept follows as the mean of ``q + beta_hat * p``.
    """
    if samples[0].n < STRUCTURAL_MIN_MARKETS:
        raise ValueError(f"need at least {STRUCTURAL_MIN_MARKETS} markets")
    p, q, z = _columns(samples)
    coef = solve_least_squares(np.stack([np.ones_like(z), z, q], axis=2), p)
    estimates = []
    for (a_hat, b_hat, inv_beta), prices, quantities in zip(coef.tolist(), p, q):
        if inv_beta <= 0.0:
            raise ValueError("estimated inverse demand slope is nonpositive")
        beta_hat = 1.0 / inv_beta
        alpha_hat = float(np.mean(quantities + beta_hat * prices))
        estimates.append(DemandEstimates(alpha_hat, beta_hat, a_hat, b_hat))
    return estimates


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


def rf_demand(samples, form: str = "linear") -> list[RfDemandFit]:
    """Two-stage least squares of quantity on price, instrumented by the cost
    shifter (plus a constant), for every sample of a block of samples of one
    size; the log-log form regresses logs on logs. Each 2SLS stage is one
    batched least-squares solve."""
    if form not in ("linear", "loglog"):
        raise ValueError(f"unknown reduced form: {form}")
    p, q, z = _columns(samples)
    if form == "loglog":
        if np.any(p <= 0.0) or np.any(q <= 0.0):
            raise ValueError("log-log form requires positive prices and quantities")
        p, q = np.log(p), np.log(q)
    return [RfDemandFit(form, fit) for fit in fit_2sls(q, p[:, :, None], z[:, :, None])]


def instrument_basis(z: np.ndarray, center, scale, weight=1.0) -> np.ndarray:
    """Polynomial instrument block ``(1, z, z^2, ..., z^INSTRUMENT_POWERS)``.

    Powers are formed on the affinely rescaled shifter ``(z - center) /
    scale``; with the projection weight this spans the same column space as
    raw powers (the moment objective is invariant to affine recombinations of
    the basis) while keeping the Gram matrix well conditioned at degree 5.
    The caller must reuse one (center, scale) pair for every basis that
    shares a weight matrix. ``z`` of shape ``(S, n)`` with ``center`` and
    ``scale`` of shape ``(S, 1)`` gives ``S`` blocks at once.

    Each row is multiplied by its ``weight``, 1 on the rows a sample uses and
    0 on padding rows (by default every row is used), so column 0 is the
    weight itself. The weight is put on the rescaled shifter before the
    powers, which are its running products (``estimators._powers``): the
    bits, zero signs included, are those of the unweighted powers times the
    weight, without a pass over every column. The basis takes no sum over
    rows; the moment fold's ``center`` and ``scale`` are the shifter's
    :func:`~structreg.data.stacked_standardization`, one column and so
    numpy's pairwise sum (two or more columns would be summed row by row).
    The block is C-ordered, the layout the fold's matrix products read.
    """
    Z = _powers((np.asarray(z, dtype=float) - center) / scale * weight, INSTRUMENT_POWERS)
    Z[..., 0] = weight
    return Z


class GmmFold(RidgeFold):
    """The penalized moment fits of the quadratic demand curve on a stack of
    training samples of one size.

    ``theta`` multiplies ``(1, p_std, p_std^2)`` where the price powers are
    standardized by the sample's ``means`` and ``scales``. ``G`` and ``b``
    are each sample's moment normal equations ``(X'Z W Z'X, X'Z W Z'y)``
    over its instrument block ``Z``, built on its own rescaling of the cost
    shifter, and its projection weight ``W = (Z'Z)^{-1}``. Every sample of a
    stack gets its own rescaling and weight, and a cross-validation split's
    held-out moments are scored in its training rows' basis and weight, by
    :meth:`_held_out_error` from the split's instrument cross-products. The
    cross-validation passes on only ``lambda_star``, so those fold errors
    may differ from the residual form's at rounding level.
    """

    @classmethod
    def _pose(cls, F, data, rows, weight, fail) -> dict:
        """:meth:`RidgeFold._pose` with every sample's instrument block, its
        projection weight, and the shifter's ``z_means`` and ``z_scales`` that
        rescale its basis.

        Fewer rows than instrument columns, or an exactly singular Gram
        matrix, fail as ``singular instrument Gram matrix``.
        """
        posed = super()._pose(F, data, rows, weight, fail)
        z = data.instruments[:, 0]
        center, scale, _ = stacked_standardization(z[:, None], rows, weight)
        Z = instrument_basis(z[rows], center, scale, weight)
        few = weight.sum(axis=1) < Z.shape[2]
        if few.any():
            raise fail(int(np.argmax(few)), SingularDesignError("singular instrument Gram matrix"))
        gram = Z.swapaxes(1, 2) @ Z
        try:
            W = np.linalg.inv(gram)
        except np.linalg.LinAlgError as exc:
            first = int(np.argmax(np.linalg.det(gram) == 0.0))
            raise fail(first, SingularDesignError("singular instrument Gram matrix")) from exc
        return posed | {"instruments": Z, "weight": W, "z_means": center, "z_scales": scale}

    @staticmethod
    def _normal_equations(posed) -> tuple[np.ndarray, np.ndarray]:
        """Every posed sample's moment normal equations."""
        return gmm_normal_equations(posed["design"], posed["instruments"], posed["outcome"],
                                    posed["weight"])

    def _held_out_error(self, posed, splits, F_val, thetas) -> np.ndarray:
        """Every split's held-out moment objective ``m' W m`` at every grid
        point, with its training rows' projection weight ``W``: the moment
        fold's held-out score, formed here and nowhere else.

        The held-out moments ``m = Z'r / n`` over the split's ``n`` validation
        rows are linear in the path, and the split's validation instrument
        block ``Z`` carries each row's 0/1 weight, so they are formed from
        one cross-product block per split, against the residual ``r_0`` at
        the path's first grid point ``lambda_0``::

            m = (Z'r_0 - Z'1 (theta_0 - theta_0(lambda_0))
                 - Z'F_val (theta_1 - theta_1(lambda_0))) / n

        without a residual per (split, row, grid point). Taking the path's
        steps from ``lambda_0`` rather than whole coefficients keeps ``Z'y``
        and ``Z'X theta``, which nearly cancel, out of the difference, for
        one more product over the validation rows: against an
        extended-precision reference the fold errors of 11,930 traces stay
        within 2.9e-13 of their split's largest error, where scoring against
        ``Z'y`` itself was off by up to 5.7e-13 and the residual form stays
        within 6.4e-14. The cross-validation passes on only ``lambda_star``.
        The matrix products read C-ordered operands, so a split's bits do
        not depend on the block it is stacked in.
        """
        data = self.stacked
        Z_val = instrument_basis(data.instruments[splits.val, 0], posed["z_means"],
                                 posed["z_scales"], splits.val_weight)
        first = np.ascontiguousarray(thetas[:, 0])
        columns = np.empty(F_val.shape[:2] + (F_val.shape[2] + 2,))
        columns[:, :, 0] = 1.0
        columns[:, :, 1:-1] = F_val
        columns[:, :, -1] = (data.outcome[splits.val] - first[:, :1]
                             - (F_val @ first[:, 1:, None])[:, :, 0])
        cross = Z_val.swapaxes(1, 2) @ columns
        steps = (thetas - thetas[:, :1]).swapaxes(1, 2)
        fitted = np.ascontiguousarray(cross[:, :, :-1]) @ np.ascontiguousarray(steps)
        m_bar = (cross[:, :, -1:] - fitted) / splits.val_weight.sum(axis=1)[:, None, None]
        return np.sum(m_bar * (posed["weight"] @ m_bar), axis=1)


def sre_demand(samples, rngs, lambda_grid=None) -> list[SREFit]:
    """Two-stage moment-penalized demand fits with sample splitting, one per
    sample of a block: samples of one size, each with its own rng.

    Half of each sample's markets estimate the pricing model; the other half
    carry the quadratic moment fit with instruments ``(1, z, ..., z^5)`` and
    projection weighting, with the penalty chosen by ``CV_FOLDS``-fold
    cross-validation on the held-out moment objective (training-fold
    weight). The benchmark is the estimated demand line ``alpha_hat -
    beta_hat * p``: it lies in the quadratic's span, so its raw-scale
    coefficients over ``(1, p, p^2)`` are ``(alpha_hat, -beta_hat, 0)`` and
    no projection is fitted. The first halves' pricing regressions are one
    batched least-squares solve; the second halves are one moment fold
    (:class:`GmmFold`), cross-validated by :func:`~structreg.tuning.kfold_cv`
    and fitted as one stack, and each sample gets the bits it gets in a block
    of one. The cross-validation trace is ``fit.trace``.
    """
    halves = [partition_indices(data.n, 2, rng.split(0)) for data, rng in zip(samples, rngs)]
    estimates = structural_estimate_demand([data.subset(folds[0])
                                            for data, folds in zip(samples, halves)])
    fit_halves = [data.subset(folds[1]) for data, folds in zip(samples, halves)]
    grid = default_lambda_grid(fit_halves[0].n) if lambda_grid is None else lambda_grid
    penalty = PenaltySpec(grid, np.array([0.0, 1.0, 1.0]))
    folds = GmmFold.of_samples(fit_halves, _QUADRATIC, penalty,
                               [[e.alpha, -e.beta, 0.0] for e in estimates])
    return folds.fit(kfold_cv(folds, CV_FOLDS, [rng.split(2) for rng in rngs]))


SCENARIOS = {
    1: ("optimal", "linear"),
    2: ("dampened", "linear"),
    3: ("optimal", "loglog"),
    4: ("dampened", "loglog"),
}


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
    rerun sees the same grid).

    The grid reads only the parameters other than ``M`` (the reference
    simulation has ``REFERENCE_MARKETS`` markets) and ``rng.base_seed``, not
    the rng's stream or subkey. It is computed once per process for each of
    those and returned read-only, so every caller shares one array.
    """
    return _reference_grid(replace(params, M=REFERENCE_MARKETS), rng.base_seed)


@lru_cache
def _reference_grid(params: DemandParams, base_seed: int) -> np.ndarray:
    ref = simulate_markets(params, SeededRng(base_seed).stream(_GRID_STREAM))
    lo, hi = np.percentile(ref.inputs[:, 0], [1.0, 99.0])
    grid = np.linspace(lo, hi, EVAL_GRID_POINTS)
    grid.flags.writeable = False
    return grid


def demand_experiment(
    scenario: int,
    params: DemandParams | None = None,
    estimators: tuple[str, ...] = ("rf", "structural", "sre"),
    trials: int = 100,
    rng: SeededRng | None = None,
    lambda_grid=None,
    trial_indices=None,
) -> tuple[Curves, dict]:
    """Monte Carlo comparison of demand-curve estimators on one scenario.

    Per trial: simulate the markets, fit each requested estimator, and score
    its demand curve against the true line ``alpha - beta * p`` on the
    common price grid (all in-domain). Each trial of a block is simulated on
    its own stream; the block's reduced-form fits (:func:`rf_demand`),
    structural fits (:func:`structural_estimate_demand`) and second stages
    (:func:`sre_demand`) are then fitted as one stack each, with each
    trial's results the bits it gets alone. Returns the run's
    :class:`~structreg.metrics.Curves` and metadata holding the scenario,
    the reduced form, the parameters and the price grid.
    """

    def setup(rng):
        sim_params, rf_form = scenario_params(
            scenario, params if params is not None else DemandParams())
        grid = evaluation_grid(sim_params, rng)
        truth = {"in": sim_params.alpha - sim_params.beta * grid}

        def block(trial_rngs):
            samples = _each(lambda trial_rng: simulate_markets(sim_params, trial_rng.split(0)),
                            trial_rngs)
            preds: dict[str, list[np.ndarray]] = {}
            if "rf" in estimators:
                preds["rf"] = [fit.predict(grid) for fit in rf_demand(samples, rf_form)]
            if "structural" in estimators:
                preds["structural"] = [estimates.implied_demand(grid)
                                       for estimates in structural_estimate_demand(samples)]
            if "sre" in estimators:
                preds["sre"] = [fit.predict(grid[:, None]) for fit in sre_demand(
                    samples, [trial_rng.split(1) for trial_rng in trial_rngs], lambda_grid)]
            return [(truth, {name: {"in": values[t]} for name, values in preds.items()})
                    for t in range(len(samples))]

        metadata = {"scenario": scenario, "rf_form": rf_form,
                    "params": sim_params.__dict__.copy(), "grid": grid.tolist()}
        return {"in": grid}, block, metadata

    return _run_trials(trials, rng, trial_indices, setup)
