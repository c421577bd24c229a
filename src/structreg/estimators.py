"""Classical baseline estimators: OLS, polynomial regression with AIC degree
selection, nonlinear ARX series models with AIC order selection, and two-stage
least squares.

Both selectors score their candidate fits by one rule, the concentrated
Gaussian AIC of :func:`_lowest_aic`. The polynomial search tries only the
degrees the sample identifies. The ARX fits take the layout of
:func:`arx_feature_rows`: a share series that starts with the initial state,
and a profit path one period shorter.

All fits go through an SVD-based least-squares solve with a condition-number
guard; rank-deficient designs raise instead of silently falling back to a
pseudo-inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset

CONDITION_LIMIT = 1e12


class SingularDesignError(ValueError):
    """Design matrix is rank deficient or numerically singular."""


def solve_least_squares(A: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares solve via SVD with a condition-number guard.

    ``y`` may be a vector or a matrix of stacked right-hand sides. A design
    with fewer rows than columns is rank deficient and raises
    :class:`SingularDesignError` like any other singular one.
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    if A.shape[0] < A.shape[1]:
        raise SingularDesignError(
            f"singular design: {A.shape[0]} rows for {A.shape[1]} coefficients")
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    if s[0] <= 0.0 or s[-1] <= 0.0 or s[0] / s[-1] > CONDITION_LIMIT:
        raise SingularDesignError("singular design")
    uy = u.T @ y
    scaled = uy / s if uy.ndim == 1 else uy / s[:, None]
    return vt.T @ scaled


@dataclass(frozen=True)
class LinearFit:
    """Intercept plus slope coefficients over the design columns."""

    intercept: float
    coefficients: np.ndarray

    def __post_init__(self):
        coefs = np.atleast_1d(np.asarray(self.coefficients, dtype=float))
        object.__setattr__(self, "coefficients", coefs)
        if not np.isfinite(coefs).all() or not np.isfinite(self.intercept):
            raise ValueError("non-finite fit coefficients")

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        return self.intercept + X @ self.coefficients


def fit_ols(X, y) -> LinearFit:
    """Ordinary least squares with an intercept.

    Parameters
    ----------
    X : (N, p) array
        Regressors, without a constant column.
    y : (N,) array
        Outcomes.

    Raises
    ------
    SingularDesignError
        If the intercept-augmented design is rank deficient.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    y = np.asarray(y, dtype=float).ravel()
    n, p = X.shape
    if n <= p:
        raise ValueError(f"need more than {p} rows to fit {p} slopes")
    design = np.column_stack([np.ones(n), X])
    theta = solve_least_squares(design, y)
    return LinearFit(float(theta[0]), theta[1:])


@dataclass(frozen=True)
class PolyFit:
    """Polynomial regression of a single regressor.

    The regressor is standardized internally before powers are formed, which
    keeps the design well conditioned at degree 5 on inputs like ``[5, 50]``.
    Raw-scale predictions are invariant to that standardization.
    """

    degree: int
    linear_fit: LinearFit
    input_mean: float
    input_scale: float

    def _standardized(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).ravel()
        return (x - self.input_mean) / self.input_scale

    def predict(self, x) -> np.ndarray:
        z = self._standardized(x)
        powers = np.column_stack([z**j for j in range(1, self.degree + 1)])
        return self.linear_fit.predict(powers)

    def derivative(self, x) -> np.ndarray:
        """Analytic d(prediction)/dx in the raw input scale."""
        z = self._standardized(x)
        coefs = self.linear_fit.coefficients
        out = np.zeros_like(z)
        for j in range(1, self.degree + 1):
            out += coefs[j - 1] * j * z ** (j - 1)
        return out / self.input_scale


def fit_polynomial(x, y, degree: int) -> PolyFit:
    """Least-squares polynomial fit of stated degree on a standardized regressor."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape[0] <= degree + 1:
        raise ValueError("need more rows than polynomial degree + 1")
    mean = float(x.mean())
    scale = float(x.std(ddof=0))
    if scale <= 0.0:
        raise SingularDesignError("singular design")
    z = (x - mean) / scale
    powers = np.column_stack([z**j for j in range(1, degree + 1)])
    fit = fit_ols(powers, y)
    return PolyFit(degree, fit, mean, scale)


def _lowest_aic(candidates, y, n: int):
    """The candidate fit of lowest AIC; ties go to the earlier candidate.

    ``candidates`` holds ``(fit, residuals, parameter count)`` triples scored
    on ``n`` common rows. AIC uses the Gaussian concentrated form
    ``n * ln(RSS / n) + 2 * k``. Residual sums below numerical noise, on the
    scale of ``y``, are floored at a common value so that a family of exact
    fits resolves ties toward the first, smallest model.
    """
    floor = n * (1e-10 * max(1.0, float(np.sqrt(np.mean(y**2))))) ** 2
    best, best_aic = None, np.inf
    for fit, resid, k in candidates:
        rss = max(float(resid @ resid), floor)
        aic = n * np.log(rss / n) + 2.0 * k
        if aic < best_aic - 1e-12:
            best, best_aic = fit, aic
    return best


def select_degree_aic(x, y, max_degree: int) -> PolyFit:
    """The polynomial fit whose degree minimizes AIC; ties go to the smaller degree.

    The degrees tried run from 1 to the smallest of ``max_degree``, the number
    of distinct ``x`` values less one and the row count less three; a sample
    that bounds them below 1 raises :class:`SingularDesignError`.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    n, distinct = y.shape[0], np.unique(x).shape[0]
    top = min(max_degree, distinct - 1, n - 3)
    if top < 1:
        raise SingularDesignError(
            f"singular design: {n} rows and {distinct} distinct x values allow no polynomial")
    fits = [fit_polynomial(x, y, degree) for degree in range(1, top + 1)]
    return _lowest_aic([(fit, y - fit.predict(x), fit.degree + 1) for fit in fits], y, n)


@dataclass(frozen=True)
class ARXFit:
    """Autoregressive model with a polynomial exogenous term.

    Predicts ``s_t`` from ``(1, R_t, ..., R_t^p, s_{t-1}, ..., s_{t-q})``, the
    rows of :func:`arx_feature_rows`.
    """

    exog_order: int
    ar_order: int
    linear_fit: LinearFit

    def predict_series(self, shares_with_initial, R_path) -> np.ndarray:
        """One-step-ahead predictions of ``s_t`` using realized lags, for
        ``t = q, ..., T``; the layout is that of :func:`arx_feature_rows`."""
        rows = arx_feature_rows(shares_with_initial, R_path, self.exog_order, self.ar_order)
        return self.linear_fit.predict(rows.inputs)


def arx_feature_rows(shares_with_initial, R_path, p: int, q: int) -> Dataset:
    """Supervised dataset for an ARX(p, q) fit: rows are periods ``q..T``.

    Features are ``(R_t, ..., R_t^p, s_{t-1}, ..., s_{t-q})`` and targets
    ``s_t``, where the series ``s`` includes the initial state at position 0,
    so it is one longer than the exogenous path ``R_1..R_T``.
    """
    s = np.asarray(shares_with_initial, dtype=float).ravel()
    R = np.asarray(R_path, dtype=float).ravel()
    if s.shape[0] != R.shape[0] + 1:
        raise ValueError("series lengths differ")
    T = R.shape[0]
    if T < q:
        raise ValueError("series too short for requested orders")
    periods = np.arange(q, T + 1)  # 1-indexed targets
    cols = [R[periods - 1] ** j for j in range(1, p + 1)]
    cols.extend(s[periods - ell] for ell in range(1, q + 1))
    return Dataset(np.column_stack(cols), s[periods], time_index=periods)


def fit_arx(shares_with_initial, R_path, p: int, q: int) -> ARXFit:
    """OLS fit of an ARX(p, q) model on the rows of :func:`arx_feature_rows`;
    the first q periods serve as lags only.

    Constant regressor columns (a flat series or flat exogenous path) are
    redundant with the intercept; they are dropped from the solve and their
    coefficients reported as zero, leaving an intercept-only representation.
    """
    if p < 1 or q < 1:
        raise ValueError("orders must be >= 1")
    rows = arx_feature_rows(shares_with_initial, R_path, p, q)
    if rows.n <= p + 1:
        raise ValueError("series too short for requested orders")
    X, target = np.column_stack([np.ones(rows.n), rows.inputs]), rows.outcome
    keep = np.ptp(X[:, 1:], axis=0) > 0.0
    theta = np.zeros(X.shape[1])
    cols = np.concatenate([[True], keep])
    solved = solve_least_squares(X[:, cols], target)
    theta[cols] = solved
    return ARXFit(p, q, LinearFit(float(theta[0]), theta[1:]))


def select_arx_order_aic(shares_with_initial, R_path, exog_orders, ar_orders) -> ARXFit:
    """The ARX fit whose orders minimize AIC on the common usable sample, the
    periods past the largest AR order; ties prefer the smaller (q, p) pair."""
    s = np.asarray(shares_with_initial, dtype=float).ravel()
    q_max = max(ar_orders)
    fits = [fit_arx(s, R_path, p, q) for q in sorted(ar_orders) for p in sorted(exog_orders)]
    candidates = [(fit, s[q_max:] - fit.predict_series(s, R_path)[q_max - fit.ar_order:],
                   1 + fit.exog_order + fit.ar_order) for fit in fits]
    return _lowest_aic(candidates, s, s.shape[0] - q_max)


def fit_2sls(y, X, Z) -> LinearFit:
    """Two-stage least squares with an intercept in both stages.

    Requires at least as many instruments as regressors. When the instrument
    count equals the regressor count this reduces to the just-identified
    estimator ``(Z'X)^{-1} Z'y``.

    Raises
    ------
    SingularDesignError
        With message ``"rank-deficient projected design"`` when the projected
        first-stage regressors are (numerically) collinear, e.g. under an
        irrelevant instrument.
    """
    y = np.asarray(y, dtype=float).ravel()
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if Z.ndim == 1:
        Z = Z[:, None]
    n, p = X.shape
    if Z.shape[0] != n or y.shape[0] != n:
        raise ValueError("row counts differ")
    if Z.shape[1] < p:
        raise ValueError("need at least as many instruments as regressors")
    ones = np.ones((n, 1))
    Xc = np.hstack([ones, X])
    Zc = np.hstack([ones, Z])
    try:
        first_stage = solve_least_squares(Zc, Xc)
    except SingularDesignError as exc:
        raise SingularDesignError("singular instrument design") from exc
    X_hat = Zc @ first_stage
    try:
        theta = solve_least_squares(X_hat, y)
    except SingularDesignError as exc:
        raise SingularDesignError("rank-deficient projected design") from exc
    return LinearFit(float(theta[0]), theta[1:])
