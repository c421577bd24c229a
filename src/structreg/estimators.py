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
pseudo-inverse. :func:`solve_least_squares`, :func:`select_degree_aic` and
:func:`fit_2sls` take one system or a stack of them along a leading axis,
told apart by one argument's number of dimensions; a stack is solved by one
batched SVD per solve, and each of its systems gets the bits it gets alone.
This is how the auction and demand studies fit a block of trials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataError, Dataset

CONDITION_LIMIT = 1e12


class SingularDesignError(ValueError):
    """Design matrix is rank deficient or numerically singular."""


def solve_least_squares(A: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares solve via SVD with a condition-number guard.

    A 2-D ``A`` of shape ``(n, k)`` is one system, with ``y`` a vector or a
    matrix of stacked right-hand sides. A 3-D ``A`` of shape ``(S, n, k)`` is
    a stack of ``S`` systems with ``y`` of shape ``(S, n)`` or ``(S, n, m)``,
    solved by one batched SVD; each system gets the bits it gets alone. A
    design with fewer rows than columns is rank deficient and raises
    :class:`SingularDesignError` like any system whose design is singular or
    worse conditioned than ``CONDITION_LIMIT``.
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    single = A.ndim == 2
    if single:
        A, y = A[None], y[None]
    if A.shape[1] < A.shape[2]:
        raise SingularDesignError(
            f"singular design: {A.shape[1]} rows for {A.shape[2]} coefficients")
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    for top, bottom in zip(s[:, 0].tolist(), s[:, -1].tolist()):
        if top <= 0.0 or bottom <= 0.0 or top / bottom > CONDITION_LIMIT:
            raise SingularDesignError("singular design")
    vector = y.ndim == 2
    uy = u.swapaxes(1, 2) @ (y[:, :, None] if vector else y)
    theta = vt.swapaxes(1, 2) @ (uy / s[:, :, None])
    if vector:
        theta = theta[:, :, 0]
    return theta[0] if single else theta


def _powers(z: np.ndarray, degree: int) -> np.ndarray:
    """``(1, z, z^2, ..., z^degree)`` along a new last axis, ``degree >= 1``,
    each column the one before times ``z``: a standardized ``z`` has both
    signs, and numpy's float64 power of a negative base is an order of
    magnitude slower than a product and differs between its kernels by an
    ulp. Columns 0-2 equal ``z**j`` bit for bit and the higher ones lie within
    a few ulp of it, the same whichever power kernel numpy would dispatch to.
    """
    z = np.asarray(z, dtype=float)
    out = np.empty(z.shape + (degree + 1,))
    out[..., 0] = 1.0
    out[..., 1] = z
    for j in range(2, degree + 1):
        np.multiply(out[..., j - 1], z, out=out[..., j])
    return out


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
        return self.linear_fit.predict(_powers(self._standardized(x), self.degree)[:, 1:])

    def derivative(self, x) -> np.ndarray:
        """Analytic d(prediction)/dx in the raw input scale."""
        slopes = np.arange(1, self.degree + 1) * self.linear_fit.coefficients
        return _powers(self._standardized(x), self.degree)[:, :-1] @ slopes / self.input_scale


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
    fit = fit_ols(_powers((x - mean) / scale, degree)[:, 1:], y)
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


def select_degree_aic(x, y, max_degree: int) -> PolyFit | list[PolyFit]:
    """The polynomial fit whose degree minimizes AIC; ties go to the smaller degree.

    The degrees tried run from 1 to the smallest of ``max_degree``, the number
    of distinct ``x`` values less one and the row count less three; a sample
    that bounds them below 1 raises :class:`SingularDesignError`.

    A 1-D ``y`` is one sample and returns one :class:`PolyFit`. A 2-D ``y``
    of shape ``(samples, rows)``, with ``x`` of the same shape, is a stack of
    samples, each with its own degree bound, and returns a list: each
    candidate degree is fitted to every sample that allows it by one batched
    :func:`solve_least_squares` call, and each sample gets the fit it gets
    alone.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    single = y.ndim == 1
    if single:
        x, y = x.ravel()[None], y[None]
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    n = y.shape[1]
    distinct = 1 + (np.diff(np.sort(x, axis=1), axis=1) != 0.0).sum(axis=1)
    top = np.minimum(np.minimum(max_degree, distinct - 1), n - 3)
    if np.any(top < 1):
        raise SingularDesignError(
            f"singular design: {n} rows and {distinct[np.argmax(top < 1)]} distinct x values "
            f"allow no polynomial")
    mean = x.mean(axis=1)
    scale = x.std(axis=1)
    z = (x - mean[:, None]) / scale[:, None]
    fits: list[list] = [[] for _ in range(y.shape[0])]
    for degree in range(1, int(top.max()) + 1):
        rows = np.flatnonzero(top >= degree)
        design = _powers(z[rows], degree)
        theta = solve_least_squares(design, y[rows])
        if not np.isfinite(theta).all():
            raise ValueError("non-finite fit coefficients")
        resid = y[rows] - (design @ theta[:, :, None])[:, :, 0]
        for row, coefficients, r in zip(rows, theta, resid):
            fits[row].append((degree, coefficients, r))
    chosen = [_lowest_aic([((degree, c), r, degree + 1) for degree, c, r in candidates], row, n)
              for candidates, row in zip(fits, y)]
    polys = [PolyFit(degree, LinearFit(float(c[0]), c[1:]), float(m), float(sd))
             for (degree, c), m, sd in zip(chosen, mean, scale)]
    return polys[0] if single else polys


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


def _arx_columns(shares_with_initial, R_path, p: int, q: int):
    """Features ``(R_t, ..., R_t^p, s_{t-1}, ..., s_{t-q})``, targets ``s_t``
    and 1-indexed periods ``q..T`` of the ARX(p, q) rows.

    The share series may be one series of length ``T + 1`` or a stack of them
    along leading axes, all on the one profit path ``R_1..R_T``; features then
    have shape ``stack + (T - q + 1, p + q)`` and targets ``stack + (T - q + 1,)``.
    """
    s = np.asarray(shares_with_initial, dtype=float)
    R = np.asarray(R_path, dtype=float).ravel()
    if s.shape[-1] != R.shape[0] + 1:
        raise ValueError("series lengths differ")
    T = R.shape[0]
    if T < q:
        raise ValueError("series too short for requested orders")
    periods = np.arange(q, T + 1)  # 1-indexed targets
    stack = s.shape[:-1] + periods.shape
    cols = [np.broadcast_to(R[periods - 1] ** j, stack) for j in range(1, p + 1)]
    cols.extend(s[..., periods - ell] for ell in range(1, q + 1))
    return np.stack(cols, axis=-1), s[..., periods], periods


def arx_feature_rows(shares_with_initial, R_path, p: int, q: int) -> Dataset:
    """Supervised dataset for an ARX(p, q) fit: rows are periods ``q..T``.

    Features are ``(R_t, ..., R_t^p, s_{t-1}, ..., s_{t-q})`` and targets
    ``s_t``, where the series ``s`` includes the initial state at position 0,
    so it is one longer than the exogenous path ``R_1..R_T``.
    """
    inputs, outcome, periods = _arx_columns(
        np.asarray(shares_with_initial, dtype=float).ravel(), R_path, p, q)
    return Dataset(inputs, outcome, time_index=periods)


def _fit_arx_rows(inputs: np.ndarray, design: np.ndarray, target: np.ndarray,
                  p: int, q: int) -> ARXFit:
    """The fit of :func:`fit_arx` on its feature rows ``inputs``; ``design``
    is the same rows behind a leading intercept column."""
    if inputs.shape[0] <= p + 1:
        raise ValueError("series too short for requested orders")
    cols = np.concatenate([[True], np.ptp(inputs, axis=0) > 0.0])
    theta = np.zeros(design.shape[1])
    theta[cols] = solve_least_squares(design[:, cols], target)
    return ARXFit(p, q, LinearFit(float(theta[0]), theta[1:]))


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
    design = np.column_stack([np.ones(rows.n), rows.inputs])
    return _fit_arx_rows(rows.inputs, design, rows.outcome, p, q)


def select_arx_order_aic(shares_with_initial, R_path, exog_orders, ar_orders) -> ARXFit:
    """The ARX fit whose orders minimize AIC on the common usable sample, the
    periods past the largest AR order; ties prefer the smaller (q, p) pair.

    Each candidate is the fit :func:`fit_arx` makes at its orders, on the
    rows and columns it takes from one design of the series: the intercept,
    the powers of ``R`` up to the largest exogenous order and the lags up to
    the largest AR order, for every period past the smallest AR order.
    """
    s = np.asarray(shares_with_initial, dtype=float).ravel()
    R = np.asarray(R_path, dtype=float).ravel()
    exog_orders, ar_orders = sorted(exog_orders), sorted(ar_orders)
    if exog_orders[0] < 1 or ar_orders[0] < 1:
        raise ValueError("orders must be >= 1")
    if s.shape[0] != R.shape[0] + 1:
        raise ValueError("series lengths differ")
    T, p_max, q_min, q_max = R.shape[0], exog_orders[-1], ar_orders[0], ar_orders[-1]
    if T < q_max:
        raise ValueError("series too short for requested orders")
    # row i is period q_min + i; a lag column holds zeros where its lag
    # precedes the series, rows that no candidate of that lag fits
    design = np.zeros((T - q_min + 1, 1 + p_max + q_max))
    design[:, 0] = 1.0
    for j in range(1, p_max + 1):
        design[:, j] = R[q_min - 1:] ** j
    for ell in range(1, q_max + 1):
        design[max(ell - q_min, 0):, p_max + ell] = s[max(q_min - ell, 0):T + 1 - ell]
    if not (np.isfinite(design).all() and np.isfinite(s).all()):
        raise DataError("non-finite entries in dataset")
    candidates = []
    for q in ar_orders:
        for p in exog_orders:
            features = [*range(1, p + 1), *range(p_max + 1, p_max + q + 1)]
            rows = design[q - q_min:]
            # C-ordered copies, as fit_arx's own rows, so that each solve and
            # product takes the same BLAS path
            inputs = rows.take(features, axis=1)
            fit = _fit_arx_rows(inputs, rows.take([0, *features], axis=1), s[q:].copy(), p, q)
            resid = s[q_max:] - fit.linear_fit.predict(inputs)[q_max - q:]
            candidates.append((fit, resid, 1 + p + q))
    return _lowest_aic(candidates, s, s.shape[0] - q_max)


def fit_2sls(y, X, Z) -> LinearFit | list[LinearFit]:
    """Two-stage least squares with an intercept in both stages.

    Requires at least as many instruments as regressors. When the instrument
    count equals the regressor count this reduces to the just-identified
    estimator ``(Z'X)^{-1} Z'y``.

    ``X`` of at most two dimensions is one system, with ``y`` of shape
    ``(n,)`` and ``X`` and ``Z`` of shape ``(n,)`` or ``(n, p)`` and
    ``(n, q)``, and returns one :class:`LinearFit`. A 3-D ``X`` of shape
    ``(S, n, p)``, with ``y`` of shape ``(S, n)`` and ``Z`` of shape
    ``(S, n, q)``, is a stack of ``S`` systems and returns a list: each stage
    is one batched :func:`solve_least_squares` call, and each system gets the
    fit it gets alone.

    Raises
    ------
    SingularDesignError
        With message ``"rank-deficient projected design"`` when the projected
        first-stage regressors are (numerically) collinear, e.g. under an
        irrelevant instrument.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    single = X.ndim < 3
    if single:
        y = y.ravel()[None]
        X = (X[:, None] if X.ndim == 1 else X)[None]
        Z = (Z[:, None] if Z.ndim == 1 else Z)[None]
    if Z.shape[1] != X.shape[1] or y.shape[1] != X.shape[1]:
        raise ValueError("row counts differ")
    if Z.shape[2] < X.shape[2]:
        raise ValueError("need at least as many instruments as regressors")
    ones = np.ones(X.shape[:2] + (1,))
    Xc = np.concatenate([ones, X], axis=2)
    Zc = np.concatenate([ones, Z], axis=2)
    try:
        first_stage = solve_least_squares(Zc, Xc)
    except SingularDesignError as exc:
        raise SingularDesignError("singular instrument design") from exc
    X_hat = Zc @ first_stage
    try:
        theta = solve_least_squares(X_hat, y)
    except SingularDesignError as exc:
        raise SingularDesignError("rank-deficient projected design") from exc
    fits = [LinearFit(float(t[0]), t[1:]) for t in theta]
    return fits[0] if single else fits
