import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from structreg.data import DataError
from structreg.estimators import (
    SingularDesignError,
    _lowest_aic,
    arx_feature_rows,
    fit_2sls,
    fit_arx,
    fit_ols,
    fit_polynomial,
    select_arx_order_aic,
    select_degree_aic,
    solve_least_squares,
)


def test_ols_exact_line():
    fit = fit_ols(np.array([[1.0], [2.0], [3.0]]), np.array([2.0, 4.0, 6.0]))
    assert fit.intercept == pytest.approx(0.0, abs=1e-12)
    assert fit.coefficients[0] == pytest.approx(2.0, abs=1e-12)


def test_ols_constant_outcome():
    fit = fit_ols(np.arange(6.0)[:, None], np.full(6, 3.5))
    assert fit.coefficients[0] == pytest.approx(0.0, abs=1e-12)
    assert fit.intercept == pytest.approx(3.5, abs=1e-12)


def test_ols_matches_independent_qr_solve():
    gen = np.random.default_rng(1)
    X = gen.normal(size=(60, 4))
    y = gen.normal(size=60)
    fit = fit_ols(X, y)
    design = np.column_stack([np.ones(60), X])
    Q, R = scipy.linalg.qr(design, mode="economic")
    ref = scipy.linalg.solve_triangular(R, Q.T @ y)
    assert np.abs(np.concatenate([[fit.intercept], fit.coefficients]) - ref).max() < 1e-10


def test_ols_residual_orthogonality():
    gen = np.random.default_rng(2)
    X = gen.normal(size=(80, 3))
    y = gen.normal(size=80)
    fit = fit_ols(X, y)
    resid = y - fit.predict(X)
    scale = max(1.0, np.abs(X).max() * np.abs(y).max())
    assert np.abs(X.T @ resid).max() <= 1e-8 * 80 * scale


def test_ols_rejects_rank_deficient_design():
    X = np.column_stack([np.arange(10.0), 2.0 * np.arange(10.0)])
    with pytest.raises(SingularDesignError, match="singular design"):
        fit_ols(X, np.arange(10.0))


def test_least_squares_rejects_fewer_rows_than_columns():
    # the SVD of a wide matrix has only as many singular values as rows, all
    # positive here, so only the shape shows that the system is underdetermined
    A = np.array([[1.0, 2.0, 0.5], [1.0, -1.0, 3.0]])
    with pytest.raises(SingularDesignError, match="singular design: 2 rows for 3 coefficients"):
        solve_least_squares(A, np.array([1.0, 2.0]))
    with pytest.raises(SingularDesignError, match="singular instrument design"):
        fit_2sls([1.0], [[2.0]], [[3.0]])
    square = solve_least_squares(A[:, :2], np.array([1.0, 2.0]))
    assert np.allclose(A[:, :2] @ square, [1.0, 2.0])


def test_polynomial_recovers_raw_coefficients():
    x = np.linspace(0.0, 4.0, 12)
    fit = fit_polynomial(x, 1.0 + 2.0 * x, 1)
    # intercept and slope of the raw-scale line, through the standardized fit
    assert fit.predict(np.array([0.0]))[0] == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(fit.derivative(x), 2.0, atol=1e-10)


def test_polynomial_exact_on_quadratic():
    x = np.arange(-2.0, 3.0)
    fit = fit_polynomial(x, x**2, 2)
    assert np.abs(fit.predict(x) - x**2).max() < 1e-10


def test_polynomial_rss_nesting():
    gen = np.random.default_rng(3)
    x = np.linspace(0, 1, 40)
    y = 1.0 + x - 2.0 * x**2 + 0.1 * gen.normal(size=40)
    rss = {}
    for degree in (2, 5):
        fit = fit_polynomial(x, y, degree)
        resid = y - fit.predict(x)
        rss[degree] = resid @ resid
    assert rss[5] <= rss[2] + 1e-12


def test_polynomial_prediction_invariant_to_internal_standardization():
    # same fit expressed through raw coefficients matches predict()
    gen = np.random.default_rng(4)
    x = gen.uniform(5, 50, size=30)
    y = gen.normal(size=30)
    fit = fit_polynomial(x, y, 3)
    raw = np.polynomial.polynomial.polyfit(x, y, 3)
    grid = np.linspace(5, 50, 7)
    direct = np.polynomial.polynomial.polyval(grid, raw)
    assert np.abs(fit.predict(grid) - direct).max() < 1e-8


def test_select_degree_linear_data():
    x = np.linspace(0, 1, 30)
    assert select_degree_aic(x, 2.0 + 3.0 * x, 5).degree == 1


def test_select_degree_noiseless_cubic():
    x = np.linspace(-1, 2, 25)
    y = 1.0 - x + 0.5 * x**3
    assert select_degree_aic(x, y, 5).degree == 3


def test_select_degree_tie_prefers_smaller():
    # all degrees >= 2 interpolate exactly; the RSS floor forces a tie that
    # resolves to the smallest degree
    x = np.linspace(-2, 2, 30)
    y = x**2
    assert select_degree_aic(x, y, 5).degree == 2


def test_selected_polynomial_predicts_as_a_refit_at_its_degree():
    gen = np.random.default_rng(10)
    x = gen.integers(5, 31, size=100).astype(float)
    y = (x - 1.0) / (x + 1.0) + 0.05 * gen.normal(size=100)
    fit = select_degree_aic(x, y, 5)
    grid = np.arange(5.0, 51.0)
    assert np.array_equal(fit.predict(grid), fit_polynomial(x, y, fit.degree).predict(grid))


@pytest.mark.parametrize("distinct", [2, 3, 4, 5])
def test_select_degree_stays_below_the_distinct_regressor_count(distinct):
    # a degree-k polynomial on fewer than k + 1 distinct values is singular
    gen = np.random.default_rng(distinct)
    x = np.repeat(np.arange(5.0, 5.0 + distinct), 20)
    y = 0.1 * x**3 + gen.normal(size=x.shape[0])
    assert select_degree_aic(x, y, 5).degree <= distinct - 1


def test_select_degree_on_four_rows_fits_degree_one():
    x = np.array([5.0, 7.0, 9.0, 30.0])
    assert select_degree_aic(x, np.sqrt(x), 5).degree == 1


@pytest.mark.parametrize("x", [np.full(20, 5.0), np.arange(5.0, 8.0)])
def test_select_degree_names_a_sample_no_polynomial_fits(x):
    with pytest.raises(SingularDesignError, match=f"{x.shape[0]} rows and {np.unique(x).shape[0]} distinct"):
        select_degree_aic(x, np.sqrt(x), 5)


def _degree_search_one_fit_at_a_time(x, y, max_degree):
    """The degree search as separate fits: one ``fit_polynomial`` per degree
    the sample allows, scored by the shared AIC rule."""
    top = min(max_degree, np.unique(x).shape[0] - 1, x.shape[0] - 3)
    fits = [fit_polynomial(x, y, degree) for degree in range(1, top + 1)]
    return _lowest_aic([(fit, y - fit.predict(x), fit.degree + 1) for fit in fits], y, y.shape[0])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_batched_degree_search_is_each_samples_search(seed):
    # samples of one block draw from 2 to 8 distinct values, so their degree
    # bounds differ, as in auctions over few bidder counts
    gen = np.random.default_rng(seed)
    samples, n = int(gen.integers(1, 9)), int(gen.integers(6, 60))
    counts = gen.integers(2, 9, size=samples)
    x = np.stack([gen.choice(5.0 + np.arange(c), size=n) for c in counts])
    x[:, :2] = 5.0, 6.0  # at least two distinct values in every sample
    y = (x - 1.0) / (x + 1.0) + 0.05 * gen.normal(size=x.shape) + 1e-3 * x**2
    fits = select_degree_aic(x, y, 5)
    for fit, xs, ys in zip(fits, x, y):
        for reference in (select_degree_aic(xs, ys, 5),
                          _degree_search_one_fit_at_a_time(xs, ys, 5)):
            assert fit.degree == reference.degree
            assert fit.input_mean == reference.input_mean
            assert fit.input_scale == reference.input_scale
            assert fit.linear_fit.intercept == reference.linear_fit.intercept
            assert np.array_equal(fit.linear_fit.coefficients, reference.linear_fit.coefficients)


def test_batched_degree_search_names_a_sample_no_polynomial_fits():
    x = np.stack([np.arange(5.0, 25.0), np.full(20, 5.0)])
    with pytest.raises(SingularDesignError, match="20 rows and 1 distinct"):
        select_degree_aic(x, np.sqrt(x), 5)


def test_arx_exact_ar1_recovery():
    gen = np.random.default_rng(5)
    T = 25
    R = gen.normal(size=T)
    y = np.empty(T)
    y[0] = 1.0
    for t in range(1, T):
        y[t] = 0.5 * y[t - 1]
    fit = fit_arx(y, R[1:], 1, 1)
    exog, ar = fit.linear_fit.coefficients
    assert ar == pytest.approx(0.5, abs=1e-8)
    assert exog == pytest.approx(0.0, abs=1e-8)
    assert fit.linear_fit.intercept == pytest.approx(0.0, abs=1e-8)


def test_arx_constant_series_intercept_only():
    R = np.random.default_rng(6).normal(size=20)
    y = np.full(20, 0.7)
    fit = fit_arx(y, R[1:], 1, 1)
    assert fit.linear_fit.coefficients[1] == 0.0
    # fixed point: prediction reproduces the constant
    assert np.allclose(fit.predict_series(y, R[1:]), 0.7, atol=1e-10)


def test_arx_monte_carlo_consistency():
    gen = np.random.default_rng(7)
    T = 10_000
    gamma0, gamma1, rho, sd = 0.3, 0.8, 0.5, 0.4
    R = gen.normal(size=T)
    y = np.zeros(T)
    for t in range(1, T):
        y[t] = gamma0 + gamma1 * R[t] + rho * y[t - 1] + sd * gen.normal()
    fit = fit_arx(y, R[1:], 1, 1)
    X = np.column_stack([np.ones(T - 1), R[1:], y[:-1]])
    estimates = np.concatenate([[fit.linear_fit.intercept], fit.linear_fit.coefficients])
    resid = y[1:] - X @ estimates
    sigma2 = resid @ resid / (T - 1 - 3)
    cov = sigma2 * np.linalg.inv(X.T @ X)
    se = np.sqrt(np.diag(cov))
    assert np.all(np.abs(estimates - [gamma0, gamma1, rho]) <= 3.0 * se)


def test_arx_order_selection_on_noiseless_orders():
    # exact ARX(1, 2) data: every nesting order fits exactly, so the RSS floor
    # resolves the tie to the smallest orders
    gen = np.random.default_rng(8)
    T = 400
    R = gen.normal(size=T)
    y = np.zeros(T)
    y[:2] = (0.5, 0.2)
    for t in range(2, T):
        y[t] = 0.2 + 0.5 * R[t] + 0.4 * y[t - 1] + 0.3 * y[t - 2]
    fit = select_arx_order_aic(y, R[1:], (1, 2), (1, 2, 3, 4))
    assert (fit.exog_order, fit.ar_order) == (1, 2)


def test_2sls_equals_ols_when_instrumenting_with_regressors():
    gen = np.random.default_rng(9)
    X = gen.normal(size=(100, 2))
    y = 1.0 + X @ [2.0, -1.0] + gen.normal(size=100)
    iv = fit_2sls(y, X, X)
    ols = fit_ols(X, y)
    assert iv.intercept == pytest.approx(ols.intercept, abs=1e-10)
    assert np.allclose(iv.coefficients, ols.coefficients, atol=1e-10)


def test_2sls_just_identified_hand_algebra():
    # with intercepts, the just-identified slope is cov(z, y) / cov(z, x)
    x = np.array([1.0, 2.0, 4.0, 7.0])
    z = np.array([0.0, 1.0, 3.0, 5.0])
    y = np.array([2.0, 1.0, 5.0, 9.0])
    zc, xc, yc = z - z.mean(), x - x.mean(), y - y.mean()
    slope = (zc @ yc) / (zc @ xc)
    intercept = y.mean() - slope * x.mean()
    fit = fit_2sls(y, x[:, None], z[:, None])
    assert fit.coefficients[0] == pytest.approx(slope, abs=1e-10)
    assert fit.intercept == pytest.approx(intercept, abs=1e-10)


def test_2sls_irrelevant_instrument_raises():
    gen = np.random.default_rng(10)
    x = gen.normal(size=300)
    z = np.full(300, 2.0)  # no variation: first stage collapses on the constant
    y = 1.0 - 2.0 * x + gen.normal(size=300)
    with pytest.raises(SingularDesignError):
        fit_2sls(y, x[:, None], z[:, None])


def test_selected_arx_predicts_as_a_refit_at_its_orders():
    gen = np.random.default_rng(11)
    T = 120
    R = gen.normal(size=T)
    y = np.zeros(T)
    for t in range(1, T):
        y[t] = 0.2 + 0.3 * R[t] - 0.2 * R[t] ** 2 + 0.6 * y[t - 1] + 0.1 * gen.normal()
    fit = select_arx_order_aic(y, R[1:], (1, 2), (1, 2, 3, 4))
    refit = fit_arx(y, R[1:], fit.exog_order, fit.ar_order)
    assert np.array_equal(fit.predict_series(y, R[1:]), refit.predict_series(y, R[1:]))


def select_arx_order_aic_previous(s, R, exog_orders, ar_orders):
    """``select_arx_order_aic`` as it was: every candidate built, fitted and
    predicted from its own feature rows, in the steps of ``fit_arx`` and
    ``ARXFit.predict_series``."""
    s = np.asarray(s, dtype=float).ravel()
    q_max = max(ar_orders)
    candidates = []
    for q in sorted(ar_orders):
        for p in sorted(exog_orders):
            rows = arx_feature_rows(s, R, p, q)
            if rows.n <= p + 1:
                raise ValueError("series too short for requested orders")
            X = np.column_stack([np.ones(rows.n), rows.inputs])
            cols = np.concatenate([[True], np.ptp(X[:, 1:], axis=0) > 0.0])
            theta = np.zeros(X.shape[1])
            theta[cols] = solve_least_squares(X[:, cols], rows.outcome)
            prediction = theta[0] + arx_feature_rows(s, R, p, q).inputs @ theta[1:]
            candidates.append(((p, q, theta), s[q_max:] - prediction[q_max - q:], 1 + p + q))
    return _lowest_aic(candidates, s, s.shape[0] - q_max)


def _arx_series(seed):
    """A share series with its profit path and candidate orders: an ARX
    recursion with noise, a flat stretch, or a flat profit path, so that
    constant columns are dropped in some candidates."""
    gen = np.random.default_rng(seed)
    T = int(gen.integers(8, 160))
    R = gen.normal(size=T) * gen.uniform(0.1, 5.0)
    if seed % 5 == 0:
        R[:] = R[0]
    s = np.empty(T + 1)
    s[0] = gen.uniform()
    for t in range(1, T + 1):
        s[t] = 0.1 + 0.3 * R[t - 1] + 0.5 * s[t - 1] + 0.1 * gen.normal()
    if seed % 5 == 1:
        s[:] = s[0]
    exog = sorted(gen.choice([1, 2, 3], size=gen.integers(1, 4), replace=False).tolist())
    ar = sorted(gen.choice([1, 2, 3, 4], size=gen.integers(1, 5), replace=False).tolist())
    return gen, s, R, exog, ar


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_arx_order_selection_matches_its_previous_form(seed):
    _, s, R, exog, ar = _arx_series(seed)
    try:
        p, q, theta = select_arx_order_aic_previous(s, R, exog, ar)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            select_arx_order_aic(s, R, exog, ar)
        return
    fit = select_arx_order_aic(s, R, exog, ar)
    assert (fit.exog_order, fit.ar_order) == (p, q)
    assert fit.linear_fit.intercept == theta[0]
    assert np.array_equal(fit.linear_fit.coefficients, theta[1:])
    # and the chosen fit is fit_arx's at its orders
    refit = fit_arx(s, R, p, q)
    assert refit.linear_fit.intercept == theta[0]
    assert np.array_equal(refit.linear_fit.coefficients, theta[1:])


@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([np.nan, np.inf]))
@settings(max_examples=20, deadline=None)
def test_arx_order_selection_rejects_a_non_finite_share(seed, bad):
    gen, s, R, exog, ar = _arx_series(seed)
    s[gen.integers(s.size)] = bad
    with pytest.raises(DataError, match="non-finite entries in dataset"):
        select_arx_order_aic(s, R, exog, ar)
