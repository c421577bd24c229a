import numpy as np
import pytest
import scipy.linalg

from structreg.estimators import (
    SingularDesignError,
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
