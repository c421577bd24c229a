import numpy as np
import pytest
import scipy.optimize

from structreg.data import Dataset, StandardizeTransform
from structreg.estimators import SingularDesignError, fit_ols
from structreg.sre import (
    LinearFeatures,
    PenaltyError,
    PenaltySpec,
    PolynomialFeatures,
    SREFit,
    fit_theta_m,
    gmm_objective,
    sre_gmm,
    sre_ridge,
)
from structreg.estimators import fit_polynomial


def line_rows(a, b, lo, hi, size=1000):
    """Synthetic benchmark rows of the line ``a + b x`` on an even grid over ``[lo, hi]``."""
    x = np.linspace(lo, hi, size)
    return Dataset(x[:, None], a + b * x)


def unit_penalty(k, grid=(1.0,)):
    return PenaltySpec(np.asarray(grid, float), np.ones(k))


def test_penalty_spec_validation():
    with pytest.raises(PenaltyError):
        PenaltySpec([], [1.0])
    with pytest.raises(PenaltyError):
        PenaltySpec([1.0, 1.0], [1.0])
    with pytest.raises(PenaltyError):
        PenaltySpec([0.5], [-1.0])
    spec = PenaltySpec([0.0, 1.0], [0.0, 2.0])
    assert spec.omega([1.0, 3.0], [1.0, 1.0]) == pytest.approx(8.0)


def test_fit_theta_m_linear_benchmark_exact():
    theta = fit_theta_m(LinearFeatures(1), line_rows(2.0, -3.0, 0, 1))
    assert np.allclose(theta, [2.0, -3.0], atol=1e-10)


def test_fit_theta_m_constant_benchmark():
    theta = fit_theta_m(PolynomialFeatures(3), line_rows(4.0, 0.0, 0, 2))
    assert theta[0] == pytest.approx(4.0, abs=1e-8)
    assert np.allclose(theta[1:], 0.0, atol=1e-8)


def test_fit_theta_m_auction_mean_projection_matches_quadrature_oracle():
    # Oracle: continuous least-squares projection of (n-1)/(n+1) onto degree-5
    # polynomials over [5, 50], computed by Gauss-Legendre quadrature. Its sup
    # error is 1.257e-2 (the best degree-5 sup error is 9.1e-3), so the
    # discrete-grid projection must reproduce the oracle and its error level.
    def truth_fn(n):
        return (n - 1.0) / (n + 1.0)

    nodes, weights = np.polynomial.legendre.leggauss(200)
    x = 27.5 + 22.5 * nodes
    V = np.column_stack([x**j for j in range(6)])
    gram = (V * weights[:, None]).T @ V
    oracle = np.linalg.solve(gram, (V * weights[:, None]).T @ truth_fn(x))

    n = np.linspace(5, 50, 1000)
    fmap = PolynomialFeatures(5)
    theta = fit_theta_m(fmap, Dataset(n[:, None], truth_fn(n)))
    grid = np.linspace(5, 50, 2000)
    pred = theta[0] + fmap.transform(grid[:, None]) @ theta[1:]
    oracle_pred = sum(c * grid**j for j, c in enumerate(oracle))
    # discrete-grid vs continuous projections differ at the discretization
    # level only
    assert np.abs(pred - oracle_pred).max() <= 5e-4
    oracle_err = np.abs(oracle_pred - truth_fn(grid)).max()
    assert oracle_err == pytest.approx(1.257e-2, abs=2e-4)
    assert np.abs(pred - truth_fn(grid)).max() <= oracle_err * 1.05


def test_sre_ridge_lambda_zero_is_ols():
    gen = np.random.default_rng(0)
    X = gen.normal(size=(50, 3))
    Xc = X - X.mean(axis=0)
    y = gen.normal(size=50)
    design = np.column_stack([np.ones(50), Xc])
    pen = PenaltySpec([0.0, 1.0], np.array([0.0, 1.0, 1.0, 1.0]))
    theta = sre_ridge(design, y, np.zeros(4), pen, 0.0)
    ols = fit_ols(Xc, y)
    assert theta[0] == pytest.approx(ols.intercept, abs=1e-10)
    assert np.allclose(theta[1:], ols.coefficients, atol=1e-10)


def test_sre_ridge_penalty_dominated_limit():
    gen = np.random.default_rng(1)
    X = gen.normal(size=(60, 3))
    y = gen.normal(size=60)
    theta_m = np.array([0.5, -1.0, 2.0])
    theta = sre_ridge(X, y, theta_m, unit_penalty(3), 1e12)
    assert np.linalg.norm(theta - theta_m) <= 1e-4 * np.linalg.norm(theta_m)


def test_sre_ridge_orthonormal_convex_combination():
    gen = np.random.default_rng(2)
    Q, _ = np.linalg.qr(gen.normal(size=(40, 5)))
    y = gen.normal(size=40)
    theta_m = gen.normal(size=5)
    lam = 3.7
    theta = sre_ridge(Q, y, theta_m, unit_penalty(5), lam)
    ols = Q.T @ y
    expected = ols / (1 + lam) + lam * theta_m / (1 + lam)
    assert np.abs(theta - expected).max() <= 1e-10


def test_sre_ridge_intercept_is_outcome_mean():
    gen = np.random.default_rng(3)
    X = gen.normal(size=(30, 2))
    Xc = X - X.mean(axis=0)
    y = gen.normal(2.5, 1.0, size=30)
    design = np.column_stack([np.ones(30), Xc])
    pen = PenaltySpec([1.0], np.array([0.0, 1.0, 1.0]))
    for lam in (0.0, 1.0, 1e6):
        theta = sre_ridge(design, y, np.array([9.9, 1.0, -1.0]), pen, lam)
        assert theta[0] == pytest.approx(y.mean(), abs=1e-8)


def test_sre_ridge_monotone_shrinkage():
    gen = np.random.default_rng(4)
    X = gen.normal(size=(50, 4))
    y = gen.normal(size=50)
    theta_m = gen.normal(size=4)
    pen = unit_penalty(4)
    dist = [
        np.linalg.norm(sre_ridge(X, y, theta_m, pen, lam) - theta_m)
        for lam in (0.1, 1.0, 10.0, 100.0)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(dist, dist[1:]))


def test_sre_ridge_perturbation_never_improves():
    gen = np.random.default_rng(5)
    X = gen.normal(size=(40, 3))
    y = gen.normal(size=40)
    theta_m = gen.normal(size=3)
    pen = unit_penalty(3)
    lam = 2.0
    theta = sre_ridge(X, y, theta_m, pen, lam)

    def objective(t):
        r = y - X @ t
        return r @ r + lam * pen.omega(t, theta_m)

    base = objective(theta)
    for j in range(3):
        for eps in (-1e-3, 1e-3):
            bumped = theta.copy()
            bumped[j] += eps
            assert objective(bumped) >= base - 1e-12


def test_sre_ridge_rejects_negative_lambda():
    with pytest.raises(PenaltyError):
        sre_ridge(np.eye(2), np.ones(2), np.zeros(2), unit_penalty(2), -1.0)


@pytest.mark.parametrize("solver", ["ridge", "gmm"])
def test_reference_solvers_reject_a_duplicated_column_at_lambda_zero(solver):
    # every Gram entry is a power of two, so the factorization's second pivot
    # is exactly zero and the solve fails rather than warns
    x = np.array([1.0, -1.0, 1.0, -1.0])
    X, Z, y = np.column_stack([x, x]), np.column_stack([np.ones(4), x]), np.arange(4.0)
    with pytest.raises(SingularDesignError, match="^singular penalized system$"):
        if solver == "ridge":
            sre_ridge(X, y, np.zeros(2), unit_penalty(2), 0.0)
        else:
            sre_gmm(X, Z, y, np.linalg.inv(Z.T @ Z), np.zeros(2), unit_penalty(2), 0.0)


def test_sre_gmm_reduces_to_2sls_when_just_identified():
    gen = np.random.default_rng(6)
    Z = gen.normal(size=(120, 2))
    X = Z @ np.array([[1.0, 0.2], [0.1, 0.8]]) + 0.3 * gen.normal(size=(120, 2))
    y = X @ [1.5, -0.5] + gen.normal(size=120)
    W = np.linalg.inv(Z.T @ Z)
    theta = sre_gmm(X, Z, y, W, np.zeros(2), unit_penalty(2), 0.0)
    ref = np.linalg.solve(Z.T @ X, Z.T @ y)
    assert np.allclose(theta, ref, atol=1e-8)


def test_sre_gmm_penalty_dominated_limit():
    gen = np.random.default_rng(7)
    Z = gen.normal(size=(80, 3))
    X = Z[:, :2] + 0.1 * gen.normal(size=(80, 2))
    y = gen.normal(size=80)
    W = np.linalg.inv(Z.T @ Z)
    theta_m = np.array([2.0, -3.0])
    theta = sre_gmm(X, Z, y, W, theta_m, unit_penalty(2), 1e12)
    assert np.linalg.norm(theta - theta_m) <= 1e-4 * (1 + np.linalg.norm(theta_m))


def test_sre_gmm_matches_numeric_minimizer():
    gen = np.random.default_rng(8)
    Z = gen.normal(size=(60, 3))
    X = Z @ gen.normal(size=(3, 2)) + 0.2 * gen.normal(size=(60, 2))
    y = gen.normal(size=60)
    W = np.linalg.inv(Z.T @ Z)
    theta_m = gen.normal(size=2)
    pen = unit_penalty(2)
    lam = 1.0
    closed = sre_gmm(X, Z, y, W, theta_m, pen, lam)

    def objective(t):
        return gmm_objective(X, Z, y, W, t) + lam * pen.omega(t, theta_m)

    res = scipy.optimize.minimize(objective, np.zeros(2), method="Powell",
                                  options={"xtol": 1e-12, "ftol": 1e-14})
    assert np.linalg.norm(closed - res.x) <= 1e-6 * (1 + np.linalg.norm(closed))


def test_sre_gmm_rejects_non_psd_weight():
    W = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(PenaltyError):
        sre_gmm(np.eye(2), np.eye(2), np.ones(2), W, np.zeros(2), unit_penalty(2), 0.0)


def test_ate_power_rule():
    x = np.linspace(-2, 2, 15)
    fit = fit_polynomial(x, x**2, 2)
    assert fit.derivative(np.array([1.0]))[0] == pytest.approx(2.0, abs=1e-8)


def test_ate_matches_finite_differences_on_sre_fit():
    gen = np.random.default_rng(10)
    from structreg.data import standardize

    x = gen.uniform(1.0, 3.0, size=80)
    y = 1.0 + 0.5 * x - 0.2 * x**2 + 0.05 * gen.normal(size=80)
    fmap = PolynomialFeatures(2)
    F = fmap.transform(x[:, None])
    _, transform = standardize(Dataset(F, y))
    design = np.column_stack([np.ones(80), transform.transform_inputs(F)])
    pen = PenaltySpec([1.0], np.array([0.0, 1.0, 1.0]))
    theta = sre_ridge(design, y, np.zeros(3), pen, 1.0)
    fit = SREFit(theta, transform, np.zeros(3), 1.0, fmap)
    grid = np.array([1.2, 2.0, 2.8])
    h = 1e-6
    fd = (fit.predict((grid + h)[:, None]) - fit.predict((grid - h)[:, None])) / (2 * h)
    analytic = fit.derivative(grid, 0)
    assert np.abs(analytic - fd).max() <= 1e-6 * (1 + np.abs(fd).max())


def test_ate_rejects_out_of_range_index():
    fmap = PolynomialFeatures(2)
    fit = SREFit(np.zeros(3), StandardizeTransform(np.zeros(2), np.ones(2), 0.0), np.zeros(3),
                 1.0, fmap)
    with pytest.raises(IndexError):
        fit.derivative(np.array([1.0]), 3)
