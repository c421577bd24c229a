"""The exact penalty path against the per-lambda closed forms.

``quadratic_path`` solves a whole lambda grid from one eigendecomposition;
``sre_ridge`` and ``sre_gmm`` solve one lambda at a time and are the
reference. Designs are drawn from a hypothesis-chosen seed, so a failing
example replays from its seed.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structreg.data import Dataset, SeededRng
from structreg.estimators import fit_2sls, fit_ols
from structreg.sre import (
    LinearFeatures,
    PenaltyError,
    PenaltySpec,
    SingularPathError,
    gmm_normal_equations,
    quadratic_path,
    sre_gmm,
    sre_ridge,
)
from structreg.tuning import CvError, kfold_cv, ridge_fold, rolling_cv

GRID = np.array([0.0, 1e-3, 1.0, 10.0, 1e3, 1e6, 1e9, 1e12])
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _problem(seed, with_intercept=True):
    """A random design whose weights mix zero, unit and non-unit values."""
    gen = np.random.default_rng(seed)
    n = int(gen.integers(12, 80))
    k = int(gen.integers(1, 7))
    X = gen.normal(size=(n, k)) * gen.uniform(0.1, 10.0, size=k)
    weights = gen.choice([0.0, 1.0, gen.uniform(0.1, 10.0)], size=k)
    if with_intercept:
        X[:, 0] = 1.0
        weights[0] = 0.0
    y = 3.0 * gen.normal(size=n)
    theta_m = 5.0 * gen.normal(size=k)
    return gen, X, y, weights, theta_m


def _instruments(gen, X):
    """An instrument block with a constant column, at least as wide as ``X``."""
    n, k = X.shape
    extra = int(gen.integers(0, 3))
    Z = gen.normal(size=(n, k + extra))
    Z[:, 0] = 1.0
    X = X.copy()
    X[:, 1:] = Z @ gen.normal(size=(Z.shape[1], k - 1)) + 0.3 * gen.normal(size=(n, k - 1))
    return X, Z, np.linalg.inv(Z.T @ Z)


def _relative(a, b):
    return np.linalg.norm(a - b) / (1.0 + np.linalg.norm(b))


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_path_matches_per_lambda_ridge(seed):
    _, X, y, weights, theta_m = _problem(seed, with_intercept=seed % 2 == 0)
    penalty = PenaltySpec(GRID, weights)
    path = quadratic_path(X.T @ X, X.T @ y, weights, theta_m, GRID)
    assert path.shape == (GRID.size, X.shape[1])
    for row, lam in zip(path, GRID):
        assert _relative(row, sre_ridge(X, y, theta_m, penalty, lam)) <= 1e-8


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_path_matches_per_lambda_gmm(seed):
    gen, X, y, weights, theta_m = _problem(seed)
    if X.shape[1] < 2:
        X = np.column_stack([X, gen.normal(size=X.shape[0])])
        weights, theta_m = np.append(weights, 2.5), np.append(theta_m, 1.0)
    X, Z, W = _instruments(gen, X)
    penalty = PenaltySpec(GRID, weights)
    path = quadratic_path(*gmm_normal_equations(X, Z, y, W), weights, theta_m, GRID)
    for row, lam in zip(path, GRID):
        assert _relative(row, sre_gmm(X, Z, y, W, theta_m, penalty, lam)) <= 1e-8


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_path_at_lambda_zero_is_ols_and_2sls(seed):
    gen, X, y, weights, theta_m = _problem(seed)
    if X.shape[1] < 2:
        X = np.column_stack([X, gen.normal(size=X.shape[0])])
        weights, theta_m = np.append(weights, 1.0), np.append(theta_m, 0.0)
    ols = fit_ols(X[:, 1:], y)
    row = quadratic_path(X.T @ X, X.T @ y, weights, theta_m, [0.0, 1.0])[0]
    assert _relative(row, np.concatenate([[ols.intercept], ols.coefficients])) <= 1e-8

    X, Z, W = _instruments(gen, X)
    tsls = fit_2sls(y, X[:, 1:], Z[:, 1:])
    row = quadratic_path(*gmm_normal_equations(X, Z, y, W), weights, theta_m, [0.0, 1.0])[0]
    assert _relative(row, np.concatenate([[tsls.intercept], tsls.coefficients])) <= 1e-8


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_penalty_distance_does_not_increase_along_the_grid(seed):
    _, X, y, weights, theta_m = _problem(seed, with_intercept=seed % 2 == 0)
    penalty = PenaltySpec(GRID, weights)
    path = quadratic_path(X.T @ X, X.T @ y, weights, theta_m, GRID)
    omega = np.array([penalty.omega(row, theta_m) for row in path])
    assert np.all(np.diff(omega) <= 1e-10 * (1.0 + omega[0]))


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_large_lambda_tends_to_theta_m_without_cancellation(seed):
    # the exact deviation from theta_m is v / lam + O(lam^-2) for a fixed v,
    # so lam * deviation agrees at 1e10 and 1e12; the bound leaves room for a
    # few ulps of theta_m at lam = 1e12, not for digits lost to cancellation
    _, X, y, weights, theta_m = _problem(seed)
    weights[1:] = np.where(weights[1:] == 0.0, 1.0, weights[1:])
    big = np.array([1e10, 1e12])
    path = quadratic_path(X.T @ X, X.T @ y, weights, theta_m, big)
    scaled = big[:, None] * (path[:, 1:] - theta_m[1:])
    v = scaled[0]
    assert np.linalg.norm(scaled[1] - v) <= 1e-3 * np.linalg.norm(v) + 1e-3 * (
        1.0 + np.linalg.norm(theta_m))


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_zero_weight_coordinates_stay_unpenalized(seed):
    _, X, y, weights, theta_m = _problem(seed)
    G, b = X.T @ X, X.T @ y
    free = weights == 0.0
    path = quadratic_path(G, b, weights, theta_m, GRID)
    # a free coordinate's normal equation carries no penalty term at any lambda
    gradient = path @ G - b
    scale = np.abs(G).max() * (1.0 + np.abs(path).max(axis=1)) + np.abs(b).max()
    assert np.all(np.abs(gradient[:, free]) <= 1e-9 * scale[:, None])


def test_centered_design_intercept_is_outcome_mean_at_every_lambda():
    gen = np.random.default_rng(3)
    x = gen.normal(size=(30, 2))
    design = np.column_stack([np.ones(30), x - x.mean(axis=0)])
    y = gen.normal(2.5, 1.0, size=30)
    path = quadratic_path(design.T @ design, design.T @ y, [0.0, 1.0, 3.0],
                          [9.9, 1.0, -1.0], GRID)
    assert np.allclose(path[:, 0], y.mean(), atol=1e-10)


def test_singular_system_names_first_offending_lambda():
    X = np.column_stack([np.ones(6), np.arange(6.0), np.zeros(6)])
    G, b = X.T @ X, X.T @ np.arange(6.0)
    with pytest.raises(SingularPathError) as info:
        quadratic_path(G, b, [0.0, 1.0, 1.0], np.zeros(3), [0.0, 1.0])
    assert info.value.lam == 0.0
    assert np.isfinite(quadratic_path(G, b, [0.0, 1.0, 1.0], np.zeros(3), [1e-3, 1.0])).all()
    # an unidentified free coordinate is singular at every lambda
    with pytest.raises(SingularPathError) as info:
        quadratic_path(G, b, [0.0, 1.0, 0.0], np.zeros(3), [2.0, 5.0])
    assert info.value.lam == 2.0


def test_path_rejects_bad_inputs():
    G, b = np.eye(2), np.ones(2)
    with pytest.raises(PenaltyError):
        quadratic_path(G, b, [1.0], np.zeros(2), [1.0])
    with pytest.raises(PenaltyError):
        quadratic_path(G, b, [1.0, 1.0], np.zeros(2), [-1.0])
    with pytest.raises(PenaltyError):
        quadratic_path(G, b, [1.0, 1.0], [0.0, np.nan], [1.0])


def _zero_target(transform):
    return np.zeros(transform.column_means.size + 1)


def test_rolling_cv_names_singular_window_and_lambda():
    # the second column is constant from row 20 on, so every window that
    # starts there standardizes it to zeros: singular at lambda = 0 only
    T = 36
    gen = np.random.default_rng(21)
    second = np.where(np.arange(T) < 20, gen.normal(size=T), 0.7)
    data = Dataset(np.column_stack([gen.normal(size=T), second]), gen.normal(size=T),
                   time_index=np.arange(T))

    def final(grid):
        return ridge_fold(data, LinearFeatures(2), PenaltySpec(grid, [0.0, 1.0, 1.0]),
                          _zero_target)

    with pytest.raises(CvError, match=r"window 20 at lambda=0\.0: singular"):
        rolling_cv(final([0.0, 1.0]), data, 10)
    trace = rolling_cv(final([0.5, 1.0]), data, 10)
    assert np.isfinite(trace.mean_errors).all()


def test_kfold_names_non_finite_path_and_lambda():
    gen = np.random.default_rng(22)
    x = gen.uniform(0.0, 10.0, size=40)
    data = Dataset(x[:, None], 1.0 + 2.0 * x)
    grid = [0.0, 1e10]
    penalty = PenaltySpec(grid, [0.0, 1.0])

    def refold(train):
        # lam * theta_m overflows at the second grid point only
        return ridge_fold(train, LinearFeatures(1), penalty,
                          lambda transform: np.array([0.0, 1e300]))

    # every fold keeps the raw target, which re-expressing it would overflow
    final = SimpleNamespace(penalty=penalty, refold=refold)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            CvError, match=r"fold 0 at lambda=10000000000\.0: non-finite"):
        kfold_cv(final, data, 4, SeededRng(23))
