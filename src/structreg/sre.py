"""Penalized second-stage estimators that shrink a statistical model toward
coefficients implied by a structural benchmark.

The quadratic cases have closed forms. For a design ``X`` with per-coordinate
penalty weights ``w`` (diagonal ``L``), target coefficients ``theta_m``, and
penalty strength ``lam``::

    least squares:  argmin ||y - X theta||^2 + lam * sum_j w_j (theta_j - theta_m_j)^2
                  = (X'X + lam L)^{-1} (X'y + lam L theta_m)

    moment-based:   argmin (y - X theta)' Z W Z' (y - X theta) + lam * ...
                  = (X'Z W Z'X + lam L)^{-1} (X'Z W Z'y + lam L theta_m)

With unit weights and an orthonormal design the least-squares case is the
convex combination ``theta = ols / (1 + lam) + lam * theta_m / (1 + lam)``,
i.e. a weighted average of purely statistical and purely structural
estimation. An intercept is left unpenalized by giving it weight zero; on a
centered design it then equals the outcome mean at every ``lam``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.stats.qmc

from .data import Dataset, DomainSpec, SeededRng, StandardizeTransform
from .estimators import SingularDesignError, solve_least_squares


class PenaltyError(ValueError):
    """Invalid penalty configuration or solver input."""


def default_lambda_grid(n: int, num: int = 25) -> np.ndarray:
    """Log-spaced penalty grid over ``[1e-4, 1e4]`` scaled by the sample size."""
    return n * np.logspace(-4.0, 4.0, num)


@dataclass(frozen=True)
class PenaltySpec:
    """Squared-L2 penalty with per-coordinate weights and a grid of strengths.

    Weight zero marks an unpenalized coordinate (conventionally the
    intercept).
    """

    lambda_grid: np.ndarray
    weights: np.ndarray
    distance: str = "squared_l2"

    def __post_init__(self):
        grid = np.atleast_1d(np.asarray(self.lambda_grid, dtype=float))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "lambda_grid", grid)
        object.__setattr__(self, "weights", weights)
        if grid.size == 0:
            raise PenaltyError("lambda grid must be nonempty")
        if np.any(grid < 0.0) or not np.isfinite(grid).all():
            raise PenaltyError("lambda grid must be nonnegative and finite")
        if grid.size > 1 and np.any(np.diff(grid) <= 0.0):
            raise PenaltyError("lambda grid must be strictly increasing")
        if np.any(weights < 0.0) or not np.isfinite(weights).all():
            raise PenaltyError("penalty weights must be nonnegative and finite")
        if self.distance != "squared_l2":
            raise PenaltyError(f"unsupported distance family: {self.distance}")

    def omega(self, theta, theta_m) -> float:
        """Weighted squared distance between a coefficient vector and the target."""
        diff = np.asarray(theta, float) - np.asarray(theta_m, float)
        return float(self.weights @ diff**2)


class StructuralBenchmark(abc.ABC):
    """An estimated structural model usable as a shrinkage target.

    Exposes synthetic data generation over a requested input domain and the
    model-implied conditional outcome mean.
    """

    identifier: str = "benchmark"

    @abc.abstractmethod
    def implied_mean(self, x) -> np.ndarray:
        """Model-implied conditional mean of the outcome at inputs ``x``."""

    @abc.abstractmethod
    def simulate(self, domain: DomainSpec, size: int, rng: SeededRng) -> Dataset:
        """Synthetic draws with inputs inside ``domain``."""


def synthetic_design(domain: DomainSpec, size: int) -> np.ndarray:
    """Deterministic input design covering a domain.

    One dimension uses an even grid; higher dimensions use an unscrambled
    Halton sequence, so the design depends only on the domain and size.
    """
    if domain.dimension == 1:
        return np.linspace(domain.lower[0], domain.upper[0], size)[:, None]
    sampler = scipy.stats.qmc.Halton(d=domain.dimension, scramble=False)
    unit = sampler.random(size)
    return scipy.stats.qmc.scale(unit, domain.lower, domain.upper)


class FeatureMap(abc.ABC):
    """Feature expansion defining a linear-in-parameters statistical model."""

    @property
    @abc.abstractmethod
    def n_features(self) -> int:
        """Number of non-intercept features."""

    @abc.abstractmethod
    def transform(self, X) -> np.ndarray:
        """Raw feature matrix for input rows ``X``."""

    @abc.abstractmethod
    def derivative(self, X, coordinate: int) -> np.ndarray:
        """Per-feature partial derivatives with respect to one input coordinate."""


@dataclass(frozen=True)
class PolynomialFeatures(FeatureMap):
    """Powers ``x, x^2, ..., x^degree`` of a single input column."""

    degree: int

    @property
    def n_features(self) -> int:
        return self.degree

    def transform(self, X) -> np.ndarray:
        x = np.asarray(X, dtype=float)
        x = x.ravel() if x.ndim <= 1 else x[:, 0]
        return np.column_stack([x**j for j in range(1, self.degree + 1)])

    def derivative(self, X, coordinate: int = 0) -> np.ndarray:
        if coordinate != 0:
            raise IndexError("polynomial features have a single input coordinate")
        x = np.asarray(X, dtype=float)
        x = x.ravel() if x.ndim <= 1 else x[:, 0]
        return np.column_stack([j * x ** (j - 1) for j in range(1, self.degree + 1)])


@dataclass(frozen=True)
class LinearFeatures(FeatureMap):
    """Identity features over ``p`` input columns."""

    p: int

    @property
    def n_features(self) -> int:
        return self.p

    def transform(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        if X.shape[1] != self.p:
            raise ValueError("input width does not match feature map")
        return X

    def derivative(self, X, coordinate: int) -> np.ndarray:
        if not 0 <= coordinate < self.p:
            raise IndexError("treatment coordinate out of range")
        X = self.transform(X)
        out = np.zeros_like(X)
        out[:, coordinate] = 1.0
        return out


def fit_theta_m(
    feature_map: FeatureMap,
    benchmark: StructuralBenchmark,
    domain: DomainSpec,
    size: int | None = None,
    transform: StandardizeTransform | None = None,
) -> np.ndarray:
    """Project the benchmark's implied mean onto the statistical model's span.

    Fits the model to ``(x_i, f(x_i))`` pairs on a deterministic design over
    ``domain``, where ``f`` is the benchmark's implied conditional mean. Using
    implied means instead of simulated outcomes removes simulation noise from
    the target coefficients.

    Parameters
    ----------
    size : int, optional
        Design size; defaults to ``max(1000, 50 * n_features)``.
    transform : StandardizeTransform, optional
        When given, coefficients are expressed over the standardized features
        ``(F - means) / scales`` so they live on the same scale as a
        second-stage fit that used this transform.

    Returns
    -------
    ndarray of length ``n_features + 1``
        Intercept followed by feature coefficients.
    """
    if size is None:
        size = max(1000, 50 * feature_map.n_features)
    X = synthetic_design(domain, size)
    target = np.asarray(benchmark.implied_mean(X), dtype=float).ravel()
    F = feature_map.transform(X)
    if transform is not None:
        F = transform.transform_inputs(F)
    design = np.column_stack([np.ones(F.shape[0]), F])
    try:
        return solve_least_squares(design, target)
    except SingularDesignError as exc:
        raise SingularDesignError("singular feature Gram matrix") from exc


def _penalized_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    try:
        return scipy.linalg.solve(A, b, assume_a="sym")
    except scipy.linalg.LinAlgError as exc:
        raise SingularDesignError("singular penalized system") from exc


def sre_ridge(X, y, theta_m, penalty: PenaltySpec, lam: float) -> np.ndarray:
    """Closed-form penalized least squares shrinking toward ``theta_m``.

    ``X`` is the full design (include a constant column for an intercept);
    ``penalty.weights`` and ``theta_m`` align with its columns. With centered
    non-constant columns and weight zero on the constant, the intercept
    equals the outcome mean at every ``lam``.
    """
    if lam < 0.0:
        raise PenaltyError("lambda must be nonnegative")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    theta_m = np.asarray(theta_m, dtype=float).ravel()
    k = X.shape[1]
    if theta_m.shape[0] != k or penalty.weights.shape[0] != k:
        raise PenaltyError("theta_m and penalty weights must match design width")
    L = np.diag(penalty.weights)
    A = X.T @ X + lam * L
    b = X.T @ y + lam * (penalty.weights * theta_m)
    return _penalized_solve(A, b)


def _check_weight_matrix(W: np.ndarray) -> np.ndarray:
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise PenaltyError("weight matrix must be square")
    if not np.allclose(W, W.T, atol=1e-10):
        raise PenaltyError("weight matrix must be symmetric")
    eigs = np.linalg.eigvalsh(0.5 * (W + W.T))
    if eigs.min() < -1e-10 * max(1.0, abs(eigs.max())):
        raise PenaltyError("weight matrix must be positive semi-definite")
    return 0.5 * (W + W.T)


def sre_gmm(X, Z, y, W, theta_m, penalty: PenaltySpec, lam: float) -> np.ndarray:
    """Closed-form penalized linear GMM with instrument moments.

    Minimizes ``(y - X theta)' Z W Z' (y - X theta)`` plus the weighted
    squared distance from ``theta_m``. At ``lam = 0`` with the projection
    weight ``W = (Z'Z)^{-1}`` this is two-stage least squares.
    """
    if lam < 0.0:
        raise PenaltyError("lambda must be nonnegative")
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    theta_m = np.asarray(theta_m, dtype=float).ravel()
    if X.ndim == 1:
        X = X[:, None]
    if Z.ndim == 1:
        Z = Z[:, None]
    if Z.shape[1] < X.shape[1]:
        raise PenaltyError("need at least as many instruments as parameters")
    W = _check_weight_matrix(W)
    if W.shape[0] != Z.shape[1]:
        raise PenaltyError("weight matrix width does not match instruments")
    k = X.shape[1]
    if theta_m.shape[0] != k or penalty.weights.shape[0] != k:
        raise PenaltyError("theta_m and penalty weights must match design width")
    XZ = X.T @ Z
    A = XZ @ W @ XZ.T + lam * np.diag(penalty.weights)
    b = XZ @ W @ (Z.T @ y) + lam * (penalty.weights * theta_m)
    return _penalized_solve(A, b)


def gmm_objective(X, Z, y, W, theta) -> float:
    """Quadratic moment objective ``(y - X theta)' Z W Z' (y - X theta)``."""
    resid = np.asarray(y, float).ravel() - np.asarray(X, float) @ np.asarray(theta, float)
    m = np.asarray(Z, float).T @ resid
    return float(m @ (np.asarray(W, float) @ m))


def sre_extremum(
    objective,
    theta_m,
    penalty: PenaltySpec,
    lam: float,
    theta_init,
    max_evaluations: int = 100_000,
    tol: float = 1e-9,
) -> np.ndarray:
    """Derivative-free minimizer of ``objective(theta) + lam * Omega(theta)``.

    Runs simplex searches restarted from ``theta_m`` and from ``theta_init``
    until the best value stops improving in relative terms, and returns the
    best point found (a local minimizer in general). Deterministic given its
    inputs.
    """
    if lam < 0.0:
        raise PenaltyError("lambda must be nonnegative")
    theta_m = np.asarray(theta_m, dtype=float).ravel()
    theta_init = np.asarray(theta_init, dtype=float).ravel()
    if theta_init.shape != theta_m.shape:
        raise PenaltyError("theta_init and theta_m dimensions differ")

    def total(theta):
        value = objective(theta) + lam * penalty.omega(theta, theta_m)
        if not np.isfinite(value):
            raise PenaltyError(f"non-finite objective at theta={theta!r}")
        return value

    total(theta_init)
    evals_left = max_evaluations
    best_x, best_f = None, np.inf
    for start in (theta_m, theta_init):
        x0 = start.copy()
        while evals_left > 0:
            res = scipy.optimize.minimize(
                total,
                x0,
                method="Nelder-Mead",
                options={
                    "maxfev": evals_left,
                    "xatol": tol,
                    "fatol": tol,
                    "adaptive": theta_m.size > 4,
                },
            )
            evals_left -= res.nfev
            improved = res.fun < best_f - tol * (1.0 + abs(best_f))
            if res.fun < best_f:
                best_x, best_f = res.x, res.fun
            if not improved:
                break
            x0 = res.x
    return np.asarray(best_x)


@dataclass(frozen=True)
class SREFit:
    """A fitted, structurally regularized linear-in-features model.

    Coefficients live on the standardized feature scale: ``theta[0]`` is the
    intercept (the second-stage outcome mean) and ``theta[1:]`` multiply
    ``(F(x) - means) / scales``. ``theta_m`` is the benchmark projection on
    the same scale.
    """

    theta: np.ndarray
    transform: StandardizeTransform
    theta_m: np.ndarray
    lambda_star: float
    feature_map: FeatureMap
    method: str = "sample-split"
    cv: str = "kfold"
    parts: tuple = field(default=(), compare=False)

    def __post_init__(self):
        theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        theta_m = np.atleast_1d(np.asarray(self.theta_m, dtype=float))
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "theta_m", theta_m)
        if theta.shape != theta_m.shape:
            raise PenaltyError("theta and theta_m lengths differ")

    def predict(self, X) -> np.ndarray:
        F = self.transform.transform_inputs(self.feature_map.transform(X))
        return self.theta[0] + F @ self.theta[1:]

    def derivative(self, X, coordinate: int = 0) -> np.ndarray:
        dF = self.feature_map.derivative(X, coordinate) / self.transform.column_scales
        return dF @ self.theta[1:]


def ate_from_fit(fit, treatment_index: int = 0):
    """Average-treatment-effect function from a fitted conditional mean.

    Returns the analytic partial derivative of the fitted outcome mean with
    respect to the treatment coordinate, in the raw input scale. Accepts
    :class:`SREFit`, :class:`~structreg.estimators.PolyFit`, and
    :class:`~structreg.estimators.LinearFit`.
    """
    from .estimators import LinearFit, PolyFit

    if isinstance(fit, SREFit):
        probe = np.zeros((1, 1))
        try:
            fit.feature_map.derivative(probe, treatment_index)
        except IndexError:
            raise IndexError("treatment_index out of range") from None
        return lambda d, w=None: fit.derivative(np.atleast_1d(d), treatment_index)
    if isinstance(fit, PolyFit):
        if treatment_index != 0:
            raise IndexError("treatment_index out of range")
        return lambda d, w=None: fit.derivative(np.atleast_1d(d))
    if isinstance(fit, LinearFit):
        if not 0 <= treatment_index < fit.coefficients.shape[0]:
            raise IndexError("treatment_index out of range")
        slope = float(fit.coefficients[treatment_index])
        return lambda d, w=None: np.full(np.shape(np.atleast_1d(d)), slope)
    raise TypeError(f"cannot differentiate fit of type {type(fit).__name__}")
