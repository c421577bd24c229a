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

Both are one quadratic in ``theta``, so :func:`quadratic_path` solves a whole
grid of ``lam`` values from one eigendecomposition; cross-validation uses it,
and the per-``lam`` solvers remain the reference for a single fit.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.stats.qmc

from .data import DomainSpec, StandardizeTransform
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

    def omega(self, theta, theta_m) -> float:
        """Weighted squared distance between a coefficient vector and the target."""
        diff = np.asarray(theta, float) - np.asarray(theta_m, float)
        return float(self.weights @ diff**2)


class StructuralBenchmark(abc.ABC):
    """An estimated structural model usable as a shrinkage target.

    Exposes the model-implied conditional outcome mean, which
    :func:`fit_theta_m` projects onto the statistical model.
    """

    @abc.abstractmethod
    def implied_mean(self, x) -> np.ndarray:
        """Model-implied conditional mean of the outcome at inputs ``x``."""


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


class SingularPathError(SingularDesignError):
    """The penalized system is numerically singular at grid point ``lam``."""

    def __init__(self, lam: float):
        super().__init__("singular penalized system")
        self.lam = lam


def _singular_floor(eigenvalues: np.ndarray) -> float:
    """Eigenvalues at or below this are zero to working precision."""
    if eigenvalues.size == 0:
        return 0.0
    return eigenvalues.size * np.finfo(float).eps * float(np.abs(eigenvalues).max())


def quadratic_path(G, b, weights, theta_m, grid) -> np.ndarray:
    """Every grid point's minimizer of ``t'G t - 2 b't + lam * sum_j w_j (t_j - theta_m_j)^2``.

    ``G`` is the Gram matrix of the unpenalized quadratic (``X'X`` for least
    squares, ``X'Z W Z'X`` for the moment objective) and ``b`` its linear term
    (``X'y``, ``X'Z W Z'y``); row ``i`` of the result solves
    ``(G + lam_i L) t = b + lam_i L theta_m``, the system :func:`sre_ridge`
    and :func:`sre_gmm` solve for one ``lam``.

    The zero-weight coordinates are eliminated by a Schur complement and the
    others rescaled by ``sqrt(w)``, so the penalty becomes
    ``lam * ||phi - phi_m||^2`` over a reduced system ``S phi = c``. One
    eigendecomposition ``S = V D V'`` then gives every grid point as
    ``phi(lam) = V (V'c + lam V'phi_m) / (D + lam)``, which tends to
    ``phi_m`` as ``lam`` grows without cancellation.

    Raises
    ------
    SingularPathError
        At the first grid point where the penalized system is singular to
        working precision (for example ``lam = 0`` with a rank-deficient
        ``G``).

    Returns
    -------
    ndarray of shape ``(len(grid), len(theta_m))``
    """
    G = np.asarray(G, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    w = np.asarray(weights, dtype=float).ravel()
    theta_m = np.asarray(theta_m, dtype=float).ravel()
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    k = b.shape[0]
    if G.shape != (k, k) or w.shape != (k,) or theta_m.shape != (k,):
        raise PenaltyError("G, b, weights and theta_m must share one width")
    if grid.ndim != 1 or grid.size == 0:
        raise PenaltyError("lambda grid must be a nonempty vector")
    if np.any(grid < 0.0) or not np.isfinite(grid).all():
        raise PenaltyError("lambda grid must be nonnegative and finite")
    if np.any(w < 0.0) or not np.isfinite(w).all():
        raise PenaltyError("penalty weights must be nonnegative and finite")
    if not (np.isfinite(G).all() and np.isfinite(b).all() and np.isfinite(theta_m).all()):
        raise PenaltyError("G, b and theta_m must be finite")
    free, pen = np.flatnonzero(w == 0.0), np.flatnonzero(w > 0.0)
    root = np.sqrt(w[pen])
    G_p = G[pen]
    S, c = G_p[:, pen], b[pen]
    if free.size:
        # K = G_ff^{-1} [G_fp, b_f]: the free block given the penalized one
        d_f, V_f = np.linalg.eigh(G[free][:, free])
        if d_f[0] <= _singular_floor(d_f):
            raise SingularPathError(float(grid[0]))
        K = V_f @ ((V_f.T @ np.column_stack([G_p[:, free].T, b[free]])) / d_f[:, None])
        S = S - G_p[:, free] @ K[:, :-1]
        c = c - G_p[:, free] @ K[:, -1]
    S = S / np.outer(root, root)
    d, V = np.linalg.eigh(0.5 * (S + S.T))
    denominators = d[None, :] + grid[:, None]
    floor = _singular_floor(d) + d.size * np.finfo(float).eps * grid
    singular = denominators.min(axis=1, initial=np.inf) <= floor
    if singular.any():
        raise SingularPathError(float(grid[np.argmax(singular)]))
    numerators = (V.T @ (c / root))[None, :] + grid[:, None] * (V.T @ (root * theta_m[pen]))
    theta = np.empty((grid.size, k))
    theta[:, pen] = (numerators / denominators) @ V.T / root
    if free.size:
        theta[:, free] = K[:, -1] - theta[:, pen] @ K[:, :-1].T
    return theta


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


def gmm_normal_equations(X, Z, y, W) -> tuple[np.ndarray, np.ndarray]:
    """``(X'Z W Z'X, X'Z W Z'y)``: the quadratic and linear terms of the
    moment objective ``(y - X theta)' Z W Z' (y - X theta)``, after checking
    that ``W`` is a symmetric positive semi-definite weight for ``Z``."""
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim == 1:
        X = X[:, None]
    if Z.ndim == 1:
        Z = Z[:, None]
    if Z.shape[1] < X.shape[1]:
        raise PenaltyError("need at least as many instruments as parameters")
    W = _check_weight_matrix(W)
    if W.shape[0] != Z.shape[1]:
        raise PenaltyError("weight matrix width does not match instruments")
    XZ = X.T @ Z
    return XZ @ W @ XZ.T, XZ @ W @ (Z.T @ y)


def sre_gmm(X, Z, y, W, theta_m, penalty: PenaltySpec, lam: float) -> np.ndarray:
    """Closed-form penalized linear GMM with instrument moments.

    Minimizes ``(y - X theta)' Z W Z' (y - X theta)`` plus the weighted
    squared distance from ``theta_m``. At ``lam = 0`` with the projection
    weight ``W = (Z'Z)^{-1}`` this is two-stage least squares.
    """
    if lam < 0.0:
        raise PenaltyError("lambda must be nonnegative")
    theta_m = np.asarray(theta_m, dtype=float).ravel()
    G, b = gmm_normal_equations(X, Z, y, W)
    k = G.shape[0]
    if theta_m.shape[0] != k or penalty.weights.shape[0] != k:
        raise PenaltyError("theta_m and penalty weights must match design width")
    A = G + lam * np.diag(penalty.weights)
    b = b + lam * (penalty.weights * theta_m)
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
