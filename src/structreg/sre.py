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
grid of ``lam`` values from one eigendecomposition. The second stage solves
with it alone: cross-validation over the grid, and the final fit at the one
penalty the cross-validation chose. The per-``lam`` closed forms
:func:`sre_ridge` and :func:`sre_gmm` remain the public reference.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

# scipy.linalg is imported in _penalized_solve, which only the reference
# solvers sre_ridge and sre_gmm reach: the pipelines solve with numpy alone,
# and a run that never needs scipy should not pay for importing it.
from .data import Dataset, StandardizeTransform, standardize
from .estimators import SingularDesignError, solve_least_squares

if TYPE_CHECKING:
    from .tuning import CvTrace


class PenaltyError(ValueError):
    """Invalid penalty configuration or solver input."""


LAMBDA_GRID_POINTS = 25


def default_lambda_grid(n: int) -> np.ndarray:
    """``LAMBDA_GRID_POINTS`` log-spaced penalties over ``[1e-4, 1e4]``, scaled by
    the sample size."""
    return n * np.logspace(-4.0, 4.0, LAMBDA_GRID_POINTS)


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


def fit_theta_m(feature_map: FeatureMap, synthetic: Dataset) -> np.ndarray:
    """Project the structural benchmark onto the statistical model's span.

    ``synthetic`` holds rows the estimated structural model implies: inputs
    and the outcome the model predicts for them (the auction study evaluates
    the model's conditional mean on an even grid of bidder counts, the
    entry/exit study stacks simulated benchmark panels). The statistical
    model is fitted to them by least squares over the rows' own standardized
    features, which keeps the design well conditioned; the fitted function
    does not depend on that standardization, so the coefficients are
    returned on the raw feature scale, the one form in which a benchmark
    reaches a fold. A fold re-expresses them on its own standardization.

    Returns
    -------
    ndarray of length ``n_features + 1``
        Raw-scale intercept followed by the coefficients of the raw features.
    """
    std, transform = standardize(Dataset(feature_map.transform(synthetic.inputs),
                                         synthetic.outcome))
    try:
        coefficients = solve_least_squares(np.column_stack([np.ones(std.n), std.inputs]),
                                           synthetic.outcome)
    except SingularDesignError as exc:
        raise SingularDesignError("singular feature Gram matrix") from exc
    slopes = coefficients[1:] / transform.column_scales
    return np.concatenate([[coefficients[0] - slopes @ transform.column_means], slopes])


class SingularPathError(SingularDesignError):
    """The penalized system is numerically singular at grid point ``lam``.

    ``index`` is the offending system's position in a stacked call, ``None``
    for a single system.
    """

    def __init__(self, lam: float, index: int | None = None):
        super().__init__("singular penalized system")
        self.lam = lam
        self.index = index


def _singular_floor(eigenvalues: np.ndarray) -> np.ndarray:
    """Eigenvalues at or below this are zero to working precision, per system
    (the last axis holds one system's eigenvalues)."""
    n = eigenvalues.shape[-1]
    if n == 0:
        return np.zeros(eigenvalues.shape[:-1])
    return n * np.finfo(float).eps * np.abs(eigenvalues).max(axis=-1)


def quadratic_path(G, b, weights, theta_m, grid) -> np.ndarray:
    """Every grid point's minimizer of ``t'G t - 2 b't + lam * sum_j w_j (t_j - theta_m_j)^2``.

    ``G`` is the Gram matrix of the unpenalized quadratic (``X'X`` for least
    squares, ``X'Z W Z'X`` for the moment objective) and ``b`` its linear term
    (``X'y``, ``X'Z W Z'y``); row ``i`` of the result solves
    ``(G + lam_i L) t = b + lam_i L theta_m``, the system :func:`sre_ridge`
    and :func:`sre_gmm` solve for one ``lam``.

    ``G``, ``b`` and ``theta_m`` may carry a leading stack axis of ``S``
    systems that share ``weights`` (cross-validation solves every fold at
    once); a single system is the stack of one. The systems share ``grid``,
    or a stack takes one grid row per system, ``(S, len(row))``, so that each
    system is solved at its own penalties. Each system's result is bit for
    bit the one it gets alone.

    The zero-weight coordinates are eliminated by a Schur complement and the
    others rescaled by ``sqrt(w)``, so the penalty becomes
    ``lam * ||phi - phi_m||^2`` over a reduced system ``S phi = c``. One
    eigendecomposition ``S = V D V'`` then gives every grid point as
    ``phi(lam) = V (V'c + lam V'phi_m) / (D + lam)``, which tends to
    ``phi_m`` as ``lam`` grows without cancellation.

    Raises
    ------
    SingularPathError
        At the first system, and its first grid point, where the penalized
        system is singular to working precision (for example ``lam = 0``
        with a rank-deficient ``G``).

    Returns
    -------
    ndarray of shape ``(len(grid), len(theta_m))``, or ``(S, grid points, k)``
    for a stack
    """
    G = np.asarray(G, dtype=float)
    b = np.asarray(b, dtype=float)
    w = np.asarray(weights, dtype=float).ravel()
    theta_m = np.asarray(theta_m, dtype=float)
    grid = np.atleast_2d(np.asarray(grid, dtype=float))  # a shared grid is one row
    single = G.ndim == 2
    if single:
        G, b, theta_m = G[None], b.ravel()[None], theta_m.ravel()[None]
    if (b.ndim != 2 or G.shape != b.shape + b.shape[1:] or w.shape != b.shape[1:]
            or theta_m.shape != b.shape):
        raise PenaltyError("G, b, weights and theta_m must share one width")
    n, k = b.shape
    if grid.ndim != 2 or grid.shape[0] not in (1, n) or grid.size == 0:
        raise PenaltyError("lambda grid must be a nonempty vector or one row per system")
    if np.any(grid < 0.0) or not np.isfinite(grid).all():
        raise PenaltyError("lambda grid must be nonnegative and finite")
    if np.any(w < 0.0) or not np.isfinite(w).all():
        raise PenaltyError("penalty weights must be nonnegative and finite")
    if not (np.isfinite(G).all() and np.isfinite(b).all() and np.isfinite(theta_m).all()):
        raise PenaltyError("G, b and theta_m must be finite")
    free, pen = np.flatnonzero(w == 0.0), np.flatnonzero(w > 0.0)
    root = np.sqrt(w[pen])
    # Indexing an inner axis lays the result out by the stack's size, and a
    # matrix product's rounding can follow the layout of its operands; so the
    # products below take contiguous operands (G_pf, and phi rather than
    # theta[:, :, pen]), and each system's result is its own in any stack.
    G_pf = np.ascontiguousarray(G[:, pen][:, :, free])
    S, c = G[:, pen][:, :, pen], b[:, pen]
    # a singular free block is singular at every grid point
    free_singular = np.zeros(n, dtype=bool)
    if free.size:
        # K = G_ff^{-1} [G_fp, b_f]: the free block given the penalized one
        d_f, V_f = np.linalg.eigh(G[:, free][:, :, free])
        free_singular = d_f[:, 0] <= _singular_floor(d_f)
        d_f[free_singular] = 1.0  # placeholder; those systems raise below
        rhs = np.concatenate([G_pf.swapaxes(1, 2), b[:, free, None]], axis=2)
        K = V_f @ ((V_f.swapaxes(1, 2) @ rhs) / d_f[:, :, None])
        S = S - G_pf @ K[:, :, :-1]
        c = c - (G_pf @ K[:, :, -1:])[:, :, 0]
    S = S / np.outer(root, root)
    d, V = np.linalg.eigh(0.5 * (S + S.swapaxes(1, 2)))
    denominators = d[:, None, :] + grid[:, :, None]
    floor = _singular_floor(d)[:, None] + d.shape[1] * np.finfo(float).eps * grid
    singular = (denominators.min(axis=2, initial=np.inf) <= floor) | free_singular[:, None]
    if singular.any():
        first = np.argmax(singular.any(axis=1))
        lam = np.broadcast_to(grid, singular.shape)[first, np.argmax(singular[first])]
        raise SingularPathError(float(lam), None if single else int(first))
    Vt = V.swapaxes(1, 2)
    numerators = (Vt @ (c / root)[:, :, None]).swapaxes(1, 2) + grid[:, :, None] * (
        Vt @ (root * theta_m[:, pen])[:, :, None]).swapaxes(1, 2)
    theta = np.empty((n, grid.shape[1], k))
    theta[:, :, pen] = phi = (numerators / denominators) @ Vt / root
    if free.size:
        theta[:, :, free] = K[:, None, :, -1] - phi @ K[:, :, :-1].swapaxes(1, 2)
    return theta[0] if single else theta


def _penalized_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    import scipy.linalg

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
    if W.ndim < 2 or W.shape[-2] != W.shape[-1]:
        raise PenaltyError("weight matrix must be square")
    Wt = W.swapaxes(-2, -1)
    if not np.allclose(W, Wt, atol=1e-10):
        raise PenaltyError("weight matrix must be symmetric")
    eigs = np.linalg.eigvalsh(0.5 * (W + Wt))
    if np.any(eigs.min(axis=-1) < -1e-10 * np.maximum(1.0, np.abs(eigs.max(axis=-1)))):
        raise PenaltyError("weight matrix must be positive semi-definite")
    return 0.5 * (W + Wt)


def gmm_normal_equations(X, Z, y, W) -> tuple[np.ndarray, np.ndarray]:
    """``(X'Z W Z'X, X'Z W Z'y)``: the quadratic and linear terms of the
    moment objective ``(y - X theta)' Z W Z' (y - X theta)``, after checking
    that ``W`` is a symmetric positive semi-definite weight for ``Z``.

    With a leading stack axis on every argument (``X`` of shape
    ``(S, n, k)``, ``y`` of shape ``(S, n)``) it returns every system's terms.
    """
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if Z.ndim == 1:
        Z = Z[:, None]
    if Z.shape[-1] < X.shape[-1]:
        raise PenaltyError("need at least as many instruments as parameters")
    W = _check_weight_matrix(W)
    if W.shape[-1] != Z.shape[-1]:
        raise PenaltyError("weight matrix width does not match instruments")
    XZ = X.swapaxes(-2, -1) @ Z
    XZW = XZ @ W
    return XZW @ XZ.swapaxes(-2, -1), (XZW @ (Z.swapaxes(-2, -1) @ y[..., None]))[..., 0]


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


@dataclass(frozen=True)
class SREFit:
    """A fitted, structurally regularized linear-in-features model.

    Coefficients live on the standardized feature scale: ``theta[0]`` is the
    intercept (the second-stage outcome mean) and ``theta[1:]`` multiply
    ``(F(x) - means) / scales``. ``theta_m`` is the benchmark projection on
    the same scale, and ``trace`` the cross-validation run that chose
    ``lambda_star``, if one did.
    """

    theta: np.ndarray
    transform: StandardizeTransform
    theta_m: np.ndarray
    lambda_star: float
    feature_map: FeatureMap
    trace: CvTrace | None = field(default=None, compare=False)

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

