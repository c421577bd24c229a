"""The exact penalty path against the per-lambda closed forms.

``quadratic_path`` solves a whole lambda grid from one eigendecomposition;
``sre_ridge`` and ``sre_gmm`` solve one lambda at a time and are the
reference. A stack of systems is checked against each system alone, and the
stacked cross-validation of a fold against each split posed alone: its
training rows standardized with ``standardize``, every grid point solved with
``sre_ridge`` (or ``sre_gmm`` with ``inv(Z'Z)``) and scored on its held-out
rows, with no code shared with the stacked path. Designs are drawn from a
hypothesis-chosen seed, so a failing example replays from its seed.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from structreg.data import Dataset, DomainSpec, SeededRng, standardize
from structreg.demand import DemandParams, GmmFold, simulate_markets
from structreg.estimators import fit_2sls, fit_ols
from structreg.metrics import TRIAL_BLOCK
from structreg.sre import (
    LinearFeatures,
    PenaltyError,
    PenaltySpec,
    PolynomialFeatures,
    SingularPathError,
    _singular_floor,
    _singular_points,
    _solve_path,
    gmm_normal_equations,
    quadratic_path,
    sre_gmm,
    sre_ridge,
)
from structreg.tuning import (
    CvError,
    RidgeFold,
    forward_splits,
    kfold_cv,
    kfold_splits,
    rolling_cv,
    rolling_splits,
)

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
@example(31858)
@settings(max_examples=60, deadline=None)
def test_path_matches_per_lambda_gmm(seed):
    gen, X, y, weights, theta_m = _problem(seed)
    if X.shape[1] < 2:
        X = np.column_stack([X, gen.normal(size=X.shape[0])])
        weights, theta_m = np.append(weights, 2.5), np.append(theta_m, 1.0)
    X, Z, W = _instruments(gen, X)
    penalty = PenaltySpec(GRID, weights)
    G, b = gmm_normal_equations(X, Z, y, W)
    path = quadratic_path(G, b, weights, theta_m, GRID)
    for row, lam in zip(path, GRID):
        # two backward-stable solves of G + lam * L agree to about cond * eps
        # of it, not to any fixed bound: at seed 31858 and lam = 0, cond(G) is
        # 8.5e8, and both sit 2e-8 to 4e-8 from a 50-digit solve
        cond = np.linalg.cond(G + lam * np.diag(weights))
        bound = max(1e-8, 10.0 * cond * np.finfo(float).eps)
        assert _relative(row, sre_gmm(X, Z, y, W, theta_m, penalty, lam)) <= bound


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


def _previous_singular_points(d, grid):
    """The singularity test as it was, over every denominator ``d_k + lam``:
    the oracle of :func:`_singular_points`."""
    denominators = d[:, None, :] + grid[:, :, None]
    floor = _singular_floor(d)[:, None] + d.shape[1] * np.finfo(float).eps * grid
    return denominators.min(axis=2, initial=np.inf) <= floor


@given(seed=seeds, k=st.sampled_from([0, 1, 2, 6]), per_system=st.booleans())
@settings(max_examples=60, deadline=None)
def test_singularity_test_matches_the_denominators_minimum(seed, k, per_system):
    # eigenvalues at and around the singular floor, and penalties that
    # cancel an eigenvalue to within a few ulps; k = 0 is a system with no
    # penalized coordinate
    gen = np.random.default_rng(seed)
    S, points = int(gen.integers(1, 30)), int(gen.integers(1, 8))
    grid = np.sort(gen.choice([0.0, 1e-300, 1e-12, 1.0, 7.0, 1e12], size=(
        S if per_system else 1, points)), axis=1)
    top = gen.uniform(0.5, 1e3, size=(S, 1))
    eps = np.finfo(float).eps
    d = top * gen.choice([1.0, 0.5, 0.0, eps, -eps, 2 * eps, k * eps, -(k + 1) * eps],
                         size=(S, k)) + gen.integers(-4, 5, size=(S, k)) * eps * top
    d -= gen.choice([0.0, 1.0, 7.0], size=(S, k))
    expected = _previous_singular_points(d, grid)
    got = _singular_points(d, grid)
    assert got.shape == expected.shape == (S, points)
    assert np.array_equal(got, expected)


def test_path_rejects_bad_inputs():
    G, b = np.eye(2), np.ones(2)
    with pytest.raises(PenaltyError):
        quadratic_path(G, b, [1.0], np.zeros(2), [1.0])
    with pytest.raises(PenaltyError):
        quadratic_path(G, b, [1.0, 1.0], np.zeros(2), [-1.0])
    with pytest.raises(PenaltyError):
        quadratic_path(G, b, [1.0, 1.0], [0.0, np.nan], [1.0])


def test_rolling_cv_names_singular_window_and_lambda():
    # the second column is constant from row 20 on, so every window that
    # starts there standardizes it to zeros: singular at lambda = 0 only
    T = 36
    gen = np.random.default_rng(21)
    second = np.where(np.arange(T) < 20, gen.normal(size=T), 0.7)
    data = Dataset(np.column_stack([gen.normal(size=T), second]), gen.normal(size=T),
                   time_index=np.arange(T))

    def fold(grid):
        return RidgeFold.of_samples([data], LinearFeatures(2),
                                    PenaltySpec(grid, [0.0, 1.0, 1.0]), np.zeros(3))

    with pytest.raises(CvError, match=r"window 20 at lambda=0\.0: singular"):
        rolling_cv(fold([0.0, 1.0]), 10)
    [trace] = rolling_cv(fold([0.5, 1.0]), 10)
    assert np.isfinite(trace.mean_errors).all()


def test_kfold_names_non_finite_path_and_lambda():
    gen = np.random.default_rng(22)
    x = gen.uniform(0.0, 10.0, size=40)
    data = Dataset(x[:, None], 1.0 + 2.0 * x)
    # lam * theta_m overflows at the second grid point only
    fold = RidgeFold.of_samples([data], LinearFeatures(1),
                                PenaltySpec([0.0, 1e10], [0.0, 1.0]), np.array([0.0, 1e300]))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            CvError, match=r"fold 0 at lambda=10000000000\.0: non-finite"):
        kfold_cv(fold, 4, [SeededRng(23)])


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_stacked_path_is_each_systems_path(seed):
    gen = np.random.default_rng(seed)
    _, X, _, weights, _ = _problem(seed, with_intercept=seed % 2 == 0)
    S, (n, k) = int(gen.integers(1, 5)), X.shape
    Xs = gen.normal(size=(S, n, k)) * gen.uniform(0.1, 10.0, size=k)
    if seed % 2 == 0:
        Xs[:, :, 0] = 1.0
    ys, targets = 3.0 * gen.normal(size=(S, n)), 5.0 * gen.normal(size=(S, k))
    G, b = Xs.swapaxes(1, 2) @ Xs, (Xs.swapaxes(1, 2) @ ys[:, :, None])[:, :, 0]
    stacked = quadratic_path(G, b, weights, targets, GRID)
    assert stacked.shape == (S, GRID.size, k)
    for s in range(S):
        assert _relative(stacked[s], quadratic_path(G[s], b[s], weights, targets[s], GRID)) \
            <= 1e-12


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_per_system_grid_rows_are_each_systems_own_path(seed):
    gen, X, y, weights, theta_m = _problem(seed)
    S, k = int(gen.integers(2, 7)), X.shape[1]
    Xs = X[None] + 0.3 * gen.normal(size=(S,) + X.shape)
    ys = y[None] + gen.normal(size=(S, y.size))
    targets = theta_m[None] + gen.normal(size=(S, k))
    G, b = Xs.swapaxes(1, 2) @ Xs, (Xs.swapaxes(1, 2) @ ys[:, :, None])[:, :, 0]
    # every system at its own penalties, in any order, 0 included
    grids = gen.choice(GRID[1:], size=(S, int(gen.integers(1, 4))))
    grids[0, 0] = 0.0
    stacked = quadratic_path(G, b, weights, targets, grids)
    assert stacked.shape == (S, grids.shape[1], k)
    for s in range(S):
        alone = quadratic_path(G[s], b[s], weights, targets[s], grids[s])
        assert np.array_equal(stacked[s], alone)
    # a shared grid is the same grid on every row
    assert np.array_equal(quadratic_path(G, b, weights, targets, GRID),
                          quadratic_path(G, b, weights, targets, np.tile(GRID, (S, 1))))
    with pytest.raises(PenaltyError):
        quadratic_path(G, b, weights, targets, np.vstack([grids, grids]))


def test_per_system_grid_names_the_singular_system_at_its_own_lambda():
    good = np.column_stack([np.ones(6), np.arange(6.0), np.arange(6.0) ** 2])
    rank_deficient = np.column_stack([np.ones(6), np.arange(6.0), np.zeros(6)])
    X = np.stack([good, rank_deficient, rank_deficient])
    G, b = X.swapaxes(1, 2) @ X, X.swapaxes(1, 2) @ np.arange(6.0)
    # system 1 is regular at its own penalty, system 2 singular at its 0
    with pytest.raises(SingularPathError) as info:
        quadratic_path(G, b, [0.0, 1.0, 1.0], np.zeros((3, 3)), [[0.0], [0.5], [0.0]])
    assert (info.value.index, info.value.lam) == (2, 0.0)


def test_stacked_path_names_first_singular_system_and_lambda():
    good = np.column_stack([np.ones(6), np.arange(6.0), np.arange(6.0) ** 2])
    rank_deficient = np.column_stack([np.ones(6), np.arange(6.0), np.zeros(6)])
    no_intercept = np.column_stack([np.zeros(6), np.arange(6.0), np.arange(6.0) ** 2])

    def path(designs, grid):
        X = np.stack(designs)
        G, b = X.swapaxes(1, 2) @ X, X.swapaxes(1, 2) @ np.arange(6.0)
        return quadratic_path(G, b, [0.0, 1.0, 1.0], np.zeros((len(designs), 3)), grid)

    with pytest.raises(SingularPathError) as info:
        path([good, rank_deficient, no_intercept], [0.0, 1.0])
    assert (info.value.index, info.value.lam) == (1, 0.0)
    # a singular free block is singular at every grid point: it names the first
    with pytest.raises(SingularPathError) as info:
        path([good, rank_deficient, no_intercept], [0.5, 1.0])
    assert (info.value.index, info.value.lam) == (2, 0.5)
    assert np.isfinite(path([good, rank_deficient], [0.5, 1.0])).all()
    # a single system names no index
    G, b = rank_deficient.T @ rank_deficient, rank_deficient.T @ np.arange(6.0)
    with pytest.raises(SingularPathError) as info:
        quadratic_path(G, b, [0.0, 1.0, 1.0], np.zeros(3), [0.0])
    assert info.value.index is None


def _quadratic_path_previous(G, b, w, theta_m, grid):
    """The stacked solve of ``quadratic_path`` as it was, before its checks
    and its solver were parted and its weights' layout cached: the oracle.
    ``G`` ``(S, k, k)``, ``b`` and ``theta_m`` ``(S, k)``, ``grid`` one row
    or one row per system."""
    n, k = b.shape
    free, pen = np.flatnonzero(w == 0.0), np.flatnonzero(w > 0.0)
    root = np.sqrt(w[pen])
    G_pf = np.ascontiguousarray(G[:, pen][:, :, free])
    S, c = G[:, pen][:, :, pen], b[:, pen]
    free_singular = np.zeros(n, dtype=bool)
    if free.size:
        d_f, V_f = np.linalg.eigh(G[:, free][:, :, free])
        free_singular = d_f[:, 0] <= _singular_floor(d_f)
        d_f[free_singular] = 1.0
        rhs = np.concatenate([G_pf.swapaxes(1, 2), b[:, free, None]], axis=2)
        K = V_f @ ((V_f.swapaxes(1, 2) @ rhs) / d_f[:, :, None])
        S = S - G_pf @ K[:, :, :-1]
        c = c - (G_pf @ K[:, :, -1:])[:, :, 0]
    S = S / np.outer(root, root)
    d, V = np.linalg.eigh(0.5 * (S + S.swapaxes(1, 2)))
    singular = _singular_points(d, grid) | free_singular[:, None]
    if singular.any():
        first = np.argmax(singular.any(axis=1))
        lam = np.broadcast_to(grid, singular.shape)[first, np.argmax(singular[first])]
        raise SingularPathError(float(lam), int(first))
    denominators = d[:, None, :] + grid[:, :, None]
    Vt = V.swapaxes(1, 2)
    numerators = (Vt @ (c / root)[:, :, None]).swapaxes(1, 2) + grid[:, :, None] * (
        Vt @ (root * theta_m[:, pen])[:, :, None]).swapaxes(1, 2)
    theta = np.empty((n, grid.shape[1], k))
    theta[:, :, pen] = phi = (numerators / denominators) @ Vt / root
    if free.size:
        theta[:, :, free] = K[:, None, :, -1] - phi @ K[:, :, :-1].swapaxes(1, 2)
    return theta


def _outcome(solve):
    """``solve()``'s path, or the ``(lam, index)`` of the singular system it names."""
    try:
        return solve()
    except SingularPathError as exc:
        return exc.lam, exc.index


@given(seed=seeds, S=st.sampled_from([1, 3, 4, TRIAL_BLOCK]), per_system=st.booleans(),
       singular=st.booleans())
@settings(max_examples=60, deadline=None)
def test_the_folds_solver_is_public_quadratic_path_and_its_previous_form(
        seed, S, per_system, singular):
    # the solver a fold calls on checked inputs, the public path that checks
    # them first, and the solve as it was give the same bits, or name the
    # same singular system and penalty
    gen, X, _, weights, _ = _problem(seed, with_intercept=seed % 2 == 0)
    n, k = X.shape
    Xs = gen.normal(size=(S, n, k)) * gen.uniform(0.1, 10.0, size=k)
    if seed % 2 == 0:
        Xs[:, :, 0] = 1.0
    if singular:  # one system's last column repeats its first: singular at lambda = 0
        Xs[gen.integers(S), :, -1] = Xs[0, :, 0] if k == 1 else Xs[0, :, 0] * 0.0
    ys, targets = 3.0 * gen.normal(size=(S, n)), 5.0 * gen.normal(size=(S, k))
    G, b = Xs.swapaxes(1, 2) @ Xs, (Xs.swapaxes(1, 2) @ ys[:, :, None])[:, :, 0]
    grid = (np.sort(gen.choice(GRID, size=(S, 3)), axis=1) if per_system
            else GRID[None])
    previous = _outcome(lambda: _quadratic_path_previous(G, b, weights, targets, grid))
    for path in (_outcome(lambda: _solve_path(G, b, weights, targets, grid)),
                 _outcome(lambda: quadratic_path(G, b, weights, targets,
                                                 grid if per_system else GRID))):
        if isinstance(previous, tuple):
            assert path == previous
        else:
            assert np.array_equal(path, previous)


def _cv_problem(seed, n=None):
    """A random three-column sample and a penalty that leaves one slope free."""
    gen = np.random.default_rng(seed)
    n = int(gen.integers(23, 61)) if n is None else n
    X = gen.normal(size=(n, 3)) * gen.uniform(0.5, 5.0, size=3) + gen.normal(size=3)
    y = X @ gen.normal(size=3) + gen.normal(size=n)
    data = Dataset(X, y, time_index=np.arange(n))
    penalty = PenaltySpec(GRID, [0.0, 0.0, 1.0, gen.uniform(0.1, 10.0)])
    return gen, data, penalty


def split_rows(splits, s):
    """Split ``s``'s training and validation row indices."""
    return (splits.train[s][splits.train_weight[s] == 1.0],
            splits.val[s][splits.val_weight[s] == 1.0])


def pose_alone(fold, train):
    """Rows ``train`` of the sample of a stack of one posed on their own with
    ``standardize``: their design, outcome, standardization and
    the fold's raw-scale ``theta_m`` re-expressed on it."""
    data, [raw] = fold.stacked, fold.theta_m
    F = fold.feature_map.transform(data.inputs[train])
    std, transform = standardize(Dataset(F, data.outcome[train]))
    slopes = raw[1:]
    theta_m = np.concatenate([[raw[0] + transform.column_means @ slopes],
                              slopes * transform.column_scales])
    design = np.column_stack([np.ones(train.size), std.inputs])
    return design, data.outcome[train], transform, theta_m


def closed_form(fold, train):
    """Split ``train`` posed alone (:func:`pose_alone`) as its per-lambda closed
    form ``solve(lam)``: ``sre_ridge``, or for a moment fold ``sre_gmm`` with
    ``W = inv(Z'Z)`` over the split's own rescaling of the cost shifter.

    Returns ``solve``, the split's standardization and, for a moment fold,
    its instrument basis ``rows -> Z`` and ``W`` (``None`` for a ridge fold).
    """
    X, y, transform, theta_m = pose_alone(fold, train)
    if not isinstance(fold, GmmFold):
        return (lambda lam: sre_ridge(X, y, theta_m, fold.penalty, lam)), transform, None
    z = fold.stacked.instruments[:, 0]
    center, scale = z[train].mean(), z[train].std()

    def basis(rows):
        return ((z[rows] - center) / scale)[:, None] ** np.arange(6)

    Z = basis(train)
    W = np.linalg.inv(Z.T @ Z)
    return (lambda lam: sre_gmm(X, Z, y, W, theta_m, fold.penalty, lam)), transform, (basis, W)


def split_errors(fold, train, val):
    """The held-out errors of one split solved per lambda by :func:`closed_form`."""
    data = fold.stacked
    solve, transform, moment = closed_form(fold, train)
    F_val = transform.transform_inputs(fold.feature_map.transform(data.inputs[val]))
    errors = []
    for lam in fold.penalty.lambda_grid:
        theta = solve(lam)
        resid = data.outcome[val] - theta[0] - F_val @ theta[1:]
        if moment:
            basis, W = moment
            m_bar = basis(val).T @ resid / val.size
            errors.append(m_bar @ W @ m_bar)
        else:
            errors.append(np.mean(resid**2))
    return np.array(errors)


def assert_matches_each_split(fold, splits, errors=None):
    """The stacked errors of every split (``errors``, computed afresh if not
    given) against :func:`split_errors` of the split, relative to the split's
    largest error."""
    stacked = fold.cross_validate(splits)[0].fold_errors if errors is None else errors
    for s in range(splits.train.shape[0]):
        reference = split_errors(fold, *split_rows(splits, s))
        assert np.all(np.abs(stacked[s] - reference) <= 1e-9 * np.abs(reference).max())


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_stacked_kfold_and_forward_match_each_split(seed):
    gen, data, penalty = _cv_problem(seed)
    fold = RidgeFold.of_samples([data], LinearFeatures(3), penalty,
                                3.0 * np.arange(4.0) - 1.0)
    K = int(gen.integers(2, 7))
    if data.n % K == 0:
        K += 1  # unequal fold sizes
    assert_matches_each_split(fold, kfold_splits(data.n, K, [SeededRng(seed)]))
    target = DomainSpec(data.inputs.max(axis=0), data.inputs.max(axis=0) + 1.0)
    assert_matches_each_split(fold, forward_splits(data.inputs[None], K, target,
                                                   [SeededRng(seed)]))


@given(seeds)
@example(152385)
@settings(max_examples=20, deadline=None)
def test_stacked_rolling_matches_each_window_with_a_constant_column(seed):
    gen, data, penalty = _cv_problem(seed, n=40)
    X = data.inputs.copy()
    X[15:27, 2] = 0.7  # constant inside the window of rows 15..24 (and 16..25, 17..26)
    data = Dataset(X, data.outcome, time_index=data.time_index)
    # the constant column's rounding spread counts as zero variance, so it
    # standardizes to zeros there, which is singular at lambda = 0 only
    penalty = PenaltySpec(GRID[1:], penalty.weights)
    fold = RidgeFold.of_samples([data], LinearFeatures(3), penalty, np.ones(4))
    splits = rolling_splits(data.n, 10, 1)
    assert_matches_each_split(fold, splits)
    # with lambda = 0 on the grid window 15, the first with the constant
    # column, is singular posed alone and in the stacked run
    fold = RidgeFold.of_samples([data], LinearFeatures(3), PenaltySpec(GRID, penalty.weights),
                                np.ones(4))
    for s in range(16):
        X, y, _, theta_m = pose_alone(fold, split_rows(splits, s)[0])
        if s < 15:
            assert np.isfinite(quadratic_path(X.T @ X, X.T @ y, penalty.weights, theta_m,
                                              GRID)).all()
        else:
            with pytest.raises(SingularPathError) as info:
                quadratic_path(X.T @ X, X.T @ y, penalty.weights, theta_m, GRID)
            assert info.value.lam == 0.0
    with pytest.raises(CvError, match=r"window 15 at lambda=0\.0: singular"):
        rolling_cv(fold, 10)


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_stacked_moment_kfold_matches_each_split(seed):
    gen = np.random.default_rng(seed)
    data = simulate_markets(DemandParams(M=int(gen.integers(100, 160))), SeededRng(seed))
    penalty = PenaltySpec(GRID, [0.0, 1.0, gen.uniform(0.1, 10.0)])
    fold = GmmFold.of_samples([data], PolynomialFeatures(2), penalty,
                              np.array([100.0, -20.0, 1.0]))
    K = 7 if data.n % 7 else 6
    assert_matches_each_split(fold, kfold_splits(data.n, K, [SeededRng(seed)]))
