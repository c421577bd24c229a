"""structreg: statistical models regularized toward structural benchmarks.

The estimator fits a flexible statistical model with a penalty on the
distance between its coefficients and the values implied by an estimated
structural (causal) model, trading in-sample fit against agreement with
theory. The package provides the penalized solvers (closed-form least
squares and moment-based variants), penalty selection by K-fold, forward,
and rolling-window cross-validation, and a reproducible Monte Carlo harness
covering three applications: first-price auctions, dynamic firm entry/exit,
and demand estimation with instruments.
Each application estimates its structural model on one half of the sample
and selects and fits the penalized model on the other.
"""

__version__ = "0.1.0"

from .data import (  # noqa: F401
    DataError,
    Dataset,
    DomainSpec,
    SeededRng,
    StandardizeTransform,
    partition_indices,
    standardize,
)
from .estimators import (  # noqa: F401
    ARXFit,
    LinearFit,
    PolyFit,
    SingularDesignError,
    fit_2sls,
    fit_arx,
    fit_ols,
    fit_polynomial,
    select_arx_order_aic,
    select_degree_aic,
)
from .sre import (  # noqa: F401
    FeatureMap,
    LinearFeatures,
    PenaltySpec,
    PolynomialFeatures,
    SREFit,
    default_lambda_grid,
    fit_theta_m,
    quadratic_path,
    sre_gmm,
    sre_ridge,
)
from .tuning import (  # noqa: F401
    CvTrace,
    RidgeFold,
    forward_cv,
    kfold_cv,
    rolling_cv,
)
from .metrics import AggregateRow, metrics, metrics_table  # noqa: F401
from .config import RunConfig, config_from_mapping, load_config  # noqa: F401
from .harness import (  # noqa: F401
    MonteCarloReport,
    emit_outputs,
    load_report,
    run_monte_carlo,
)
