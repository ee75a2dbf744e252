"""Low-rank forecasting of vector time series.

Fits a linear map from a window of M past observations to H future ones,
regularized by a nuclear norm (for low rank, hence a small latent state)
and optionally by a penalty on forecast inconsistency across overlapping
origins.  Includes statistical baselines, a synthetic data generator, an
evaluation/sweep harness, and a CSV/JSON command line interface.
"""

from .core import TimeSeries, WindowedDataset, build_windows, center
from .objective import (
    HUBER,
    L1,
    SQUARED_L2,
    Loss,
    build_weights,
    hankel_project,
    huber,
    inconsistency,
    inconsistency_grad,
    loss_grad,
    loss_value,
)
from .solver import (
    FitOptions,
    FitReport,
    LowRankForecaster,
    NumericalError,
    fit_auto_rank,
    fit_factored,
    lambda_max,
    main_objective,
    nuclear_norm,
    optimality_residuals,
    reduce_rank,
    svt_reference_solve,
)
from .baselines import (
    AutocovSet,
    StateSpaceModel,
    ar_fit,
    ar_iterated_forecaster,
    cond_mean_forecaster,
    empirical_forecaster,
    ridge_fit,
    ss_autocov,
    ss_forecaster,
    stationary_cov,
    to_low_rank,
    zero_forecaster,
)
from .features import (
    FeatureSpec,
    ModelBundle,
    TrendModel,
    aux_joint_fit,
    detrend_apply,
    detrend_fit,
    latent_ar_fit,
    retrend,
    time_features,
)
from .simgen import SimSpec, gen_model, sample, state_alignment
from .evaluation import (
    EvalResult,
    SweepRow,
    SweepTable,
    evaluate,
    evaluate_forecasts,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "TimeSeries", "WindowedDataset", "build_windows", "center",
    "Loss", "SQUARED_L2", "L1", "HUBER", "huber", "loss_value", "loss_grad",
    "hankel_project", "inconsistency", "inconsistency_grad", "build_weights",
    "FitOptions", "FitReport", "LowRankForecaster", "NumericalError",
    "fit_factored", "fit_auto_rank", "lambda_max", "main_objective",
    "nuclear_norm", "optimality_residuals", "reduce_rank", "svt_reference_solve",
    "StateSpaceModel", "AutocovSet", "ridge_fit", "empirical_forecaster",
    "cond_mean_forecaster", "ar_fit", "ar_iterated_forecaster", "stationary_cov",
    "ss_autocov", "ss_forecaster", "zero_forecaster", "to_low_rank",
    "FeatureSpec", "ModelBundle", "TrendModel", "time_features", "detrend_fit", "detrend_apply",
    "retrend", "aux_joint_fit", "latent_ar_fit",
    "SimSpec", "gen_model", "sample", "state_alignment",
    "EvalResult", "SweepRow", "SweepTable", "evaluate", "evaluate_forecasts", "sweep",
]
