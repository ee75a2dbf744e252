"""The public names of the lrforecast package."""

import lrforecast

PUBLIC_API = [
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


def test_public_api_is_pinned():
    # adding or removing a public name is a deliberate edit of this list
    assert len(PUBLIC_API) == 58
    assert lrforecast.__all__ == PUBLIC_API
    for name in PUBLIC_API:
        assert getattr(lrforecast, name) is not None, name
