"""End-to-end command line tests.

Commands run in-process through main(argv) so exit codes and outputs are
checked directly.  Library recomputations serve as the expected values:
every file a command writes is compared against the same quantity produced
by calling the underlying functions on the same inputs.
"""

import json
import math
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from conftest import DELETE, edited
from lrforecast.baselines import cond_mean_forecaster, ss_autocov
from lrforecast.cli import main
from lrforecast.core import TimeSeries, build_windows, center
from lrforecast.evaluation import EvalResult, evaluate
from lrforecast.features import FeatureSpec, detrend_apply, origin_times, retrend, time_features
from lrforecast.objective import Loss
from lrforecast.serialize import (
    dump_json,
    load_json,
    load_model_json,
    read_series_csv,
    read_sweep_csv,
    save_model_json,
    trend_from_json,
    write_series_csv,
)
from lrforecast.simgen import SimSpec, gen_model, sample
from lrforecast.solver import FitReport, lambda_max


def run(*argv):
    return main([str(a) for a in argv])


# report.json's keys beside FitReport's fields (wall_time is written wall_time_s)
REPORT_EXTRA_KEYS = {
    "lambda", "alpha", "kappa", "loss",
    "train_loss", "train_inconsistency", "per_horizon_train_loss", "n_windows",
}


@pytest.fixture(scope="module")
def sim(tmp_path_factory):
    """A 3-dim series with rank-2 latent structure; windows use M=4, H=3."""
    d = tmp_path_factory.mktemp("sim")
    assert run(
        "simulate", "--out-dir", d, "--T-train", 60, "--T-test", 40,
        "--n", 3, "--rank", 2, "--seed", 3,
    ) == 0
    return d


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """A 2-dim series for the fast fits; windows use M=3, H=2."""
    d = tmp_path_factory.mktemp("small")
    assert run(
        "simulate", "--out-dir", d, "--T-train", 40, "--T-test", 30,
        "--n", 2, "--rank", 1, "--seed", 5,
    ) == 0
    return d


@pytest.fixture(scope="module")
def fitted(sim, tmp_path_factory):
    """One canonical fit shared by the forecast/evaluate/latent tests."""
    d = tmp_path_factory.mktemp("fitted")
    model = d / "model.json"
    report = d / "report.json"
    assert run(
        "fit", "--train", sim / "train.csv", "--M", 4, "--H", 3,
        "--alpha", 0.3, "--k", 4, "--seed", 0,
        "--model-out", model, "--report-out", report,
    ) == 0
    assert load_model_json(str(model)).model.rank >= 1
    return {"model": model, "report": report}


# ------------------------------------------------------------------- simulate


def test_simulate_default_sizes(tmp_path):
    assert run("simulate", "--out-dir", tmp_path) == 0
    train = read_series_csv(str(tmp_path / "train.csv"))
    test = read_series_csv(str(tmp_path / "test.csv"))
    states = read_series_csv(str(tmp_path / "states.csv"))
    assert train.values.shape == (100, 10)
    assert test.values.shape == (500, 10)
    assert states.values.shape == (100, 2)
    doc = load_json(str(tmp_path / "model.json"))
    assert np.array(doc["A"]).shape == (2, 2)
    assert np.array(doc["C"]).shape == (10, 2)
    assert doc["spec"]["spectral_radius"] == 0.98
    assert doc["spec"]["T_train"] == 100
    assert doc["spec"]["T_test"] == 500


def test_simulate_every_flag_reaches_the_spec(tmp_path):
    want = SimSpec(n=3, r=3, T_train=30, T_test=20, spectral_radius=0.9,
                   q_scale=0.5, r_scale=0.2, seed=7)
    assert all(getattr(want, f.name) != f.default for f in fields(SimSpec))
    assert run(
        "simulate", "--out-dir", tmp_path, "--n", 3, "--rank", 3, "--T-train", 30,
        "--T-test", 20, "--spectral-radius", 0.9, "--q-scale", 0.5, "--r-scale", 0.2,
        "--seed", 7,
    ) == 0
    assert SimSpec(**load_json(str(tmp_path / "model.json"))["spec"]) == want
    train, Z = sample(gen_model(want), 30, seed=7)
    assert np.array_equal(read_series_csv(str(tmp_path / "train.csv")).values, train.values)
    assert np.array_equal(read_series_csv(str(tmp_path / "states.csv")).values, Z)


def test_simulate_matches_library_and_test_seed(sim):
    spec = SimSpec(n=3, r=2, seed=3)
    model = gen_model(spec)
    train, Z = sample(model, 60, seed=3)
    test, _ = sample(model, 40, seed=4)  # held-out segment advances the seed
    assert np.array_equal(read_series_csv(str(sim / "train.csv")).values, train.values)
    assert np.array_equal(read_series_csv(str(sim / "test.csv")).values, test.values)
    assert np.array_equal(read_series_csv(str(sim / "states.csv")).values, Z)


def test_simulate_is_bytewise_deterministic(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d, seed in ((a, 9), (b, 9), (c, 10)):
        assert run(
            "simulate", "--out-dir", d, "--T-train", 30, "--T-test", 20,
            "--n", 2, "--rank", 1, "--seed", seed,
        ) == 0
    for name in ("train.csv", "test.csv", "model.json", "states.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert (a / "train.csv").read_bytes() != (c / "train.csv").read_bytes()


# ------------------------------------------------------------ fit / evaluate


def test_fit_report_matches_evaluate(sim, fitted, tmp_path):
    report = load_json(str(fitted["report"]))
    metrics = tmp_path / "metrics.json"
    assert run(
        "evaluate", "--model", fitted["model"], "--input", sim / "train.csv",
        "--out", metrics,
    ) == 0
    doc = load_json(str(metrics))
    assert set(doc) == {f.name for f in fields(EvalResult)}
    assert math.isclose(doc["loss"], report["train_loss"], rel_tol=1e-12)
    assert math.isclose(
        doc["inconsistency"], report["train_inconsistency"], rel_tol=1e-12
    )
    assert doc["n_windows"] == report["n_windows"] == 60 - 4 - 3 + 1
    assert len(doc["per_horizon_loss"]) == 3


def test_fit_records_lambda_from_alpha(sim, fitted):
    report = load_json(str(fitted["report"]))
    series = read_series_csv(str(sim / "train.csv"))
    centered, _ = center(series)
    data = build_windows(centered, 4, 3)
    lmax = lambda_max(data.P, data.F, Loss())
    assert math.isclose(report["lambda"], 0.3 * lmax, rel_tol=1e-12)
    assert report["alpha"] == 0.3
    assert report["rank"] == load_model_json(str(fitted["model"])).model.rank
    assert report["converged"] in (True, False)
    assert len(report["objective_trace"]) >= 1


@pytest.mark.parametrize("flags", [[], ["--periods", "12"]], ids=["plain", "features"])
def test_fit_report_holds_every_report_field(small, tmp_path, flags):
    model, report = tmp_path / "m.json", tmp_path / "r.json"
    assert run(
        "fit", "--train", small / "train.csv", "--M", 3, "--H", 2, "--alpha", 0.3,
        "--k", 3, "--seed", 0, *flags, "--model-out", model, "--report-out", report,
    ) == 0
    doc = load_json(str(report))
    names = {f.name for f in fields(FitReport)} - {"wall_time"} | {"wall_time_s"}
    assert set(doc) == names | REPORT_EXTRA_KEYS
    assert doc["rank"] == load_model_json(str(model)).model.rank
    assert doc["final_objective"] == doc["objective_trace"][-1]


def test_fit_at_full_penalty_gives_rank_zero(small, tmp_path):
    model = tmp_path / "m.json"
    assert run(
        "fit", "--train", small / "train.csv", "--M", 3, "--H", 2,
        "--alpha", 1.0, "--model-out", model,
        "--report-out", tmp_path / "r.json",
    ) == 0
    bundle = load_model_json(str(model))
    assert bundle.model.rank == 0
    # a rank-zero model forecasts the stored column means
    out = tmp_path / "f.csv"
    assert run(
        "forecast", "--model", model, "--input", small / "train.csv", "--out", out
    ) == 0
    got = read_series_csv(str(out)).values
    means = read_series_csv(str(small / "train.csv")).values.mean(axis=0)
    assert np.allclose(got, np.tile(means, (2, 1)), atol=1e-12)


@pytest.mark.parametrize("flags", [("--kappa", 0.5), ("--loss", "huber")])
def test_ridge_fit_above_lambda_max_is_certified_zero(tmp_path, flags):
    # the joint L-BFGS path with a ridge block used to sweep here and return
    # rank 12 of round-off singular values, unconverged
    assert run("simulate", "--out-dir", tmp_path, "--n", 3, "--T-train", 120, "--seed", 0) == 0
    report = tmp_path / "r.json"
    assert run("fit", "--train", tmp_path / "train.csv", "--M", 4, "--H", 4, "--alpha", 1.5,
               "--periods", 12, "--no-joint-nuclear", *flags, "--model-out", tmp_path / "m.json",
               "--report-out", report) == 0
    doc = load_json(str(report))
    assert doc["rank"] == 0 and doc["sweeps"] == 0 and doc["converged"] is True


def test_fit_is_bytewise_deterministic(small, tmp_path):
    outs = []
    for tag in ("one", "two"):
        model = tmp_path / f"{tag}.json"
        assert run(
            "fit", "--train", small / "train.csv", "--M", 3, "--H", 2,
            "--alpha", 0.3, "--k", 3, "--seed", 0, "--model-out", model,
            "--report-out", tmp_path / f"{tag}-report.json",
        ) == 0
        metrics = tmp_path / f"{tag}-metrics.json"
        assert run(
            "evaluate", "--model", model, "--input", small / "test.csv",
            "--out", metrics,
        ) == 0
        outs.append((model.read_bytes(), metrics.read_bytes()))
    assert outs[0][0] == outs[1][0]
    assert outs[0][1] == outs[1][1]


def test_warm_start_resumes_from_stored_model(sim, fitted, tmp_path):
    cold = load_json(str(fitted["report"]))
    report = tmp_path / "warm-report.json"
    assert run(
        "fit", "--train", sim / "train.csv", "--M", 4, "--H", 3,
        "--alpha", 0.3, "--seed", 0, "--warm-start", fitted["model"],
        "--model-out", tmp_path / "warm.json", "--report-out", report,
    ) == 0
    warm = load_json(str(report))
    # restarting at the solution costs far fewer inner iterations
    assert warm["iterations"] < cold["iterations"]
    assert warm["rank"] == cold["rank"]
    assert warm["final_objective"] <= cold["final_objective"] * (1 + 1e-9)


def test_warm_start_widens_when_rank_reaches_k(tmp_path):
    assert run(
        "simulate", "--out-dir", tmp_path, "--n", 3, "--rank", 1,
        "--T-train", 200, "--seed", 0,
    ) == 0
    fit = ("fit", "--train", tmp_path / "train.csv", "--M", 4, "--H", 3)
    start = tmp_path / "start.json"
    assert run(*fit, "--alpha", 0.2, "--model-out", start,
               "--report-out", tmp_path / "start-report.json") == 0
    reports = {}
    for tag, extra in (("cold", ()), ("warm", ("--warm-start", start))):
        reports[tag] = tmp_path / f"{tag}-report.json"
        assert run(*fit, "--alpha", 0.001, "--k", 2, *extra,
                   "--model-out", tmp_path / f"{tag}.json",
                   "--report-out", reports[tag]) == 0
    cold = load_json(str(reports["cold"]))
    warm = load_json(str(reports["warm"]))
    # the warm fit reaches rank k=2 and widens like a cold fit would
    assert warm["k_schedule"][:2] == [2, 4]
    assert warm["rank"] > 2
    assert warm["final_objective"] <= cold["final_objective"] * (1 + 1e-9)


def test_warm_start_shape_mismatch(sim, fitted, tmp_path, capsys):
    assert run(
        "fit", "--train", sim / "train.csv", "--M", 5, "--H", 3,
        "--alpha", 0.3, "--warm-start", fitted["model"],
        "--model-out", tmp_path / "m.json", "--report-out", tmp_path / "r.json",
    ) == 2
    assert "warm-start model shape" in capsys.readouterr().err


def test_consistency_penalty_lowers_inconsistency(small, tmp_path):
    incon = {}
    for kappa in (0.0, 1.0):
        report = tmp_path / f"r{kappa}.json"
        assert run(
            "fit", "--train", small / "train.csv", "--M", 3, "--H", 2,
            "--alpha", 0.3, "--kappa", kappa, "--k", 3, "--seed", 0,
            "--model-out", tmp_path / f"m{kappa}.json", "--report-out", report,
        ) == 0
        incon[kappa] = load_json(str(report))["train_inconsistency"]
    assert incon[1.0] < incon[0.0]


def test_fit_with_window_weights(small, tmp_path, capsys):
    assert run(
        "fit", "--train", small / "train.csv", "--M", 3, "--H", 2,
        "--alpha", 0.3, "--k", 3, "--weight-h-t", 4, "--weight-h-tau", 20,
        "--model-out", tmp_path / "m.json", "--report-out", tmp_path / "r.json",
    ) == 0
    assert np.isfinite(load_json(str(tmp_path / "r.json"))["train_loss"])

    assert run(
        "fit", "--train", small / "train.csv", "--M", 3, "--H", 2,
        "--alpha", 0.3, "--weight-h-t", 4,
        "--model-out", tmp_path / "m.json", "--report-out", tmp_path / "r.json",
    ) == 2
    assert "weighting needs both" in capsys.readouterr().err

    assert run(
        "fit", "--train", small / "train.csv", "--M", 3, "--H", 2,
        "--alpha", 0.3, "--weight-h-t", 4, "--weight-h-tau", 20,
        "--weight-col", "1,2,3",
        "--model-out", tmp_path / "m.json", "--report-out", tmp_path / "r.json",
    ) == 2
    assert "--weight-col needs 2 entries" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_fit_rejects_non_finite_weight_col(small, tmp_path, capsys, bad):
    model = tmp_path / "m.json"
    assert run(
        "fit", "--train", small / "train.csv", "--M", 3, "--H", 2,
        "--alpha", 0.3, "--weight-h-t", 4, "--weight-h-tau", 20, "--weight-col", f"{bad},1",
        "--model-out", model, "--report-out", tmp_path / "r.json",
    ) == 2
    assert "w_col must be finite and nonnegative" in capsys.readouterr().err
    assert not model.exists()


# ------------------------------------------------------------------- forecast


def test_forecast_matches_library(sim, fitted, tmp_path):
    out = tmp_path / "f.csv"
    at = 30
    assert run(
        "forecast", "--model", fitted["model"], "--input", sim / "train.csv",
        "--out", out, "--at", at, "--emit-latent",
    ) == 0
    got = read_series_csv(str(out))
    model = load_model_json(str(fitted["model"])).model
    series = read_series_csv(str(sim / "train.csv"))
    centered, _ = center(series, model.means)
    p = centered.values[at - model.M : at].ravel()
    z = model.encode(p)
    fhat = model.decode(z).reshape(model.H, model.n) + model.means
    assert got.t0 == at + 1
    assert np.allclose(got.values[:, : model.n], fhat, atol=1e-12)
    assert np.allclose(got.values[:, model.n :], np.tile(z, (model.H, 1)), atol=1e-12)


def test_forecast_origin_validation(sim, fitted, tmp_path, capsys):
    args = (
        "forecast", "--model", fitted["model"], "--input", sim / "train.csv",
        "--out", tmp_path / "f.csv",
    )
    assert run(*args, "--at", 99) == 2
    assert "outside the series range" in capsys.readouterr().err
    assert run(*args, "--at", 3) == 2  # only 3 rows of history, M is 4
    assert "insufficient history" in capsys.readouterr().err


# -------------------------------------------------- trend and latent commands


def test_detrend_then_fit_then_forecast(sim, tmp_path):
    resid = tmp_path / "resid.csv"
    trend_doc = tmp_path / "trend.json"
    assert run(
        "detrend", "--input", sim / "train.csv", "--periods", "10",
        "--out", resid, "--trend-out", trend_doc,
    ) == 0
    series = read_series_csv(str(sim / "train.csv"))
    trend = trend_from_json(load_json(str(trend_doc)))
    assert np.array_equal(
        read_series_csv(str(resid)).values, detrend_apply(series, trend).values
    )

    model_path = tmp_path / "model.json"
    assert run(
        "fit", "--train", resid, "--M", 4, "--H", 3, "--alpha", 0.3, "--k", 4,
        "--seed", 0, "--trend", trend_doc,
        "--model-out", model_path, "--report-out", tmp_path / "r.json",
    ) == 0
    bundle = load_model_json(str(model_path))
    assert bundle.trend is not None
    # the fit input is the residual already: the report scores it once
    # de-trended, as evaluate does on the raw series with the stored trend
    report = load_json(str(tmp_path / "r.json"))
    metrics = tmp_path / "metrics.json"
    assert run(
        "evaluate", "--model", model_path, "--input", sim / "train.csv", "--out", metrics
    ) == 0
    doc = load_json(str(metrics))
    assert math.isclose(report["train_loss"], doc["loss"], rel_tol=1e-12)
    assert math.isclose(
        report["train_inconsistency"], doc["inconsistency"], rel_tol=1e-12
    )

    out = tmp_path / "f.csv"
    assert run(
        "forecast", "--model", model_path, "--input", sim / "train.csv", "--out", out
    ) == 0
    model = bundle.model
    work = detrend_apply(series, bundle.trend)
    centered, _ = center(work, model.means)
    p = centered.values[-model.M :].ravel()
    fhat = model.decode(model.encode(p)).reshape(model.H, model.n) + model.means
    future_t = np.arange(61, 61 + model.H)
    fhat = retrend(fhat, bundle.trend, time_features(future_t, bundle.trend.features))
    got = read_series_csv(str(out))
    assert got.t0 == 61
    assert np.allclose(got.values, fhat, atol=1e-12)


def test_fit_with_aux_features_and_forecast(small, tmp_path):
    model_path = tmp_path / "model.json"
    assert run(
        "fit", "--train", small / "train.csv", "--M", 3, "--H", 2,
        "--alpha", 0.3, "--k", 3, "--seed", 0, "--periods", "12",
        "--model-out", model_path, "--report-out", tmp_path / "r.json",
    ) == 0
    bundle = load_model_json(str(model_path))
    assert bundle.phi is not None and bundle.phi.shape == (2, 2 * 2)
    assert bundle.aux_features is not None

    out = tmp_path / "f.csv"
    assert run(
        "forecast", "--model", model_path, "--input", small / "train.csv", "--out", out
    ) == 0
    model = bundle.model
    series = read_series_csv(str(small / "train.csv"))
    centered, _ = center(series, model.means)
    p = centered.values[-model.M :].ravel()
    fhat = model.decode(model.encode(p)).reshape(model.H, model.n) + model.means
    row = time_features(np.array([40]), bundle.aux_features) @ bundle.phi
    fhat = fhat + row.reshape(model.H, model.n)
    assert np.allclose(read_series_csv(str(out)).values, fhat, atol=1e-12)

    metrics = tmp_path / "metrics.json"
    assert run(
        "evaluate", "--model", model_path, "--input", small / "test.csv", "--out", metrics
    ) == 0
    doc = load_json(str(metrics))
    lib = evaluate(load_model_json(str(model_path)), read_series_csv(str(small / "test.csv")))
    assert doc["loss"] == lib.loss and doc["inconsistency"] == lib.inconsistency
    assert doc["per_horizon_loss"] == lib.per_horizon_loss.tolist()
    assert doc["n_windows"] == lib.n_windows


def test_fit_aux_ridge_path(small, tmp_path):
    assert run(
        "fit", "--train", small / "train.csv", "--M", 3, "--H", 2,
        "--alpha", 0.3, "--k", 3, "--seed", 0, "--periods", "12",
        "--no-joint-nuclear", "--max-outer", 6,
        "--model-out", tmp_path / "m.json", "--report-out", tmp_path / "r.json",
    ) == 0
    assert load_model_json(str(tmp_path / "m.json")).phi is not None


@pytest.mark.parametrize("joint", [True, False])
def test_aux_fit_caps_default_width(sim, tmp_path, joint):
    # the default k=20 exceeds min(Mn + p, Hn) = min(14, 9); the width is capped
    report = tmp_path / "r.json"
    flags = [] if joint else ["--no-joint-nuclear"]
    assert run(
        "fit", "--train", sim / "train.csv", "--M", 4, "--H", 3,
        "--alpha", 0.3, "--seed", 0, "--periods", "24", "--max-outer", 20, *flags,
        "--model-out", tmp_path / "m.json", "--report-out", report,
    ) == 0
    doc = load_json(str(report))
    assert doc["k_schedule"] == [9]
    # feature fits carry the certificate of their design, as plain fits do
    assert len(doc["optimality_residuals"]) == 3


@pytest.mark.parametrize("joint", [True, False])
def test_alpha_scales_by_the_lambda_max_of_the_fitted_design(sim, tmp_path, joint):
    # a joint-nuclear fit is zero above the lambda_max of [P, aux], so alpha = 1
    # is its certified zero start; a ridge fit's threshold depends on Phi, and
    # its alpha stays on the lambda_max of the windows alone
    report = tmp_path / "r.json"
    flags = [] if joint else ["--no-joint-nuclear"]
    assert run("fit", "--train", sim / "train.csv", "--M", 4, "--H", 3, "--alpha", 1.0,
               "--periods", 12, "--weekday", *flags, "--model-out", tmp_path / "m.json",
               "--report-out", report) == 0
    doc = load_json(str(report))
    series = read_series_csv(str(sim / "train.csv"))
    data = build_windows(center(series)[0], 4, 3)
    P = data.P
    if joint:
        aux = time_features(origin_times(series, 4, data.N), FeatureSpec((12,), True))
        P = np.hstack([P, aux])
        assert doc["rank"] == 0 and doc["sweeps"] == 0 and doc["converged"] is True
    assert doc["lambda"] == lambda_max(P, data.F)


@pytest.mark.parametrize("joint", [True, False])
def test_feature_fits_widen_like_plain_fits(tmp_path, joint):
    # at k = 2 the width binds; feature fits used to stop there uncertified
    d = tmp_path / "sim"
    assert run("simulate", "--out-dir", d, "--T-train", 200, "--T-test", 100, "--n", 3,
               "--rank", 2, "--seed", 0) == 0
    report = tmp_path / "r.json"
    flags = [] if joint else ["--no-joint-nuclear"]
    assert run("fit", "--train", d / "train.csv", "--M", 4, "--H", 4, "--lambda", 74,
               "--k", 2, "--periods", 12, *flags, "--model-out", tmp_path / "m.json",
               "--report-out", report) == 0
    doc = load_json(str(report))
    assert doc["k_schedule"] == [2, 4] and doc["converged"] is True


def test_warm_start_with_feature_flags_is_rejected(sim, tmp_path, capsys):
    model_out = tmp_path / "m.json"
    assert run(
        "fit", "--train", sim / "train.csv", "--M", 4, "--H", 3,
        "--alpha", 0.3, "--k", 2, "--periods", "24",
        "--warm-start", tmp_path / "does_not_exist.json",
        "--model-out", model_out, "--report-out", tmp_path / "r.json",
    ) == 2
    # rejected before any file is read, so the missing model is not the reason
    assert "--warm-start cannot be combined with feature flags" in capsys.readouterr().err
    assert not model_out.exists()


def test_latent_command(sim, fitted, tmp_path):
    out = tmp_path / "latent.csv"
    ar = tmp_path / "ar.json"
    assert run(
        "latent", "--model", fitted["model"], "--input", sim / "train.csv",
        "--out", out, "--ar-out", ar,
    ) == 0
    model = load_model_json(str(fitted["model"])).model
    series = read_series_csv(str(sim / "train.csv"))
    centered, _ = center(series, model.means)
    count = 60 - model.M + 1
    P = np.stack(
        [centered.values[i : i + model.M].ravel() for i in range(count)]
    )
    got = read_series_csv(str(out))
    assert got.values.shape == (count, model.rank)
    assert got.t0 == model.M  # origin of the first window, with t0 = 1
    assert np.array_equal(got.values, model.encode(P))
    doc = load_json(str(ar))
    A = np.array(doc["A"])
    assert A.shape == (model.rank, model.rank)
    assert math.isclose(
        doc["spectral_radius"], float(np.max(np.abs(np.linalg.eigvals(A)))),
        rel_tol=1e-12,
    )


def test_latent_rejects_rank_zero(small, tmp_path, capsys):
    model = tmp_path / "m.json"
    assert run(
        "fit", "--train", small / "train.csv", "--M", 3, "--H", 2,
        "--alpha", 1.0, "--model-out", model, "--report-out", tmp_path / "r.json",
    ) == 0
    assert run(
        "latent", "--model", model, "--input", small / "train.csv",
        "--out", tmp_path / "z.csv", "--ar-out", tmp_path / "ar.json",
    ) == 2
    assert "rank 0" in capsys.readouterr().err


@pytest.mark.parametrize("jitter, constant, code", [
    ("nan", False, 2),
    ("inf", False, 2),
    ("0", True, 3),  # states of a series at the model means are all zero: singular
])
def test_failed_latent_writes_nothing(sim, fitted, tmp_path, capsys, jitter, constant, code):
    series = sim / "train.csv"
    if constant:
        model = load_model_json(str(fitted["model"])).model
        series = tmp_path / "flat.csv"
        write_series_csv(str(series), TimeSeries(np.tile(model.means, (10, 1))))
    out, ar = tmp_path / "latent.csv", tmp_path / "ar.json"
    assert run(
        "latent", "--model", fitted["model"], "--input", series,
        "--out", out, "--ar-out", ar, "--jitter", jitter,
    ) == code
    assert "jitter" in capsys.readouterr().err
    assert not out.exists() and not ar.exists()


def test_baseline_runs_through_the_model_document_and_cli(sim, tmp_path):
    # the conditional-mean oracle of the state-space model the sim fixture samples
    M, H = 4, 3
    oracle = cond_mean_forecaster(ss_autocov(gen_model(SimSpec(n=3, r=2, seed=3)), M + H - 1), M, H)
    path = tmp_path / "oracle.json"
    save_model_json(str(path), oracle)
    back = load_model_json(str(path)).model
    assert back.rank == 2
    for name in ("U", "V", "singular_values", "means"):
        assert np.array_equal(getattr(back, name), getattr(oracle, name))
    assert (back.n, back.M, back.H, back.lam, back.kappa, back.loss) == (3, M, H, 0.0, 0.0, Loss())
    metrics = tmp_path / "metrics.json"
    assert run("evaluate", "--model", path, "--input", sim / "test.csv", "--out", metrics) == 0
    want = evaluate(oracle, read_series_csv(str(sim / "test.csv"))).loss
    assert math.isclose(load_json(str(metrics))["loss"], want, rel_tol=1e-12)
    latent = tmp_path / "latent.csv"
    assert run(
        "latent", "--model", path, "--input", sim / "test.csv",
        "--out", latent, "--ar-out", tmp_path / "ar.json",
    ) == 0
    states = read_series_csv(str(latent))
    assert states.names == ("z1", "z2") and states.values.shape == (40 - M + 1, 2)


# ------------------------------------------------------------- config / sweep


def test_config_file_and_flag_precedence(small, tmp_path):
    train = str(small / "train.csv")
    series = read_series_csv(train)
    centered, _ = center(series)
    data = build_windows(centered, 3, 2)
    lmax = lambda_max(data.P, data.F, Loss())

    cfg_alpha = tmp_path / "alpha.json"
    cfg_alpha.write_text(
        '{"train": "%s", "M": 3, "H": 2, "alpha": 0.4, "solver": {"k": 3, "seed": 0}}'
        % train
    )
    r1 = tmp_path / "r1.json"
    assert run(
        "fit", "--config", cfg_alpha,
        "--model-out", tmp_path / "m1.json", "--report-out", r1,
    ) == 0
    doc1 = load_json(str(r1))
    assert math.isclose(doc1["lambda"], 0.4 * lmax, rel_tol=1e-12)

    # an explicit flag overrides the config value
    r2 = tmp_path / "r2.json"
    assert run(
        "fit", "--config", cfg_alpha, "--alpha", 0.8,
        "--model-out", tmp_path / "m2.json", "--report-out", r2,
    ) == 0
    doc2 = load_json(str(r2))
    assert doc2["alpha"] == 0.8
    assert math.isclose(doc2["lambda"], 0.8 * lmax, rel_tol=1e-12)

    cfg_lam = tmp_path / "lam.json"
    cfg_lam.write_text(
        '{"train": "%s", "M": 3, "H": 2, "lambda": 0.07, '
        '"loss": {"kind": "huber", "delta": 0.3}, "solver": {"k": 3, "seed": 0}}'
        % train
    )
    r3 = tmp_path / "r3.json"
    assert run(
        "fit", "--config", cfg_lam,
        "--model-out", tmp_path / "m3.json", "--report-out", r3,
    ) == 0
    doc3 = load_json(str(r3))
    assert doc3["alpha"] is None and doc3["lambda"] == 0.07
    assert doc3["loss"] == {"kind": "huber", "delta": 0.3}


def test_config_conflicts_and_unknown_options(small, tmp_path, capsys):
    train = str(small / "train.csv")
    cfg = tmp_path / "c.json"
    cfg.write_text('{"train": "%s", "M": 3, "H": 2, "alpha": 0.4}' % train)
    assert run(
        "fit", "--config", cfg, "--lambda", 0.07,
        "--model-out", tmp_path / "m.json", "--report-out", tmp_path / "r.json",
    ) == 2
    assert "exactly one of --alpha and --lambda" in capsys.readouterr().err

    # a misspelled key at any level is named, not silently ignored; warm starts
    # come from --warm-start, not from raw factors in the config
    bad = tmp_path / "bad.json"
    model_out = tmp_path / "m.json"
    for extra, message in [
        ({"solver": {"memory": 3}}, "unknown solver options: memory"),
        ({"solver": {"init": [[1.0]]}}, "unknown solver options: init"),
        ({"alhpa": 9}, "unknown config options: alhpa"),
        ({"features": {"period": [24]}}, "unknown features options: period"),
        ({"weights": {"h_t": 5, "htau": 5}}, "unknown weights options: htau"),
        ({"loss": {"kind": "huber", "dleta": 0.3}}, "unknown loss options: dleta"),
        # values pass their flag's own type: k is an int, periods a list
        ({"solver": {"k": 2.5}}, "solver option k: invalid value 2.5"),
        ({"features": {"periods": 24}}, "features option periods: invalid value 24"),
    ]:
        dump_json(str(bad), {"train": train, "M": 3, "H": 2, "alpha": 0.4, **extra})
        assert run(
            "fit", "--config", bad, "--model-out", model_out,
            "--report-out", tmp_path / "r.json",
        ) == 2
        assert message in capsys.readouterr().err
        assert not model_out.exists()


def test_grad_tol_is_rejected(small, tmp_path, capsys):
    # the L-BFGS gradient tolerance is fixed; neither the flag nor the key exists
    train = str(small / "train.csv")
    model_out = tmp_path / "m.json"
    with pytest.raises(SystemExit) as exc:
        run("fit", "--train", train, "--M", 3, "--H", 2, "--alpha", 0.4,
            "--grad-tol", 1e-9, "--model-out", model_out)
    assert exc.value.code == 2
    assert "--grad-tol" in capsys.readouterr().err
    cfg = tmp_path / "c.json"
    dump_json(str(cfg), {"train": train, "M": 3, "H": 2, "alpha": 0.4,
                         "solver": {"grad_tol": 1e-9}})
    assert run("fit", "--config", cfg, "--model-out", model_out) == 2
    assert "unknown solver options: grad_tol" in capsys.readouterr().err
    assert not model_out.exists()


def test_obj_tol_is_rejected(small, tmp_path, capsys):
    # the solver's stall threshold is fixed; neither the flag nor the key exists
    train, test = str(small / "train.csv"), str(small / "test.csv")
    model_out, sweep_out = tmp_path / "m.json", tmp_path / "s.csv"
    for argv in (
        ("fit", "--train", train, "--M", 3, "--H", 2, "--alpha", 0.4,
         "--obj-tol", 0.0, "--model-out", model_out),
        ("sweep", "--train", train, "--test", test, "--M", 3, "--H", 2,
         "--alphas", 0.4, "--obj-tol", 0.0, "--out", sweep_out),
    ):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2
        assert "--obj-tol" in capsys.readouterr().err
    cfg = tmp_path / "c.json"
    dump_json(str(cfg), {"train": train, "test": test, "M": 3, "H": 2, "alpha": 0.4,
                         "alphas": [0.4], "solver": {"obj_tol": 0.0}})
    assert run("fit", "--config", cfg, "--model-out", model_out) == 2
    assert "unknown solver options: obj_tol" in capsys.readouterr().err
    assert run("sweep", "--config", cfg, "--out", sweep_out) == 2
    assert "unknown solver options: obj_tol" in capsys.readouterr().err
    assert not model_out.exists() and not sweep_out.exists()


def test_jobs_is_rejected(small, tmp_path, capsys):
    # a sweep runs its kappa columns one after another; neither the flag nor the key exists
    train, test = str(small / "train.csv"), str(small / "test.csv")
    model_out, sweep_out = tmp_path / "m.json", tmp_path / "s.csv"
    with pytest.raises(SystemExit) as exc:
        run("sweep", "--train", train, "--test", test, "--M", 3, "--H", 2,
            "--alphas", 0.4, "--jobs", 2, "--out", sweep_out)
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    cfg = tmp_path / "c.json"
    dump_json(str(cfg), {"train": train, "test": test, "M": 3, "H": 2, "alpha": 0.4,
                         "alphas": [0.4], "jobs": 1})
    assert run("sweep", "--config", cfg, "--out", sweep_out) == 2
    assert "unknown config options: jobs" in capsys.readouterr().err
    assert run("fit", "--config", cfg, "--model-out", model_out) == 2
    assert "unknown config options: jobs" in capsys.readouterr().err
    assert not model_out.exists() and not sweep_out.exists()


def assert_solver_option_rejected(small, tmp_path, capsys, key, value):
    """fit and sweep exit 2 naming key=value, by flag and by config, and write nothing."""
    train, test = str(small / "train.csv"), str(small / "test.csv")
    model_out, sweep_out = tmp_path / "m.json", tmp_path / "s.csv"
    message = f"{key}={value} must be at least 1"
    fit = ("fit", "--train", train, "--M", 3, "--H", 2, "--alpha", 0.4,
           "--model-out", model_out)
    sweep = ("sweep", "--train", train, "--test", test, "--M", 3, "--H", 2,
             "--alphas", 0.4, "--out", sweep_out)
    flag = "--" + key.replace("_", "-")
    for argv in (fit, sweep):
        assert run(*argv, flag, value) == 2
        assert message in capsys.readouterr().err
    cfg = tmp_path / "c.json"
    dump_json(str(cfg), {"solver": {key: value}})
    for argv in (fit, sweep):
        assert run(*argv, "--config", cfg) == 2
        assert message in capsys.readouterr().err
    assert not model_out.exists() and not sweep_out.exists()


@pytest.mark.parametrize("max_outer", [0, -1])
def test_max_outer_below_one_is_rejected(small, tmp_path, capsys, max_outer):
    # a fit of no sweeps would return its random initial factors as a model
    assert_solver_option_rejected(small, tmp_path, capsys, "max_outer", max_outer)


@pytest.mark.parametrize("k", [0, -1])
def test_k_below_one_is_rejected(small, tmp_path, capsys, k):
    # a sweep used to fit every row at k and fail each, then exit 2 with
    # "sweep produced no successful rows" after writing an all-failed CSV
    assert_solver_option_rejected(small, tmp_path, capsys, "k", k)


def test_one_config_serves_fit_and_sweep(small, tmp_path):
    cfg = tmp_path / "c.json"
    dump_json(str(cfg), {
        "train": str(small / "train.csv"), "test": str(small / "test.csv"),
        "M": 3, "H": 2, "alpha": 0.3, "alphas": [0.5, 0.3], "kappas": [0.0],
        "out": str(tmp_path / "sweep.csv"),
        "model_out": str(tmp_path / "m.json"), "report_out": str(tmp_path / "r.json"),
        "features": {"periods": [12]}, "weights": {"h_t": 4.0, "h_tau": 20.0},
        "solver": {"k": 2, "seed": 0},
    })
    assert run("fit", "--config", cfg) == 0
    assert load_model_json(str(tmp_path / "m.json")).phi is not None
    assert run("sweep", "--config", cfg) == 0
    assert [r["alpha"] for r in read_sweep_csv(str(tmp_path / "sweep.csv"))] == [0.5, 0.3]


def test_config_seed_precedence(small, tmp_path, capsys):
    train = str(small / "train.csv")

    def fit(tag, doc, *flags):
        cfg = tmp_path / f"{tag}.json"
        dump_json(str(cfg), {"train": train, "M": 3, "H": 2, "alpha": 0.1,
                             "solver": {"k": 3, "max_outer": 2}, **doc})
        model = tmp_path / f"{tag}-model.json"
        code = run("fit", "--config", cfg, *flags, "--model-out", model,
                   "--report-out", tmp_path / f"{tag}-report.json")
        return code, model

    def model_bytes(tag, doc, *flags):
        code, model = fit(tag, doc, *flags)
        assert code == 0
        return model.read_bytes()

    by_seed = {s: model_bytes(f"seed{s}", {}, "--seed", s) for s in (1, 2, 3)}
    assert len(set(by_seed.values())) == 3  # the seed shows in the model
    solver = {"solver": {"k": 3, "max_outer": 2, "seed": 2}}
    assert model_bytes("solver", solver) == by_seed[2]
    assert model_bytes("flag", solver, "--seed", 3) == by_seed[3]
    # the seed has one config key, solver.seed; a top-level seed is unknown
    code, model = fit("top", {"seed": 1, **solver})
    assert code == 2
    assert "unknown config options: seed" in capsys.readouterr().err
    assert not model.exists()


def test_sweep_command(small, tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(
        "sweep", "--train", small / "train.csv", "--test", small / "test.csv",
        "--M", 3, "--H", 2, "--alphas", "0.5,0.2", "--kappas", "0,0.5",
        "--k", 3, "--seed", 0, "--out", out,
    ) == 0
    rows = read_sweep_csv(str(out))
    assert [(r["alpha"], r["kappa"]) for r in rows] == [
        (0.5, 0.0), (0.5, 0.5), (0.2, 0.0), (0.2, 0.5),
    ]
    series = read_series_csv(str(small / "train.csv"))
    centered, _ = center(series)
    data = build_windows(centered, 3, 2)
    lmax = lambda_max(data.P, data.F, Loss())
    for r in rows:
        assert math.isclose(r["lambda"], r["alpha"] * lmax, rel_tol=1e-9)
        assert r["rank"] >= 0
        assert np.isfinite(r["test_loss"])


def test_l1_sweep_and_alpha_fit(small, tmp_path):
    # lambda_max takes l1's subgradient at zero, so --alpha works with l1
    out = tmp_path / "sweep.csv"
    assert run(
        "sweep", "--train", small / "train.csv", "--test", small / "test.csv",
        "--M", 3, "--H", 2, "--alphas", "0.5,0.1", "--kappas", "0,0.5",
        "--k", 3, "--seed", 0, "--loss", "l1", "--out", out,
    ) == 0
    rows = read_sweep_csv(str(out))
    assert len(rows) == 4
    assert all(r["rank"] >= 0 and np.isfinite(r["test_loss"]) for r in rows)
    assert run(
        "fit", "--train", small / "train.csv", "--M", 3, "--H", 2, "--alpha", 0.3,
        "--loss", "l1", "--model-out", tmp_path / "m.json",
        "--report-out", tmp_path / "r.json",
    ) == 0


# ----------------------------------------------------------------- exit codes


def test_validation_errors_exit_two(small, tmp_path, capsys):
    assert run("fit", "--train", tmp_path / "nope.csv", "--M", 3, "--H", 2,
               "--alpha", 0.3) == 2
    assert "error:" in capsys.readouterr().err

    assert run("fit", "--train", small / "train.csv", "--M", 3, "--H", 2) == 2
    assert "exactly one of --alpha and --lambda" in capsys.readouterr().err

    assert run("fit", "--train", small / "train.csv", "--alpha", 0.3) == 2
    assert "--M and --H are required" in capsys.readouterr().err

    # a trend fitted on explicit aux rows cannot be re-applied to a new series
    aux_trend = tmp_path / "trend.json"
    dump_json(str(aux_trend), {"S": [[0.0], [0.0]], "lam": 0.0, "features": None})
    model_out = tmp_path / "m.json"
    assert run("fit", "--train", small / "train.csv", "--M", 3, "--H", 2,
               "--alpha", 0.3, "--trend", aux_trend, "--model-out", model_out) == 2
    assert "--trend needs a trend fitted on features" in capsys.readouterr().err
    assert not model_out.exists()


def test_trend_of_another_width_exits_two(sim, tmp_path, capsys):
    # a one-series trend was carried onto a three-series fit, and evaluate and
    # forecast subtracted and re-added its one baseline on every column
    one, trend = tmp_path / "one.csv", tmp_path / "trend.json"
    first = read_series_csv(str(sim / "train.csv")).values[:, :1]
    write_series_csv(str(one), TimeSeries(first))
    assert run("detrend", "--input", one, "--periods", 12, "--out", tmp_path / "resid.csv",
               "--trend-out", trend) == 0
    model, report = tmp_path / "m.json", tmp_path / "r.json"
    assert run("fit", "--train", sim / "train.csv", "--M", 4, "--H", 3, "--alpha", 0.3,
               "--trend", trend, "--model-out", model, "--report-out", report) == 2
    assert "error: trend was fitted on 1 series, not 3" in capsys.readouterr().err
    assert not model.exists() and not report.exists()


@pytest.mark.parametrize("penalty", [("--alpha", "nan"), ("--alpha", "inf"),
                                     ("--lambda", "nan"), ("--alpha", 0.3, "--kappa", "inf")])
def test_non_finite_penalties_exit_two(small, tmp_path, capsys, penalty):
    model_out = tmp_path / "m.json"
    assert run("fit", "--train", small / "train.csv", "--M", 3, "--H", 2, *penalty,
               "--model-out", model_out, "--report-out", tmp_path / "r.json") == 2
    assert "must be finite and nonnegative" in capsys.readouterr().err
    assert not model_out.exists()


@pytest.mark.parametrize("period", ["nan", "inf", "0"])
def test_non_finite_period_exits_two(small, tmp_path, capsys, period):
    model_out = tmp_path / "m.json"
    assert run("fit", "--train", small / "train.csv", "--M", 3, "--H", 2, "--alpha", 0.3,
               "--periods", f"12,{period}", "--model-out", model_out,
               "--report-out", tmp_path / "r.json") == 2
    assert "periods must be finite and positive" in capsys.readouterr().err
    assert not model_out.exists()


def test_sweep_with_non_finite_grid_exits_two(small, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--train", small / "train.csv", "--test", small / "test.csv",
               "--M", 3, "--H", 2, "--alphas", "0.3,nan", "--out", out) == 2
    assert "must be finite and nonnegative, got nan" in capsys.readouterr().err
    assert not out.exists()


def test_model_with_non_finite_numbers_exits_two(sim, fitted, tmp_path, capsys):
    doc = load_json(str(fitted["model"]))
    doc["U"][0][0] = float("nan")
    bad = tmp_path / "nan_model.json"
    bad.write_text(json.dumps(doc))
    for command, extra in (("forecast", ()), ("evaluate", ()),
                           ("latent", ("--ar-out", tmp_path / "ar.json"))):
        out = tmp_path / f"{command}.out"
        assert run(command, "--model", bad, "--input", sim / "train.csv",
                   "--out", out, *extra) == 2
        assert "model field U has a non-finite value" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("field, value, message", [
    ("M", 3.9, "model field M must be an integer"),
    ("kappa", "0", "model field kappa must be a real number"),
    ("rank", "as float", "out-of-range rank"),
    ("lambda", None, "model field lambda must be a real number"),
    ("n", None, "model field n must be an integer"),
    ("loss", {"kind": "huber", "delta": "0.3"}, "requires a real delta"),
], ids=["M", "kappa", "rank", "lambda", "n", "delta"])
def test_model_with_wrongly_typed_scalars_exits_two(sim, fitted, tmp_path, capsys,
                                                     field, value, message):
    # M 3.9 used to load as 3, kappa "0" and rank 1.0 were accepted, and a null
    # lambda or n or a string delta ended in a TypeError traceback (exit 1)
    doc = load_json(str(fitted["model"]))
    doc[field] = float(doc["rank"]) if field == "rank" else value
    bad, out = tmp_path / "bad.json", tmp_path / "metrics.json"
    dump_json(str(bad), doc)
    assert run("evaluate", "--model", bad, "--input", sim / "test.csv", "--out", out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("features", [{"periods": "24"}, {"periods": 5},
                                      {"weekday": "false"}],
                         ids=["periods-string", "periods-number", "weekday"])
def test_model_with_wrongly_typed_features_exits_two(small, tmp_path, capsys, features):
    # periods "24" used to load as (2.0, 4.0) and weekday "false" as True
    model = tmp_path / "m.json"
    assert run("fit", "--train", small / "train.csv", "--M", 3, "--H", 2, "--alpha", 0.3,
               "--periods", 12, "--weekday", "--model-out", model,
               "--report-out", tmp_path / "r.json") == 0
    doc = load_json(str(model))
    doc["aux"]["features"].update(features)
    dump_json(str(model), doc)
    out = tmp_path / "metrics.json"
    assert run("evaluate", "--model", model, "--input", small / "test.csv", "--out", out) == 2
    (key,) = features
    assert f"feature {key} must be" in capsys.readouterr().err
    assert not out.exists()


def test_trend_with_string_lam_exits_two(sim, tmp_path, capsys):
    # "lam": "0.5" used to load as 0.5
    resid, trend = tmp_path / "resid.csv", tmp_path / "trend.json"
    assert run("detrend", "--input", sim / "train.csv", "--periods", "24,7",
               "--out", resid, "--trend-out", trend) == 0
    doc = load_json(str(trend))
    doc["lam"] = "0.5"
    dump_json(str(trend), doc)
    model = tmp_path / "m.json"
    assert run("fit", "--train", resid, "--M", 4, "--H", 3, "--alpha", 0.3, "--trend", trend,
               "--model-out", model, "--report-out", tmp_path / "r.json") == 2
    assert "trend field lam must be a real number, got '0.5'" in capsys.readouterr().err
    assert not model.exists()


def test_delta_without_huber_exits_two(small, tmp_path, capsys):
    # the threshold used to be dropped, so the fit ran squared l2 and exited 0
    train, test = str(small / "train.csv"), str(small / "test.csv")
    model_out, sweep_out = tmp_path / "m.json", tmp_path / "s.csv"
    fit = ("fit", "--train", train, "--M", 3, "--H", 2, "--alpha", 0.3,
           "--model-out", model_out, "--report-out", tmp_path / "r.json")
    sweep = ("sweep", "--train", train, "--test", test, "--M", 3, "--H", 2,
             "--alphas", 0.3, "--out", sweep_out)
    cfg = tmp_path / "c.json"
    dump_json(str(cfg), {"loss": {"delta": 0.3}})
    for argv in (fit + ("--delta", 0.3), fit + ("--loss", "l1", "--delta", 0.3),
                 sweep + ("--delta", 0.3), fit + ("--config", cfg)):
        assert run(*argv) == 2
        assert "delta is only meaningful for huber loss" in capsys.readouterr().err
    assert not model_out.exists() and not sweep_out.exists()
    assert run(*fit, "--loss", "huber") == 0  # huber's threshold defaults to 1
    assert load_model_json(str(model_out)).model.loss == Loss("huber", delta=1.0)


@pytest.fixture(scope="module")
def documents(sim, tmp_path_factory):
    """A detrend's trend.json and a feature fit of its residual that carries
    the trend: a model document with every optional object."""
    d = tmp_path_factory.mktemp("documents")
    assert run("detrend", "--input", sim / "train.csv", "--periods", "24,7",
               "--out", d / "resid.csv", "--trend-out", d / "trend.json") == 0
    assert run("fit", "--train", d / "resid.csv", "--M", 4, "--H", 3, "--alpha", 0.3,
               "--periods", 12, "--weekday", "--trend", d / "trend.json",
               "--model-out", d / "model.json", "--report-out", d / "report.json") == 0
    return d


@pytest.mark.parametrize("kind, path, value, message", [
    ("model", ("aux",), [1], "model aux must be a JSON object"),
    ("model", ("aux", "features"), "abc", "model aux.features must be a JSON object"),
    ("model", ("kapa",), 1.0, "unknown model document fields: kapa"),
    ("model", ("aux", "phi"), [[0.0]], "unknown model aux fields: phi"),
    ("model", ("aux", "features", "weeekday"), False,
     "unknown model aux.features fields: weeekday"),
    ("model", ("loss", "dleta"), 0.3, "unknown model loss fields: dleta"),
    ("model", ("loss",), "squared_l2", "model loss must be a JSON object"),
    ("model", ("trend", "lamb"), 0.0, "unknown model trend fields: lamb"),
    ("trend", (), [1], "trend document must be a JSON object"),
    ("trend", ("lamb",), 0.0, "unknown trend document fields: lamb"),
    ("trend", ("S",), DELETE, "trend document missing fields: S"),
], ids=["aux-list", "features-string", "model-key", "aux-key", "features-key", "loss-key",
        "loss-string", "model-trend-key", "trend-list", "trend-key", "trend-without-S"])
def test_malformed_documents_exit_two(sim, documents, tmp_path, capsys, kind, path, value,
                                      message):
    # the non-objects ended in an AttributeError traceback (exit 1), the
    # misspelled keys were dropped and the bare loss string read (exit 0), and
    # a trend without S printed a bare "error: 'S'"
    bad, out = tmp_path / "bad.json", tmp_path / "out"
    dump_json(str(bad), edited(load_json(str(documents / f"{kind}.json")), path, value))
    if kind == "model":
        argv = ("evaluate", "--model", bad, "--input", sim / "test.csv", "--out", out)
    else:
        argv = ("fit", "--train", documents / "resid.csv", "--M", 4, "--H", 3, "--alpha", 0.3,
                "--trend", bad, "--model-out", out, "--report-out", tmp_path / "r.json")
    assert run(*argv) == 2
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("argv, message", [
    (("sweep", "--train", "{train}", "--test", "{test}", "--M", 3, "--H", 2,
      "--alphas", "0.1,x", "--out", "{out}"), "bad number list '0.1,x'"),
    (("fit", "--M", 3, "--H", 2, "--alpha", 0.3, "--model-out", "{out}"),
     "a training CSV is required (--train)"),
    (("sweep", "--train", "{train}", "--M", 3, "--H", 2, "--alphas", 0.3, "--out", "{out}"),
     "--train and --test CSVs are required"),
    (("sweep", "--train", "{train}", "--test", "{test}", "--M", 3, "--alphas", 0.3,
      "--out", "{out}"), "--M and --H are required"),
    (("sweep", "--train", "{train}", "--test", "{test}", "--M", 3, "--H", 2,
      "--out", "{out}"), "--alphas is required (comma-separated)"),
    (("detrend", "--input", "{train}", "--out", "{out}", "--trend-out", "{out}.json"),
     "give --periods/--weekday features or an --aux CSV"),
    (("latent", "--model", "{model}", "--input", "{short}", "--out", "{out}",
      "--ar-out", "{out}.json"), "series has 3 rows; need at least M=4"),
], ids=["alphas-not-numbers", "fit-no-train", "sweep-no-test", "sweep-no-H", "no-alphas",
        "detrend-no-features", "latent-short-series"])
def test_missing_or_bad_arguments_exit_two(sim, fitted, tmp_path, capsys, argv, message):
    short = tmp_path / "short.csv"
    short.write_text("a,b,c\n" + "0,0,0\n" * 3)
    paths = {"train": sim / "train.csv", "test": sim / "test.csv", "model": fitted["model"],
             "short": short, "out": tmp_path / "out"}
    try:
        code = run(*(str(a).format(**paths) for a in argv))
    except SystemExit as e:  # argparse refuses a flag value that its type rejects
        code = e.code
    assert code == 2
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["short.csv"]


@pytest.mark.parametrize("loss, want", [("huber", {"kind": "huber", "delta": 1.0}),
                                        ("l1", {"kind": "l1"})])
def test_config_loss_may_be_a_bare_kind(small, tmp_path, loss, want):
    cfg, report = tmp_path / "c.json", tmp_path / "r.json"
    dump_json(str(cfg), {"loss": loss})
    assert run("fit", "--config", cfg, "--train", small / "train.csv", "--M", 3, "--H", 2,
               "--alpha", 0.3, "--model-out", tmp_path / "m.json", "--report-out", report) == 0
    assert load_json(str(report))["loss"] == want


def test_config_loss_of_another_type_exits_two(small, tmp_path, capsys):
    cfg, model = tmp_path / "c.json", tmp_path / "m.json"
    dump_json(str(cfg), {"loss": 3})
    assert run("fit", "--config", cfg, "--train", small / "train.csv", "--M", 3, "--H", 2,
               "--alpha", 0.3, "--model-out", model, "--report-out", tmp_path / "r.json") == 2
    assert "error: loss must be a JSON object" in capsys.readouterr().err
    assert not model.exists()


def test_numerical_failures_exit_three(sim, tmp_path, capsys):
    # duplicated aux columns make the baseline regression exactly singular
    aux = tmp_path / "aux.csv"
    rows = ["a,b"] + ["%d,%d" % (i, i) for i in range(60)]
    aux.write_text("\n".join(rows) + "\n")
    assert run(
        "detrend", "--input", sim / "train.csv", "--aux", aux,
        "--out", tmp_path / "resid.csv", "--trend-out", tmp_path / "t.json",
    ) == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kappa", [0.0, 0.5])
def test_linalg_failures_exit_three(tmp_path, capsys, kappa):
    # values near 1e200 overflow the certificate's Gram matrix, and LAPACK's
    # LinAlgError, a ValueError, used to exit 2 as an input error
    rng = np.random.default_rng(0)
    write_series_csv(str(tmp_path / "big.csv"),
                     TimeSeries(1e200 * (1.0 + 0.1 * rng.normal(size=(60, 2)))))
    model, report = tmp_path / "m.json", tmp_path / "r.json"
    assert run("fit", "--train", tmp_path / "big.csv", "--M", 3, "--H", 2, "--lambda", 1,
               "--kappa", kappa, "--model-out", model, "--report-out", report) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not model.exists() and not report.exists()


def test_infinite_huber_delta_exits_two(small, fitted, sim, tmp_path, capsys):
    # delta = inf was fitted and written as the non-JSON token Infinity
    model, report = tmp_path / "m.json", tmp_path / "r.json"
    assert run("fit", "--train", small / "train.csv", "--M", 3, "--H", 2, "--alpha", 0.3,
               "--loss", "huber", "--delta", "inf", "--model-out", model,
               "--report-out", report) == 2
    assert "huber loss requires a real delta > 0, got inf" in capsys.readouterr().err
    assert not model.exists() and not report.exists()
    doc = load_json(str(fitted["model"]))
    doc["loss"] = {"kind": "huber", "delta": math.inf}
    bad, out = tmp_path / "bad.json", tmp_path / "metrics.json"
    bad.write_text(json.dumps(doc))
    assert '"delta": Infinity' in bad.read_text()
    assert run("evaluate", "--model", bad, "--input", sim / "test.csv", "--out", out) == 2
    assert "delta > 0, got inf" in capsys.readouterr().err
    assert not out.exists()


def test_detrend_aux_of_wrong_length_exits_two(sim, tmp_path, capsys):
    aux = tmp_path / "aux.csv"
    aux.write_text("a\n" + "".join("%d\n" % i for i in range(59)))
    out, trend = tmp_path / "resid.csv", tmp_path / "t.json"
    assert run(
        "detrend", "--input", sim / "train.csv", "--aux", aux, "--out", out, "--trend-out", trend,
    ) == 2
    assert "aux has 59 rows for a series of length 60" in capsys.readouterr().err
    assert not out.exists() and not trend.exists()


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as ei:
        main(["frobnicate"])
    assert ei.value.code == 2


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [
            sys.executable, "-m", "lrforecast", "simulate",
            "--out-dir", str(tmp_path), "--T-train", "20", "--T-test", "10",
            "--n", "2", "--rank", "1",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "simulate: wrote train (20x2)" in proc.stdout
