"""Feature, de-trending, joint-fit, and latent-dynamics tests.

Oracles: literal sin/cos evaluation and explicit product loops for the
feature matrix, trig sum/difference identities for product columns,
hand-built linear baselines for de-trending, and constructed instances
with orthogonal feature columns for the joint fit.
"""

import numpy as np
import pytest

from lrforecast import (
    FeatureSpec,
    FitOptions,
    Loss,
    NumericalError,
    TimeSeries,
    TrendModel,
    aux_joint_fit,
    build_windows,
    detrend_apply,
    detrend_fit,
    fit_factored,
    gen_model,
    lambda_max,
    latent_ar_fit,
    retrend,
    sample,
    time_features,
    SimSpec,
)
from lrforecast.core import WindowedDataset


def hourly_weekly_spec():
    # five harmonics of the day, five of the week, a weekday flag, products
    return FeatureSpec(
        periods=tuple(24.0 / k for k in range(1, 6))
        + tuple(168.0 / k for k in range(1, 6)),
        weekday=True,
        products=True,
    )


# -------------------------------------------------------------- time features


def test_single_period_columns():
    t = np.arange(30)
    out = time_features(t, FeatureSpec(periods=(24.0,)))
    assert out.shape == (30, 2)
    assert np.allclose(out[:, 0], np.sin(2 * np.pi * t / 24.0))
    assert np.allclose(out[:, 1], np.cos(2 * np.pi * t / 24.0))


def test_weekday_flag_pattern():
    t = np.arange(24 * 14)
    out = time_features(t, FeatureSpec(weekday=True))
    assert out.shape == (24 * 14, 1)
    week = out[: 24 * 7, 0]
    assert np.array_equal(week[: 24 * 5], np.ones(120))
    assert np.array_equal(week[24 * 5 :], np.zeros(48))
    # periodic with the week
    assert np.array_equal(out[: 24 * 7, 0], out[24 * 7 :, 0])


def test_product_columns_literal():
    t = np.arange(10)
    spec = FeatureSpec(periods=(7.0,), weekday=True, products=True)
    out = time_features(t, spec)
    b = spec.base_columns
    assert out.shape == (10, b + b * b)
    base = time_features(t, FeatureSpec(periods=(7.0,), weekday=True))
    for i in range(b):
        for j in range(b):
            assert np.allclose(out[:, b + i * b + j], base[:, i] * base[:, j])


def test_product_of_sinusoids_has_sum_difference_frequencies():
    # sin(a t) sin(b t) = (cos((a-b)t) - cos((a+b)t)) / 2
    t = np.arange(200)
    spec = FeatureSpec(periods=(24.0, 12.0), products=True)
    out = time_features(t, spec)
    wa, wb = 2 * np.pi / 24.0, 2 * np.pi / 12.0
    prod = out[:, 4 + 0 * 4 + 2]  # sin(24) * sin(12)
    ident = 0.5 * (np.cos((wa - wb) * t) - np.cos((wa + wb) * t))
    assert np.allclose(prod, ident, atol=1e-12)


def test_full_hourly_weekly_spec_has_462_columns():
    spec = hourly_weekly_spec()
    assert spec.base_columns == 21
    assert spec.columns == 462
    out = time_features(np.arange(50), spec)
    assert out.shape == (50, 462)


def test_time_features_pure():
    t = np.arange(40)
    spec = hourly_weekly_spec()
    assert np.array_equal(time_features(t, spec), time_features(t, spec))


def test_feature_spec_validation_and_json():
    with pytest.raises(ValueError):
        FeatureSpec(periods=(0.0,))
    with pytest.raises(ValueError):
        FeatureSpec(periods=(-24.0,))
    with pytest.raises(ValueError):
        FeatureSpec()
    spec = hourly_weekly_spec()
    again = FeatureSpec.from_json(spec.to_json())
    assert again == spec


# ----------------------------------------------------------------- detrending


def test_detrend_intercept_is_column_mean(rng):
    x = rng.normal(size=(50, 3)) + np.array([1.0, -2.0, 5.0])
    trend = detrend_fit(x, aux=np.ones((50, 1)))
    assert np.allclose(trend.S[:, 0], x.mean(axis=0), atol=1e-10)


def test_detrend_exact_recovery(rng):
    S0 = rng.normal(size=(2, 3))
    aux = rng.normal(size=(60, 3))
    x = aux @ S0.T
    trend = detrend_fit(x, aux=aux)
    assert np.allclose(trend.S, S0, atol=1e-10)
    resid = detrend_apply(x, trend, aux=aux)
    assert np.allclose(resid.values, 0.0, atol=1e-10)


def test_detrend_sinusoidal_series():
    spec = FeatureSpec(periods=(24.0,), weekday=True)
    t = 1 + np.arange(24 * 21)  # matches the default series index origin
    feats = time_features(t, spec)
    truth = np.column_stack(
        [
            2.0 * feats[:, 0] - 1.0 * feats[:, 1] + 0.5 * feats[:, 2],
            -0.3 * feats[:, 0] + 4.0 * feats[:, 2],
        ]
    )
    trend = detrend_fit(TimeSeries(truth), features=spec)
    resid = detrend_apply(TimeSeries(truth), trend)
    assert np.allclose(resid.values, 0.0, atol=1e-10)
    assert trend.features == spec


def test_detrend_normal_equations_and_ridge(rng):
    aux = rng.normal(size=(40, 4))
    x = rng.normal(size=(40, 2))
    lam = 0.2
    S = detrend_fit(x, aux=aux, lam=lam).S
    lhs = (aux.T @ aux + 40 * lam * np.eye(4)) @ S.T
    rhs = aux.T @ x
    assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs)
    norms = [np.linalg.norm(detrend_fit(x, aux=aux, lam=l).S) for l in (0.0, 1.0, 10.0)]
    assert norms[0] > norms[1] > norms[2]


def test_detrend_errors(rng):
    x = rng.normal(size=(30, 2))
    dup = np.ones((30, 2))  # duplicate columns, rank 1
    with pytest.raises(NumericalError, match="lam > 0"):
        detrend_fit(x, aux=dup)
    detrend_fit(x, aux=dup, lam=1e-6)
    with pytest.raises(ValueError):
        detrend_fit(x, aux=np.ones((29, 1)))
    with pytest.raises(ValueError):
        detrend_fit(x, aux=np.ones((30, 1)), lam=-1.0)
    with pytest.raises(ValueError):
        detrend_apply(x, TrendModel(S=np.zeros((2, 1))))  # no spec, no aux
    with pytest.raises(ValueError):
        TrendModel(S=np.zeros(3))


def test_zero_trend_is_identity(rng):
    x = rng.normal(size=(20, 2))
    trend = TrendModel(S=np.zeros((2, 1)))
    out = detrend_apply(x, trend, aux=np.ones((20, 1)))
    assert np.array_equal(out.values, x)
    f = rng.normal(size=(3, 2))
    assert np.array_equal(retrend(f, trend, np.ones((3, 1))), f)


def test_retrend_round_trip(rng):
    S0 = rng.normal(size=(2, 3))
    trend = TrendModel(S=S0)
    aux_future = rng.normal(size=(4, 3))
    truth = rng.normal(size=(4, 2))
    resid = truth - aux_future @ S0.T
    back = retrend(resid, trend, aux_future)
    assert np.allclose(back, truth, atol=1e-12)
    # flat layout round-trips identically, row-major horizon blocks
    back_flat = retrend(resid.ravel(), trend, aux_future)
    assert back_flat.shape == (8,)
    assert np.allclose(back_flat, truth.ravel(), atol=1e-12)
    # zero residual forecast returns the baseline itself
    base = retrend(np.zeros((4, 2)), trend, aux_future)
    assert np.allclose(base, aux_future @ S0.T, atol=1e-14)
    with pytest.raises(ValueError):
        retrend(resid, trend, aux_future[:2])


# ------------------------------------------------------------- latent dynamics


def test_latent_ar_exact_scalar():
    z = (0.9 ** np.arange(30.0)).reshape(-1, 1)
    A, W = latent_ar_fit(z)
    assert np.allclose(A, [[0.9]], atol=1e-10)
    assert np.linalg.norm(W) <= 1e-12


def test_latent_ar_exact_matrix(rng):
    A0 = np.array([[0.5, -0.6], [0.6, 0.5]])  # rotation-like, orbit spans R^2
    Z = np.zeros((40, 2))
    Z[0] = rng.normal(size=2)
    for t in range(39):
        Z[t + 1] = A0 @ Z[t]
    A, W = latent_ar_fit(Z)
    assert np.allclose(A, A0, atol=1e-10)
    assert np.linalg.norm(W) <= 1e-12


def test_latent_ar_white_noise_shrinks():
    norms = []
    for T in (100, 10000):
        vals = []
        for seed in range(3):
            Z = np.random.default_rng(seed).normal(size=(T, 2))
            A, _ = latent_ar_fit(Z)
            vals.append(np.linalg.norm(A))
        norms.append(np.mean(vals))
    assert norms[1] < 0.5 * norms[0]


def test_latent_ar_from_fitted_model_is_stable():
    for seed in range(3):
        spec = SimSpec(n=4, r=2, seed=seed)
        series, _ = sample(gen_model(spec), 220, seed=seed)
        data = build_windows(series.values - series.values.mean(axis=0), 8, 4)
        lam = 0.1 * lambda_max(data.P, data.F)
        model, _ = fit_factored(data, lam, opts=FitOptions(k=6))
        Z = data.P @ model.U
        A, _ = latent_ar_fit(Z)
        assert max(abs(np.linalg.eigvals(A))) < 1.0


def test_latent_ar_errors():
    with pytest.raises(ValueError):
        latent_ar_fit(np.zeros((1, 2)))
    with pytest.raises(ValueError):
        latent_ar_fit(np.zeros((5, 2)), jitter=-1.0)
    # geometric orbit of a 2-vector is rank one: singular without jitter
    z = np.outer(0.9 ** np.arange(20.0), np.ones(2))
    with pytest.raises(NumericalError, match="jitter"):
        latent_ar_fit(z)
    latent_ar_fit(z, jitter=1e-8)


# ------------------------------------------------------------------ joint fit


def rand_joint_instance(rng, N=40, n=2, M=3, H=2, p=2):
    x = rng.normal(size=(N + M + H - 1, n))
    data = build_windows(x, M, H)
    aux = rng.normal(size=(N, p))
    return data, aux


@pytest.mark.parametrize("joint", [True, False])
def test_empty_aux_reproduces_plain_fit(joint, rng):
    data, _ = rand_joint_instance(rng)
    opts = FitOptions(k=3, seed=2)
    plain, report = fit_factored(data, 0.1, kappa=0.5, opts=opts)
    model, Phi, rep = aux_joint_fit(
        data, np.zeros((data.N, 0)), 0.1, kappa=0.5, opts=opts, joint_nuclear=joint
    )
    assert Phi.shape == (0, data.H * data.n)
    assert np.array_equal(model.U, plain.U)
    assert np.array_equal(model.V, plain.V)
    assert rep.final_objective == report.final_objective


def test_joint_fit_recovers_pure_aux_effect(rng):
    # future is a function of features orthogonal to the windows, so the
    # stacked minimizer puts everything in Phi and nothing in theta
    data, raw = rand_joint_instance(rng, N=50, p=2)
    proj = data.P @ np.linalg.lstsq(data.P, raw, rcond=None)[0]
    aux = raw - proj
    Phi0 = rng.normal(size=(2, data.H * data.n))
    F = aux @ Phi0
    clean = WindowedDataset(P=data.P, F=F, n=data.n, M=data.M, H=data.H)
    lmax = lambda_max(np.hstack([clean.P, aux]), F)
    model, Phi, rep = aux_joint_fit(
        clean, aux, 1e-4 * lmax, opts=FitOptions(k=4, obj_tol=0.0, max_outer=600)
    )
    assert np.linalg.norm(Phi - Phi0) <= 1e-2 * np.linalg.norm(Phi0)
    assert np.linalg.norm(model.theta()) <= 1e-3 * np.linalg.norm(Phi0)


def test_joint_fit_large_lambda_zeroes_everything(rng):
    data, aux = rand_joint_instance(rng)
    lmax = lambda_max(np.hstack([data.P, aux]), data.F)
    model, Phi, rep = aux_joint_fit(data, aux, 1.01 * lmax, opts=FitOptions(k=4))
    assert model.rank == 0
    assert not model.theta().any()
    assert not Phi.any()


def test_ridge_phi_path_fits(rng):
    data, aux = rand_joint_instance(rng, N=35)
    Phi0 = rng.normal(size=(aux.shape[1], data.H * data.n))
    F = data.F * 0.1 + aux @ Phi0
    mixed = WindowedDataset(P=data.P, F=F, n=data.n, M=data.M, H=data.H)
    model, Phi, rep = aux_joint_fit(
        mixed, aux, 1e-3, joint_nuclear=False,
        opts=FitOptions(k=4, obj_tol=1e-8, max_outer=800),
    )
    assert rep.converged
    t = np.array(rep.objective_trace)
    assert np.all(t[1:] <= t[:-1] + 1e-10 * np.abs(t[:-1]))
    # the aux block carries most of the constructed signal
    assert np.linalg.norm(Phi - Phi0) <= 0.2 * np.linalg.norm(Phi0)
    # with kappa the blocks couple and the sweeps crawl; the trace must
    # still be monotone even when the budget runs out unconverged
    _, _, rep2 = aux_joint_fit(
        mixed, aux, 1e-3, kappa=0.2, joint_nuclear=False,
        opts=FitOptions(k=4, obj_tol=1e-8, max_outer=40),
    )
    t2 = np.array(rep2.objective_trace)
    assert np.all(t2[1:] <= t2[:-1] + 1e-10 * np.abs(t2[:-1]))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ridge_phi_above_lambda_max_is_pure_ridge(seed):
    # above lambda_max of the windows alone theta vanishes, and Phi is the
    # ridge regression of F on aux: (aux^T aux + (N lam / 2) I)^-1 aux^T F.
    # The sweeps run until the objective stalls, since theta only decays
    # geometrically toward zero.
    data, aux = rand_joint_instance(np.random.default_rng(seed))
    lam = 2.0 * lambda_max(data.P, data.F)
    opts = FitOptions(k=4, obj_tol=0.0, max_outer=200)
    model, Phi, rep = aux_joint_fit(data, aux, lam, joint_nuclear=False, opts=opts)
    G = aux.T @ aux + 0.5 * data.N * lam * np.eye(aux.shape[1])
    Phi_ridge = np.linalg.solve(G, aux.T @ data.F)
    assert np.linalg.norm(model.theta()) <= 1e-12
    assert np.linalg.norm(Phi - Phi_ridge) <= 1e-6 * np.linalg.norm(Phi_ridge)


def test_joint_fit_validation(rng):
    data, aux = rand_joint_instance(rng)
    with pytest.raises(ValueError):
        aux_joint_fit(data, aux[:-1], 0.1)
    with pytest.raises(ValueError):
        aux_joint_fit(data, aux[:, 0], 0.1)
    with pytest.raises(ValueError):
        aux_joint_fit(data, aux, -0.1)
    bad_init = (np.zeros((3, 3)), np.zeros((3, 3)))
    with pytest.raises(ValueError, match="warm start"):
        aux_joint_fit(data, aux, 0.1, joint_nuclear=False, opts=FitOptions(k=2, init=bad_init))
