"""Synthetic state-space generator tests."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from lrforecast import SimSpec, gen_model, sample, state_alignment


def test_spec_defaults():
    spec = SimSpec()
    assert spec.n == 10
    assert spec.r == 2
    assert spec.T_train == 100
    assert spec.T_test == 500
    assert spec.spectral_radius == 0.98
    assert spec.q_scale == 1.0
    assert spec.r_scale == 0.1
    assert spec.seed == 0


def test_spec_validation():
    with pytest.raises(ValueError):
        SimSpec(n=0)
    with pytest.raises(ValueError):
        SimSpec(r=0)
    with pytest.raises(ValueError):
        SimSpec(T_train=0)
    with pytest.raises(ValueError):
        SimSpec(T_test=0)
    with pytest.raises(ValueError):
        SimSpec(spectral_radius=1.0)
    with pytest.raises(ValueError):
        SimSpec(spectral_radius=0.0)
    with pytest.raises(ValueError):
        SimSpec(spectral_radius=-0.1)
    with pytest.raises(ValueError):
        SimSpec(q_scale=-1.0)
    with pytest.raises(ValueError):
        SimSpec(r_scale=-1.0)


def test_spec_json_round_trip():
    spec = SimSpec(
        n=4, r=3, T_train=60, T_test=80,
        spectral_radius=0.9, q_scale=2.0, r_scale=0.5, seed=7,
    )
    assert SimSpec(**json.loads(json.dumps(asdict(spec)))) == spec


def test_gen_model_hits_spectral_radius_exactly():
    for seed in range(5):
        model = gen_model(SimSpec(n=3, r=4, spectral_radius=0.75, seed=seed))
        assert np.isclose(model.spectral_radius(), 0.75, rtol=1e-12)


def test_gen_model_noise_scales():
    model = gen_model(SimSpec(n=3, r=2, q_scale=2.5, r_scale=0.4))
    assert np.array_equal(model.Q, 2.5 * np.eye(2))
    assert np.array_equal(model.R, 0.4 * np.eye(3))
    assert model.C.shape == (3, 2)


def test_gen_model_deterministic():
    a = gen_model(SimSpec(seed=3))
    b = gen_model(SimSpec(seed=3))
    c = gen_model(SimSpec(seed=4))
    assert np.array_equal(a.A, b.A) and np.array_equal(a.C, b.C)
    assert not np.array_equal(a.A, c.A)


def test_sample_deterministic():
    model = gen_model(SimSpec(n=3, r=2, seed=0))
    s1, z1 = sample(model, 50, seed=5)
    s2, z2 = sample(model, 50, seed=5)
    s3, _ = sample(model, 50, seed=6)
    assert np.array_equal(s1.values, s2.values)
    assert np.array_equal(z1, z2)
    assert not np.array_equal(s1.values, s3.values)


def test_sample_noiseless_is_zero():
    model = gen_model(SimSpec(n=3, r=2, q_scale=0.0, r_scale=0.0))
    series, Z = sample(model, 40, seed=1)
    assert not series.values.any()
    assert not Z.any()


def test_sample_cold_start_zero_initial_state():
    model = gen_model(SimSpec(n=3, r=2, seed=0))
    _, Z = sample(model, 30, seed=2, steady_start=False)
    assert not Z[0].any()
    _, Zs = sample(model, 30, seed=2, steady_start=True)
    assert Zs[0].any()


def test_sample_observation_equation_no_meas_noise():
    model = gen_model(SimSpec(n=4, r=2, r_scale=0.0, seed=1))
    series, Z = sample(model, 60, seed=3)
    assert np.allclose(series.values, Z @ model.C.T, atol=1e-12)


def test_sample_steady_start_matches_stationary_covariance():
    from lrforecast import stationary_cov

    model = gen_model(SimSpec(n=2, r=2, spectral_radius=0.8, seed=2))
    _, Z = sample(model, 20000, seed=4)
    Pi = stationary_cov(model.A, model.Q)
    emp = Z.T @ Z / Z.shape[0]
    assert np.linalg.norm(emp - Pi) <= 0.15 * np.linalg.norm(Pi)


def test_sample_validation():
    model = gen_model(SimSpec())
    with pytest.raises(ValueError):
        sample(model, 0)


def test_state_alignment_recovers_linear_map(rng):
    Z_true = rng.normal(size=(80, 2))
    G = np.array([[2.0, 1.0], [-1.0, 0.5]])
    Z_hat = Z_true @ G.T  # zhat = G z, so the best map back is G^{-1}
    S, rms = state_alignment(Z_hat, Z_true)
    assert np.allclose(S @ G, np.eye(2), atol=1e-10)
    assert rms <= 1e-10


def test_state_alignment_reports_rms(rng):
    Z_true = rng.normal(size=(500, 2))
    noise = rng.normal(size=(500, 2))
    S, rms = state_alignment(Z_true + 0.1 * noise, Z_true)
    manual = np.linalg.norm((Z_true + 0.1 * noise) @ S.T - Z_true) / np.sqrt(500)
    assert np.isclose(rms, manual)
    with pytest.raises(ValueError):
        state_alignment(Z_true[:10], Z_true)
