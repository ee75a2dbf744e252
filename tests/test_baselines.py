"""Baseline forecaster tests.

Independent oracles used here: a literal block-Toeplitz assembly for the
conditional-mean forecaster, companion-form state-space models for AR
processes, the joint-Gaussian gain formula for the window smoother, the
residual of the Lyapunov equation, and a long simulated sample for the
state-space autocovariances.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from lrforecast import (
    AutocovSet,
    Loss,
    NumericalError,
    StateSpaceModel,
    WindowedDataset,
    ar_fit,
    ar_iterated_forecaster,
    build_windows,
    cond_mean_forecaster,
    empirical_forecaster,
    inconsistency,
    latent_ar_fit,
    loss_value,
    ridge_fit,
    ss_autocov,
    ss_forecaster,
    stationary_cov,
    to_low_rank,
    zero_forecaster,
)
from lrforecast.baselines import _spd_cholesky
from lrforecast.solver import RANK_TOL, reduce_rank


def rand_windows(rng, N=30, n=2, M=3, H=2):
    x = rng.normal(size=(N + M + H - 1, n))
    return build_windows(x, M, H)


def rand_ss(rng, r=2, n=2, rho=0.85):
    A = rng.normal(size=(r, r))
    A *= rho / max(abs(np.linalg.eigvals(A)))
    C = rng.normal(size=(n, r))
    G = rng.normal(size=(r, r))
    Gn = rng.normal(size=(n, n))
    return StateSpaceModel(
        A=A,
        C=C,
        Q=G @ G.T + 0.2 * np.eye(r),
        R=0.1 * (Gn @ Gn.T) + 0.05 * np.eye(n),
    )


def toeplitz_theta_oracle(sigmas, M, H):
    """Literal entrywise assembly of the conditional-mean coefficients."""
    n = sigmas[0].shape[0]
    m = M + H
    big = np.zeros((m * n, m * n))
    for a in range(m):
        for b in range(m):
            if b >= a:
                blk = sigmas[b - a]
            else:
                blk = sigmas[a - b].T
            big[a * n : (a + 1) * n, b * n : (b + 1) * n] = blk
    Spp = big[: M * n, : M * n]
    Spf = big[: M * n, M * n :]
    return np.linalg.solve(Spp, Spf)


def companion_model(A_list, W):
    """Stacks an AR(p) process into state-space form with exact output."""
    A_list = [np.asarray(A, dtype=float) for A in A_list]
    p = len(A_list)
    n = A_list[0].shape[0]
    A = np.zeros((p * n, p * n))
    A[:n] = np.hstack(A_list)
    if p > 1:
        A[n:, :-n] = np.eye((p - 1) * n)
    C = np.zeros((n, p * n))
    C[:, :n] = np.eye(n)
    Q = np.zeros((p * n, p * n))
    Q[:n, :n] = W
    return StateSpaceModel(A=A, C=C, Q=Q, R=np.zeros((n, n)))


# ----------------------------------------------------------------- types


def test_to_low_rank_validation():
    theta = np.zeros((4, 2))
    f = to_low_rank(theta, n=1, M=4, H=2)
    assert np.array_equal(f.means, np.zeros(1))
    assert (f.lam, f.kappa, f.loss) == (0.0, 0.0, Loss())
    with pytest.raises(ValueError, match="do not match"):
        to_low_rank(theta, n=1, M=3, H=2)
    with pytest.raises(ValueError, match="do not match"):
        to_low_rank(np.zeros((4, 3)), n=1, M=4, H=2)  # a rank-0 theta of the wrong width
    with pytest.raises(ValueError, match="wrong lengths"):
        to_low_rank(theta, n=1, M=4, H=2, means=np.zeros(3))
    with pytest.raises(ValueError, match="past window has length 5"):
        f.forecast(np.zeros(5))
    for n, M, H in ((1, 0, 2), (0, 1, 1)):
        with pytest.raises(ValueError, match="must be >= 1"):
            to_low_rank(np.zeros((M * n, H * n)), n=n, M=M, H=H)


@pytest.mark.parametrize("field, value, match", [
    ("theta", np.full((6, 4), np.nan), "theta has a non-finite value"),
    ("means", np.array([np.inf, 0.0]), "means has a non-finite value"),
    ("means", np.zeros((2, 1)), "wrong lengths"),
    ("means", [[np.inf], [0.0]], "wrong lengths"),
    ("theta", np.full((6, 4), np.inf), "theta has a non-finite value"),
])
def test_to_low_rank_rejects_non_finite_or_misshapen(field, value, match):
    # a non-finite theta is refused before the SVD, which would not converge
    args = {"theta": np.zeros((6, 4)), "means": np.zeros(2), field: value}
    with pytest.raises(ValueError, match=match):
        to_low_rank(**args, n=2, M=3, H=2)


def test_to_low_rank_applies_theta(rng):
    theta = rng.normal(size=(6, 4))
    f = to_low_rank(theta, n=2, M=3, H=2)
    assert np.allclose(f.theta(), theta)
    p = rng.normal(size=6)
    assert np.allclose(f.forecast(p), theta.T @ p)
    P = rng.normal(size=(5, 6))
    assert np.allclose(f.forecast(P), P @ theta)


def test_state_space_model_validation(rng):
    ok = rand_ss(rng)
    assert ok.r == 2 and ok.n == 2
    with pytest.raises(ValueError):
        StateSpaceModel(A=np.zeros((2, 3)), C=np.eye(2), Q=np.eye(2), R=np.eye(2))
    with pytest.raises(ValueError):
        StateSpaceModel(A=np.zeros((2, 2)), C=np.eye(2), Q=np.array([[0.0, 1.0], [0.0, 0.0]]), R=np.eye(2))
    with pytest.raises(ValueError):
        StateSpaceModel(A=np.zeros((2, 2)), C=np.eye(2), Q=-np.eye(2), R=np.eye(2))
    with pytest.raises(ValueError):
        StateSpaceModel(A=1.2 * np.eye(2), C=np.eye(2), Q=np.eye(2), R=np.eye(2))


def test_spectral_radius_matches_eigenvalues():
    A = np.array([[0.0, 0.9], [-0.9, 0.0]])
    m = StateSpaceModel(A=A, C=np.eye(2), Q=np.eye(2), R=np.eye(2))
    assert np.isclose(m.spectral_radius(), 0.9)


def test_autocov_set_validation():
    with pytest.raises(ValueError):
        AutocovSet(sigmas=[])
    with pytest.raises(ValueError):
        AutocovSet(sigmas=[np.eye(2), np.eye(3)])
    with pytest.raises(ValueError):
        AutocovSet(sigmas=[np.array([[1.0, 2.0], [0.0, 1.0]])])
    acov = AutocovSet(sigmas=[np.eye(2), np.zeros((2, 2))])
    assert acov.n == 2 and acov.L == 1


# ----------------------------------------------------------------- ridge


def test_ridge_identity_instance():
    data = WindowedDataset(P=np.eye(2), F=np.eye(2), n=1, M=2, H=2)
    f = ridge_fit(data, 0.0)
    assert np.allclose(f.theta(), np.eye(2), atol=1e-12)


def test_ridge_shrinks_with_lambda(rng):
    data = rand_windows(rng)
    norms = [np.linalg.norm(ridge_fit(data, lam).theta()) for lam in (0.0, 0.1, 1.0, 10.0, 100.0)]
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_ridge_zero_matches_autocov_identity(rng):
    # theta = Sigma_pp^{-1} Sigma_fp^T with the windowed second moments
    data = rand_windows(rng, N=40)
    spp, sfp = data.P.T @ data.P / data.N, data.F.T @ data.P / data.N
    theta = np.linalg.solve(spp, sfp.T)
    assert np.allclose(ridge_fit(data, 0.0).theta(), theta, atol=1e-8)


def test_ridge_normal_equation_residual(rng):
    data = rand_windows(rng, N=25)
    lam = 0.3
    theta = ridge_fit(data, lam).theta()
    lhs = (data.P.T @ data.P + data.N * lam * np.eye(data.P.shape[1])) @ theta
    rhs = data.P.T @ data.F
    assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs)


def test_ridge_errors(rng):
    data = rand_windows(rng)
    with pytest.raises(ValueError):
        ridge_fit(data, -1.0)
    thin = rand_windows(rng, N=3, n=2, M=3, H=1)  # N < Mn, singular Gram
    with pytest.raises(NumericalError, match="lam > 0"):
        ridge_fit(thin, 0.0)
    ridge_fit(thin, 1e-6)  # jittered solve goes through


def test_spd_cholesky_rejects_exactly_singular_grams():
    # X's last column is a combination of the others, so X^T X is singular;
    # 4 of these 2000 have pivot ratios in (1e-7, 1.2e-7) and passed a 1e-7 cut
    rng = np.random.default_rng(0)
    for i in range(2000):
        X = rng.normal(size=(40, 1 + i % 10))
        X = np.hstack([X, X @ rng.normal(size=(X.shape[1], 1))])
        with pytest.raises(NumericalError):
            _spd_cholesky(X.T @ X, "singular")


# ------------------------------------------------------ empirical moments


def test_empirical_forecaster_matches_ridge_and_pinv(rng):
    data = rand_windows(rng, N=40)
    assert np.allclose(empirical_forecaster(data).theta(), ridge_fit(data, 0.0).theta(), atol=1e-9)
    thin = rand_windows(rng, N=3, n=2, M=3, H=1)
    theta = empirical_forecaster(thin).theta()
    assert np.allclose(theta, np.linalg.pinv(thin.P) @ thin.F, atol=1e-9)


# ------------------------------------------------------- conditional mean


def test_cond_mean_white_noise_is_zero():
    acov = AutocovSet(sigmas=[np.eye(2)] + [np.zeros((2, 2))] * 4)
    f = cond_mean_forecaster(acov, M=2, H=3)
    assert np.allclose(f.theta(), 0.0, atol=1e-14)


def test_cond_mean_scalar_ar1():
    a, s2 = 0.6, 2.0
    acov = AutocovSet(sigmas=[np.array([[s2]]), np.array([[a * s2]])])
    f = cond_mean_forecaster(acov, M=1, H=1)
    assert np.isclose(f.theta()[0, 0], a)


def test_cond_mean_matches_literal_assembly(rng):
    model = rand_ss(rng, r=3, n=2)
    M, H = 3, 2
    acov = ss_autocov(model, M + H - 1)
    f = cond_mean_forecaster(acov, M, H)
    oracle = toeplitz_theta_oracle(acov.sigmas, M, H)
    assert np.allclose(f.theta(), oracle, atol=1e-10)


def test_cond_mean_rank_bounded_by_state_dim(rng):
    model = rand_ss(rng, r=2, n=3)
    M, H = 4, 3
    f = cond_mean_forecaster(ss_autocov(model, M + H - 1), M, H)
    s = np.linalg.svd(f.theta(), compute_uv=False)
    assert int(np.sum(s > 1e-8 * s[0])) <= model.r


def test_cond_mean_jitter_invariance(rng):
    model = rand_ss(rng)
    M, H = 2, 2
    acov = ss_autocov(model, M + H - 1)
    base = cond_mean_forecaster(acov, M, H).theta()
    for jitter in (1e-12, 1e-9, 1e-6):
        moved = cond_mean_forecaster(acov, M, H, jitter=jitter).theta()
        assert np.linalg.norm(moved - base) <= 1e-4 * np.linalg.norm(base)


@pytest.mark.parametrize("value", [-0.01, np.nan, np.inf])
@pytest.mark.parametrize("name, fit", [
    ("lam", lambda v: ridge_fit(build_windows(np.arange(12.0).reshape(6, 2), 2, 1), v)),
    ("lam", lambda v: ar_fit(np.arange(12.0).reshape(6, 2), 2, lam=v)),
    ("jitter", lambda v: cond_mean_forecaster(AutocovSet([np.eye(2)] * 3), 2, 1, jitter=v)),
    ("jitter", lambda v: latent_ar_fit(np.arange(12.0).reshape(6, 2), jitter=v)),
], ids=["ridge_fit", "ar_fit", "cond_mean_forecaster", "latent_ar_fit"])
def test_penalties_must_be_finite_and_nonnegative(name, fit, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite and nonnegative"):
        fit(value)


def test_cond_mean_errors():
    acov = AutocovSet(sigmas=[np.eye(1), np.zeros((1, 1))])
    with pytest.raises(ValueError, match="lags"):
        cond_mean_forecaster(acov, M=2, H=2)
    with pytest.raises(ValueError):
        cond_mean_forecaster(acov, M=1, H=1, jitter=-1.0)
    flat = AutocovSet(sigmas=[np.zeros((1, 1)), np.zeros((1, 1))])
    with pytest.raises(NumericalError, match="jitter"):
        cond_mean_forecaster(flat, M=1, H=1)
    for M, H in ((0, 2), (1, 0)):  # M = 0 used to return an M = 0 forecaster
        with pytest.raises(ValueError, match="must be >= 1"):
            cond_mean_forecaster(AutocovSet([np.eye(2)] * 3), M=M, H=H)


# ------------------------------------------------------------------- AR


def test_ar_fit_exact_scalar():
    x = 0.5 ** np.arange(20.0)
    A_list, W = ar_fit(x.reshape(-1, 1), M=1)
    assert np.allclose(A_list[0], [[0.5]], atol=1e-10)
    assert np.linalg.norm(W) <= 1e-12


def test_ar_fit_exact_vector_ordering(rng):
    # noiseless AR(2) sequence pins the block layout of the coefficients
    A1 = np.array([[0.4, 0.2], [-0.1, 0.3]])
    A2 = np.array([[0.1, -0.2], [0.2, 0.05]])
    x = np.zeros((40, 2))
    x[0] = rng.normal(size=2)
    x[1] = rng.normal(size=2)
    for t in range(1, 39):
        x[t + 1] = A1 @ x[t] + A2 @ x[t - 1]
    A_list, W = ar_fit(x, M=2)
    assert np.allclose(A_list[0], A1, atol=1e-8)
    assert np.allclose(A_list[1], A2, atol=1e-8)
    assert np.linalg.norm(W) <= 1e-12


def test_ar_fit_white_noise_coefficients_shrink():
    norms = []
    for T in (200, 20000):
        vals = []
        for seed in range(3):
            x = np.random.default_rng(seed).normal(size=(T, 1))
            A_list, _ = ar_fit(x, M=2)
            vals.append(max(np.linalg.norm(A) for A in A_list))
        norms.append(np.mean(vals))
    assert norms[1] < 0.5 * norms[0]


def test_ar_fit_consistency_scalar_ar2():
    a1, a2 = 0.5, -0.3
    rng = np.random.default_rng(7)
    eps = rng.normal(size=200_000)
    x = lfilter([1.0], [1.0, -a1, -a2], eps)
    A_list, W = ar_fit(x.reshape(-1, 1), M=2)
    assert abs(A_list[0][0, 0] - a1) <= 1e-2
    assert abs(A_list[1][0, 0] - a2) <= 1e-2
    assert abs(W[0, 0] - 1.0) <= 2e-2


def test_ar_fit_errors():
    with pytest.raises(ValueError):
        ar_fit(np.zeros((5, 1)), M=0)
    with pytest.raises(ValueError, match="too short"):
        ar_fit(np.zeros((2, 1)), M=2)
    with pytest.raises(NumericalError):
        ar_fit(np.zeros((10, 1)), M=1)  # all-zero regressors
    ar_fit(np.zeros((10, 1)), M=1, lam=1e-3)


def test_ar_iterated_scalar_powers():
    f = ar_iterated_forecaster([np.array([[0.5]])], M=1, H=3)
    assert np.allclose(f.theta(), [[0.5, 0.25, 0.125]])


def test_ar_iterated_zero():
    f = ar_iterated_forecaster([np.zeros((2, 2))] * 2, M=2, H=2)
    assert not f.theta().any()


def test_ar_iterated_first_block_layout():
    # E(x_{t+1} | p) = A1 x_t + A2 x_{t-1}; the window stacks oldest first
    A1 = np.array([[0.4, 0.2], [-0.1, 0.3]])
    A2 = np.array([[0.1, -0.2], [0.2, 0.05]])
    f = ar_iterated_forecaster([A1, A2], M=2, H=1)
    assert np.allclose(f.theta()[:2], A2.T)
    assert np.allclose(f.theta()[2:], A1.T)


@pytest.mark.parametrize("case", ["scalar", "vector"])
def test_ar_iterated_matches_cond_mean(case):
    if case == "scalar":
        A_list = [np.array([[0.5]]), np.array([[-0.3]])]
        W = np.array([[1.0]])
    else:
        A_list = [
            np.array([[0.4, 0.2], [-0.1, 0.3]]),
            np.array([[0.1, -0.2], [0.2, 0.05]]),
        ]
        W = np.array([[1.0, 0.2], [0.2, 0.5]])
    M, H = 2, 3
    model = companion_model(A_list, W)
    acov = ss_autocov(model, M + H - 1)
    iterated = ar_iterated_forecaster(A_list, M, H)
    exact = cond_mean_forecaster(acov, M, H)
    assert np.allclose(iterated.theta(), exact.theta(), atol=1e-8)


def test_ar_iterated_validation():
    with pytest.raises(ValueError):
        ar_iterated_forecaster([np.eye(2)], M=2, H=1)
    with pytest.raises(ValueError):
        ar_iterated_forecaster([np.eye(2), np.zeros((3, 3))], M=2, H=1)


def test_ar_and_ss_forecasters_reject_lengths_below_one():
    with pytest.raises(ValueError, match="must be >= 1"):
        ar_iterated_forecaster([], M=0, H=2)  # used to raise IndexError
    with pytest.raises(ValueError, match="must be >= 1"):
        ar_iterated_forecaster([np.eye(2)], M=1, H=0)
    with pytest.raises(ValueError, match="must be >= 1"):
        ss_forecaster(rand_ss(np.random.default_rng(0)), M=1, H=0)


# ------------------------------------------------------------ state space


def test_stationary_cov_closed_forms():
    a, q = 0.7, 2.0
    P = stationary_cov(np.array([[a]]), np.array([[q]]))
    assert np.isclose(P[0, 0], q / (1 - a * a))
    Q = np.array([[2.0, 0.5], [0.5, 1.0]])
    assert np.allclose(stationary_cov(np.zeros((2, 2)), Q), Q)


# r < 10 takes scipy's direct solve, r >= 10 its bilinear-transform one
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**16),
    r=st.integers(1, 12),
    rho=st.floats(0.0, 0.99),
    q_rank=st.integers(1, 12),
)
def test_stationary_cov_solves_lyapunov_property(seed, r, rho, q_rank):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(r, r))
    A *= rho / max(abs(np.linalg.eigvals(A)))
    G = rng.normal(size=(r, min(q_rank, r)))
    Q = G @ G.T  # PSD, singular when q_rank < r
    P = stationary_cov(A, Q)
    scale = np.linalg.norm(P)
    assert np.linalg.norm(P - A @ P @ A.T - Q) <= 1e-10 * scale
    assert np.array_equal(P, P.T)
    assert np.linalg.eigvalsh(P).min() >= -1e-12 * scale


def test_stationary_cov_unstable_raises():
    with pytest.raises(NumericalError):
        stationary_cov(np.array([[1.0]]), np.array([[1.0]]))
    with pytest.raises(NumericalError):
        stationary_cov(np.array([[1.01]]), np.array([[1.0]]))


def test_ss_autocov_closed_forms(rng):
    # A = 0: white output, Sigma_0 = C Q C^T + R, zero afterwards
    C = rng.normal(size=(2, 2))
    Q = np.eye(2)
    R = 0.5 * np.eye(2)
    m = StateSpaceModel(A=np.zeros((2, 2)), C=C, Q=Q, R=R)
    acov = ss_autocov(m, 3)
    assert np.allclose(acov.sigmas[0], C @ Q @ C.T + R)
    for S in acov.sigmas[1:]:
        assert np.allclose(S, 0.0, atol=1e-14)
    # scalar chain: Sigma_i = a^i q / (1 - a^2) with C = 1, R = 0 beyond lag 0
    a, q, r = 0.8, 1.5, 0.3
    ms = StateSpaceModel(A=[[a]], C=[[1.0]], Q=[[q]], R=[[r]])
    acs = ss_autocov(ms, 3)
    pi = q / (1 - a * a)
    assert np.isclose(acs.sigmas[0][0, 0], pi + r)
    for i in (1, 2, 3):
        assert np.isclose(acs.sigmas[i][0, 0], a**i * pi)
    with pytest.raises(ValueError):
        ss_autocov(ms, -1)


def test_ss_autocov_monte_carlo():
    """Lag covariances of a million-step sample match the closed form."""
    rng = np.random.default_rng(11)
    r = n = 2
    G = rng.normal(size=(r, r))
    A = 0.5 * (G + G.T)
    A *= 0.8 / max(abs(np.linalg.eigvals(A)))
    C = rng.normal(size=(n, r))
    Gq = rng.normal(size=(r, r))
    Q = Gq @ Gq.T + 0.1 * np.eye(r)
    R = 0.2 * np.eye(n)
    model = StateSpaceModel(A=A, C=C, Q=Q, R=R)
    acov = ss_autocov(model, 3)

    # symmetric A diagonalizes, so each eigencoordinate is a scalar AR(1)
    T = 1_000_000
    d, V = np.linalg.eigh(A)
    w = rng.normal(size=(T, r)) @ np.linalg.cholesky(Q).T
    wy = w @ V
    y = np.column_stack([lfilter([1.0], [1.0, -d[j]], wy[:, j]) for j in range(r)])
    x = y @ V.T @ C.T + rng.normal(size=(T, n)) @ np.sqrt(R).T
    scale = np.linalg.norm(acov.sigmas[0])
    for i in range(4):
        emp = x[: T - i].T @ x[i:] / (T - i)
        assert np.linalg.norm(emp - acov.sigmas[i]) <= 0.02 * scale


def test_smoother_gain_matches_joint_gaussian(rng):
    # E(z_M | p) = Cov(z_M, p) Var(p)^{-1}; blocks A^{M-s} Pi C^T
    model = rand_ss(rng, r=2, n=2)
    M = 3
    K, stack, f = ss_forecaster(model, M, H=2)
    Pi = stationary_cov(model.A, model.Q)
    acov = ss_autocov(model, M - 1)
    cov = np.hstack(
        [np.linalg.matrix_power(model.A, M - s) @ Pi @ model.C.T for s in range(1, M + 1)]
    )
    n = model.n
    big = np.zeros((M * n, M * n))
    for a in range(M):
        for b in range(M):
            blk = acov.sigmas[b - a] if b >= a else acov.sigmas[a - b].T
            big[a * n : (a + 1) * n, b * n : (b + 1) * n] = blk
    K_oracle = np.linalg.solve(big.T, cov.T).T
    assert np.allclose(K, K_oracle, atol=1e-8 * max(1.0, np.linalg.norm(K_oracle)))


def test_ss_forecaster_reads_state_through_invertible_C(rng):
    # near-noiseless observations make the smoother invert C at M = 1
    C = rng.normal(size=(2, 2))
    model = StateSpaceModel(A=0.5 * np.eye(2), C=C, Q=np.eye(2), R=1e-12 * np.eye(2))
    K, stack, f = ss_forecaster(model, M=1, H=1)
    assert np.allclose(K, np.linalg.inv(C), atol=1e-6)


def test_ss_forecaster_rank_at_most_r(rng):
    model = rand_ss(rng, r=2, n=3)
    _, _, f = ss_forecaster(model, M=4, H=3)
    s = np.linalg.svd(f.theta(), compute_uv=False)
    assert int(np.sum(s > 1e-8 * s[0])) <= model.r
    assert f.rank <= model.r  # built from K and the decoder stack, with no cut


def test_ss_forecaster_equals_cond_mean_many_models():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        r = 1 + seed % 2
        n = 1 + (seed // 2) % 3
        model = rand_ss(rng, r=r, n=n)
        M, H = 2 + seed % 2, 1 + seed % 3
        _, _, fss = ss_forecaster(model, M, H)
        fcm = cond_mean_forecaster(ss_autocov(model, M + H - 1), M, H)
        err = np.linalg.norm(fss.theta() - fcm.theta())
        assert err <= 1e-6 * max(1.0, np.linalg.norm(fcm.theta()))


def test_ss_forecaster_diffuse_variant(rng):
    # without the initial-state prior the gain still inverts a square C at
    # M = 1 but differs from the conditional mean elsewhere
    C = rng.normal(size=(2, 2))
    model = StateSpaceModel(A=0.5 * np.eye(2), C=C, Q=np.eye(2), R=0.1 * np.eye(2))
    K, _, _ = ss_forecaster(model, M=1, H=1, include_initial_prior=False)
    assert np.allclose(K, np.linalg.inv(C), atol=1e-8)
    model2 = rand_ss(rng)
    _, _, diffuse = ss_forecaster(model2, M=3, H=2, include_initial_prior=False)
    _, _, prior = ss_forecaster(model2, M=3, H=2, include_initial_prior=True)
    assert not np.allclose(diffuse.theta(), prior.theta())


def test_ss_forecaster_diffuse_window_must_observe_the_state():
    # without the prior J is singular exactly when [C; C A; ...; C A^{M-1}]
    # has rank below r: z_s = A^{s-1} z_1 with z_1 in its null space is free
    blind = StateSpaceModel(
        A=0.5 * np.eye(2), C=np.array([[1.0, 0.0]]), Q=np.eye(2), R=np.eye(1)
    )
    short = rand_ss(np.random.default_rng(3), r=3, n=1)
    for model, M in ((blind, 3), (short, 2)):
        with pytest.raises(NumericalError, match=f"M={M} window"):
            ss_forecaster(model, M, H=2, include_initial_prior=False)
        K, _, f = ss_forecaster(model, M, H=2)
        assert K.shape == (model.r, M * model.n) and np.all(np.isfinite(K))
        fcm = cond_mean_forecaster(ss_autocov(model, M + 1), M, 2)
        assert np.allclose(f.theta(), fcm.theta(), atol=1e-8)


def test_ss_forecaster_errors(rng):
    model = rand_ss(rng)
    with pytest.raises(ValueError):
        ss_forecaster(model, M=0, H=1)
    singular = StateSpaceModel(
        A=0.5 * np.eye(2), C=np.eye(2), Q=np.diag([1.0, 0.0]), R=np.eye(2)
    )
    with pytest.raises(NumericalError, match="positive definite"):
        ss_forecaster(singular, M=2, H=1)


# --------------------------------------------------------------- trivial


def test_zero_forecaster_loss_and_consistency(rng):
    data = rand_windows(rng, N=10)
    f = zero_forecaster(data.n, data.M, data.H)
    fhat = f.forecast(data.P)
    assert not fhat.any()
    assert np.isclose(loss_value(fhat, data.F), (data.F**2).sum() / data.N)
    assert inconsistency(fhat, data.n) == 0.0
    with pytest.raises(ValueError, match="must be >= 1"):
        zero_forecaster(2, 0, 1)  # used to return an M = 0 forecaster


def test_to_low_rank_truncates(rng):
    data = rand_windows(rng, N=40)
    theta = ridge_fit(data, 0.1).theta()
    lr = to_low_rank(theta, data.n, data.M, data.H, rank=2)
    assert lr.rank == 2
    U, s, Vt = np.linalg.svd(theta, full_matrices=False)
    best2 = (U[:, :2] * s[:2]) @ Vt[:2]
    assert np.allclose(lr.theta(), best2, atol=1e-10)
    assert np.allclose(lr.singular_values, s[:2])
    with pytest.raises(ValueError):
        to_low_rank(theta, data.n, data.M, data.H, rank=99)
    everything = to_low_rank(theta, data.n, data.M, data.H, rank=min(theta.shape))
    assert np.allclose(everything.theta(), theta, atol=1e-10)


def test_to_low_rank_is_reduce_rank_cut_to_rank(rng):
    theta = ridge_fit(rand_windows(rng, N=40), 0.1).theta()
    Ur, Vr, (_, sig, _) = reduce_rank(theta, np.eye(theta.shape[1]))
    for rank in range(min(theta.shape) + 1):
        lr = to_low_rank(theta, 2, 3, 2, rank=rank)
        assert lr.rank == rank
        assert np.allclose(lr.theta(), Ur[:, :rank] @ Vr[:rank], rtol=0, atol=1e-12)
        assert np.allclose(lr.singular_values, sig[:rank], rtol=1e-12, atol=0)
        # balanced: U^T U = V V^T = diag(singular values)
        assert np.allclose(lr.U.T @ lr.U, np.diag(lr.singular_values), atol=1e-12)
        assert np.allclose(lr.V @ lr.V.T, np.diag(lr.singular_values), atol=1e-12)
    assert to_low_rank(np.zeros((6, 4)), 2, 3, 2, rank=2).rank == 0


def test_to_low_rank_drops_singular_values_at_rank_tol(rng):
    Qm, _ = np.linalg.qr(rng.normal(size=(6, 3)))
    Qh, _ = np.linalg.qr(rng.normal(size=(4, 3)))
    for tiny, rank in ((0.5 * RANK_TOL, 2), (2 * RANK_TOL, 3)):
        theta = (Qm * np.array([1.0, 0.5, tiny])) @ Qh.T
        lr = to_low_rank(theta, 2, 3, 2, rank=3)
        assert lr.rank == rank, tiny


@pytest.mark.parametrize("name", ["A", "C", "Q", "R"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_state_space_model_rejects_non_finite(name, bad):
    mats = {"A": 0.5 * np.eye(2), "C": np.ones((3, 2)), "Q": np.eye(2), "R": np.eye(3)}
    mats[name][0, 0] = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        StateSpaceModel(**mats)


def test_autocov_set_rejects_non_finite():
    with pytest.raises(ValueError, match="lag-1 autocovariance must be finite"):
        AutocovSet([np.eye(2), np.array([[0.5, np.inf], [0.0, 0.5]])])
    with pytest.raises(ValueError, match="lag-0 autocovariance must be finite"):
        AutocovSet([np.full((2, 2), np.nan)])
