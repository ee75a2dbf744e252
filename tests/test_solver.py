import itertools
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from conftest import fd_grad
from lrforecast import solver
from lrforecast import (
    FitOptions,
    L1,
    Loss,
    NumericalError,
    SimSpec,
    aux_joint_fit,
    build_weights,
    build_windows,
    center,
    fit_auto_rank,
    fit_factored,
    gen_model,
    huber,
    inconsistency,
    lambda_max,
    loss_grad,
    loss_value,
    main_objective,
    nuclear_norm,
    optimality_residuals,
    reduce_rank,
    sample,
    svt_reference_solve,
)
from lrforecast.core import WindowedDataset
from lrforecast.solver import (
    CERT_EVERY, CERT_TOL, _factored_value_grad, _fit_arrays, _smooth_l1, _spectral_norm,
)


def rand_instance(rng, N=15, n=2, M=4, H=3, scale=1.0):
    x = scale * rng.normal(size=(N + M + H - 1, n))
    return build_windows(x, M, H)


def factored_value(data, U, V, Phi, R, lam, kappa, loss, W):
    # the factored objective, assembled independently of the solver
    Fhat = (data.P @ U) @ V + R @ Phi
    val = loss_value(Fhat, data.F, loss, W) + kappa * inconsistency(Fhat, data.n)
    return val + 0.5 * lam * sum(float((A * A).sum()) for A in (U, V, Phi))


@pytest.mark.parametrize("kind,kappa", [
    ("squared_l2", 0.0), ("squared_l2", 0.7), ("huber", 0.0),
    ("huber", 1.3), ("l1", 0.0), ("l1", 0.5),
])
def test_factored_gradients_match_fd(kind, kappa):
    # the value and gradient the L-BFGS solve minimizes, in x = [U; V; Phi]:
    # the value against an independent assembly, the gradient against
    # central differences of that value; l1 as the smoothing the solver uses
    rng = np.random.default_rng(sum(map(ord, kind)) + int(10 * kappa))
    k, lam = 3, 0.3
    for weighted, p in itertools.product((False, True), (0, 2)):
        data = rand_instance(rng, N=int(rng.integers(5, 15)))
        mcols, hcols = data.P.shape[1], data.F.shape[1]
        W = rng.uniform(0.5, 1.5, size=data.F.shape) if weighted else None
        R = rng.normal(size=(data.N, p))
        U = rng.normal(size=(mcols, k))
        V = rng.normal(size=(k, hcols))
        Phi = rng.normal(size=(p, hcols))
        loss = {"squared_l2": Loss(), "huber": huber(0.6)}.get(kind)
        if kind == "l1":
            loss, W = _smooth_l1(data.F, W)
        x = np.concatenate([U.ravel(), V.ravel(), Phi.ravel()])
        args = (data.P, data.F, data.n, k, lam, kappa, loss, W, R)
        val, grad = _factored_value_grad(x, *args)
        ref = factored_value(data, U, V, Phi, R, lam, kappa, loss, W)
        assert np.isclose(val, ref, rtol=1e-12)
        fd = fd_grad(lambda y: _factored_value_grad(y, *args)[0], x)
        assert np.abs(grad - fd).max() <= 1e-5 * max(1.0, np.abs(fd).max())


# ------------------------------------------------------------- reduce_rank


def test_reduce_rank_reconstructs_product(rng):
    U = rng.normal(size=(8, 5))
    V = rng.normal(size=(5, 6))
    Ur, Vr, (Ut, sig, Vt) = reduce_rank(U, V)
    theta = U @ V
    assert np.allclose(Ur @ Vr, theta, atol=1e-12)
    assert np.allclose((Ut * sig) @ Vt.T, theta, atol=1e-12)
    # singular triple matches a dense SVD of the product
    ref = np.linalg.svd(theta, compute_uv=False)
    assert np.allclose(sig, ref[: len(sig)], rtol=1e-10)


def test_reduced_factors_are_balanced(rng):
    # construction invariant: ||U||_F^2 = ||V||_F^2 = nuclear norm of theta
    U = rng.normal(size=(7, 4))
    V = rng.normal(size=(4, 9))
    Ur, Vr, (_, sig, _) = reduce_rank(U, V)
    nuc = nuclear_norm(U @ V)
    assert np.isclose(float((Ur * Ur).sum()), nuc, rtol=1e-10)
    assert np.isclose(float((Vr * Vr).sum()), nuc, rtol=1e-10)
    assert np.isclose(sig.sum(), nuc, rtol=1e-10)


def test_reduce_rank_truncates(rng):
    A = rng.normal(size=(8, 3))
    B = rng.normal(size=(3, 5))
    # widen to k=6 without raising the true rank past 3
    U = np.hstack([A, A @ rng.normal(size=(3, 3))])
    V = np.vstack([B, rng.normal(size=(3, 3)).T @ B])
    Ur, Vr, (_, sig, _) = reduce_rank(U, V)
    assert Ur.shape[1] <= 3 and len(sig) <= 3
    assert np.allclose(Ur @ Vr, U @ V, atol=1e-10)


def test_reduce_rank_zero_and_errors(rng):
    Ur, Vr, (Ut, sig, Vt) = reduce_rank(np.zeros((5, 2)), np.zeros((2, 4)))
    assert Ur.shape == (5, 0) and Vr.shape == (0, 4) and sig.shape == (0,)
    with pytest.raises(ValueError):
        reduce_rank(np.zeros((5, 2)), np.zeros((3, 4)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**16),
    m=st.integers(1, 8),
    h=st.integers(1, 8),
    k=st.integers(1, 8),
    exponents=st.lists(st.floats(-6.0, 6.0), min_size=8, max_size=8),
    dups=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), st.booleans()), max_size=3),
)
def test_reduce_rank_property(seed, m, h, k, exponents, dups):
    # columns of U scaled over 10^+-6, some copied (the row of V with them or not)
    rng = np.random.default_rng(seed)
    U = rng.normal(size=(m, k)) * 10.0 ** np.array(exponents[:k])[None, :]
    V = rng.normal(size=(k, h))
    for src, dst, with_row in dups:
        src, dst = src % k, dst % k
        U[:, dst] = U[:, src]
        if with_row:
            V[dst] = V[src]
    theta = U @ V
    Ur, Vr, (Ut, sig, Vt) = reduce_rank(U, V)
    scale = np.linalg.norm(theta, 2)
    assert np.linalg.norm(Ur @ Vr - theta, 2) <= 1e-7 * scale
    # balanced: ||U_r||_F^2 = ||V_r||_F^2 = sum(sigma)
    assert np.isclose(float((Ur * Ur).sum()), sig.sum(), rtol=1e-12)
    assert np.isclose(float((Vr * Vr).sum()), sig.sum(), rtol=1e-12)
    assert np.allclose(Ut.T @ Ut, np.eye(sig.size), atol=1e-10)
    assert np.allclose(Vt.T @ Vt, np.eye(sig.size), atol=1e-10)
    # sigma is the dense SVD's above the 1e-8 cutoff (values near it may go either way)
    ref = np.linalg.svd(theta, compute_uv=False)
    assert np.sum(ref > 2e-8 * scale) <= sig.size <= np.sum(ref > 0.5e-8 * scale)
    assert np.allclose(sig, ref[: sig.size], rtol=0.0, atol=1e-10 * scale)


def test_nuclear_norm_matches_svd(rng):
    A = rng.normal(size=(6, 4))
    assert np.isclose(nuclear_norm(A), np.linalg.svd(A, compute_uv=False).sum())
    assert nuclear_norm(np.zeros((3, 2))) == 0.0


def test_spectral_norm_matches_svd(rng):
    low = rng.normal(size=(20, 3)) @ rng.normal(size=(3, 15))
    for A in (rng.normal(size=(30, 7)), rng.normal(size=(7, 30)),
              rng.normal(size=(12, 12)), low, low.T, 1e-9 * low):
        ref = np.linalg.svd(A, compute_uv=False)[0]
        assert abs(_spectral_norm(A) - ref) <= 1e-12 * ref
    for A in (np.zeros((5, 4)), np.zeros((0, 3)), np.zeros((3, 0))):
        assert _spectral_norm(A) == 0.0


# -------------------------------------------------------------- fit_factored


def test_objective_trace_nonincreasing(rng):
    data = rand_instance(rng, N=25)
    model, report = fit_factored(
        data, 0.05, kappa=0.3, opts=FitOptions(k=4, max_outer=400)
    )
    t = np.array(report.objective_trace)
    assert np.all(t[1:] <= t[:-1] + 1e-10 * np.abs(t[:-1]))
    assert report.final_objective == t[-1]
    assert report.sweeps < 400
    # kappa > 0 takes the joint L-BFGS solve: one trace entry per sweep
    assert len(t) == report.sweeps + 1


@pytest.mark.parametrize("kappa", [0.0, 0.3])
def test_objective_trace_is_start_plus_one_entry_per_sweep(rng, kappa):
    # kappa = 0 squared l2 takes the Gram path, kappa > 0 the joint L-BFGS solve
    data = rand_instance(rng, N=25)
    lam = 0.05 * lambda_max(data.P, data.F)
    _, report = fit_factored(data, lam, kappa=kappa, opts=FitOptions(k=4, max_outer=400))
    t = np.array(report.objective_trace)
    assert report.sweeps >= 2
    assert len(t) == report.sweeps + 1
    assert np.all(t[1:] <= t[:-1] + 1e-12 * np.abs(t[:-1]))
    assert report.final_objective == t[-1]


def test_fit_is_deterministic(rng):
    data = rand_instance(rng, N=20)
    m1, _ = fit_factored(data, 0.1, opts=FitOptions(k=3, seed=5))
    m2, _ = fit_factored(data, 0.1, opts=FitOptions(k=3, seed=5))
    m3, _ = fit_factored(data, 0.1, opts=FitOptions(k=3, seed=6))
    assert np.array_equal(m1.U, m2.U) and np.array_equal(m1.V, m2.V)
    # a different seed moves the iterate (same optimum, different path)
    assert not np.array_equal(m1.U, m3.U)


def test_fit_reports_objective_value(rng):
    data = rand_instance(rng, N=20)
    lam, kappa = 0.08, 0.4
    model, report = fit_factored(
        data, lam, kappa, opts=FitOptions(k=4, max_outer=400)
    )
    # the factored objective upper-bounds the convex one and they meet at a
    # balanced stationary point, so a converged run agrees tightly
    ref = main_objective(model.theta(), data, lam, kappa)
    assert np.isclose(report.final_objective, ref, rtol=1e-5)


def test_warm_start_converges_immediately(rng):
    data = rand_instance(rng, N=25)
    opts = FitOptions(k=3)
    model, report = fit_factored(data, 0.1, opts=opts)
    U0, V0 = model.U, model.V
    # pad back to k columns (reduced rank may be below k)
    k = opts.k
    pad_u = np.zeros((U0.shape[0], k - U0.shape[1]))
    pad_v = np.zeros((k - V0.shape[0], V0.shape[1]))
    warm = FitOptions(k=k, init=(np.hstack([U0, pad_u]), np.vstack([V0, pad_v])))
    model2, report2 = fit_factored(data, 0.1, opts=warm)
    assert report2.sweeps <= 2
    assert report2.iterations < report.iterations
    assert np.isclose(report2.final_objective, report.final_objective,
                      rtol=1e-6, atol=1e-12)


def test_fit_validation(rng):
    data = rand_instance(rng)
    with pytest.raises(ValueError):
        fit_factored(data, -0.1, opts=FitOptions(k=2))
    with pytest.raises(ValueError):
        fit_factored(data, 0.1, kappa=-1.0, opts=FitOptions(k=2))
    with pytest.raises(ValueError):
        fit_factored(data, 0.1, opts=FitOptions(k=0))
    with pytest.raises(ValueError):
        fit_factored(data, 0.1, opts=FitOptions(k=999))
    bad_init = (np.zeros((3, 3)), np.zeros((3, 3)))
    with pytest.raises(ValueError, match="warm start"):
        fit_factored(data, 0.1, opts=FitOptions(k=2, init=bad_init))
    wide = (np.zeros((data.P.shape[1], 3)), np.zeros((3, data.F.shape[1])))
    with pytest.raises(ValueError, match="warm start"):
        fit_factored(data, 0.1, opts=FitOptions(k=2, init=wide))
    # the shape is checked before the zero exit above lambda_max
    with pytest.raises(ValueError, match="warm start"):
        fit_factored(data, 2.0 * lambda_max(data.P, data.F), opts=FitOptions(k=2, init=bad_init))
    # a fit of no sweeps would return its random initial factors as the model
    for bad in (0, -1):
        with pytest.raises(ValueError, match=f"max_outer={bad} must be at least 1"):
            FitOptions(k=2, max_outer=bad)
    with pytest.raises(ValueError, match="max_outer"):
        replace(FitOptions(), max_outer=0)
    # a factor of no columns has nothing to fit, whichever path builds the options
    for bad in (0, -1):
        with pytest.raises(ValueError, match=f"^k={bad} must be at least 1"):
            FitOptions(k=bad)
    with pytest.raises(ValueError, match="^k=0"):
        replace(FitOptions(), k=0)


def initial_factors(monkeypatch, data, opts):
    # the factors _fit_arrays hands the Gram engine, before its first sweep
    from lrforecast import solver

    seen = []

    def capture(P, F, R, weights, U, V, lam, opts):
        seen.append((U, V))
        return U, V, [0.0], 0, 0, np.zeros((0, V.shape[1]))

    monkeypatch.setattr(solver, "_gram_fit", capture)
    _fit_arrays(data.P, data.F, data.n, 0.1, 0.0, Loss(), None, opts, np.zeros((data.N, 0)))
    (U, V), = seen
    return U, V


def test_warm_start_is_widened_to_k(rng, monkeypatch):
    # a width-2 warm start keeps its columns and gains k - 2 random ones
    data = rand_instance(rng, N=25)
    mcols, hcols = data.P.shape[1], data.F.shape[1]
    U2, V2 = rng.normal(size=(mcols, 2)), rng.normal(size=(2, hcols))
    U, V = initial_factors(monkeypatch, data, FitOptions(k=4, init=(U2, V2)))
    assert U.shape == (mcols, 4) and V.shape == (4, hcols)
    assert np.array_equal(U[:, :2], U2)
    assert np.array_equal(V[:2], V2)
    assert np.all(U[:, 2:] != 0) and np.all(V[2:] != 0)


def test_random_init_is_width_zero_warm_start(rng, monkeypatch):
    data = rand_instance(rng, N=25)
    mcols, hcols = data.P.shape[1], data.F.shape[1]
    U, V = initial_factors(monkeypatch, data, FitOptions(k=3, seed=4))
    empty = (np.zeros((mcols, 0)), np.zeros((0, hcols)))
    Ue, Ve = initial_factors(monkeypatch, data, FitOptions(k=3, seed=4, init=empty))
    assert np.array_equal(U, Ue)
    assert np.array_equal(V, Ve)


def test_raw_factors_balance_at_convergence(rng, monkeypatch):
    # at a stationary point the two factor norms agree and match the
    # nuclear norm of the product (variational characterization); the
    # stall threshold is tightened so the width-bound fit runs that far
    from lrforecast import solver

    monkeypatch.setattr(solver, "STALL_TOL", 1e-13)
    data = rand_instance(rng, N=30)
    U, V, *_ = _fit_arrays(data.P, data.F, data.n, 0.2, 0.0, Loss(), None,
                           FitOptions(k=4, max_outer=500), np.zeros((data.N, 0)))
    nu = float((U * U).sum())
    nv = float((V * V).sum())
    nuc = nuclear_norm(U @ V)
    total = nu + nv
    assert abs(nu - nv) <= 1e-6 * total
    assert np.isclose(nu, nuc, rtol=1e-5)


# ------------------------------------------------ reference solver agreement


@pytest.mark.parametrize("frac,kappa", [(0.3, 0.0), (0.3, 1.0), (0.7, 0.0)])
def test_factored_agrees_with_svt_reference(frac, kappa):
    rng = np.random.default_rng(int(frac * 10) + int(kappa))
    for _ in range(3):
        data = rand_instance(rng, N=30, n=2, M=4, H=3)
        lam = frac * lambda_max(data.P, data.F)
        model, _ = fit_factored(data, lam, kappa, opts=FitOptions(k=6, max_outer=2000))
        theta_ref = svt_reference_solve(data, lam, kappa, tol=1e-10)
        obj_fit = main_objective(model.theta(), data, lam, kappa)
        obj_ref = main_objective(theta_ref, data, lam, kappa)
        assert abs(obj_fit - obj_ref) <= 1e-4 * abs(obj_ref)
        res = optimality_residuals(model.U, model.V, data, lam, kappa)
        assert all(r <= 1e-3 * lam for r in res)


def test_svt_zero_above_lambda_max(rng):
    data = rand_instance(rng, N=20)
    lmax = lambda_max(data.P, data.F)
    theta = svt_reference_solve(data, 1.05 * lmax)
    assert np.array_equal(theta, np.zeros_like(theta))
    theta2 = svt_reference_solve(data, 0.8 * lmax)
    assert np.linalg.norm(theta2) > 0


def test_svt_iteration_cap_carries_iterate(rng):
    data = rand_instance(rng, N=20)
    with pytest.raises(NumericalError) as exc:
        svt_reference_solve(data, 0.01, max_iters=3)
    assert hasattr(exc.value, "theta") and hasattr(exc.value, "objective")
    assert exc.value.theta.shape == (data.P.shape[1], data.F.shape[1])


def test_optimality_residuals_flag_non_solutions(rng):
    data = rand_instance(rng, N=25)
    lam = 0.3 * lambda_max(data.P, data.F)
    theta = svt_reference_solve(data, lam, tol=1e-12)
    good = optimality_residuals(theta, np.eye(theta.shape[1]), data, lam)
    assert all(r <= 1e-4 * lam for r in good)
    bad = optimality_residuals(theta + 0.5, np.eye(theta.shape[1]), data, lam)
    assert max(bad) > 100 * max(good)
    with pytest.raises(ValueError):
        optimality_residuals(theta, np.eye(theta.shape[1]), data, lam, loss=Loss(kind=L1))


# ------------------------------------------------------------- lambda_max


def test_lambda_max_matches_dense_norm(rng):
    for loss in (Loss(), huber(0.4), Loss(kind=L1)):
        for with_w in (False, True):
            data = rand_instance(rng, N=18)
            W = rng.uniform(0.5, 2.0, size=data.F.shape) if with_w else None
            G0 = loss_grad(np.zeros_like(data.F), data.F, loss, W)
            ref = np.linalg.svd(data.P.T @ G0, compute_uv=False)[0]
            got = lambda_max(data.P, data.F, loss, W=W)
            assert np.isclose(got, ref, rtol=1e-9)


def test_lambda_max_l2_closed_form(rng):
    data = rand_instance(rng, N=22)
    ref = 2.0 / data.N * np.linalg.svd(data.P.T @ data.F, compute_uv=False)[0]
    assert np.isclose(lambda_max(data.P, data.F), ref, rtol=1e-10)


def test_lambda_max_edge_cases(rng):
    data = rand_instance(rng)
    assert lambda_max(data.P, np.zeros_like(data.F)) == 0.0


def test_lambda_max_near_tied_top_singular_values(rng):
    # the top two singular values of P^T F differ by 1e-6, too close for the
    # power iteration; lambda_max falls back to the dense norm, and a fit at
    # exactly that lambda takes the zero exit
    Q = np.linalg.qr(rng.normal(size=(30, 6)))[0]
    A = np.linalg.qr(rng.normal(size=(6, 4)))[0]
    B = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    D = (A * np.array([1.0, 1.0 - 1e-6, 0.5, 0.1])) @ B.T
    data = WindowedDataset(P=Q, F=Q @ D, n=2, M=3, H=2)
    lmax = lambda_max(data.P, data.F)
    assert np.isclose(lmax, 2.0 / 30.0, rtol=1e-12, atol=0.0)
    model, report = fit_factored(data, lmax, opts=FitOptions(k=3))
    assert model.rank == 0
    assert report.sweeps == 0 and report.converged


def test_zero_is_returned_exactly_at_and_above_lambda_max(rng):
    # lam >= lambda_max certifies the zero solution; the solver returns it
    for seed in range(5):
        g = np.random.default_rng(seed)
        data = rand_instance(g, N=20)
        lmax = lambda_max(data.P, data.F)
        scale = float(np.linalg.norm(data.F))
        for f in (1.0, 1.01, 3.0):
            model, report = fit_factored(data, f * lmax, opts=FitOptions(k=4))
            assert model.rank == 0
            assert np.linalg.norm(model.theta()) == 0.0
            assert report.converged and report.sweeps == 0
        model, _ = fit_factored(data, 0.9 * lmax, opts=FitOptions(k=4, max_outer=300))
        assert np.linalg.norm(model.theta()) >= 1e-6 * scale


# ------------------------------------------------------------ fit_auto_rank


def test_auto_rank_escalates_width(rng, monkeypatch):
    # data with an exactly rank-3 signal and faint noise: starting at k=1
    # the width must double until the fitted rank stops hitting it
    n, M, H, N = 2, 4, 3, 60
    theta0 = rng.normal(size=(M * n, 3)) @ rng.normal(size=(3, H * n))
    P = rng.normal(size=(N, M * n))
    F = P @ theta0 + 1e-8 * rng.normal(size=(N, H * n))
    from lrforecast import WindowedDataset, solver

    data = WindowedDataset(P=P, F=F, n=n, M=M, H=H)
    lam = 1e-3 * lambda_max(data.P, data.F)
    per_width = []

    def spy(*args, **kwargs):
        out = fit_factored(*args, **kwargs)
        per_width.append((out[1].iterations, out[1].sweeps, out[1].converged))
        return out

    monkeypatch.setattr(solver, "fit_factored", spy)
    model, report = fit_auto_rank(data, lam, opts=FitOptions(k=1, max_outer=300))
    assert model.rank == 3
    assert report.k_schedule == [1, 2, 4]
    assert not report.cap_reached
    # the work of every width is counted; convergence is the last width's
    assert len(per_width) == 3
    assert report.iterations == sum(w[0] for w in per_width)
    assert report.sweeps == sum(w[1] for w in per_width)
    assert report.converged == per_width[-1][2]


def test_auto_rank_cap(rng):
    x = rng.normal(size=(40, 1))
    data = build_windows(x, 3, 2)  # cap = min(3, 2) = 2
    lam = 1e-6 * lambda_max(data.P, data.F)
    model, report = fit_auto_rank(data, lam, opts=FitOptions(k=1, max_outer=300))
    assert report.k_schedule == [1, 2]
    assert report.cap_reached and model.rank == 2


def test_auto_rank_starts_at_warm_start_width(rng):
    # a warm start wider than opts.k sets the first width instead of failing
    data = rand_instance(rng, N=30)
    model, _ = fit_factored(data, 1e-3 * lambda_max(data.P, data.F), opts=FitOptions(k=3))
    assert model.rank == 3
    lam = 0.5 * lambda_max(data.P, data.F)
    _, report = fit_auto_rank(data, lam, opts=FitOptions(k=1, init=(model.U, model.V)))
    assert report.k_schedule[0] == 3


def test_auto_rank_respects_default_width(rng):
    data = rand_instance(rng, N=30)
    model, report = fit_auto_rank(data, 0.4 * lambda_max(data.P, data.F))
    assert report.k_schedule[0] == min(20, data.P.shape[1], data.F.shape[1])
    assert model.rank < report.k_schedule[-1] or report.cap_reached


# ------------------------------------------------------------- model object


def test_model_encode_decode_roundtrip(rng):
    data = rand_instance(rng, N=20)
    model, _ = fit_factored(data, 0.05, opts=FitOptions(k=3))
    p = rng.normal(size=data.P.shape[1])
    z = model.encode(p)
    assert z.shape == (model.rank,)
    f = model.decode(z)
    assert np.allclose(f, p @ model.theta(), atol=1e-12)
    assert np.allclose(model.forecast(data.P), data.P @ model.theta(), atol=1e-10)
    with pytest.raises(ValueError):
        model.encode(np.zeros(3))
    with pytest.raises(ValueError):
        model.decode(np.zeros(model.rank + 1))


def test_rank_zero_model_forecasts_zero(rng):
    data = rand_instance(rng, N=20)
    lmax = lambda_max(data.P, data.F)
    model, _ = fit_factored(data, 2.0 * lmax, opts=FitOptions(k=3))
    assert model.rank == 0
    assert np.array_equal(model.forecast(data.P), np.zeros_like(data.F))
    assert model.singular_values.shape == (0,)


# ------------------------------------------------------------ Gram path


def count_lbfgs(monkeypatch):
    # counts scipy L-BFGS calls made by the solver; the Gram path makes none
    from lrforecast import solver

    calls = []

    def spy(*args, **kwargs):
        calls.append(1)
        return minimize(*args, **kwargs)

    monkeypatch.setattr(solver, "minimize", spy)
    return calls


def paper_instance(seed):
    # the paper-scale simulated series: n=10, r=2, T=100, M=H=12 (N=77)
    spec = SimSpec(n=10, r=2, T_train=100, seed=seed)
    train, _ = sample(gen_model(spec), spec.T_train, seed=seed)
    centered, _ = center(train)
    return build_windows(centered, 12, 12)


# a budget that lets a spurious direction decay below reduce_rank's cutoff even
# when its gradient singular value is within a few percent of lam
GRAM_OPTS = dict(max_outer=2000)


def assert_matches_reference(obj_fit, obj_ref, residuals, lam):
    assert abs(obj_fit - obj_ref) <= 1e-6 * abs(obj_ref)
    assert max(residuals) <= 1e-6 * lam


def test_gram_path_certifies_paper_instance_2(monkeypatch):
    # L-BFGS stopped here on the objective stall at rank 5 and KKT/lam 0.23;
    # the certificate reaches the reference's rank 4
    calls = count_lbfgs(monkeypatch)
    data = paper_instance(2)
    lam = 0.1 * lambda_max(data.P, data.F)
    model, report = fit_auto_rank(data, lam)
    assert model.rank == 4
    assert report.converged
    assert max(report.optimality_residuals) <= 1e-6 * lam
    assert report.iterations == 2 * report.sweeps
    assert not calls


def test_gram_stall_ends_only_a_width_bound_fit(rng, monkeypatch):
    # at k=1 the rank-1 factors cannot be certified for a rank >= 2 optimum:
    # the stall ends the fit, unconverged, and fit_auto_rank widens it
    from lrforecast import solver

    data = rand_instance(rng, N=30)
    lam = 0.1 * lambda_max(data.P, data.F)
    full, _ = fit_auto_rank(data, lam)
    assert full.rank >= 2
    opts = FitOptions(k=1, max_outer=1000)
    model, report = fit_factored(data, lam, opts=opts)
    assert model.rank == 1
    assert not report.converged
    assert report.sweeps < opts.max_outer
    # run to a standstill, the rank-1 factors are stationary (r2, r3 vanish)
    # but not optimal: r1 alone refuses the certificate
    with monkeypatch.context() as m:
        m.setattr(solver, "STALL_TOL", 0.0)
        _, still = fit_factored(data, lam, opts=FitOptions(k=1, max_outer=1000))
    r1, r2, r3 = still.optimality_residuals
    assert not still.converged
    assert max(r2, r3) <= 1e-6 * lam < r1
    auto, auto_report = fit_auto_rank(data, lam, opts=opts)
    assert auto_report.k_schedule[:2] == [1, 2]
    assert auto_report.converged and auto.rank == full.rank
    assert max(auto_report.optimality_residuals) <= 1e-6 * lam


def test_gram_certificate_cadence(rng, monkeypatch):
    # one reduce_rank per certificate: after sweep 1, every CERT_EVERY
    # sweeps after it and sweep max_outer; a fit stops only on those sweeps
    from lrforecast import solver

    calls = []

    def spy(*args, **kwargs):
        calls.append(1)
        return reduce_rank(*args, **kwargs)

    monkeypatch.setattr(solver, "reduce_rank", spy)
    data = rand_instance(rng, N=30)
    lmax = lambda_max(data.P, data.F)
    converged_sweeps = []
    for frac, k, max_outer in itertools.product((0.05, 0.3), (1, 6), (1, 2, 8, 100)):
        calls.clear()
        lam = frac * lmax
        U, V, _, _, sweeps, _ = _fit_arrays(
            data.P, data.F, data.n, lam, 0.0, Loss(), None,
            FitOptions(k=k, max_outer=max_outer), np.zeros((data.N, 0)),
        )
        checked = [s for s in range(1, sweeps + 1)
                   if (s - 1) % CERT_EVERY == 0 or s == max_outer]
        assert len(calls) == len(checked) <= math.ceil(sweeps / CERT_EVERY) + 1
        assert sweeps == checked[-1]
        if max(optimality_residuals(U, V, data, lam)) <= CERT_TOL * lam:
            converged_sweeps.append(sweeps)
    # the checks above are not vacuous: some fits certify, past sweep 1
    assert any(s > 1 for s in converged_sweeps)


def test_sweep_chain_certified_at_cold_start_ranks(monkeypatch):
    # the warm-started 20-alpha chain on the seed-0 paper series: a row that
    # reports converged meets the certificate, and every row has the rank a
    # cold fit_auto_rank finds at the same lam
    from lrforecast import evaluation

    spec = SimSpec(n=10, r=2, T_train=100, seed=0)
    train, _ = sample(gen_model(spec), spec.T_train, seed=0)
    test, _ = sample(gen_model(spec), 100, seed=1)
    fits = []

    def spy(data, lam, *args, **kwargs):
        model, report = fit_auto_rank(data, lam, *args, **kwargs)
        fits.append((data, lam, model, report))
        return model, report

    monkeypatch.setattr(evaluation, "fit_auto_rank", spy)
    table = evaluation.sweep(train, test, np.linspace(0.3, 0.01, 20), [0.0], 12, 12)
    assert len(fits) == len(table.rows) == 20
    for (data, lam, model, report), row in zip(fits, table.rows):
        assert not row.failed and row.rank == model.rank
        if report.converged:
            assert max(report.optimality_residuals) <= CERT_TOL * lam
        cold, _ = fit_auto_rank(data, lam)
        assert model.rank == cold.rank
    assert sum(report.converged for *_, report in fits) >= 15


def test_gram_path_rank_one_weights_match_reference(monkeypatch, rng):
    calls = count_lbfgs(monkeypatch)
    N, n, M, H = 30, 2, 4, 3
    data = rand_instance(rng, N=N, n=n, M=M, H=H)
    W = build_weights(3.0, 20.0, np.array([1.0, 0.5]), N, H)
    for frac in (0.1, 0.5):
        lam = frac * lambda_max(data.P, data.F, W=W)
        model, report = fit_factored(data, lam, W=W, opts=FitOptions(k=6, **GRAM_OPTS))
        assert report.converged
        ref = main_objective(svt_reference_solve(data, lam, W=W, tol=1e-12), data, lam, W=W)
        obj = main_objective(model.theta(), data, lam, W=W)
        assert_matches_reference(obj, ref, report.optimality_residuals, lam)
    assert not calls


def test_gram_path_joint_aux_matches_reference(monkeypatch, rng):
    # with p = n aux columns, [P, aux] is a window matrix of M + 1 past rows
    calls = count_lbfgs(monkeypatch)
    data = rand_instance(rng, N=40, n=2, M=3, H=2)
    aux = rng.normal(size=(data.N, data.n))
    stacked = WindowedDataset(P=np.hstack([data.P, aux]), F=data.F, n=data.n,
                              M=data.M + 1, H=data.H)
    lam = 0.05 * lambda_max(stacked.P, stacked.F)
    model, Phi, report = aux_joint_fit(data, aux, lam, opts=FitOptions(k=4, **GRAM_OPTS))
    assert report.converged
    ref = main_objective(svt_reference_solve(stacked, lam, tol=1e-12), stacked, lam)
    obj = main_objective(np.vstack([model.theta(), Phi]), stacked, lam)
    assert_matches_reference(obj, ref, report.optimality_residuals, lam)
    assert not calls


def test_gram_path_ridge_block_matches_reference(monkeypatch, rng):
    # minimizing over Phi leaves the loss (1/N) ||L (P theta - F)||^2 with
    # L^2 = I - R (R^T R + (N lam / 2) I)^-1 R^T, a plain problem in theta
    calls = count_lbfgs(monkeypatch)
    data = rand_instance(rng, N=40, n=2, M=3, H=2)
    R = rng.normal(size=(data.N, 3))
    lam = 0.05 * lambda_max(data.P, data.F)
    model, Phi, report = aux_joint_fit(data, R, lam, joint_nuclear=False,
                                       opts=FitOptions(k=4, **GRAM_OPTS))
    assert report.converged and model.rank > 0
    c = 0.5 * data.N * lam
    d, Q = np.linalg.eigh(np.eye(data.N) - R @ np.linalg.solve(R.T @ R + c * np.eye(3), R.T))
    L = (Q * np.sqrt(np.maximum(d, 0.0))) @ Q.T
    reduced = WindowedDataset(P=L @ data.P, F=L @ data.F, n=data.n, M=data.M, H=data.H)
    ref = main_objective(svt_reference_solve(reduced, lam, tol=1e-12), reduced, lam)
    theta = model.theta()
    resid = data.P @ theta + R @ Phi - data.F
    obj = (float((resid * resid).sum()) / data.N + lam * nuclear_norm(theta)
           + 0.5 * lam * float((Phi * Phi).sum()))
    assert_matches_reference(obj, ref, report.optimality_residuals, lam)
    assert not calls


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
@pytest.mark.parametrize("kappa", [0.0, 0.5])
def test_fit_rejects_weights_not_finite_and_nonnegative(rng, bad, kappa):
    data = rand_instance(rng)
    W = np.ones(data.F.shape)
    W[0, 0] = bad
    with pytest.raises(ValueError, match="weights must be finite and nonnegative"):
        fit_factored(data, 0.1, kappa, W=W, opts=FitOptions(k=2))


def test_weights_not_rank_one_take_lbfgs(monkeypatch, rng):
    calls = count_lbfgs(monkeypatch)
    data = rand_instance(rng, N=30)
    W = rng.uniform(0.5, 1.5, size=data.F.shape)
    lam = 0.3 * lambda_max(data.P, data.F, W=W)
    model, _ = fit_factored(data, lam, W=W, opts=FitOptions(k=6, **GRAM_OPTS))
    assert calls
    ref = main_objective(svt_reference_solve(data, lam, W=W, tol=1e-12), data, lam, W=W)
    obj = main_objective(model.theta(), data, lam, W=W)
    # the L-BFGS path is held to acceptance check C3's bounds
    assert abs(obj - ref) <= 1e-4 * abs(ref)
    assert max(optimality_residuals(model.U, model.V, data, lam, W=W)) <= 1e-3 * lam


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 3),
    M=st.integers(2, 4),
    H=st.integers(1, 3),
    frac=st.floats(0.05, 0.9),
    weighted=st.booleans(),
)
def test_gram_path_agrees_with_reference_property(seed, n, M, H, frac, weighted):
    rng = np.random.default_rng(seed)
    N = 3 * M * n + 10
    data = rand_instance(rng, N=N, n=n, M=M, H=H)
    W = None
    if weighted:
        W = build_weights(float(rng.uniform(1.0, 10.0)), float(rng.uniform(5.0, 50.0)),
                          rng.uniform(0.5, 1.5, size=n), N, H)
    lam = frac * lambda_max(data.P, data.F, W=W)
    model, report = fit_auto_rank(data, lam, W=W, opts=FitOptions(**GRAM_OPTS))
    assert report.converged
    ref = main_objective(svt_reference_solve(data, lam, W=W, tol=1e-12), data, lam, W=W)
    obj = main_objective(model.theta(), data, lam, W=W)
    assert_matches_reference(obj, ref, report.optimality_residuals, lam)


# ------------------------------------------------------------ joint L-BFGS

@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 2),
    M=st.integers(1, 3),
    H=st.integers(1, 3),
    N=st.integers(8, 20),
    alpha=st.floats(0.05, 0.9),
    kappa=st.sampled_from([0.0, 0.1, 1.0]),
    huber_delta=st.sampled_from([None, 0.3, 1.0]),
)
def test_joint_path_agrees_with_reference_property(seed, n, M, H, N, alpha, kappa,
                                                   huber_delta):
    # kappa > 0 or a Huber loss routes the fit to the joint L-BFGS engine;
    # it is held to acceptance check C3's bounds
    if kappa == 0.0 and huber_delta is None:
        kappa = 0.5
    loss = Loss() if huber_delta is None else Loss("huber", delta=huber_delta)
    data = rand_instance(np.random.default_rng(seed), N=N, n=n, M=M, H=H)
    lam = alpha * lambda_max(data.P, data.F, loss)
    with mock.patch.object(solver, "minimize", wraps=minimize) as spy:
        model, report = fit_auto_rank(data, lam, kappa, loss)
    assert spy.called
    ref = main_objective(svt_reference_solve(data, lam, kappa, loss, tol=1e-12),
                         data, lam, kappa, loss)
    obj = main_objective(model.theta(), data, lam, kappa, loss)
    assert abs(obj - ref) <= 1e-4 * abs(ref)
    assert max(report.optimality_residuals) <= 1e-3 * lam



@pytest.mark.parametrize("seed", [0, 1, 2])
def test_consistency_fit_is_certified_at_reference_rank(seed):
    # at kappa > 0 the joint L-BFGS solve must reach the KKT certificate's
    # scale and the reference's rank, not keep a decaying spurious direction
    data = paper_instance(seed)
    lam = 0.1 * lambda_max(data.P, data.F)
    model, report = fit_auto_rank(data, lam, kappa=1.0)
    assert max(report.optimality_residuals) <= 1e-5 * lam
    theta_ref = svt_reference_solve(data, lam, 1.0, tol=1e-10)
    ref_rank = np.linalg.matrix_rank(theta_ref, tol=1e-8 * np.linalg.norm(theta_ref, 2))
    assert model.rank == ref_rank


def l1_instance(seed):
    spec = SimSpec(n=4, r=2, T_train=80, seed=seed)
    train, _ = sample(gen_model(spec), spec.T_train, seed=seed)
    centered, _ = center(train)
    return build_windows(centered, 6, 4)


@pytest.mark.parametrize("seed", range(6))
def test_l1_fit_beats_zero_and_l2_fit(seed):
    # l1 is fitted through its Huber smoothing, whose gradient lets the
    # solver drop near-zero directions instead of keeping them as rank
    l1 = Loss(kind=L1)
    data = l1_instance(seed)
    lmax = lambda_max(data.P, data.F)
    lam = 0.05 * lmax
    model, _ = fit_auto_rank(data, lam, loss=l1)
    l2_model, _ = fit_auto_rank(data, lam)
    obj = main_objective(model.theta(), data, lam, loss=l1)
    assert model.rank <= 2
    assert obj <= main_objective(np.zeros_like(model.theta()), data, lam, loss=l1)
    assert obj <= main_objective(l2_model.theta(), data, lam, loss=l1)
    if seed in (0, 3, 4, 5):
        # the smoothed problem's lambda_max lies below 0.2 * lmax here
        model, report = fit_auto_rank(data, 0.2 * lmax, loss=l1)
        assert model.rank == 0 and report.sweeps == 0


# ------------------------------------------------------- one converged flag


def _fit_on_path(path, data, rng):
    # (lam, report) of one fit down the named solver path
    lmax = lambda_max(data.P, data.F)
    lam, opts = 0.1 * lmax, FitOptions(k=6, **GRAM_OPTS)
    aux = rng.normal(size=(data.N, 2))
    if path == "gram_width_bound":
        return lam, fit_factored(data, lam, opts=FitOptions(k=1, max_outer=1000))[1]
    if path == "rank_one_w":
        W = build_weights(3.0, 20.0, np.array([1.0, 0.5]), data.N, 3)
        lam = 0.1 * lambda_max(data.P, data.F, W=W)
        return lam, fit_factored(data, lam, W=W, opts=opts)[1]
    if path == "w_not_rank_one":
        W = rng.uniform(0.5, 1.5, size=data.F.shape)
        return lam, fit_factored(data, lam, W=W, opts=opts)[1]
    if path in ("aux_joint", "aux_ridge"):
        return lam, aux_joint_fit(data, aux, lam, joint_nuclear=path == "aux_joint",
                                  opts=opts)[2]
    if path == "ridge_zero_exit":
        return 1.5 * lmax, aux_joint_fit(data, aux, 1.5 * lmax, joint_nuclear=False,
                                         opts=opts)[2]
    if path == "lambda_max_zero_exit":
        lam = 1.5 * lmax
    kwargs = {"kappa": dict(kappa=0.5), "huber": dict(loss=huber(0.5))}.get(path, {})
    return lam, fit_factored(data, lam, opts=opts, **kwargs)[1]


@pytest.mark.parametrize("path,expected", [
    ("gram_certified", True), ("gram_width_bound", False), ("rank_one_w", None),
    ("w_not_rank_one", None), ("kappa", None), ("huber", None), ("aux_joint", None),
    ("aux_ridge", None), ("lambda_max_zero_exit", True), ("ridge_zero_exit", True),
])
def test_converged_is_the_certificate_on_every_path(path, expected):
    # converged has one definition, whichever engine or exit made the fit
    rng = np.random.default_rng(7)
    data = rand_instance(rng, N=30)
    lam, report = _fit_on_path(path, data, rng)
    assert report.converged == (max(report.optimality_residuals) <= CERT_TOL * lam)
    if expected is not None:
        assert report.converged is expected
    if path.endswith("zero_exit"):
        assert report.sweeps == 0 and report.rank == 0


def test_r1_lower_bound_keeps_every_decision(rng):
    # with a finite gate, one product's lower bound on ||G||_2 may replace r1
    # by inf, only where the exact r1 exceeds the gate too
    empty, skipped = (np.zeros((8, 0)), np.zeros((6, 0))), 0
    for _ in range(20):
        G = rng.normal(size=(8, 6)) * rng.uniform(0.1, 10.0, size=6)
        norm = np.linalg.norm(G, 2)
        for ratio in (0.3, 0.9, 1.0 - 1e-7, 1.0 + 1e-7, 1.0 + 1e-5, 2.0):
            lam = norm / ratio
            r1, r2, r3 = solver._kkt_residuals(G, *empty, lam, np.zeros((0, 6)), np.zeros((0, 6)),
                                               r1_gate=CERT_TOL * lam)
            exact = max(norm - lam, 0.0)
            assert r2 == r3 == 0.0
            assert (r1 <= CERT_TOL * lam) == (exact <= CERT_TOL * lam)
            assert r1 == math.inf or abs(r1 - exact) <= 1e-9 * lam
            skipped += r1 == math.inf
    assert skipped  # the bound is not vacuous


# case: (engine, kappa, loss, rank-one W, aux design)
ZERO_START_CASES = {
    "gram": ("gram", 0.0, Loss(), False, None),
    "gram_rank_one_w": ("gram", 0.0, Loss(), True, None),
    "gram_stacked_aux": ("gram", 0.0, Loss(), False, "stacked"),
    "gram_ridge_aux": ("gram", 0.0, Loss(), False, "ridge"),
    "joint_kappa": ("joint", 0.5, Loss(), False, None),
    "joint_huber": ("joint", 0.0, huber(0.5), False, None),
    "joint_l1": ("joint", 0.0, Loss(kind=L1), False, None),
    "joint_ridge_kappa": ("joint", 0.5, Loss(), False, "ridge"),
    "joint_ridge_huber": ("joint", 0.0, huber(0.5), False, "ridge"),
}


@pytest.mark.parametrize("case", list(ZERO_START_CASES))
def test_zero_start_on_every_engine_and_design(case, monkeypatch):
    # every fit first takes its KKT certificate at theta = 0 with Phi fitted
    # alone there; above lambda_max that is the fit, with no sweep.  The two
    # joint ridge cases used to sweep to rank 12 of round-off, unconverged
    engine, kappa, loss, weighted, aux_design = ZERO_START_CASES[case]
    rng = np.random.default_rng(11)
    data = rand_instance(rng, N=30, n=2, M=3, H=3)
    aux = rng.normal(size=(data.N, 2))
    W = build_weights(3.0, 20.0, np.array([1.0, 0.5]), data.N, data.H) if weighted else None
    design = data
    if aux_design == "stacked":
        design = WindowedDataset(P=np.hstack([data.P, aux]), F=data.F, n=data.n, M=data.M + 1,
                                 H=data.H)
    lmax = lambda_max(design.P, design.F, loss, W=W)
    calls = count_lbfgs(monkeypatch)
    # lambda_max only scales alpha; no fit computes it
    monkeypatch.setattr(solver, "lambda_max", None)

    def fit(alpha):
        lam, opts = alpha * lmax, FitOptions(k=6, **GRAM_OPTS)
        if aux_design is None:
            model, report = fit_factored(data, lam, kappa, loss, W, opts)
            return lam, model.U, model.V, report
        model, Phi, report = aux_joint_fit(data, aux, lam, kappa, loss, W, opts,
                                           joint_nuclear=aux_design == "stacked")
        if aux_design == "stacked":
            return lam, np.vstack([model.U @ model.V, Phi]), np.eye(data.F.shape[1]), report
        return lam, model.U, model.V, report

    _, U, V, report = fit(1.5)
    assert report.rank == 0 and report.sweeps == 0 and not (U @ V).any()
    assert report.converged is (loss.kind != L1)
    # only the ridge block's Phi needs an L-BFGS solve at the zero start
    assert bool(calls) is (engine == "joint" and aux_design == "ridge")
    calls.clear()

    lam, U, V, report = fit(0.3)
    assert report.sweeps > 0 and bool(calls) is (engine == "joint")
    smooth, Ws = _smooth_l1(data.F, W) if loss.kind == L1 else (loss, W)
    residuals = optimality_residuals(U, V, design, lam, kappa, smooth, Ws)
    if aux_design == "ridge":
        # the reference has no ridge block; the certificate takes Phi's term
        residuals = report.optimality_residuals
    else:
        ref = main_objective(svt_reference_solve(design, lam, kappa, smooth, Ws, tol=1e-12),
                             design, lam, kappa, smooth, Ws)
        assert abs(main_objective(U @ V, design, lam, kappa, smooth, Ws) - ref) <= 1e-4 * abs(ref)
    assert max(residuals) <= 1e-3 * lam


def test_l1_and_unpenalized_fits_are_not_converged():
    # l1 has no certificate, even at its exact theta = 0 exit; at lam = 0
    # the certificate's scale is 0
    data = l1_instance(0)
    lam = 0.2 * lambda_max(data.P, data.F)
    model, report = fit_auto_rank(data, lam, loss=Loss(kind=L1))
    assert report.sweeps == 0 and not model.theta().any()
    assert report.optimality_residuals is None and report.converged is False
    _, report = fit_factored(data, 0.0, opts=FitOptions(k=4))
    assert report.optimality_residuals is not None and report.converged is False


@pytest.mark.parametrize("lam,kappa", [
    (math.nan, 0.0), (math.inf, 0.0), (-1.0, 0.0), (0.1, math.nan), (0.1, math.inf),
    (0.1, -1.0),
])
def test_penalties_must_be_finite_and_nonnegative(rng, lam, kappa):
    data = rand_instance(rng)
    bad = lam if not 0 <= lam < math.inf else kappa
    with pytest.raises(ValueError, match=f"finite and nonnegative, got .*{bad}"):
        fit_factored(data, lam, kappa, opts=FitOptions(k=2))
    with pytest.raises(ValueError, match="finite and nonnegative"):
        svt_reference_solve(data, lam, kappa)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kappa", [0.0, 0.5])
def test_overflowing_objective_raises_numerical_error(kappa):
    # the loss of F ~ 1e154 overflows while its gradient stays finite; each
    # engine refuses the zero start before its certificate runs
    rng = np.random.default_rng(0)
    data = WindowedDataset(P=rng.normal(size=(200, 6)),
                           F=1e154 * (1.0 + rng.uniform(size=(200, 4))), n=2, M=3, H=2)
    with pytest.raises(NumericalError, match="objective is not finite at the initial point"):
        fit_factored(data, 1.0, kappa, opts=FitOptions(k=2))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kappa", [0.0, 0.5])
def test_overflowing_gradient_is_refused_before_the_certificate(kappa):
    # at F ~ 1e155 the gradient overflows too, and a certificate taken there
    # meets eigvalsh's LinAlgError or a NaN; the start's objective is refused first
    rng = np.random.default_rng(1)
    data = WindowedDataset(P=rng.normal(size=(200, 6)),
                           F=1e155 * rng.normal(size=(200, 4)), n=2, M=3, H=2)
    with mock.patch.object(solver, "_kkt_residuals", side_effect=AssertionError("certificate")), \
            pytest.raises(NumericalError, match="objective is not finite at the initial point"):
        fit_factored(data, 1.0, kappa, opts=FitOptions(k=2))


@pytest.mark.parametrize("kappa", [0.0, 0.5])
def test_all_zero_weights_fit_zero_at_the_zero_start(rng, kappa):
    # a W of zeros is not rank one (_rank_one_weights' zero branch), and the
    # gradient it leaves is 0, so the zero start certifies with no sweep
    data = rand_instance(rng, N=20)
    model, report = fit_factored(data, 0.1, kappa, W=np.zeros(data.F.shape),
                                 opts=FitOptions(k=2))
    assert model.rank == 0 and report.sweeps == 0 and report.converged
