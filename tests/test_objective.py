import time
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_grad
from lrforecast import (
    HUBER,
    L1,
    SQUARED_L2,
    Loss,
    build_weights,
    build_windows,
    hankel_project,
    huber,
    inconsistency,
    inconsistency_grad,
    loss_grad,
    loss_value,
)
from lrforecast.serialize import loss_from_json, loss_to_json


# Definitional oracles.  An entry Z[i, h*n + c] is the prediction of
# coordinate c at absolute step i + h (both 0-indexed), made h+1 steps
# ahead from origin i.  Inconsistency measures disagreement between
# predictions of the same value from different origins; the pairwise
# double-loop form below shares no code with the projection route.


def _groups(Z, n):
    N, Hn = Z.shape
    H = Hn // n
    groups = defaultdict(list)
    for i in range(N):
        for h in range(H):
            for c in range(n):
                groups[(i + h, c)].append((i, h * n + c))
    return groups


def inconsistency_oracle(Z, n):
    total = 0.0
    for cells in _groups(Z, n).values():
        vals = [Z[r, c] for r, c in cells]
        m = len(vals)
        total += sum((a - b) ** 2 for a in vals for b in vals) / (2.0 * m)
    return total


def project_oracle(Z, n):
    out = np.empty_like(Z)
    for cells in _groups(Z, n).items():
        vals = [Z[r, c] for r, c in cells[1]]
        mean = sum(vals) / len(vals)
        for r, c in cells[1]:
            out[r, c] = mean
    return out


def test_group_sizes_match_closed_form(rng):
    # each anti-diagonal d holds min(d+1, N+H-1-d, min(N, H)) blocks
    for N, H, n in [(5, 3, 2), (3, 7, 1), (6, 6, 3), (1, 4, 2), (4, 1, 2)]:
        Z = rng.normal(size=(N, H * n))
        sizes = {}
        for (d, c), cells in _groups(Z, n).items():
            sizes[d] = len(cells)
        for d in range(N + H - 1):
            assert sizes[d] == min(d + 1, N + H - 1 - d, min(N, H))


def test_projection_matches_oracle(rng):
    for N, H, n in [(6, 4, 2), (3, 5, 3), (8, 2, 1), (1, 3, 2)]:
        Z = rng.normal(size=(N, H * n))
        assert np.allclose(hankel_project(Z, n), project_oracle(Z, n), atol=1e-12)


def test_inconsistency_matches_oracle(rng):
    for N, H, n in [(6, 4, 2), (3, 5, 3), (8, 2, 1), (5, 5, 2)]:
        Z = rng.normal(size=(N, H * n))
        J = inconsistency(Z, n)
        ref = inconsistency_oracle(Z, n)
        assert abs(J - ref) <= 1e-10 * max(1.0, abs(ref))


def test_projection_is_idempotent(rng):
    Z = rng.normal(size=(7, 4 * 3))
    P1 = hankel_project(Z, 3)
    P2 = hankel_project(P1, 3)
    assert np.allclose(P1, P2, atol=1e-12)


def test_projection_is_self_adjoint(rng):
    for _ in range(5):
        A = rng.normal(size=(6, 5 * 2))
        B = rng.normal(size=(6, 5 * 2))
        lhs = float((hankel_project(A, 2) * B).sum())
        rhs = float((A * hankel_project(B, 2)).sum())
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_projection_fixes_block_hankel_exactly(rng):
    x = rng.normal(size=(20, 2))
    F = build_windows(x, 4, 5).F
    assert np.array_equal(hankel_project(F, 2), F)
    assert inconsistency(F, 2) == 0.0


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**16),
    N=st.integers(1, 9),
    H=st.integers(1, 6),
    n=st.integers(1, 3),
    exponent=st.floats(-6.0, 6.0),
)
def test_projection_property(seed, N, H, n, exponent):
    rng = np.random.default_rng(seed)
    X, Y = 10.0 ** exponent * rng.normal(size=(2, N, H * n))
    PX = hankel_project(X, n)
    assert np.linalg.norm(hankel_project(PX, n) - PX) <= 1e-12 * np.linalg.norm(PX)
    lhs = float((PX * Y).sum())
    rhs = float((X * hankel_project(Y, n)).sum())
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(X) * np.linalg.norm(Y)
    # block Hankel input Z[i, h] = x[i + h] is returned bitwise unchanged
    x = 10.0 ** exponent * rng.normal(size=(N + H - 1, n))
    Z = x[np.arange(N)[:, None] + np.arange(H)[None, :]].reshape(N, H * n)
    assert np.array_equal(hankel_project(Z, n), Z)


def test_projection_residual_is_orthogonal(rng):
    Z = rng.normal(size=(9, 6 * 2))
    PZ = hankel_project(Z, 2)
    assert abs(float(((Z - PZ) * PZ).sum())) <= 1e-10
    # projection output is itself block Hankel: each row is the previous one shifted by a block
    assert np.max(np.abs(PZ[1:, :-2] - PZ[:-1, 2:])) <= 1e-12


def test_inconsistency_zero_iff_block_hankel(rng):
    x = rng.normal(size=(15, 3))
    F = build_windows(x, 3, 4).F
    assert inconsistency(F, 3) <= 1e-18
    F[2, 0] += 1e-3
    assert inconsistency(F, 3) > 1e-9


def test_single_horizon_is_always_consistent(rng):
    Z = rng.normal(size=(10, 3))  # H = 1: no overlapping predictions
    assert inconsistency(Z, 3) == 0.0
    assert np.array_equal(hankel_project(Z, 3), Z)


def test_inconsistency_grad_formula_and_fd(rng):
    Z = rng.normal(size=(5, 4 * 2))
    G = inconsistency_grad(Z, 2)
    assert np.array_equal(G, 2.0 * (Z - hankel_project(Z, 2)))
    G_fd = fd_grad(lambda W: inconsistency(W, 2), Z)
    assert np.allclose(G, G_fd, rtol=1e-6, atol=1e-8)


def test_projection_large_input_is_fast(rng):
    Z = rng.normal(size=(600, 50 * 3))
    t0 = time.perf_counter()
    for _ in range(10):
        hankel_project(Z, 3)
    assert time.perf_counter() - t0 < 1.0


# ------------------------------------------------------------------- losses


def test_squared_l2_value_and_grad(rng):
    Fhat = rng.normal(size=(6, 8))
    F = rng.normal(size=(6, 8))
    R = Fhat - F
    assert np.isclose(loss_value(Fhat, F, Loss()), (R * R).sum() / 6.0, rtol=1e-14)
    G = loss_grad(Fhat, F, Loss())
    assert np.allclose(G, 2.0 * R / 6.0, atol=1e-14)
    assert np.allclose(G, fd_grad(lambda Z: loss_value(Z, F, Loss()), Fhat), rtol=1e-6)


def test_l1_value_and_subgradient(rng):
    Fhat = rng.normal(size=(5, 6)) + 3.0  # keep residuals away from the kink
    F = rng.normal(size=(5, 6)) - 3.0
    R = Fhat - F
    l1 = Loss(kind=L1)
    assert np.isclose(loss_value(Fhat, F, l1), np.abs(R).sum() / 5.0, rtol=1e-14)
    assert np.allclose(loss_grad(Fhat, F, l1), np.sign(R) / 5.0, atol=1e-14)
    # subgradient 0 exactly at zero residual
    assert np.array_equal(loss_grad(F, F, l1), np.zeros_like(F))


def test_huber_value_and_grad(rng):
    delta = 0.7
    Fhat = rng.normal(size=(7, 4)) * 2.0
    F = rng.normal(size=(7, 4))
    R = Fhat - F
    small = np.abs(R) <= delta
    ref = np.where(small, R * R, delta * (2.0 * np.abs(R) - delta)).sum() / 7.0
    hb = huber(delta)
    assert np.isclose(loss_value(Fhat, F, hb), ref, rtol=1e-14)
    G = loss_grad(Fhat, F, hb)
    assert np.allclose(G, fd_grad(lambda Z: loss_value(Z, F, hb), Fhat), rtol=1e-5, atol=1e-9)


def test_huber_limits(rng):
    F = rng.normal(size=(4, 6))
    small = F + 0.01 * rng.normal(size=F.shape)
    big = F + 100.0 + rng.normal(size=F.shape)
    # quadratic regime matches squared l2; far regime grows like l1
    assert np.isclose(
        loss_value(small, F, huber(1.0)), loss_value(small, F, Loss()), rtol=1e-12
    )
    d = 0.5
    far = loss_value(big, F, huber(d))
    l1_scaled = 2.0 * d * loss_value(big, F, Loss(kind=L1))
    assert abs(far - l1_scaled) / l1_scaled < 0.02


def test_weighted_loss_value_and_grad(rng):
    for kind in (SQUARED_L2, L1, HUBER):
        loss = huber(0.8) if kind == HUBER else Loss(kind=kind)
        Fhat = rng.normal(size=(5, 6)) * 2.0
        F = rng.normal(size=(5, 6))
        W = rng.uniform(0.2, 2.0, size=5), rng.uniform(0.2, 2.0, size=6)
        Wm = np.outer(*W)
        ref = loss_value(Wm * Fhat, Wm * F, loss)  # penalty applied to a_i b_j (Fhat - F)_ij
        assert np.isclose(loss_value(Fhat, F, loss, W), ref, rtol=1e-14)
        if loss.differentiable:
            G = loss_grad(Fhat, F, loss, W)
            G_fd = fd_grad(lambda Z: loss_value(Z, F, loss, W), Fhat)
            assert np.allclose(G, G_fd, rtol=1e-5, atol=1e-9)


def test_weight_shape_checked(rng):
    with pytest.raises(ValueError):
        loss_value(np.zeros((3, 4)), np.zeros((3, 4)), Loss(), W=(np.ones(4), np.ones(3)))
    with pytest.raises(ValueError):
        loss_value(np.zeros((3, 4)), np.zeros((3, 4)), Loss(), W=(-np.ones(3), np.ones(4)))


def test_loss_validation():
    with pytest.raises(ValueError):
        Loss(kind="cubic")
    with pytest.raises(ValueError):
        Loss(kind=HUBER)  # delta required
    with pytest.raises(ValueError):
        Loss(kind=HUBER, delta=-1.0)
    with pytest.raises(ValueError):
        Loss(kind=SQUARED_L2, delta=1.0)  # delta is huber-only
    assert not Loss(kind=L1).differentiable
    assert Loss().differentiable and huber(2.0).differentiable


def test_loss_json_roundtrip():
    for loss in (Loss(), Loss(kind=L1), huber(0.25)):
        assert loss_from_json(loss_to_json(loss)) == loss
    # a bare kind string is read only from the CLI config, never from a document
    with pytest.raises(ValueError, match="loss must be a JSON object"):
        loss_from_json("l1")
    with pytest.raises(ValueError):
        loss_from_json({"delta": 1.0})


# ------------------------------------------------------------------ weights


def weights_oracle(h_t, h_tau, w_col, N, M, H, T):
    bt = np.exp(np.log(0.5) / h_t)
    btau = np.exp(np.log(0.5) / h_tau)
    n = len(w_col)
    W = np.empty((N, H * n))
    for i in range(N):
        t = M + i
        for h in range(H):
            tau = t + h + 1
            for c in range(n):
                W[i, h * n + c] = bt ** (tau - t) * btau ** (T - tau) * w_col[c]
    return W


def test_build_weights_matches_oracle():
    N, M, H, n = 7, 3, 4, 2
    T = N + M + H - 1
    w_col = np.array([1.0, 2.5])
    a, b = build_weights(5.0, 9.0, w_col, N, H)
    assert a.shape == (N,) and b.shape == (H * n,)
    assert np.allclose(np.outer(a, b), weights_oracle(5.0, 9.0, w_col, N, M, H, T), rtol=1e-14)


def test_weights_halve_per_half_life():
    # with an inert recency factor the horizon factor halves every h_t steps
    N, H = 3, 9
    W = np.outer(*build_weights(4.0, 1e12, np.ones(1), N, H))
    assert np.allclose(W[:, 4] / W[:, 0], 0.5, rtol=1e-9)
    # and the most recent origin is favored when recency decays
    W2 = np.outer(*build_weights(1e12, 3.0, np.ones(1), N, H))
    assert np.all(W2[-1] > W2[0])


def test_build_weights_validation():
    with pytest.raises(ValueError):
        build_weights(0.0, 1.0, np.ones(2), 3, 2)
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="w_col must be finite and nonnegative"):
            build_weights(1.0, 1.0, np.array([1.0, bad]), 3, 2)
