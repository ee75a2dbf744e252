"""Statistical baseline forecasters.

Every baseline is a LowRankForecaster at lambda = kappa = 0 with the
squared-l2 loss: a linear map theta (Mn x Hn) on centered past windows, held
as balanced factors by to_low_rank or, for the state-space forecaster, by
its own encoder and decoder:

  * ridge regression of future windows on past windows;
  * the conditional-mean forecaster of a stationary Gaussian process with
    known autocovariances (block Toeplitz second-moment matrix);
  * an iterated vector autoregression: fit a one-step AR(M) model, then
    roll its noise-free companion state-space form (the state is the past
    window itself) forward H steps;
  * the exact forecaster of a linear Gaussian state-space model: a Kalman
    smoother over the past window, solved in information form (one
    positive-definite block-tridiagonal system), estimates the current
    latent state, and the model dynamics propagate it forward — giving a
    forecaster whose rank is at most the latent dimension.

Both end in one propagation, _propagate; ss_autocov and cond_mean_forecaster
do not use it, so they stay an independent check on both.  The solves are
scipy's: cho_solve, and solve_discrete_lyapunov for the stationary covariance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, solve_discrete_lyapunov

from .core import TimeSeries, WindowedDataset, build_windows
from .objective import Loss
from .solver import LowRankForecaster, NumericalError, reduce_rank


@dataclass
class StateSpaceModel:
    """Linear Gaussian dynamics z' = A z + w, x = C z + v.

    A must be stable (spectral radius < 1); Q and R are symmetric PSD
    noise covariances for w and v respectively.
    """

    A: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        for name in ("A", "C", "Q", "R"):
            X = np.asarray(getattr(self, name), dtype=float)
            if not np.isfinite(X).all():
                raise ValueError(f"{name} must be finite")
            setattr(self, name, X)
        r = self.A.shape[0]
        if self.A.shape != (r, r):
            raise ValueError(f"A must be square, got {self.A.shape}")
        if self.C.ndim != 2 or self.C.shape[1] != r:
            raise ValueError(f"C has shape {self.C.shape}, expected (n, {r})")
        n = self.C.shape[0]
        for name, S, d in (("Q", self.Q, r), ("R", self.R, n)):
            if S.shape != (d, d):
                raise ValueError(f"{name} has shape {S.shape}, expected ({d}, {d})")
            if np.max(np.abs(S - S.T)) > 1e-12 * max(1.0, np.max(np.abs(S))):
                raise ValueError(f"{name} must be symmetric")
            if np.linalg.eigvalsh(S).min() < -1e-10:
                raise ValueError(f"{name} must be positive semidefinite")
        rho = self.spectral_radius()
        if rho >= 1.0:
            raise ValueError(f"A must be stable; spectral radius is {rho:.6f}")

    @property
    def r(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.C.shape[0]

    def spectral_radius(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(self.A))))


@dataclass
class AutocovSet:
    """Autocovariances Sigma_i = E[x_t x_{t+i}^T] for lags i = 0..L."""

    sigmas: list[np.ndarray]

    def __post_init__(self):
        self.sigmas = [np.asarray(S, dtype=float) for S in self.sigmas]
        if not self.sigmas:
            raise ValueError("need at least the lag-0 autocovariance")
        n = self.sigmas[0].shape[0]
        for i, S in enumerate(self.sigmas):
            if S.shape != (n, n):
                raise ValueError(f"lag-{i} autocovariance has shape {S.shape}, expected ({n}, {n})")
            if not np.isfinite(S).all():
                raise ValueError(f"lag-{i} autocovariance must be finite")
        if np.max(np.abs(self.sigmas[0] - self.sigmas[0].T)) > 1e-10 * max(
            1.0, float(np.max(np.abs(self.sigmas[0])))
        ):
            raise ValueError("lag-0 autocovariance must be symmetric")

    @property
    def n(self) -> int:
        return self.sigmas[0].shape[0]

    @property
    def L(self) -> int:
        return len(self.sigmas) - 1


def ridge_fit(
    data: WindowedDataset, lam: float, means: np.ndarray | None = None
) -> LowRankForecaster:
    """theta = (P^T P + N lam I)^{-1} P^T F; requires lam > 0 or P^T P nonsingular."""
    if not 0 <= lam < np.inf:
        raise ValueError(f"lam must be finite and nonnegative, got {lam}")
    theta = _ridge_solve(data.P, data.F, data.N * lam,
                         "normal equations are singular at lam=0; pass lam > 0")
    return to_low_rank(theta, data.n, data.M, data.H, means)


def _ridge_solve(X: np.ndarray, Y: np.ndarray, c: float, msg: str) -> np.ndarray:
    """(X^T X + c I)^{-1} X^T Y by Cholesky; NumericalError(msg) when singular."""
    chol = _spd_cholesky(X.T @ X + c * np.eye(X.shape[1]), msg)
    return cho_solve((chol, True), X.T @ Y)


def _spd_cholesky(G: np.ndarray, msg: str) -> np.ndarray:
    """Cholesky factor of G, treating numerically tiny pivots as singular.

    LAPACK only fails on a nonpositive pivot; exact rank deficiency often
    rounds to a pivot near sqrt(eps) and would silently produce a garbage
    solve, so pivots below 1e-6 of the largest are rejected too.
    """
    try:
        chol = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        raise NumericalError(msg) from None
    d = np.diagonal(chol)
    if d.size and float(d.min()) <= 1e-6 * float(d.max()):
        raise NumericalError(msg)
    return chol


def empirical_forecaster(
    data: WindowedDataset, means: np.ndarray | None = None
) -> LowRankForecaster:
    """Minimum-norm least squares fit of F on P (pseudoinverse solution).

    Unlike ridge_fit at lam=0 this is total: when the past-window Gram
    matrix is singular (fewer windows than past coordinates) it returns
    the minimum-Frobenius-norm interpolant.
    """
    theta = np.linalg.lstsq(data.P, data.F, rcond=None)[0]
    return to_low_rank(theta, data.n, data.M, data.H, means)


def cond_mean_forecaster(
    acov: AutocovSet,
    M: int,
    H: int,
    jitter: float = 0.0,
    means: np.ndarray | None = None,
) -> LowRankForecaster:
    """Conditional mean of the future given the past under stationarity.

    Builds the block-Toeplitz second-moment matrix of the stacked vector
    (p, f) from lags 0..M+H-1 and returns
    theta = (Sigma_pp + jitter I)^{-1} Sigma_pf.
    """
    if acov.L < M + H - 1:
        raise ValueError(f"need lags up to {M + H - 1}, got only {acov.L}")
    if not 0 <= jitter < np.inf:
        raise ValueError(f"jitter must be finite and nonnegative, got {jitter}")
    n = acov.n
    m = M + H
    big = np.empty((m * n, m * n))
    for a in range(m):
        for b in range(m):
            S = acov.sigmas[abs(b - a)]
            big[a * n : (a + 1) * n, b * n : (b + 1) * n] = S if b >= a else S.T
    Spp = big[: M * n, : M * n]
    Spf = big[: M * n, M * n :]
    chol = _spd_cholesky(
        Spp + jitter * np.eye(M * n),
        "past-window covariance is not positive definite at this jitter; increase jitter",
    )
    return to_low_rank(cho_solve((chol, True), Spf), n, M, H, means)


def ar_fit(
    series: TimeSeries | np.ndarray, M: int, lam: float = 0.0
) -> tuple[list[np.ndarray], np.ndarray]:
    """Least-squares one-step AR(M): x_{t+1} ~ A_1 x_t + ... + A_M x_{t-M+1}.

    Returns ([A_1, ..., A_M], residual covariance).  Ridge weight lam uses
    the same N-scaled convention as ridge_fit.
    """
    if not isinstance(series, TimeSeries):
        series = TimeSeries(series)
    if M < 1:
        raise ValueError("M must be >= 1")
    if not 0 <= lam < np.inf:
        raise ValueError(f"lam must be finite and nonnegative, got {lam}")
    if series.T < M + 1:
        raise ValueError(f"series too short for AR({M}): T={series.T}")
    windows = build_windows(series, M, 1)
    X, Y = windows.P, windows.F
    n, N = series.n, windows.N
    # Mn x n, block j multiplies x_{t-M+1+j}
    B = _ridge_solve(X, Y, N * lam, "AR normal equations are singular; pass lam > 0")
    A_list = [B[(M - i) * n : (M - i + 1) * n].T for i in range(1, M + 1)]
    resid = Y - X @ B
    W = resid.T @ resid / N
    return A_list, W


def ar_iterated_forecaster(
    A_list: list[np.ndarray], M: int, H: int, means: np.ndarray | None = None
) -> LowRankForecaster:
    """Rolls a one-step AR(M) model H steps ahead.

    Each predicted value is fed back in place of the unknown future value,
    which is exactly iterated conditional expectation, so the result
    matches the stationary conditional-mean forecaster of the same AR
    process.  In companion form the state is the past window itself:
    Phi shifts it one step and appends A_1 x_t + ... + A_M x_{t-M+1}, E
    reads its newest block, and the noise-free propagation gives
    theta^T = [E Phi; E Phi^2; ...; E Phi^H].
    """
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    if len(A_list) != M:
        raise ValueError(f"expected {M} coefficient matrices, got {len(A_list)}")
    A_list = [np.asarray(A, dtype=float) for A in A_list]
    n = A_list[0].shape[0]
    if any(A.shape != (n, n) for A in A_list):
        raise ValueError("all AR coefficient matrices must be n x n")
    Phi = np.eye(M * n, k=n)
    Phi[-n:] = np.hstack(A_list[::-1])  # the window stacks oldest first
    E = np.eye(n, M * n, k=(M - 1) * n)
    return to_low_rank(_propagate(E, Phi, H).T, n, M, H, means)


def _propagate(C: np.ndarray, A: np.ndarray, H: int) -> np.ndarray:
    """[C A; C A^2; ...; C A^H]: maps a state to its next H noise-free outputs."""
    stack = [C]
    for _ in range(H):
        stack.append(stack[-1] @ A)
    return np.vstack(stack)[C.shape[0] :]


def stationary_cov(A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Solves P = A P A^T + Q with scipy's discrete Lyapunov solver, symmetrized.

    P exists and is unique only for stable A, so a spectral radius >= 1 raises.
    """
    rho = float(np.max(np.abs(np.linalg.eigvals(A))))
    if rho >= 1.0:
        raise NumericalError(f"no stationary covariance at spectral radius {rho:.6g}; is A stable?")
    S = solve_discrete_lyapunov(A, Q)
    return 0.5 * (S + S.T)


def ss_autocov(model: StateSpaceModel, L: int) -> AutocovSet:
    """Autocovariances of the stationary output process, lags 0..L.

    Under the E[x_t x_{t+i}^T] convention of AutocovSet these are
    Sigma_0 = C Pi C^T + R and Sigma_i = C Pi (A^i)^T C^T, with Pi the
    stationary state covariance (z_{t+i} = A^i z_t + noise independent
    of z_t, so the transpose lands on the A power).
    """
    if L < 0:
        raise ValueError("L must be >= 0")
    Pi = stationary_cov(model.A, model.Q)
    base = model.C @ Pi
    sigmas = [base @ model.C.T + model.R]
    Ai = np.eye(model.r)
    for _ in range(L):
        Ai = model.A @ Ai
        sigmas.append(base @ Ai.T @ model.C.T)
    return AutocovSet(sigmas=sigmas)


def ss_forecaster(
    model: StateSpaceModel,
    M: int,
    H: int,
    include_initial_prior: bool = True,
    means: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, LowRankForecaster]:
    """Exact forecaster of a state-space model from an M-step window.

    The window smoother minimizes z_1' Pi^{-1} z_1 [optional prior]
    + sum (z_{s+1} - A z_s)' Q^{-1} (z_{s+1} - A z_s)
    + sum (x_s - C z_s)' R^{-1} (x_s - C z_s) over z_1..z_M.  Its normal
    equations are the information form J z = (I_M kron C^T R^{-1}) p, with
    J block tridiagonal: C^T R^{-1} C on every diagonal block, plus
    A^T Q^{-1} A and Q^{-1} on the diagonal and -A^T Q^{-1}, -Q^{-1} A off
    it for each transition, plus Pi^{-1} in block (1, 1) with the prior.
    The gain K with z_t = K p_t is the z_M rows of J^{-1}
    (I_M kron C^T R^{-1}); the forecast stacks C A^h z_t for h = 1..H, so
    theta^T = [C A; C A^2; ...; C A^H] K.  The model is built from the
    factors K^T and stack^T, so its rank is at most r by construction.

    With include_initial_prior the first window state carries its
    stationary prior, which makes K the exact conditional mean and the
    result equal to the autocovariance-based forecaster.  Without it the
    first state is diffuse, and J is singular exactly when the window's
    observability matrix [C; C A; ...; C A^{M-1}] has rank below r.
    """
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    r, A, C = model.r, model.A, model.C

    def inv(S):
        Li = np.linalg.inv(_spd_cholesky(S, "smoothing requires positive definite Q and R"))
        return Li.T @ Li

    G = np.hstack([A, -np.eye(r)])  # G [z_s; z_{s+1}] = -(z_{s+1} - A z_s)
    step, CtRinv = G.T @ inv(model.Q) @ G, C.T @ inv(model.R)
    J = np.kron(np.eye(M), CtRinv @ C)
    for s in range(M - 1):
        J[s * r : (s + 2) * r, s * r : (s + 2) * r] += step
    if include_initial_prior:
        J[:r, :r] += inv(stationary_cov(A, model.Q))
    elif np.linalg.matrix_rank(np.vstack([C, _propagate(C, A, M - 1)])) < r:
        raise NumericalError(
            f"without the initial-state prior an M={M} window does not determine "
            f"the state: the observability matrix has rank below r={r}"
        )
    chol = _spd_cholesky(J, "smoother information matrix is numerically singular")
    K = cho_solve((chol, True), np.kron(np.eye(M), CtRinv))[-r:]
    stack = _propagate(C, A, H)
    return K, stack, _factored(K.T, stack.T, model.n, M, H, means)


def zero_forecaster(n: int, M: int, H: int, means: np.ndarray | None = None) -> LowRankForecaster:
    """Predicts zero for every centered coordinate (the stored means raw)."""
    return to_low_rank(np.zeros((M * n, H * n)), n, M, H, means)


def to_low_rank(
    theta: np.ndarray, n: int, M: int, H: int, means: np.ndarray | None = None,
    rank: int | None = None,
) -> LowRankForecaster:
    """The forecaster f_hat = theta^T p of a dense theta (Mn x Hn).

    reduce_rank(theta, I) gives its balanced factors, cut to `rank` columns
    when rank is given (RANK_TOL may leave fewer).  Shapes, n, M, H >= 1
    and finite means are LowRankForecaster's own checks.
    """
    theta = np.asarray(theta, dtype=float)
    if not np.isfinite(theta).all():  # before the SVD, which would not converge
        raise ValueError("theta has a non-finite value")
    if rank is not None and not 0 <= rank <= min(theta.shape):
        raise ValueError(f"rank must be in [0, {min(theta.shape)}]")
    return _factored(theta, np.eye(theta.shape[-1]), n, M, H, means, rank)


def _factored(
    U: np.ndarray, V: np.ndarray, n: int, M: int, H: int, means: np.ndarray | None,
    rank: int | None = None,
) -> LowRankForecaster:
    """The lambda = kappa = 0 squared-l2 model of theta = U V, cut to `rank` columns."""
    U, V, (_, s, _) = reduce_rank(U, V)
    return LowRankForecaster(
        U=U[:, :rank],
        V=V[:rank],
        singular_values=s[:rank],
        n=n,
        M=M,
        H=H,
        lam=0.0,
        kappa=0.0,
        loss=Loss(),
        means=np.zeros(n) if means is None else means,
    )
