"""Statistical baseline forecasters.

All baselines produce a dense coefficient matrix theta (Mn x Hn) acting on
centered past windows, wrapped in a FullForecaster:

  * ridge regression of future windows on past windows;
  * the conditional-mean forecaster of a stationary Gaussian process with
    known autocovariances (block Toeplitz second-moment matrix);
  * an iterated vector autoregression: fit a one-step AR(M) model, then
    roll it forward H steps replacing unknown values by their conditional
    means;
  * the exact forecaster of a linear Gaussian state-space model: a Kalman
    smoother over the past window estimates the current latent state, and
    the model dynamics propagate it forward — giving a forecaster whose
    rank is at most the latent dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TimeSeries, WindowedDataset, build_windows
from .objective import Loss
from .solver import LowRankForecaster, NumericalError


@dataclass
class FullForecaster:
    """A dense linear forecaster f_hat = theta^T p on centered windows."""

    theta: np.ndarray
    n: int
    M: int
    H: int
    means: np.ndarray = None

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        if self.theta.shape != (self.M * self.n, self.H * self.n):
            raise ValueError(
                f"theta has shape {self.theta.shape}, expected "
                f"({self.M * self.n}, {self.H * self.n})"
            )
        if self.means is None:
            self.means = np.zeros(self.n)
        self.means = np.asarray(self.means, dtype=float).reshape(-1)
        if self.means.shape[0] != self.n:
            raise ValueError(f"means has length {self.means.shape[0]}, expected {self.n}")

    def forecast(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if p.shape[-1] != self.M * self.n:
            raise ValueError(f"past window has length {p.shape[-1]}, expected {self.M * self.n}")
        return p @ self.theta


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
        self.A = np.asarray(self.A, dtype=float)
        self.C = np.asarray(self.C, dtype=float)
        self.Q = np.asarray(self.Q, dtype=float)
        self.R = np.asarray(self.R, dtype=float)
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


def ridge_fit(data: WindowedDataset, lam: float, means: np.ndarray | None = None) -> FullForecaster:
    """theta = (P^T P + N lam I)^{-1} P^T F; requires lam > 0 or P^T P nonsingular."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    P, F = data.P, data.F
    A = P.T @ P + data.N * lam * np.eye(P.shape[1])
    chol = _spd_cholesky(A, "normal equations are singular at lam=0; pass lam > 0")
    theta = _chol_solve(chol, P.T @ F)
    return FullForecaster(theta=theta, n=data.n, M=data.M, H=data.H, means=means)


def _chol_solve(chol: np.ndarray, B: np.ndarray) -> np.ndarray:
    from scipy.linalg import solve_triangular

    y = solve_triangular(chol, B, lower=True)
    return solve_triangular(chol.T, y, lower=False)


def _spd_cholesky(G: np.ndarray, msg: str) -> np.ndarray:
    """Cholesky factor of G, treating numerically tiny pivots as singular.

    LAPACK only fails on a nonpositive pivot; exact rank deficiency often
    rounds to a pivot near sqrt(eps) and would silently produce a garbage
    solve, so pivots below 1e-7 of the largest are rejected too.
    """
    try:
        chol = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        raise NumericalError(msg) from None
    d = np.diagonal(chol)
    if d.size and float(d.min()) <= 1e-7 * float(d.max()):
        raise NumericalError(msg)
    return chol


def empirical_autocov(data: WindowedDataset) -> tuple[np.ndarray, np.ndarray]:
    """Windowed second moments: ((1/N) P^T P, (1/N) F^T P).

    The first is the past-window Gram matrix (Mn x Mn); the second is the
    future/past cross moment in (Hn x Mn) orientation, so the least-squares
    forecaster is theta = sigma_pp^{-1} sigma_fp^T.
    """
    N = data.N
    return data.P.T @ data.P / N, data.F.T @ data.P / N


def empirical_forecaster(data: WindowedDataset, means: np.ndarray | None = None) -> FullForecaster:
    """Minimum-norm least squares fit of F on P (pseudoinverse solution).

    Unlike ridge_fit at lam=0 this is total: when the past-window Gram
    matrix is singular (fewer windows than past coordinates) it returns
    the minimum-Frobenius-norm interpolant.
    """
    theta = np.linalg.lstsq(data.P, data.F, rcond=None)[0]
    return FullForecaster(theta=theta, n=data.n, M=data.M, H=data.H, means=means)


def cond_mean_forecaster(
    acov: AutocovSet,
    M: int,
    H: int,
    jitter: float = 0.0,
    means: np.ndarray | None = None,
) -> FullForecaster:
    """Conditional mean of the future given the past under stationarity.

    Builds the block-Toeplitz second-moment matrix of the stacked vector
    (p, f) from lags 0..M+H-1 and returns
    theta = (Sigma_pp + jitter I)^{-1} Sigma_pf.
    """
    if acov.L < M + H - 1:
        raise ValueError(f"need lags up to {M + H - 1}, got only {acov.L}")
    if jitter < 0:
        raise ValueError("jitter must be nonnegative")
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
    theta = _chol_solve(chol, Spf)
    return FullForecaster(theta=theta, n=n, M=M, H=H, means=means)


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
    if series.T < M + 1:
        raise ValueError(f"series too short for AR({M}): T={series.T}")
    windows = build_windows(series, M, 1)
    X, Y = windows.P, windows.F
    n, N = series.n, windows.N
    G = X.T @ X + N * lam * np.eye(M * n)
    chol = _spd_cholesky(G, "AR normal equations are singular; pass lam > 0")
    B = _chol_solve(chol, X.T @ Y)  # Mn x n, block j multiplies x_{t-M+1+j}
    A_list = [B[(M - i) * n : (M - i + 1) * n].T for i in range(1, M + 1)]
    resid = Y - X @ B
    W = resid.T @ resid / N
    return A_list, W


def ar_iterated_forecaster(
    A_list: list[np.ndarray], M: int, H: int, means: np.ndarray | None = None
) -> FullForecaster:
    """Rolls a one-step AR(M) model H steps ahead.

    Each predicted value is fed back in place of the unknown future value,
    which is exactly iterated conditional expectation, so the result
    matches the stationary conditional-mean forecaster of the same AR
    process.  theta is built by propagating, for each future step, the
    linear map from the past window to the predicted value.
    """
    if len(A_list) != M:
        raise ValueError(f"expected {M} coefficient matrices, got {len(A_list)}")
    n = np.asarray(A_list[0]).shape[0]
    A_list = [np.asarray(A, dtype=float) for A in A_list]
    for A in A_list:
        if A.shape != (n, n):
            raise ValueError("all AR coefficient matrices must be n x n")
    # maps[s] : n x Mn sending the past window to the value at offset s - M + 1
    maps = []
    for j in range(M):
        E = np.zeros((n, M * n))
        E[:, j * n : (j + 1) * n] = np.eye(n)
        maps.append(E)
    blocks = []
    for _ in range(H):
        X = np.zeros((n, M * n))
        for i in range(1, M + 1):
            X += A_list[i - 1] @ maps[-i]
        maps.append(X)
        blocks.append(X.T)
    theta = np.hstack(blocks)
    return FullForecaster(theta=theta, n=n, M=M, H=H, means=means)


def stationary_cov(A: np.ndarray, Q: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Solves P = A P A^T + Q by fixed-point iteration with doubling.

    Accumulates sum_i A^i Q (A^i)^T, squaring A each round so convergence
    is doubly geometric for stable A.
    """
    A = np.asarray(A, dtype=float)
    Q = np.asarray(Q, dtype=float)
    S = Q.copy()
    X = A.copy()
    # overflow is how divergence announces itself here, not an error
    with np.errstate(over="ignore"):
        for _ in range(200):
            incr = X @ S @ X.T
            S = S + incr
            if not np.all(np.isfinite(S)):
                break
            # max-abs norms: a Frobenius norm would overflow to inf while
            # the entries are still finite, and inf <= inf reads as converged
            if float(np.abs(incr).max()) <= tol * max(1.0, float(np.abs(S).max())):
                return 0.5 * (S + S.T)
            X = X @ X
            if not np.all(np.isfinite(X)):
                break
    raise NumericalError(
        "stationary covariance iteration did not converge; is A stable?"
    )


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


def _smoother_kkt(
    model: StateSpaceModel, M: int, include_initial_prior: bool
) -> tuple[np.ndarray, np.ndarray, slice]:
    """KKT system of the fixed-interval smoothing problem over an M-window.

    Decision variables w = (z_1..z_M, eps_1..eps_{M-1}, eta_1..eta_M)
    minimize  z_1' Pi^{-1} z_1 [optional prior]
              + sum eps' Q^{-1} eps + sum eta' R^{-1} eta
    subject to z_{s+1} = A z_s + eps_s  and  x_s = C z_s + eta_s.

    Returns (KKT matrix, constraint right-hand-side map B with
    KKT @ sol = [0; B p] for a stacked window p, slice of z_M in w).
    """
    r, n = model.r, model.n
    A, C = model.A, model.C
    pd_msg = "smoothing requires positive definite Q and R"
    Qi = np.linalg.inv(_spd_cholesky(model.Q, pd_msg))
    Ri = np.linalg.inv(_spd_cholesky(model.R, pd_msg))
    Qinv = Qi.T @ Qi
    Rinv = Ri.T @ Ri
    nz, ne, nh = M * r, (M - 1) * r, M * n
    nv = nz + ne + nh
    Hq = np.zeros((nv, nv))
    if include_initial_prior:
        Pi = stationary_cov(model.A, model.Q)
        ci = np.linalg.inv(_spd_cholesky(Pi, pd_msg))
        Hq[:r, :r] = ci.T @ ci
    for s in range(M - 1):
        i = nz + s * r
        Hq[i : i + r, i : i + r] = Qinv
    for s in range(M):
        i = nz + ne + s * n
        Hq[i : i + n, i : i + n] = Rinv
    nc = ne + nh
    E = np.zeros((nc, nv))
    for s in range(M - 1):
        row = s * r
        E[row : row + r, (s + 1) * r : (s + 2) * r] = np.eye(r)
        E[row : row + r, s * r : (s + 1) * r] = -A
        E[row : row + r, nz + s * r : nz + (s + 1) * r] = -np.eye(r)
    for s in range(M):
        row = ne + s * n
        E[row : row + n, s * r : (s + 1) * r] = C
        E[row : row + n, nz + ne + s * n : nz + ne + (s + 1) * n] = np.eye(n)
    kkt = np.zeros((nv + nc, nv + nc))
    kkt[:nv, :nv] = 2.0 * Hq
    kkt[:nv, nv:] = E.T
    kkt[nv:, :nv] = E
    B = np.zeros((nc, M * n))
    B[ne:, :] = np.eye(M * n)
    return kkt, B, slice((M - 1) * r, M * r)


def ss_forecaster(
    model: StateSpaceModel,
    M: int,
    H: int,
    include_initial_prior: bool = True,
    means: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, FullForecaster]:
    """Exact forecaster of a state-space model from an M-step window.

    Solves the window smoothing problem as a linearly constrained least
    squares (KKT) system to get the gain K with z_t = K p_t, then
    propagates: the forecast stacks C A^h z_t for h = 1..H, so
    theta^T = [C A; C A^2; ...; C A^H] K and rank(theta) <= r.

    With include_initial_prior the first window state carries its
    stationary prior, which makes K the exact conditional mean and the
    result equal to the autocovariance-based forecaster.  Without it the
    smoothing objective has no prior term (a diffuse first state).
    """
    if M < 1 or H < 1:
        raise ValueError("M and H must be >= 1")
    kkt, B, z_last = _smoother_kkt(model, M, include_initial_prior)
    nv = kkt.shape[0] - B.shape[0]
    rhs = np.zeros((kkt.shape[0], M * model.n))
    rhs[nv:] = B
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        raise NumericalError(
            "smoother KKT system is singular; without the initial-state prior "
            "the window may not determine the state"
        ) from None
    K = sol[:nv][z_last]
    stack = np.empty((H * model.n, model.r))
    Ah = np.eye(model.r)
    for h in range(H):
        Ah = model.A @ Ah
        stack[h * model.n : (h + 1) * model.n] = model.C @ Ah
    theta = (stack @ K).T
    return K, stack, FullForecaster(theta=theta, n=model.n, M=M, H=H, means=means)


def zero_forecaster(n: int, M: int, H: int, means: np.ndarray | None = None) -> FullForecaster:
    """Predicts zero for every centered coordinate (the stored means raw)."""
    return FullForecaster(theta=np.zeros((M * n, H * n)), n=n, M=M, H=H, means=means)


def mean_forecaster(series: TimeSeries | np.ndarray, M: int, H: int) -> FullForecaster:
    """Predicts the per-coordinate training mean at every horizon."""
    if not isinstance(series, TimeSeries):
        series = TimeSeries(series)
    return zero_forecaster(series.n, M, H, means=series.values.mean(axis=0))


def to_low_rank(full: FullForecaster, rank: int, tol: float = 1e-8) -> LowRankForecaster:
    """Truncated-SVD compression of a dense forecaster to a given rank."""
    if rank < 0 or rank > min(full.theta.shape):
        raise ValueError(f"rank must be in [0, {min(full.theta.shape)}]")
    Ut, s, Vt = np.linalg.svd(full.theta, full_matrices=False)
    r = min(rank, int(np.sum(s > tol * s[0])) if s.size and s[0] > 0 else 0)
    root = np.sqrt(s[:r])
    return LowRankForecaster(
        U=Ut[:, :r] * root[None, :],
        V=(root[:, None] * Vt[:r]),
        singular_values=s[:r],
        n=full.n,
        M=full.M,
        H=full.H,
        lam=0.0,
        kappa=0.0,
        loss=Loss(),
        means=full.means,
    )
