"""Low-rank forecast matrix fitting.

The fitted object is a coefficient matrix theta (Mn x Hn) mapping a
flattened past window p to a flattened future forecast theta^T p.  The
target problem is

    minimize  (1/N) sum_i l(theta^T p_i - f_i)
              + lam * ||theta||_nuclear
              + kappa * inconsistency(P theta)

which is convex.  The production solver works on a factorization
theta = U V (U: Mn x k, V: k x Hn), replacing the nuclear norm with
(lam/2) (||U||_F^2 + ||V||_F^2) and alternating limited-memory BFGS
solves over V and U; each subproblem is convex and the variational form
of the nuclear norm makes the factored problem agree with the convex one
at optimum once k is at least the optimal rank.

An independent proximal-gradient reference solver (singular value
soft-thresholding on the dense matrix) is included for certification.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import minimize

from .core import WindowedDataset
from .objective import Loss, hankel_project, inconsistency, loss_grad, loss_value


class NumericalError(RuntimeError):
    """An iterative routine failed to converge or produced non-finite values."""


@dataclass
class FitOptions:
    """Knobs for the factored solver.

    k: factor width (inner dimension); must not exceed min(Mn, Hn).
    max_outer: maximum number of alternating sweeps (one sweep = solve V
        then solve U).
    obj_tol: stop when the relative objective decrease over a sweep falls
        below this.
    grad_tol / lbfgs_memory / lbfgs_max_iters: inner L-BFGS settings
        (gradient tolerance, history size, iteration cap per subproblem);
        the line search enforces strong Wolfe conditions.
    rank_tol: relative singular value cutoff used when reducing the
        fitted factors.
    seed: drives the random factor initialization.
    init: optional (U0, V0) warm start, overriding the random init.
    """

    k: int = 20
    max_outer: int = 100
    obj_tol: float = 1e-8
    grad_tol: float = 1e-8
    lbfgs_memory: int = 10
    lbfgs_max_iters: int = 500
    lbfgs_ftol: float = 1e-16
    rank_tol: float = 1e-8
    seed: int = 0
    init: tuple[np.ndarray, np.ndarray] | None = None


@dataclass
class FitReport:
    """Convergence record for one fit."""

    objective_trace: list[float]
    final_objective: float
    rank: int
    optimality_residuals: tuple[float, float, float] | None
    iterations: int
    sweeps: int
    converged: bool
    wall_time: float
    k_schedule: list[int] = field(default_factory=list)
    cap_reached: bool = False


@dataclass
class LowRankForecaster:
    """A fitted low-rank forecaster theta = U V with balanced factors.

    U (Mn x r) encodes a past window into an r-dimensional latent state
    z = U^T p; V (r x Hn) decodes the state into the stacked H-step
    forecast.  Factors are stored in reduced, balanced form, so
    ||U||_F^2 = ||V||_F^2 = sum(singular_values).  Forecasts operate on
    centered windows; `means` records the per-coordinate offsets that
    were removed before fitting.
    """

    U: np.ndarray
    V: np.ndarray
    singular_values: np.ndarray
    n: int
    M: int
    H: int
    lam: float
    kappa: float
    loss: Loss
    means: np.ndarray

    def __post_init__(self):
        self.U = np.asarray(self.U, dtype=float).reshape(self.M * self.n, -1)
        self.V = np.asarray(self.V, dtype=float).reshape(-1, self.H * self.n)
        self.singular_values = np.asarray(self.singular_values, dtype=float).reshape(-1)
        self.means = np.asarray(self.means, dtype=float).reshape(-1)
        if self.U.shape[1] != self.V.shape[0]:
            raise ValueError(
                f"factor shapes are inconsistent: U is {self.U.shape}, V is {self.V.shape}"
            )
        if self.singular_values.shape[0] != self.U.shape[1]:
            raise ValueError("need one singular value per factor column")
        if self.means.shape[0] != self.n:
            raise ValueError(f"means has length {self.means.shape[0]}, expected {self.n}")

    @property
    def rank(self) -> int:
        return self.U.shape[1]

    def theta(self) -> np.ndarray:
        return self.U @ self.V

    def encode(self, p: np.ndarray) -> np.ndarray:
        """Latent state z = U^T p for one centered past window (or a batch)."""
        p = np.asarray(p, dtype=float)
        if p.shape[-1] != self.M * self.n:
            raise ValueError(f"past window has length {p.shape[-1]}, expected {self.M * self.n}")
        return p @ self.U

    def decode(self, z: np.ndarray) -> np.ndarray:
        """Stacked H-step forecast from a latent state."""
        z = np.asarray(z, dtype=float)
        if z.shape[-1] != self.rank:
            raise ValueError(f"latent state has length {z.shape[-1]}, expected {self.rank}")
        return z @ self.V

    def forecast(self, p: np.ndarray) -> np.ndarray:
        """decode(encode(p)): the centered H-step forecast (V^T U^T p)."""
        return self.decode(self.encode(p))


def reduce_rank(
    U: np.ndarray, V: np.ndarray, tol: float = 1e-8
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Reduced, balanced factors of the product U V plus its SVD.

    Computes the compact SVD of theta = U V from two factor-sized SVDs
    (never forming theta): with U = Uu Su Vu^T and V = Uv Sv Vv^T, the
    small core A = Su Vu^T Uv Sv has SVD Ua Sa Va^T, and

        theta = (Uu Ua) Sa (Vv Va)^T.

    Singular values at or below tol * max(Sa) are dropped.  Returns
    (U_r, V_r, (U_theta, sigma, V_theta)) with U_r = U_theta sqrt(sigma)
    and V_r = sqrt(sigma) V_theta^T, so U_r V_r = theta and the factors
    are balanced.
    """
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    if U.ndim != 2 or V.ndim != 2 or U.shape[1] != V.shape[0]:
        raise ValueError(f"incompatible factor shapes {U.shape} and {V.shape}")
    if tol < 0:
        raise ValueError("tol must be >= 0")
    m, k = U.shape
    h = V.shape[1]
    if k == 0 or not (U.any() and V.any()):
        empty = np.zeros((0,))
        return np.zeros((m, 0)), np.zeros((0, h)), (np.zeros((m, 0)), empty, np.zeros((h, 0)))
    Uu, su, Vut = np.linalg.svd(U, full_matrices=False)
    Uv, sv, Vvt = np.linalg.svd(V, full_matrices=False)
    A = (su[:, None] * Vut) @ (Uv * sv[None, :])
    Ua, sa, Vat = np.linalg.svd(A, full_matrices=False)
    smax = sa[0] if sa.size else 0.0
    r = int(np.sum(sa > tol * smax)) if smax > 0 else 0
    Ua, sa, Va = Ua[:, :r], sa[:r], Vat[:r].T
    U_theta = Uu @ Ua
    V_theta = Vvt.T @ Va
    root = np.sqrt(sa)
    return U_theta * root[None, :], (V_theta * root[None, :]).T, (U_theta, sa, V_theta)


def nuclear_norm(theta: np.ndarray) -> float:
    theta = np.asarray(theta, dtype=float)
    if theta.size == 0:
        return 0.0
    return float(np.linalg.svd(theta, compute_uv=False).sum())


def _spectral_norm(A: np.ndarray) -> float:
    if A.size == 0:
        return 0.0
    return float(np.linalg.svd(A, compute_uv=False)[0])


def main_objective(
    theta: np.ndarray,
    data: WindowedDataset,
    lam: float,
    kappa: float = 0.0,
    loss: Loss = Loss(),
    W: np.ndarray | None = None,
) -> float:
    """Value of the convex problem: loss + lam * nuclear + kappa * inconsistency."""
    Fhat = data.P @ theta
    val = loss_value(Fhat, data.F, loss, W) + lam * nuclear_norm(theta)
    if kappa != 0.0:
        val += kappa * inconsistency(Fhat, data.n)
    return val


def _forecast_value_grad(
    Fhat: np.ndarray,
    F: np.ndarray,
    n: int,
    loss: Loss,
    W: np.ndarray | None,
    kappa: float,
) -> tuple[float, np.ndarray]:
    # smooth data terms and their gradient in Fhat
    val = loss_value(Fhat, F, loss, W)
    G = loss_grad(Fhat, F, loss, W)
    if kappa != 0.0:
        D = Fhat - hankel_project(Fhat, n)
        val += kappa * float((D * D).sum())
        G = G + (2.0 * kappa) * D
    return val, G


def _factored_objective(
    P: np.ndarray,
    F: np.ndarray,
    n: int,
    U: np.ndarray,
    V: np.ndarray,
    lam: float,
    kappa: float,
    loss: Loss,
    W: np.ndarray | None,
) -> float:
    Fhat = (P @ U) @ V
    val, _ = _forecast_value_grad(Fhat, F, n, loss, W, kappa)
    return val + 0.5 * lam * (float((U * U).sum()) + float((V * V).sum()))


def _fit_arrays(
    P: np.ndarray,
    F: np.ndarray,
    n: int,
    lam: float,
    kappa: float,
    loss: Loss,
    W: np.ndarray | None,
    opts: FitOptions,
    R: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, list[float], int, int, bool, np.ndarray]:
    """Alternating L-BFGS on the factored objective. Returns raw factors.

    R (N x p, optional) adds regressors outside the factorization: the
    forecast becomes P U V + R Phi, and their coefficients Phi (p x Hn)
    carry the ridge penalty (lam/2) ||Phi||_F^2.  Phi starts at zero and
    is solved jointly with V as one block B = [V; Phi] against the design
    Z = [P U, R]; the U-step holds R Phi fixed.  Returns (U, V, trace,
    inner iterations, sweeps, converged, Phi), with Phi of shape
    (0, Hn) when R is omitted.
    """
    N, mcols = P.shape
    hcols = F.shape[1]
    p = 0 if R is None else R.shape[1]
    k = opts.k
    if not 1 <= k <= min(mcols, hcols):
        raise ValueError(f"k={k} must be in [1, min({mcols}, {hcols})]")
    if lam < 0 or kappa < 0:
        raise ValueError("lam and kappa must be nonnegative")

    if lam > 0 and loss.differentiable and not p:
        # zero is optimal exactly when lam >= ||grad of the smooth part at 0||_2,
        # and the alternation only crawls toward it; exit with the certified answer.
        # A ridge block has no such threshold, so it always alternates.
        try:
            lmax = lambda_max(P, F, loss, W=W)
        except NumericalError:
            lmax = np.inf
        if lam >= lmax:
            val = loss_value(np.zeros_like(F), F, loss, W)
            U, V, Phi = np.zeros((mcols, k)), np.zeros((k, hcols)), np.zeros((0, hcols))
            return U, V, [val], 0, 0, True, Phi

    if opts.init is not None:
        U0, V0 = opts.init
        U = np.array(U0, dtype=float)
        V = np.array(V0, dtype=float)
        if U.shape != (mcols, k) or V.shape != (k, hcols):
            raise ValueError(
                f"warm start shapes {U.shape}/{V.shape} do not match "
                f"({mcols}, {k})/({k}, {hcols})"
            )
    else:
        rng = np.random.default_rng(opts.seed)
        scale = float(np.std(F))
        if scale == 0.0:
            scale = 1.0
        sig = scale / np.sqrt(k)
        U = rng.normal(0.0, sig, size=(mcols, k))
        V = rng.normal(0.0, sig, size=(k, hcols))
    B = np.vstack([V, np.zeros((p, hcols))]) if p else V

    lbfgs_opts = {
        "maxcor": opts.lbfgs_memory,
        "maxiter": opts.lbfgs_max_iters,
        "gtol": opts.grad_tol,
        "ftol": opts.lbfgs_ftol,
    }

    def v_step(U, B):
        PU = P @ U
        Z = np.hstack([PU, R]) if p else PU
        u_norm2 = float((U * U).sum())

        def fg(b):
            Bm = b.reshape(k + p, hcols)
            val, G = _forecast_value_grad(Z @ Bm, F, n, loss, W, kappa)
            val += 0.5 * lam * (u_norm2 + float((Bm * Bm).sum()))
            grad = Z.T @ G + lam * Bm
            return val, grad.ravel()

        res = minimize(fg, B.ravel(), jac=True, method="L-BFGS-B", options=lbfgs_opts)
        return res.x.reshape(k + p, hcols), float(res.fun), int(res.nit)

    def u_step(U, B):
        V = B[:k]
        b_norm2 = float((B * B).sum())
        Vt = V.T
        offset = R @ B[k:] if p else None

        def fg(u):
            Um = u.reshape(mcols, k)
            Fhat = (P @ Um) @ V
            if offset is not None:
                Fhat += offset
            val, G = _forecast_value_grad(Fhat, F, n, loss, W, kappa)
            val += 0.5 * lam * (float((Um * Um).sum()) + b_norm2)
            grad = P.T @ (G @ Vt) + lam * Um
            return val, grad.ravel()

        res = minimize(fg, U.ravel(), jac=True, method="L-BFGS-B", options=lbfgs_opts)
        return res.x.reshape(mcols, k), float(res.fun), int(res.nit)

    # Phi starts at zero, so the initial objective is that of the factors alone
    obj = _factored_objective(P, F, n, U, V, lam, kappa, loss, W)
    if not np.isfinite(obj):
        raise NumericalError(f"objective is not finite at the initial point ({obj})")
    trace = [obj]
    total_iters = 0
    converged = False
    sweeps = 0
    for sweeps in range(1, opts.max_outer + 1):
        sweep_start = trace[-1]
        B, obj, nit = v_step(U, B)
        trace.append(obj)
        total_iters += nit
        U, obj, nit = u_step(U, B)
        trace.append(obj)
        total_iters += nit
        if not np.isfinite(obj):
            raise NumericalError(f"objective became non-finite after sweep {sweeps}")
        decrease = sweep_start - obj
        if decrease <= opts.obj_tol * max(abs(sweep_start), 1e-300):
            converged = True
            break
    return U, B[:k], trace, total_iters, sweeps, converged, B[k:]


def fit_factored(
    data: WindowedDataset,
    lam: float,
    kappa: float = 0.0,
    loss: Loss = Loss(),
    W: np.ndarray | None = None,
    opts: FitOptions | None = None,
    means: np.ndarray | None = None,
) -> tuple[LowRankForecaster, FitReport]:
    """Fits factors of a fixed width k by alternating L-BFGS sweeps.

    Each sweep solves the (convex) subproblem in V with U fixed, then the
    subproblem in U with V fixed; the objective trace is recorded after
    every half sweep and never increases.  The returned model carries the
    reduced, balanced factors.  Deterministic given opts.seed.
    """
    opts = opts or FitOptions()
    t0 = time.perf_counter()
    U, V, trace, iters, sweeps, converged, _ = _fit_arrays(
        data.P, data.F, data.n, lam, kappa, loss, W, opts
    )
    Ur, Vr, (U_theta, sigma, V_theta) = reduce_rank(U, V, opts.rank_tol)
    residuals = None
    if loss.differentiable:
        residuals = _residuals_from_svd(
            U_theta, sigma, V_theta, data, lam, kappa, loss, W
        )
    if means is None:
        means = np.zeros(data.n)
    model = LowRankForecaster(
        U=Ur,
        V=Vr,
        singular_values=sigma,
        n=data.n,
        M=data.M,
        H=data.H,
        lam=lam,
        kappa=kappa,
        loss=loss,
        means=means,
    )
    report = FitReport(
        objective_trace=trace,
        final_objective=trace[-1],
        rank=model.rank,
        optimality_residuals=residuals,
        iterations=iters,
        sweeps=sweeps,
        converged=converged,
        wall_time=time.perf_counter() - t0,
        k_schedule=[opts.k],
    )
    return model, report


def _pad_factors(
    U: np.ndarray,
    V: np.ndarray,
    k: int,
    seed: int,
    scale: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Widens factors to k columns/rows with fresh random entries."""
    m, k0 = U.shape
    h = V.shape[1]
    if k0 > k:
        raise ValueError(f"cannot shrink factors from {k0} to {k} columns")
    if k0 == k:
        return U, V
    rng = np.random.default_rng(seed)
    sig = scale / np.sqrt(k)
    Upad = np.concatenate([U, rng.normal(0.0, sig, size=(m, k - k0))], axis=1)
    Vpad = np.concatenate([V, rng.normal(0.0, sig, size=(k - k0, h))], axis=0)
    return Upad, Vpad


def fit_auto_rank(
    data: WindowedDataset,
    lam: float,
    kappa: float = 0.0,
    loss: Loss = Loss(),
    W: np.ndarray | None = None,
    opts: FitOptions | None = None,
    means: np.ndarray | None = None,
) -> tuple[LowRankForecaster, FitReport]:
    """fit_factored with automatic factor-width escalation.

    Starts at opts.k (capped at min(Mn, Hn)).  If the reduced rank comes
    back equal to the factor width, the width is doubled (still capped)
    and the fit restarts warm from the previous factors padded with fresh
    random columns, since the solution may be rank-limited by k.  The
    report lists the widths tried; cap_reached flags an undecidable rank
    at the dimension cap.
    """
    opts = opts or FitOptions()
    cap = min(data.P.shape[1], data.F.shape[1])
    k = min(opts.k, cap)
    scale = float(np.std(data.F)) or 1.0
    schedule = []
    init = opts.init
    t0 = time.perf_counter()
    while True:
        model, report = fit_factored(
            data, lam, kappa, loss, W, replace(opts, k=k, init=init), means
        )
        schedule.append(k)
        if model.rank < k or k == cap:
            break
        init = _pad_factors(model.U, model.V, min(2 * k, cap), opts.seed + len(schedule), scale)
        k = min(2 * k, cap)
    report.k_schedule = schedule
    report.cap_reached = model.rank == cap
    report.wall_time = time.perf_counter() - t0
    return model, report


def lambda_max(
    P: np.ndarray,
    F: np.ndarray,
    loss: Loss = Loss(),
    kappa: float = 0.0,
    W: np.ndarray | None = None,
    tol: float = 1e-12,
    max_iters: int = 50000,
    seed: int = 0,
) -> float:
    """Smallest nuclear-norm weight at which theta = 0 is optimal.

    Equals the spectral norm of the smooth gradient at theta = 0, found
    by power iteration through matrix-vector products with P (the Mn x Hn
    gradient matrix is never formed).  The consistency term contributes
    nothing: the zero forecast matrix is block Hankel, so the distance
    gradient vanishes at 0 for any kappa.  For the squared l2 loss this
    is (2/N) ||P^T F||_2.
    """
    if not loss.differentiable:
        raise ValueError("lambda_max requires a differentiable loss (l1 is not supported)")
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    P = np.asarray(P, dtype=float)
    F = np.asarray(F, dtype=float)
    G0 = loss_grad(np.zeros_like(F), F, loss, W)
    if not G0.any():
        return 0.0
    rng = np.random.default_rng(seed)
    v = rng.normal(size=F.shape[1])
    v /= np.linalg.norm(v)
    sigma2 = 0.0
    residual = np.inf
    for _ in range(max_iters):
        w = G0.T @ (P @ (P.T @ (G0 @ v)))  # (G^T G) v
        sigma2 = float(v @ w)
        residual = float(np.linalg.norm(w - sigma2 * v))
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        v = w / nw
        if residual <= tol * max(sigma2, 1e-300):
            return float(np.sqrt(sigma2))
    raise NumericalError(
        f"power iteration did not converge in {max_iters} iterations "
        f"(residual {residual:.3e}, tolerance {tol * sigma2:.3e})"
    )


def _residuals_from_svd(
    U_theta: np.ndarray,
    sigma: np.ndarray,
    V_theta: np.ndarray,
    data: WindowedDataset,
    lam: float,
    kappa: float,
    loss: Loss,
    W: np.ndarray | None,
) -> tuple[float, float, float]:
    Fhat = ((data.P @ U_theta) * sigma[None, :]) @ V_theta.T
    _, Gf = _forecast_value_grad(Fhat, data.F, data.n, loss, W, kappa)
    G = data.P.T @ Gf
    r1 = max(0.0, _spectral_norm(G + lam * (U_theta @ V_theta.T)) - lam)
    r2 = float(np.linalg.norm(U_theta.T @ G + lam * V_theta.T))
    r3 = float(np.linalg.norm(G @ V_theta + lam * U_theta))
    return (r1, r2, r3)


def optimality_residuals(
    U: np.ndarray,
    V: np.ndarray,
    data: WindowedDataset,
    lam: float,
    kappa: float = 0.0,
    loss: Loss = Loss(),
    W: np.ndarray | None = None,
) -> tuple[float, float, float]:
    """Violations of the first-order conditions of the convex problem.

    With G the smooth-part gradient at theta = U V and theta = Ut S Vt^T
    the compact SVD, stationarity requires G = -lam * (Ut Vt^T + off),
    where off is orthogonal to the singular subspaces with spectral norm
    at most 1.  The reported triple is

        r1 = max(0, ||G + lam Ut Vt^T||_2 - lam)   (off-subspace bound)
        r2 = ||Ut^T G + lam Vt^T||_F               (left stationarity)
        r3 = ||G Vt + lam Ut||_F                   (right stationarity)

    all zero at an exact solution.  Diagnostics only; never used as a
    stopping rule.
    """
    if not loss.differentiable:
        raise ValueError("optimality residuals require a differentiable loss")
    _, _, (U_theta, sigma, V_theta) = reduce_rank(U, V)
    return _residuals_from_svd(U_theta, sigma, V_theta, data, lam, kappa, loss, W)


def svt_reference_solve(
    data: WindowedDataset,
    lam: float,
    kappa: float = 0.0,
    loss: Loss = Loss(),
    W: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iters: int = 100000,
) -> np.ndarray:
    """Reference solution of the convex problem by proximal gradient.

    Iterates gradient steps on the smooth part (loss plus consistency)
    followed by singular value soft-thresholding at step * lam, with a
    backtracking step size, Nesterov momentum, and a monotone restart.
    Stops when the relative objective change stays below tol.  This path
    shares no machinery with the factored solver, so agreement between
    the two certifies both.
    """
    if lam < 0 or kappa < 0:
        raise ValueError("lam and kappa must be nonnegative")
    P, F, n = data.P, data.F, data.n
    mcols, hcols = P.shape[1], F.shape[1]

    def smooth(theta):
        val, G = _forecast_value_grad(P @ theta, F, n, loss, W, kappa)
        return val, P.T @ G

    def prox(theta, step):
        Up, s, Vpt = np.linalg.svd(theta, full_matrices=False)
        s = np.maximum(s - step * lam, 0.0)
        return (Up * s[None, :]) @ Vpt, float(s.sum())

    theta = np.zeros((mcols, hcols))
    y = theta
    g_theta, _ = smooth(theta)
    obj = g_theta  # nuclear norm of 0 is 0
    t_mom = 1.0
    L = 1.0
    stall = 0
    for _ in range(max_iters):
        g_y, grad_y = smooth(y)
        while True:
            cand, nuc = prox(y - grad_y / L, 1.0 / L)
            diff = cand - y
            quad = g_y + float((grad_y * diff).sum()) + 0.5 * L * float((diff * diff).sum())
            g_cand, _ = smooth(cand)
            if g_cand <= quad + 1e-12 * max(1.0, abs(g_cand)):
                break
            L *= 2.0
            if L > 1e18:
                raise NumericalError("backtracking failed: Lipschitz estimate overflow")
        obj_cand = g_cand + lam * nuc
        if obj_cand > obj and np.any(y != theta):
            # momentum overshoot: restart from the last accepted iterate
            y = theta
            t_mom = 1.0
            continue
        change = abs(obj - obj_cand)
        stall = stall + 1 if change <= tol * max(1.0, abs(obj_cand)) else 0
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
        y = cand + ((t_mom - 1.0) / t_next) * (cand - theta)
        theta = cand
        obj = obj_cand
        t_mom = t_next
        L = max(L * 0.9, 1e-12)
        if stall >= 3:
            return theta
    err = NumericalError(
        f"proximal gradient did not converge in {max_iters} iterations "
        f"(objective {obj:.6e})"
    )
    err.theta = theta
    err.objective = obj
    raise err
