"""Low-rank forecast matrix fitting.

The fitted object is a coefficient matrix theta (Mn x Hn) mapping a
flattened past window p to a flattened future forecast theta^T p.  The
target problem is

    minimize  (1/N) sum_i l(theta^T p_i - f_i)
              + lam * ||theta||_nuclear
              + kappa * inconsistency(P theta)

which is convex.  The production solver works on a factorization
theta = U V (U: Mn x k, V: k x Hn), replacing the nuclear norm with
(lam/2) (||U||_F^2 + ||V||_F^2); the variational form of the nuclear norm
makes the factored problem agree with the convex one at optimum once k is
at least the optimal rank.

Two engines fit the factors, chosen by the problem's type alone.  For
squared l2 at kappa = 0 with lam > 0, weighted by W = (a, b) or not, the
objective sees the data only through Gram statistics of the design, so
the fit alternates exact closed-form solves over V and U whose cost does
not depend on N (softImpute-ALS on the variational nuclear norm), and
stops on the KKT certificate of optimality_residuals, evaluated from the
same statistics.  Every other fit (kappa > 0, Huber, l1 through its
Huber smoothing, lam = 0) minimizes over all factors at once with
limited-memory BFGS, as in the Burer-Monteiro factored method, and stops
when the objective stalls between restarts (_stalled).

An independent proximal-gradient reference solver (singular value
soft-thresholding on the dense matrix) is included for certification.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
from scipy.optimize import minimize

from .core import WindowedDataset, _is_number
from .objective import (
    SQUARED_L2, Loss, Weights, _check_weights, _loss_value_grad, hankel_project, huber, loss_grad,
)

# a fit is converged, certified optimal, when max(r1, r2, r3) <= CERT_TOL * lam
CERT_TOL = 1e-6
# a sweep that lowers the objective by at most STALL_TOL relative has stalled
STALL_TOL = 1e-8
# a certificate costs more than a sweep, so the Gram path takes it only after
# sweeps 1, 1 + CERT_EVERY, 1 + 2 CERT_EVERY, ... and max_outer
CERT_EVERY = 5
# reduce_rank drops singular values at or below RANK_TOL times the largest
RANK_TOL = 1e-8


class NumericalError(RuntimeError):
    """An iterative routine failed to converge or produced non-finite values."""


@dataclass
class FitOptions:
    """Knobs for the factored solver.

    k: factor width (inner dimension), at least 1; fit_factored fits at k
        and rejects a k above min(Mn, Hn).  fit_auto_rank and aux_joint_fit
        start at k and widen from there, capped at the size of their design.
        A sweep column starts its first fit at k and each warm fit at twice
        the previous row's rank (see evaluation._sweep_chain).
    max_outer: maximum number of sweeps, at least 1.  A Gram-path sweep
        solves V then U; an L-BFGS sweep is one joint solve over
        [U; V; Phi], restarted from the last iterate.  The stopping rules
        are fixed (see FitReport); the Gram path checks its certificate
        after sweep 1, every CERT_EVERY sweeps after it, and sweep
        max_outer.  Each joint L-BFGS-B solve runs at history 10, gtol 1e-8
        and at most 1000 iterations; the Gram path's block solves are exact.
    seed: drives the random entries of the initial factors, at least 0.
    init: optional (U0, V0) warm start of shapes (Mn, k0) and (k0, Hn)
        with k0 <= k.  The fit starts from these columns widened to k by
        random ones from default_rng(seed), scaled so their forecast has
        ||F||_F (see _start); None is the k0 = 0 case, a fully random
        start.  Reduced factors keep singular values above RANK_TOL times
        the largest (see reduce_rank).
    """

    k: int = 20
    max_outer: int = 100
    seed: int = 0
    init: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        for name, least in (("k", 1), ("max_outer", 1), ("seed", 0)):
            value = getattr(self, name)
            if not _is_number(value, integer=True):
                raise ValueError(f"{name}={value!r} must be an integer")
            if value < least:
                raise ValueError(f"{name}={value} must be at least {least}")


@dataclass
class FitReport:
    """Convergence record for one fit.

    From fit_auto_rank and aux_joint_fit, iterations, sweeps and wall_time
    total every width in k_schedule, and cap_reached means the rank reached
    the cap on the width; the other fields are those of the last width's
    fit.  optimality_residuals (None for l1) is the engine's certificate
    (from Gram statistics on the Gram path) on the fitted design: [P, aux]
    for a joint aux fit, Phi's term for ridge; see optimality_residuals.

    converged means the KKT certificate: optimality_residuals is not None
    and max(r1, r2, r3) <= CERT_TOL * lam, on every engine; a fit that
    meets it at its zero start (see _fit_arrays) is theta = 0, 0 sweeps.
    An l1 fit has no certificate and reads False, as does a lam = 0 fit,
    whose scale CERT_TOL * lam is 0.  Where a fit stops is the engine's
    (see _gram_fit, _fit_arrays).  iterations counts one per Gram-path
    block solve, two per sweep, or the L-BFGS iterations, the zero start's
    included.  objective_trace holds the start and one entry per sweep.
    An l1 trace holds the objective of _smooth_l1's smoothing, which lies
    within Hn d / 2 below the l1 objective.

    The CLI's report.json holds every field, wall_time as wall_time_s.
    """

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

    Every model, fitted, loaded or built by hand, is checked on
    construction: integer n, M, H >= 1, real lam and kappa >= 0, the
    shapes above (r singular values, n means) and that every number is
    finite.  An empty V is read as the rank-0 V of shape (0, Hn), which
    JSON writes as [].
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
        for name, value in (("n", self.n), ("M", self.M), ("H", self.H),
                            ("lambda", self.lam), ("kappa", self.kappa)):
            if not _is_number(value, integer=name in ("n", "M", "H")):
                kind = "a real number" if name in ("lambda", "kappa") else "an integer"
                raise ValueError(f"model field {name} must be {kind}, got {value!r}")
        self.U, self.V, self.singular_values, self.means = (
            np.asarray(a, dtype=float) for a in (self.U, self.V, self.singular_values, self.means)
        )
        n, mn, hn = self.n, self.M * self.n, self.H * self.n
        if min(n, self.M, self.H) < 1 or self.lam < 0 or self.kappa < 0:
            raise ValueError(f"model has out-of-range scalars (n, M, H must be >= 1, lambda "
                             f"and kappa >= 0): n={n}, M={self.M}, H={self.H}, "
                             f"lambda={self.lam}, kappa={self.kappa}")
        if self.V.shape == (0,):
            self.V = self.V.reshape(0, hn)
        if self.U.ndim != 2 or self.U.shape[0] != mn or self.V.shape != (self.U.shape[1], hn):
            raise ValueError(f"factor shapes {self.U.shape} x {self.V.shape} do not match "
                             f"(Mn={mn}, Hn={hn})")
        if self.singular_values.shape != (self.rank,) or self.means.shape != (n,):
            raise ValueError("singular_values/means have wrong lengths")
        for name, value in (("lambda", self.lam), ("kappa", self.kappa), ("U", self.U),
                            ("V", self.V), ("singular_values", self.singular_values),
                            ("means", self.means)):
            if not np.isfinite(value).all():
                raise ValueError(f"model field {name} has a non-finite value")

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


def _svd(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """np.linalg.svd(A, full_matrices=False), by LAPACK's gesvd where gesdd fails on a finite A."""
    try:
        return np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError:
        if not np.isfinite(A).all():
            raise
        return scipy.linalg.svd(A, full_matrices=False, lapack_driver="gesvd", check_finite=False)


def reduce_rank(
    U: np.ndarray, V: np.ndarray
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Reduced, balanced factors of the product U V plus its SVD.

    Computes the compact SVD of theta = U V from one QR and one
    factor-sized SVD (never forming theta): with U = Q R and
    R V = Ua S Vt, theta = (Q Ua) S Vt.

    Singular values at or below RANK_TOL * max(S) are dropped.  Returns
    (U_r, V_r, (U_theta, sigma, V_theta)) with U_r = U_theta sqrt(sigma)
    and V_r = sqrt(sigma) V_theta^T, so U_r V_r = theta and the factors
    are balanced.
    """
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    if U.ndim != 2 or V.ndim != 2 or U.shape[1] != V.shape[0]:
        raise ValueError(f"incompatible factor shapes {U.shape} and {V.shape}")
    m, k = U.shape
    h = V.shape[1]
    if k == 0 or not (U.any() and V.any()):
        empty = np.zeros((0,))
        return np.zeros((m, 0)), np.zeros((0, h)), (np.zeros((m, 0)), empty, np.zeros((h, 0)))
    Q, Ru = np.linalg.qr(U)
    Ua, sa, Vat = _svd(Ru @ V)
    r = int(np.sum(sa > RANK_TOL * sa[0])) if sa[0] > 0 else 0
    U_theta, sa, V_theta = Q @ Ua[:, :r], sa[:r], Vat[:r].T
    root = np.sqrt(sa)
    return U_theta * root[None, :], (V_theta * root[None, :]).T, (U_theta, sa, V_theta)


def nuclear_norm(theta: np.ndarray) -> float:
    theta = np.asarray(theta, dtype=float)
    if theta.size == 0:
        return 0.0
    return float(np.linalg.svd(theta, compute_uv=False).sum())


def _spectral_norm(A: np.ndarray) -> float:
    # the largest eigenvalue of A's smaller Gram matrix is ||A||_2^2
    if A.size == 0:
        return 0.0
    gram = A.T @ A if A.shape[0] >= A.shape[1] else A @ A.T
    return math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))


def main_objective(
    theta: np.ndarray,
    data: WindowedDataset,
    lam: float,
    kappa: float = 0.0,
    loss: Loss = Loss(),
    W: Weights | None = None,
) -> float:
    """Value of the convex problem: loss + lam * nuclear + kappa * inconsistency."""
    val, _ = _forecast_value_grad(data.P @ theta, data.F, data.n, loss, W, kappa)
    return val + lam * nuclear_norm(theta)


def _forecast_value_grad(
    Fhat: np.ndarray,
    F: np.ndarray,
    n: int,
    loss: Loss,
    W: Weights | None,
    kappa: float,
) -> tuple[float, np.ndarray]:
    # smooth data terms and their gradient in Fhat
    val, G = _loss_value_grad(Fhat, F, loss, W)
    if kappa != 0.0:
        D = Fhat - hankel_project(Fhat, n)
        val += kappa * float((D * D).sum())
        G = G + (2.0 * kappa) * D
    return val, G


def _factored_value_grad(
    x: np.ndarray, P: np.ndarray, F: np.ndarray, n: int, k: int, lam: float, kappa: float,
    loss: Loss, W: Weights | None, R: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Factored objective and its gradient at x = [U; V; Phi], raveled.

    U is Mn x k and B = [V; Phi] is (k + p) x Hn, Phi the coefficients of
    the N x p ridge block R (p = 0 without one).  The value is the smooth part
    of _forecast_value_grad at Fhat = P U V + R Phi plus
    (lam/2)(||U||_F^2 + ||V||_F^2 + ||Phi||_F^2).
    """
    mcols, hcols = P.shape[1], F.shape[1]
    U = x[: mcols * k].reshape(mcols, k)
    B = x[mcols * k :].reshape(-1, hcols)
    PU = P @ U
    Z = np.hstack([PU, R]) if R.shape[1] else PU
    val, G = _forecast_value_grad(Z @ B, F, n, loss, W, kappa)
    grad = np.concatenate([(P.T @ (G @ B[:k].T)).ravel(), (Z.T @ G).ravel()])
    return val + 0.5 * lam * float(x @ x), grad + lam * x


def _smooth_l1(F: np.ndarray, W: Weights | None) -> tuple[Loss, Weights]:
    """The (loss, W) pair that stands in for l1 in the L-BFGS solve.

    With d = 1e-4 * (std(F) or 1) and c = 1/sqrt(2d), huber(c d) applied
    to c a_i b_j r_ij is |r| - d/2 where |r| > d and r^2 / (2d) inside, so
    the smoothed loss lies within Hn d / 2 below the l1 loss.  The returned
    weights are (c a, b), with a and b ones without W.
    """
    d = 1e-4 * (float(np.std(F)) or 1.0)
    c = 1.0 / math.sqrt(2.0 * d)
    a, b = (np.ones(F.shape[0]), np.ones(F.shape[1])) if W is None else _check_weights(W, F.shape)
    return huber(c * d), (c * a, b)


def _stalled(trace: list[float]) -> bool:
    """True when the last sweep lowered the objective by at most STALL_TOL relative."""
    return trace[-2] - trace[-1] <= STALL_TOL * max(abs(trace[-2]), 1e-300)


def _finite_start(obj: float) -> float:
    """obj, the objective at a fit's zero or random start; NumericalError if
    it is not finite, before a certificate or sweep runs on overflowed values."""
    if not np.isfinite(obj):
        raise NumericalError(f"objective is not finite at the initial point ({obj})")
    return obj


def _kkt_residuals(G, U_theta, V_theta, lam, gPhi, Phi, r1_gate=math.inf):
    """optimality_residuals' (r1, r2, r3) at the smooth gradient G in theta.

    The ridge block's coefficients Phi and their gradient gPhi, both p x Hn
    ((0, Hn) without one), join r2.  r1's spectral norm runs
    only once max(r2, r3) <= r1_gate and, for a finite gate, the lower
    bound ||A^T u|| / ||u|| on ||A||_2 (A = G + lam U_theta V_theta^T, u its
    largest column) is at most lam + r1_gate; r1 is inf otherwise, and NaN
    fails.  G and U_theta may share an orthonormal change of row basis.
    """
    r2 = math.hypot(float(np.linalg.norm(U_theta.T @ G + lam * V_theta.T)),
                    float(np.linalg.norm(gPhi + lam * Phi)))
    r3 = float(np.linalg.norm(G @ V_theta + lam * U_theta))
    r1 = math.inf
    if max(r2, r3) <= r1_gate:
        A = G + lam * (U_theta @ V_theta.T)
        u = A[:, np.argmax((A * A).sum(axis=0))]
        if r1_gate == math.inf or np.linalg.norm(A.T @ u) <= (lam + r1_gate) * np.linalg.norm(u):
            r1 = max(_spectral_norm(A) - lam, 0.0)
    return r1, r2, r3


def _gram_fit(
    P: np.ndarray, F: np.ndarray, R: np.ndarray,
    weights: tuple[np.ndarray, np.ndarray],
    U: np.ndarray, V: np.ndarray, lam: float, opts: FitOptions,
):
    """Exact alternating block solves on Gram statistics, stopped by the KKT certificate.

    With weights = (a, b) (both ones without W) the loss
    (1/N) ||D_a (P theta + R Phi - F) D_b||_F^2 sees the data only through
    [P, R]^T D_a^2 [P, R], [P, R]^T D_a^2 F and ||D_a F D_b||_F^2, formed
    once; the sweeps run in the eigenbasis of G = P^T D_a^2 P.  The V-step
    solves (b_j^2 Z^T D_a^2 Z + (N lam / 2) I) x_j = b_j^2 (Z^T D_a^2 F)_j,
    Z = [P U, R], for every column of [V; Phi] with one eigh; the U-step
    solves the Sylvester equation G U (V D_b^2 V^T) + (N lam / 2) U =
    (C - G_PR Phi) D_b^2 V^T with G's eigenbasis and one k x k eigh.
    _kkt_residuals' certificate is taken from the smooth gradient
    (2/N)(G theta + G_PR Phi - C) D_b^2: r2 and r3, then the spectral-norm
    r1 once those pass.  It is taken at the zero start (theta = 0, Phi0 =
    solve(G_RR, C_R), (0, Hn) when R has no columns; the sweeps start from
    Phi0), after sweep 1, every CERT_EVERY sweeps after it (1, 6, 11, ...
    at 5) and sweep max_outer.  The fit stops on it, up to
    CERT_EVERY - 1 sweeps after the first sweep that would certify.  On
    the same sweeps the objective stall (_stalled, over the last sweep)
    ends the fit only when the width binds, and a check that ends the fit
    takes r1 ungated.  Returns _fit_arrays' tuple.
    """
    a, b = weights
    N, mcols = P.shape
    k, hcols = V.shape
    X, F = np.hstack([P, R]) * a[:, None], F * a[:, None]
    S, CX = X.T @ X, X.T @ F
    f2, b2 = float(((F * b) ** 2).sum()), b * b
    g, Q = np.linalg.eigh(S[:mcols, :mcols])
    g = np.maximum(g, 0.0)
    # in G's eigenbasis G is diag(g), and a factor U is carried as Q^T U
    C, GPR = Q.T @ CX[:mcols], Q.T @ S[:mcols, mcols:]
    GRR, CR = S[mcols:, mcols:], CX[mcols:]
    p = GRR.shape[0]
    c, tol = 0.5 * N * lam, CERT_TOL * lam

    def normal(Ut):
        # Z^T D_a^2 Z and Z^T D_a^2 F for Z = [P U, R]
        K, Cz = Ut.T @ (g[:, None] * Ut), Ut.T @ C
        if p:
            KPR = Ut.T @ GPR
            K, Cz = np.block([[K, KPR], [KPR.T, GRR]]), np.vstack([Cz, CR])
        return K, Cz

    def solve(K, Cz):
        # every column j of (b_j^2 K + c I) B = b_j^2 Cz
        d, Qk = np.linalg.eigh(K)
        return Qk @ ((b2 / (b2 * np.maximum(d, 0.0)[:, None] + c)) * (Qk.T @ Cz))

    def objective(K, Cz, B, Ut):
        fit = float(((B * (K @ B - 2.0 * Cz)).sum(axis=0) * b2).sum()) + f2
        return fit / N + 0.5 * lam * (float((Ut * Ut).sum()) + float((B * B).sum()))

    def certificate(Uth, sigma, Vth, Phi, gate):
        # optimality_residuals' (r1, r2, r3) at Uth diag(sigma) Vth^T, in G's eigenbasis
        theta = (Uth * sigma) @ Vth.T
        Gt = (g[:, None] * theta - C + GPR @ Phi) * ((2.0 / N) * b2)
        gR = (2.0 / N) * (GPR.T @ theta + GRR @ Phi - CR) * b2
        return _kkt_residuals(Gt, Uth, Vth, lam, gR, Phi, r1_gate=gate)

    # the zero start: Phi alone at theta = 0, the fit if it certifies
    Phi = solve(GRR, CR)
    obj = _finite_start(objective(GRR, CR, Phi, np.zeros((0, 0))))
    residuals = certificate(np.zeros((mcols, 0)), np.zeros(0), np.zeros((hcols, 0)), Phi, tol)
    if max(residuals) <= tol:
        return reduce_rank(U[:, :0], V[:0]), Phi, ([obj], 0, 0), residuals

    def solve_u(B):
        V, Phi = B[:k], B[k:]
        Vb = V * b2
        rhs = (C - GPR @ Phi if p else C) @ Vb.T
        alpha, QA = np.linalg.eigh(Vb @ V.T)
        return ((rhs @ QA) / (g[:, None] * np.maximum(alpha, 0.0)[None, :] + c)) @ QA.T

    Ut, B = Q.T @ U, np.vstack([V, Phi])
    K, Cz = normal(Ut)
    trace = [_finite_start(objective(K, Cz, B, Ut))]
    for sweeps in range(1, opts.max_outer + 1):
        B = solve(K, Cz)
        Ut = solve_u(B)
        K, Cz = normal(Ut)
        obj = objective(K, Cz, B, Ut)
        trace.append(obj)
        if not np.isfinite(obj):
            raise NumericalError(f"objective became non-finite after sweep {sweeps}")
        if (sweeps - 1) % CERT_EVERY and sweeps < opts.max_outer:
            continue
        _, _, svd = reduce_rank(Ut, B[:k])
        last = sweeps == opts.max_outer or svd[1].size == k < min(mcols, hcols) and _stalled(trace)
        residuals = certificate(*svd, B[k:], math.inf if last else tol)
        if last or max(residuals) <= tol:
            break
    return reduce_rank(Q @ Ut, B[:k]), B[k:], (trace, 2 * sweeps, sweeps), residuals


def _start(P: np.ndarray, F: np.ndarray, opts: FitOptions) -> tuple[np.ndarray, np.ndarray]:
    """opts.init (U0, V0), width k0 (0 for None), widened to opts.k at the data's scale.

    The k - k0 random columns U_r and rows V_r come from default_rng(opts.seed),
    U's first, times s = sqrt(||F||_F / ||P U_r V_r||_F), so the block's forecast
    has F's Frobenius norm; s = 1 where that ratio is not finite and positive.
    """
    mcols, hcols, k = P.shape[1], F.shape[1], opts.k
    U0, V0 = opts.init if opts.init is not None else (np.zeros((mcols, 0)), np.zeros((0, hcols)))
    U0, V0 = np.asarray(U0, dtype=float), np.asarray(V0, dtype=float)
    k0 = U0.shape[1] if U0.ndim == 2 else -1
    if U0.shape != (mcols, k0) or V0.shape != (k0, hcols) or k0 > k:
        raise ValueError(f"warm start shapes {U0.shape}/{V0.shape} do not match "
                         f"({mcols}, k0)/(k0, {hcols}) with k0 <= {k}")
    rng = np.random.default_rng(opts.seed)
    Ur, Vr = rng.normal(size=(mcols, k - k0)), rng.normal(size=(k - k0, hcols))
    with np.errstate(all="ignore"):
        ratio = float(np.linalg.norm(F) / np.linalg.norm((P @ Ur) @ Vr))
    s = math.sqrt(ratio) if 0 < ratio < math.inf else 1.0
    return np.hstack([U0, s * Ur]), np.vstack([V0, s * Vr])


def _fit_arrays(
    P: np.ndarray, F: np.ndarray, n: int, lam: float, kappa: float, loss: Loss,
    W: Weights | None, opts: FitOptions, R: np.ndarray,
):
    """Fits the factored objective at width k; returns the finished fit.

    Squared l2 at kappa = 0 with lam > 0 runs _gram_fit's exact alternating
    solves, weighted or not; the route reads the problem's type, never W's
    values.  Every other fit minimizes _factored_value_grad over all of
    x = [U; V; Phi]: a sweep is one L-BFGS-B solve restarted from the last
    iterate, and the fit ends once a sweep lowers the objective by at most
    STALL_TOL relative (_stalled).
    l1 is swapped for _smooth_l1's smoothing at entry.  Both engines share
    the validation, the initial factors (_start) and the zero start: before
    sweep 1 the engine fits Phi alone at theta = 0 (_gram_fit in closed
    form; here the k = 0 L-BFGS solve, when R has columns), refuses a
    non-finite objective there (_finite_start), then takes the KKT
    certificate.  If max(r1, r2, r3) <= CERT_TOL * lam, theta = 0 with that
    Phi is the fit: 0 sweeps, trace [its objective]; with p = 0, that is
    lam >= lambda_max / (1 + CERT_TOL).

    R (N x p, p >= 0; N x 0 for a plain fit) holds regressors outside the
    factorization: the forecast is P U V + R Phi, and their coefficients
    Phi (p x Hn) carry the ridge penalty (lam/2) ||Phi||_F^2.  The sweeps
    start from the zero start's Phi; the Gram path solves it jointly with V
    as one block B = [V; Phi] against the design Z = [P U, R], and the
    L-BFGS path with U and V.  Returns (reduce_rank(U, V) of the fit, Phi
    (p x Hn), (trace, inner iterations, sweeps), residuals): the certificate
    the fit ends on, None for l1, from _gram_fit's statistics or the data.
    """
    N, mcols = P.shape
    hcols, p, k = F.shape[1], R.shape[1], opts.k
    if not 1 <= k <= min(mcols, hcols):
        raise ValueError(f"k={k} must be in [1, min({mcols}, {hcols})]")
    if not (0 <= lam < math.inf and 0 <= kappa < math.inf):
        raise ValueError(f"lam and kappa must be finite and nonnegative, got {lam}, {kappa}")

    U, V = _start(P, F, opts)
    certify = loss.differentiable
    if not certify:
        loss, W = _smooth_l1(F, W)

    # W = (a, b), or no W, keeps squared l2 at kappa = 0 a function of Gram statistics
    weights = None
    if loss.kind == SQUARED_L2 and kappa == 0.0 and lam > 0:
        weights = (np.ones(N), np.ones(hcols)) if W is None else _check_weights(W, F.shape)

    if weights is not None:
        return _gram_fit(P, F, R, weights, U, V, lam, opts)

    lbfgs_opts = {"maxcor": 10, "maxiter": 1000, "gtol": 1e-8, "ftol": 1e-16}
    # the zero start: Phi alone at theta = 0 (the k = 0 solve), the fit if it certifies
    zero_args, tol = (P, F, n, 0, lam, kappa, loss, W, R), CERT_TOL * lam
    Phi, total_iters = np.zeros((p, hcols)), 0
    if p:
        res = minimize(_factored_value_grad, Phi.ravel(), args=zero_args, jac=True,
                       method="L-BFGS-B", options=lbfgs_opts)
        Phi, total_iters = res.x.reshape(p, hcols), int(res.nit)
    obj = _finite_start(_factored_value_grad(Phi.ravel(), *zero_args)[0])
    empty = (np.zeros((mcols, 0)), np.zeros(0), np.zeros((hcols, 0)))
    residuals = _residuals_from_svd(*empty, P, F, n, lam, kappa, loss, W, R, Phi, tol)
    if max(residuals) <= tol:
        return (reduce_rank(U[:, :0], V[:0]), Phi, ([obj], total_iters, 0),
                residuals if certify else None)

    args = (P, F, n, k, lam, kappa, loss, W, R)
    x = np.concatenate([U.ravel(), V.ravel(), Phi.ravel()])
    trace = [_finite_start(_factored_value_grad(x, *args)[0])]
    for sweeps in range(1, opts.max_outer + 1):
        res = minimize(_factored_value_grad, x, args=args, jac=True, method="L-BFGS-B",
                       options=lbfgs_opts)
        x, obj = res.x, float(res.fun)
        total_iters += int(res.nit)
        if not np.isfinite(obj):
            raise NumericalError(f"objective became non-finite after sweep {sweeps}")
        trace.append(obj)
        if _stalled(trace):
            break
    B = x[mcols * k :].reshape(k + p, hcols)
    fit, Phi = reduce_rank(x[: mcols * k].reshape(mcols, k), B[:k]), B[k:]
    residuals = (_residuals_from_svd(*fit[2], P, F, n, lam, kappa, loss, W, R, Phi)
                 if certify else None)
    return fit, Phi, (trace, total_iters, sweeps), residuals


def _fit_design(
    P: np.ndarray, data: WindowedDataset, lam: float, kappa: float, loss: Loss,
    W: Weights | None, opts: FitOptions, means: np.ndarray | None, R: np.ndarray,
) -> tuple[tuple[LowRankForecaster, np.ndarray], tuple[np.ndarray, np.ndarray], FitReport]:
    """Fits the design P to data.F at width opts.k; returns ((model, Phi), (U, V), report).

    P is data.P, or data.P with aux columns appended inside the factorization:
    the stacked [theta; Phi] is then split, theta's rows re-reduced as the
    model.  R is _fit_arrays' N x p ridge block.  (U, V) are the reduced
    factors of P's fit, stacked ones included, as _widen reads them.  The
    report's residuals are the engine's certificate (see _fit_arrays).
    """
    t0 = time.perf_counter()
    (Ur, Vr, (_, sigma, _)), Phi, (trace, iters, sweeps), residuals = _fit_arrays(
        P, data.F, data.n, lam, kappa, loss, W, opts, R
    )
    mn, design = data.P.shape[1], (Ur, Vr)
    if P.shape[1] > mn:
        # sigma belongs to the stacked [theta; Phi]; re-reduce theta's rows alone
        Phi = Ur[mn:] @ Vr
        Ur, Vr, (_, sigma, _) = reduce_rank(Ur[:mn], Vr)
    model = LowRankForecaster(
        U=Ur, V=Vr, singular_values=sigma, n=data.n, M=data.M, H=data.H,
        lam=lam, kappa=kappa, loss=loss,
        means=np.zeros(data.n) if means is None else means,
    )
    report = FitReport(
        objective_trace=trace, final_objective=trace[-1], rank=model.rank,
        optimality_residuals=residuals, iterations=iters, sweeps=sweeps,
        converged=residuals is not None and max(residuals) <= CERT_TOL * lam,
        wall_time=time.perf_counter() - t0, k_schedule=[opts.k],
    )
    return (model, Phi), design, report


def _widen(fit, opts: FitOptions, cap: int):
    """fit_auto_rank's width loop for every fit; fit(opts) returns _fit_design's triple."""
    k = opts.k
    if opts.init is not None and np.ndim(opts.init[0]) == 2:
        k = max(k, np.shape(opts.init[0])[1])  # a warm start is never narrowed
    k, step, reports, t0 = min(k, cap), opts, [], time.perf_counter()
    while True:
        result, (U, V), report = fit(replace(step, k=k))  # (U, V): reduced design factors
        reports.append(report)
        if U.shape[1] < k or k == cap or report.converged:
            break
        step = replace(opts, init=(U, V), seed=opts.seed + len(reports))
        k = min(2 * k, cap)
    return result, replace(
        report, iterations=sum(r.iterations for r in reports),
        sweeps=sum(r.sweeps for r in reports), k_schedule=[r.k_schedule[0] for r in reports],
        cap_reached=U.shape[1] == cap, wall_time=time.perf_counter() - t0)


def fit_factored(
    data: WindowedDataset,
    lam: float,
    kappa: float = 0.0,
    loss: Loss = Loss(),
    W: Weights | None = None,
    opts: FitOptions | None = None,
    means: np.ndarray | None = None,
) -> tuple[LowRankForecaster, FitReport]:
    """Fits factors of a fixed width k by sweeps.

    On the Gram path a sweep solves the (convex) subproblem in V with U
    fixed, then the one in U with V fixed, in closed form; elsewhere it is
    one L-BFGS solve over all factors (see _fit_arrays).  The objective
    trace never increases.  The returned model carries the reduced,
    balanced factors.  Deterministic given opts.seed.
    """
    (model, _), _, report = _fit_design(data.P, data, lam, kappa, loss, W, opts or FitOptions(),
                                        means, np.zeros((data.N, 0)))
    return model, report


def fit_auto_rank(
    data: WindowedDataset,
    lam: float,
    kappa: float = 0.0,
    loss: Loss = Loss(),
    W: Weights | None = None,
    opts: FitOptions | None = None,
    means: np.ndarray | None = None,
) -> tuple[LowRankForecaster, FitReport]:
    """fit_factored with automatic factor-width escalation.

    Starts at opts.k, or at the width of an opts.init warm start if that
    is wider, capped at min(Mn, Hn).  If the reduced rank comes back equal
    to the factor width, the width is doubled (still capped) and the fit
    restarts warm from the previous factors, widened with fresh random
    columns, since the solution may be rank-limited by k; a converged fit
    is optimal for the convex problem at any width and is not widened.  The
    report lists the widths tried and counts the work of all of them (see
    FitReport); cap_reached flags an undecidable rank at the dimension cap.
    aux_joint_fit widens by the same loop, _widen.
    """

    def fit(step):
        model, report = fit_factored(data, lam, kappa, loss, W, step, means)
        return model, (model.U, model.V), report

    return _widen(fit, opts or FitOptions(), min(data.P.shape[1], data.F.shape[1]))


def lambda_max(
    P: np.ndarray,
    F: np.ndarray,
    loss: Loss = Loss(),
    W: Weights | None = None,
) -> float:
    """Smallest nuclear-norm weight at which theta = 0 is optimal.

    Equals the spectral norm of the smooth gradient at theta = 0, found
    by power iteration through matrix-vector products with P (the Mn x Hn
    gradient matrix is never formed), or densely if near-tied top singular
    values stall it.  The consistency term contributes nothing: the zero
    forecast matrix is block Hankel, so the distance gradient vanishes at
    0 for any kappa, so the bound takes no kappa.
    For the squared l2 loss this is (2/N) ||P^T F||_2.  For l1 the
    gradient is the subgradient G0 = loss_grad(0, F, l1, W), 0 where
    a_i b_j F_ij is 0: ||P^T G0||_2 is exact when no entry is 0, and an
    upper bound on the threshold otherwise.  It scales alpha; no fit calls it.
    """
    tol, max_iters = 1e-12, 50000
    P = np.asarray(P, dtype=float)
    F = np.asarray(F, dtype=float)
    G0 = loss_grad(np.zeros_like(F), F, loss, W)
    if not G0.any():
        return 0.0
    rng = np.random.default_rng(0)
    v = rng.normal(size=F.shape[1])
    v /= np.linalg.norm(v)
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
    # near-tied top singular values stall the iteration; take the dense norm
    return _spectral_norm(P.T @ G0)


def _residuals_from_svd(
    U_theta: np.ndarray, sigma: np.ndarray, V_theta: np.ndarray,
    P: np.ndarray, F: np.ndarray, n: int, lam: float, kappa: float, loss: Loss,
    W: Weights | None, R: np.ndarray, Phi: np.ndarray, r1_gate: float = math.inf,
) -> tuple[float, float, float]:
    # the forecast adds the ridge block's R Phi (N x p times p x Hn, p >= 0),
    # and Phi's condition joins r2
    Fhat = ((P @ U_theta) * sigma[None, :]) @ V_theta.T + R @ Phi
    _, Gf = _forecast_value_grad(Fhat, F, n, loss, W, kappa)
    return _kkt_residuals(P.T @ Gf, U_theta, V_theta, lam, R.T @ Gf, Phi, r1_gate)


def optimality_residuals(
    U: np.ndarray,
    V: np.ndarray,
    data: WindowedDataset,
    lam: float,
    kappa: float = 0.0,
    loss: Loss = Loss(),
    W: Weights | None = None,
) -> tuple[float, float, float]:
    """Violations of the first-order conditions of the convex problem.

    With G the smooth-part gradient at theta = U V and theta = Ut S Vt^T
    the compact SVD, stationarity requires G = -lam * (Ut Vt^T + off),
    where off is orthogonal to the singular subspaces with spectral norm
    at most 1.  The reported triple is

        r1 = max(0, ||G + lam Ut Vt^T||_2 - lam)   (off-subspace bound)
        r2 = ||Ut^T G + lam Vt^T||_F               (left stationarity)
        r3 = ||G Vt + lam Ut||_F                   (right stationarity)

    all zero at an exact solution.  A ridge aux fit's report (forecast
    P theta + R Phi, Phi solved in the V block) has r2 = hypot(r2,
    ||R^T Gf + lam Phi||_F), Gf the forecast gradient.  Every kept
    singular value counts as support, so a direction that only decays
    toward 0 reads as uncertified until reduce_rank drops it.  A FitReport
    holds this triple as its engine took it, from Gram statistics on the
    Gram path (see _fit_arrays); this is the independent check on the data.
    """
    if not loss.differentiable:
        raise ValueError("optimality residuals require a differentiable loss")
    _, _, (U_theta, sigma, V_theta) = reduce_rank(U, V)
    return _residuals_from_svd(U_theta, sigma, V_theta, data.P, data.F, data.n, lam, kappa,
                               loss, W, np.zeros((data.N, 0)), np.zeros((0, data.F.shape[1])))


def svt_reference_solve(
    data: WindowedDataset,
    lam: float,
    kappa: float = 0.0,
    loss: Loss = Loss(),
    W: Weights | None = None,
    tol: float = 1e-8,
    max_iters: int = 100000,
) -> np.ndarray:
    """Reference solution of the convex problem by proximal gradient.

    Iterates gradient steps on the smooth part (loss plus consistency)
    followed by singular value soft-thresholding at step * lam, with a
    backtracking step size, Nesterov momentum, and a monotone restart.
    Stops when the relative objective change stays below tol.  It shares
    one piece with the factored solver: the smooth term and its gradient
    come from _forecast_value_grad, the evaluator _factored_value_grad
    also calls, and acceptance check C1 tests that evaluator's gradient against
    central differences on its own.  Iterates, step rule and stopping rule
    are separate, so agreement between the two paths certifies the rest.
    """
    if not (0 <= lam < math.inf and 0 <= kappa < math.inf):
        raise ValueError(f"lam and kappa must be finite and nonnegative, got {lam}, {kappa}")
    P, F, n = data.P, data.F, data.n
    mcols, hcols = P.shape[1], F.shape[1]

    def smooth(theta):
        val, G = _forecast_value_grad(P @ theta, F, n, loss, W, kappa)
        return val, P.T @ G

    def prox(theta, step):
        Up, s, Vpt = _svd(theta)
        s = np.maximum(s - step * lam, 0.0)
        return (Up * s[None, :]) @ Vpt, float(s.sum())

    theta = y = np.zeros((mcols, hcols))
    obj, _ = smooth(theta)  # nuclear norm of 0 is 0
    t_mom, L, stall = 1.0, 1.0, 0
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
        theta, obj, t_mom = cand, obj_cand, t_next
        L = max(L * 0.9, 1e-12)
        if stall >= 3:
            return theta
    err = NumericalError(f"proximal gradient did not converge in {max_iters} iterations "
                         f"(objective {obj:.6e})")
    err.theta = theta
    err.objective = obj
    raise err
