"""Synthetic data from a randomly generated linear state-space model.

The generator draws a stable latent transition matrix (diagonal entries
near one, small off-diagonal entries, rescaled to a target spectral
radius), a dense Gaussian readout matrix, and isotropic process and
measurement noise.  Sampling can start from the stationary state
distribution so the emitted series is stationary from the first step.

All randomness flows through numpy's default_rng (PCG64) seeded
explicitly, with a fixed draw order, so outputs are bitwise reproducible
for a given seed within this implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import StateSpaceModel, stationary_cov
from .core import TimeSeries


@dataclass(frozen=True)
class SimSpec:
    """Generator settings: dimensions, lengths, stability margin, noise scales."""

    n: int = 10
    r: int = 2
    T_train: int = 100
    T_test: int = 500
    spectral_radius: float = 0.98
    q_scale: float = 1.0
    r_scale: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.r < 1:
            raise ValueError("n and r must be >= 1")
        if self.T_train < 1 or self.T_test < 1:
            raise ValueError("T_train and T_test must be >= 1")
        if not 0.0 < self.spectral_radius < 1.0:
            raise ValueError("spectral_radius must be in (0, 1)")
        if self.q_scale < 0 or self.r_scale < 0:
            raise ValueError("noise scales must be nonnegative")


def gen_model(spec: SimSpec) -> StateSpaceModel:
    """Draws a random stable state-space model.

    A starts with N(1, 0.1^2) diagonal and N(0, 0.1^2) off-diagonal
    entries and is rescaled so its spectral radius equals
    spec.spectral_radius exactly (up to float rounding); C is standard
    normal; Q = q_scale * I and R = r_scale * I.  Draw order: A then C.
    """
    rng = np.random.default_rng(spec.seed)
    A = rng.normal(0.0, 0.1, size=(spec.r, spec.r))
    A[np.diag_indices(spec.r)] += 1.0
    C = rng.normal(0.0, 1.0, size=(spec.n, spec.r))
    rho = float(np.max(np.abs(np.linalg.eigvals(A))))
    if rho == 0.0:
        raise ValueError("degenerate transition draw with zero spectral radius")
    A *= spec.spectral_radius / rho
    return StateSpaceModel(
        A=A,
        C=C,
        Q=spec.q_scale * np.eye(spec.r),
        R=spec.r_scale * np.eye(spec.n),
    )


def _psd_sqrt(S: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(np.asarray(S, dtype=float))
    return V * np.sqrt(np.clip(w, 0.0, None))[None, :] @ V.T


def sample(
    model: StateSpaceModel, T: int, seed: int = 0, steady_start: bool = True
) -> tuple[TimeSeries, np.ndarray]:
    """Simulates T steps; returns (observed series, true latent states T x r).

    With steady_start the initial state is drawn from the stationary
    state distribution, so the output process is stationary; otherwise
    the initial state is zero.  Draw order: initial state, then all state
    noises, then all measurement noises.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    rng = np.random.default_rng(seed)
    r, n = model.r, model.n
    sq = _psd_sqrt(model.Q)
    sr = _psd_sqrt(model.R)
    z0_noise = rng.standard_normal(r)
    state_noise = rng.standard_normal((T - 1, r)) @ sq.T
    meas_noise = rng.standard_normal((T, n)) @ sr.T
    Z = np.empty((T, r))
    if steady_start:
        Pi = stationary_cov(model.A, model.Q)
        Z[0] = _psd_sqrt(Pi) @ z0_noise
    else:
        Z[0] = 0.0
    for t in range(T - 1):
        Z[t + 1] = model.A @ Z[t] + state_noise[t]
    X = Z @ model.C.T + meas_noise
    return TimeSeries(values=X), Z


def state_alignment(Z_hat: np.ndarray, Z_true: np.ndarray) -> tuple[np.ndarray, float]:
    """Best linear map from estimated to true latent trajectories.

    Solves min_S sum_t ||S zhat_t - z_t||^2 and returns (S, rms residual),
    where rms is the root mean squared per-step error after alignment.
    Estimated states are identified only up to an invertible linear map,
    so this is the natural figure of merit for state recovery.
    """
    Z_hat = np.asarray(Z_hat, dtype=float)
    Z_true = np.asarray(Z_true, dtype=float)
    if Z_hat.ndim != 2 or Z_true.ndim != 2 or Z_hat.shape[0] != Z_true.shape[0]:
        raise ValueError(
            f"trajectories must have matching rows, got {Z_hat.shape} and {Z_true.shape}"
        )
    B = np.linalg.lstsq(Z_hat, Z_true, rcond=None)[0]
    resid = Z_hat @ B - Z_true
    rms = float(np.linalg.norm(resid) / np.sqrt(Z_true.shape[0]))
    return B.T, rms
