"""Loss functions, forecast-consistency penalty, and data weights.

The training loss is the average of a per-window penalty applied to the
forecast residual matrix Fhat - F (N x Hn).  Three penalties are supported:
squared Euclidean, absolute (l1), and elementwise Huber.  Optional
nonnegative weights W = (a, b), a over windows and b over forecast columns,
scale residual entry (i, j) by a_i b_j inside the penalty.

The consistency penalty measures how far a forecast matrix is from being
block Hankel: forecasts of the same future value made from different
origins should agree.  It equals the squared Frobenius distance from Fhat
to the set of block-Hankel matrices; the projection onto that set replaces
every width-n block by the mean of the blocks on its anti-diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _is_number

SQUARED_L2 = "squared_l2"
L1 = "l1"
HUBER = "huber"
_KINDS = (SQUARED_L2, L1, HUBER)
Weights = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class Loss:
    """A per-window penalty: squared l2, l1, or Huber with a finite threshold delta > 0.

    The Huber penalty is elementwise u^2 for |u| <= delta and
    delta * (2|u| - delta) beyond, so it is continuously differentiable.
    """

    kind: str = SQUARED_L2
    delta: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}, expected one of {_KINDS}")
        if self.kind == HUBER:
            if not (_is_number(self.delta) and 0 < self.delta < np.inf):
                raise ValueError(f"huber loss requires a real delta > 0, got {self.delta!r}")
        elif self.delta is not None:
            raise ValueError(f"delta is only meaningful for huber loss, got kind={self.kind!r}")

    @property
    def differentiable(self) -> bool:
        return self.kind != L1


def huber(delta: float = 1.0) -> Loss:
    return Loss(kind=HUBER, delta=delta)


def _check_weights(W: Weights, shape: tuple[int, int]) -> Weights:
    """W = (a, b) as two float vectors of lengths shape = (N, Hn)."""
    # an N x Hn ndarray is refused whole, even one of two rows
    pair = isinstance(W, (tuple, list)) and len(W) == 2
    a, b = (np.asarray(v, dtype=float) for v in W) if pair else (np.empty((0, 0)),) * 2
    if (a.shape, b.shape) != ((shape[0],), (shape[1],)):
        raise ValueError(f"weights must be a pair (a, b) of shapes ({shape[0]},) and ({shape[1]},)")
    if not all(0.0 <= v.min() <= v.max() < np.inf for v in (a, b)):  # NaN fails every comparison
        raise ValueError("weights must be finite and nonnegative")
    return a, b


def _elementwise_penalty(U: np.ndarray, loss: Loss) -> np.ndarray:
    # U is the caller's own residual array: squared l2 squares it in place,
    # the same values with no second array of its size
    if loss.kind == SQUARED_L2:
        return np.multiply(U, U, out=U)
    if loss.kind == L1:
        return np.abs(U)
    d = loss.delta
    a = np.abs(U)
    return np.where(a <= d, U * U, d * (2.0 * a - d))


def _elementwise_penalty_grad(U: np.ndarray, loss: Loss) -> np.ndarray:
    if loss.kind == SQUARED_L2:
        return 2.0 * U
    if loss.kind == L1:
        # subgradient, 0 at the kink
        return np.sign(U)
    d = loss.delta
    return np.where(np.abs(U) <= d, 2.0 * U, 2.0 * d * np.sign(U))


def _loss_value_grad(
    Fhat: np.ndarray, F: np.ndarray, loss: Loss, W: Weights | None
) -> tuple[float, np.ndarray]:
    # one residual and one weight check for both halves; the gradient is
    # taken before the squared l2 penalty squares the residual in place
    Fhat = np.asarray(Fhat, dtype=float)
    F = np.asarray(F, dtype=float)
    if Fhat.shape != F.shape:
        raise ValueError(f"shape mismatch: Fhat {Fhat.shape} vs F {F.shape}")
    R = Fhat - F
    N = R.shape[0]
    if W is not None:
        a, b = _check_weights(W, R.shape)
        R *= a[:, None]
        R *= b
    G = _elementwise_penalty_grad(R, loss)
    G = G / N if W is None else a[:, None] * G * b / N
    return float(_elementwise_penalty(R, loss).sum() / N), G


def loss_value(
    Fhat: np.ndarray, F: np.ndarray, loss: Loss = Loss(), W: Weights | None = None
) -> float:
    """Average per-window penalty of the residual, (1/N) sum_i l(row_i).

    With weights W = (a, b), the penalty is applied to the residual with
    entry (i, j) scaled by a_i b_j.
    """
    return _loss_value_grad(Fhat, F, loss, W)[0]


def loss_grad(
    Fhat: np.ndarray, F: np.ndarray, loss: Loss = Loss(), W: Weights | None = None
) -> np.ndarray:
    """Gradient of loss_value with respect to Fhat (N x Hn)."""
    return _loss_value_grad(Fhat, F, loss, W)[1]


def hankel_project(Z: np.ndarray, n: int) -> np.ndarray:
    """Orthogonal (Frobenius) projection onto block-Hankel matrices.

    Each width-n block of Z is replaced by the mean of the blocks on its
    anti-diagonal: writing Z as N x H x n, blocks (i, h) and (i', h') lie on
    the same anti-diagonal when i + h = i' + h'.  Cost is O(N H n).
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2:
        raise ValueError("Z must be 2-D")
    N, cols = Z.shape
    if n < 1 or cols % n != 0:
        raise ValueError(f"block width n={n} must divide column count {cols}")
    H = cols // n
    Zb = Z.reshape(N, H, n)
    ndiag = N + H - 1
    # anchor each anti-diagonal at its first block and average deviations,
    # so exactly block-Hankel inputs are fixed bitwise (deviations are 0.0)
    anchors = np.empty((ndiag, n))
    anchors[:N] = Zb[:, 0, :]
    anchors[N:] = Zb[N - 1, 1:, :]
    sums = np.zeros((ndiag, n))
    for h in range(H):
        sums[h : h + N] += Zb[:, h, :] - anchors[h : h + N]
    # number of blocks on anti-diagonal d
    counts = np.minimum(np.minimum(np.arange(1, ndiag + 1), np.arange(ndiag, 0, -1)),
                        min(N, H))
    means = anchors + sums / counts[:, None]
    out = np.empty_like(Zb)
    for h in range(H):
        out[:, h, :] = means[h : h + N]
    return out.reshape(N, cols)


def inconsistency(Z: np.ndarray, n: int) -> float:
    """Squared Frobenius distance from Z to the block-Hankel set.

    Zero exactly when forecasts of the same value from different origins
    agree, i.e. when Z is block Hankel.
    """
    Z = np.asarray(Z, dtype=float)
    # Z - project(Z) and its square are formed in the projection's fresh output
    D = hankel_project(Z, n)
    np.subtract(Z, D, out=D)
    return float(np.multiply(D, D, out=D).sum())


def inconsistency_grad(Z: np.ndarray, n: int) -> np.ndarray:
    """Gradient of inconsistency with respect to Z: 2 (Z - project(Z))."""
    Z = np.asarray(Z, dtype=float)
    return 2.0 * (Z - hankel_project(Z, n))


def build_weights(h_t: float, h_tau: float, w_col: np.ndarray, N: int, H: int) -> Weights:
    """Exponential recency weights (a, b) for the N x Hn residual matrix.

    Window i (0-indexed) predicts h = 1..H steps past its origin; its block
    at horizon h targets the step N - 1 - i + H - h before the last target
    of the last window (the end of the source series).  Entry j of that
    block is weighted a_i b_(h, j), with base_x = exp(log(0.5) / h_x):

        a_i      = base_tau ** (N - 1 - i)                        (window recency)
        b_(h, j) = base_t ** h * base_tau ** (H - h) * w_col[j]   (horizon, coordinate)

    so h_t and h_tau are half-lives measured in steps.  w_col must be
    finite and nonnegative.
    """
    if not (h_t > 0 and h_tau > 0):
        raise ValueError(f"half-lives must be positive, got h_t={h_t}, h_tau={h_tau}")
    if N < 1 or H < 1:
        raise ValueError("N and H must be >= 1")
    w_col = np.asarray(w_col, dtype=float).reshape(-1)
    if not np.all((w_col >= 0) & (w_col < np.inf)):
        raise ValueError(f"w_col must be finite and nonnegative, got {w_col.tolist()}")
    base_t = np.exp(np.log(0.5) / h_t)
    base_tau = np.exp(np.log(0.5) / h_tau)
    horizons = np.arange(1, H + 1)
    b = (base_t ** horizons * base_tau ** (H - horizons))[:, None] * w_col[None, :]
    return base_tau ** (N - 1 - np.arange(N)), b.ravel()
