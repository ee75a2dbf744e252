"""Auxiliary features: de-trending, seasonal regressors, latent dynamics.

Known exogenous signals enter in two ways.  De-trending regresses the
series on per-time feature vectors and forecasts the residual, adding the
fitted baseline back afterwards.  Joint fitting augments each past window
with the feature vector of its origin so a separate coefficient block Phi
is learned alongside the low-rank forecast matrix; the nuclear-norm
penalty can either cover the stacked block matrix or leave Phi under a
plain ridge penalty.  Both run the solver's one alternating engine: the
stacked matrix as wider factors, the ridge-penalized Phi as its
unfactored regressor block, solved together with V in each sweep.

A fitted low-rank model also exposes simple latent dynamics: regressing
successive encoded states on each other gives a one-step linear system
usable for interpretation or simulation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .baselines import _chol_solve, _spd_cholesky
from .core import TimeSeries, WindowedDataset
from .objective import Loss
from .solver import FitOptions, FitReport, LowRankForecaster, _fit_arrays, reduce_rank


@dataclass(frozen=True)
class FeatureSpec:
    """Deterministic time features evaluated on an integer time index.

    periods: one sin/cos column pair per period (in index steps);
    weekday: append a binary flag, 1 when (t // hours_per_day) mod
        days_per_week falls on the first five days;
    products: append all ordered pairwise products of the base columns
        (including squares), giving base + base^2 columns in total.
    """

    periods: tuple[float, ...] = ()
    weekday: bool = False
    products: bool = False
    hours_per_day: int = 24
    days_per_week: int = 7

    def __post_init__(self):
        object.__setattr__(self, "periods", tuple(float(p) for p in self.periods))
        if any(p <= 0 for p in self.periods):
            raise ValueError("periods must be positive")
        if not self.periods and not self.weekday:
            raise ValueError("feature spec is empty")

    @property
    def base_columns(self) -> int:
        return 2 * len(self.periods) + (1 if self.weekday else 0)

    @property
    def columns(self) -> int:
        b = self.base_columns
        return b + b * b if self.products else b

    def to_json(self) -> dict:
        return {
            "periods": list(self.periods),
            "weekday": self.weekday,
            "products": self.products,
            "hours_per_day": self.hours_per_day,
            "days_per_week": self.days_per_week,
        }

    @staticmethod
    def from_json(obj: dict) -> "FeatureSpec":
        return FeatureSpec(
            periods=tuple(obj.get("periods", ())),
            weekday=bool(obj.get("weekday", False)),
            products=bool(obj.get("products", False)),
            hours_per_day=int(obj.get("hours_per_day", 24)),
            days_per_week=int(obj.get("days_per_week", 7)),
        )


def time_features(t_index: np.ndarray, spec: FeatureSpec) -> np.ndarray:
    """Feature rows for the given integer times, one row per time."""
    t = np.asarray(t_index, dtype=float).reshape(-1)
    cols = []
    for p in spec.periods:
        ang = 2.0 * np.pi * t / p
        cols.append(np.sin(ang))
        cols.append(np.cos(ang))
    if spec.weekday:
        day = (np.asarray(t_index).astype(int) // spec.hours_per_day) % spec.days_per_week
        cols.append((day < 5).astype(float))
    base = np.column_stack(cols)
    if not spec.products:
        return base
    prod = base[:, :, None] * base[:, None, :]
    return np.hstack([base, prod.reshape(base.shape[0], -1)])


@dataclass
class TrendModel:
    """A per-time linear baseline x_t ~ S a_t for feature rows a_t."""

    S: np.ndarray
    lam: float = 0.0
    features: FeatureSpec | None = None

    def __post_init__(self):
        self.S = np.asarray(self.S, dtype=float)
        if self.S.ndim != 2:
            raise ValueError("S must be 2-D (n x p)")


def _aux_rows(series: TimeSeries, trend_or_spec, aux: np.ndarray | None) -> np.ndarray:
    spec = trend_or_spec.features if isinstance(trend_or_spec, TrendModel) else trend_or_spec
    if aux is not None:
        aux = np.asarray(aux, dtype=float)
        if aux.shape[0] != series.T:
            raise ValueError(f"aux has {aux.shape[0]} rows for a series of length {series.T}")
        return aux
    if spec is None:
        raise ValueError("no feature spec stored; pass aux rows explicitly")
    t_index = series.t0 + np.arange(series.T)
    return time_features(t_index, spec)


def detrend_fit(
    series: TimeSeries | np.ndarray,
    aux: np.ndarray | None = None,
    lam: float = 0.0,
    features: FeatureSpec | None = None,
) -> TrendModel:
    """Least-squares baseline fit of the series on aux rows (ridge if lam > 0).

    Pass either an explicit T x p aux matrix or a FeatureSpec to evaluate
    on the series' time index.  The p x p normal equations must be
    nonsingular when lam = 0.
    """
    if not isinstance(series, TimeSeries):
        series = TimeSeries(series)
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    A = _aux_rows(series, features, aux)
    G = A.T @ A + series.T * lam * np.eye(A.shape[1])
    chol = _spd_cholesky(G, "aux features are rank deficient at lam=0; pass lam > 0")
    St = _chol_solve(chol, A.T @ series.values)
    return TrendModel(S=St.T, lam=lam, features=features)


def detrend_apply(
    series: TimeSeries | np.ndarray, trend: TrendModel, aux: np.ndarray | None = None
) -> TimeSeries:
    """Residual series x_t - S a_t."""
    if not isinstance(series, TimeSeries):
        series = TimeSeries(series)
    A = _aux_rows(series, trend, aux)
    return TimeSeries(
        values=series.values - A @ trend.S.T, names=series.names, t0=series.t0
    )


def retrend(
    forecast_values: np.ndarray, trend: TrendModel, aux_future: np.ndarray
) -> np.ndarray:
    """Adds the fitted baseline back onto residual forecasts.

    Accepts either H x n rows or a flat length-Hn vector (row-major
    blocks); the output keeps the input's shape.
    """
    forecast_values = np.asarray(forecast_values, dtype=float)
    aux_future = np.asarray(aux_future, dtype=float)
    n = trend.S.shape[0]
    flat = forecast_values.ndim == 1
    rows = forecast_values.reshape(-1, n) if flat else forecast_values
    if aux_future.shape[0] != rows.shape[0]:
        raise ValueError("need one aux row per forecast row")
    out = rows + aux_future @ trend.S.T
    return out.ravel() if flat else out


def latent_ar_fit(Z: np.ndarray, jitter: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """One-step linear dynamics of an encoded state sequence.

    Least squares of z_{t+1} on z_t; returns (A, residual covariance).
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[0] < 2:
        raise ValueError("need a T x r state sequence with T >= 2")
    if jitter < 0:
        raise ValueError("jitter must be nonnegative")
    X, Y = Z[:-1], Z[1:]
    G = X.T @ X + jitter * np.eye(Z.shape[1])
    chol = _spd_cholesky(G, "state regression is singular; pass jitter > 0")
    B = _chol_solve(chol, X.T @ Y)
    resid = Y - X @ B
    W = resid.T @ resid / X.shape[0]
    return B.T, W


def aux_joint_fit(
    data: WindowedDataset,
    aux: np.ndarray,
    lam: float,
    kappa: float = 0.0,
    loss: Loss = Loss(),
    W: np.ndarray | None = None,
    opts: FitOptions | None = None,
    joint_nuclear: bool = True,
    means: np.ndarray | None = None,
) -> tuple[LowRankForecaster, np.ndarray, FitReport]:
    """Fits forecasts from past windows plus per-window aux features.

    The model is Fhat = P theta + aux Phi.  With joint_nuclear the nuclear
    norm covers the stacked matrix [theta; Phi]: the aux columns are
    appended to P and the stacked factorization is split afterwards into
    the window part (theta, returned as the low-rank model) and the
    feature part Phi.  Otherwise Phi carries a plain ridge penalty
    (lam/2) ||Phi||_F^2 outside the factorization and is optimized jointly
    with V in each sweep.  With zero aux columns both paths reduce to the
    plain factored fit.
    """
    opts = opts or FitOptions()
    aux = np.asarray(aux, dtype=float)
    if aux.ndim != 2 or aux.shape[0] != data.N:
        raise ValueError(f"aux must be N x p with N={data.N}, got {aux.shape}")
    p = aux.shape[1]
    mn = data.P.shape[1]
    t0 = time.perf_counter()
    # stacked: aux columns join P inside the factorization; ridge: aux is the R block
    P = np.hstack([data.P, aux]) if joint_nuclear and p else data.P
    R = None if joint_nuclear else aux
    U, V, trace, iters, sweeps, converged, Phi = _fit_arrays(
        P, data.F, data.n, lam, kappa, loss, W, opts, R
    )
    Ur, Vr, (_, sigma, _) = reduce_rank(U, V, opts.rank_tol)
    if joint_nuclear:
        Phi = Ur[mn:] @ Vr
    model = LowRankForecaster(
        U=Ur[:mn], V=Vr, singular_values=sigma, n=data.n, M=data.M, H=data.H,
        lam=lam, kappa=kappa, loss=loss,
        means=np.zeros(data.n) if means is None else means,
    )
    report = FitReport(
        objective_trace=trace,
        final_objective=trace[-1],
        rank=model.rank,
        optimality_residuals=None,
        iterations=iters,
        sweeps=sweeps,
        converged=converged,
        wall_time=time.perf_counter() - t0,
        k_schedule=[opts.k],
    )
    return model, Phi, report
