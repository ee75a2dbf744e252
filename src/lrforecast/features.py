"""Auxiliary features: de-trending, seasonal regressors, latent dynamics.

Known exogenous signals enter in two ways.  De-trending regresses the
series on per-time feature vectors and forecasts the residual, adding the
fitted baseline back afterwards.  Joint fitting augments each past window
with the feature vector of its origin so a separate coefficient block Phi
is learned alongside the low-rank forecast matrix; the nuclear-norm
penalty can either cover the stacked block matrix or leave Phi under a
plain ridge penalty.  Both run the solver's one fitting path: the
stacked matrix as wider factors, the ridge-penalized Phi as its
unfactored regressor block, solved with V in each closed-form sweep and
with all the factors in each L-BFGS solve.

A fitted low-rank model also exposes simple latent dynamics: regressing
successive encoded states on each other gives a one-step linear system
usable for interpretation or simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .baselines import _ridge_solve
from .core import TimeSeries, WindowedDataset, _is_number, center
from .objective import Loss
from .solver import FitOptions, FitReport, LowRankForecaster, _fit_design, _widen


HOURS_PER_DAY = 24
DAYS_PER_WEEK = 7


@dataclass(frozen=True)
class FeatureSpec:
    """Deterministic time features evaluated on an integer time index.

    periods: a list or tuple of numbers, one sin/cos column pair per
        finite, positive period (in steps), stored as a tuple of floats;
    weekday (a bool): append a binary flag that reads time steps as hours, 1 when
        (t // HOURS_PER_DAY) mod DAYS_PER_WEEK falls on the first five
        days of a 7-day week;
    products (a bool): append all ordered pairwise products of the base columns
        (including squares), giving base + base^2 columns in total.
    """

    periods: tuple[float, ...] = ()
    weekday: bool = False
    products: bool = False

    def __post_init__(self):
        if not isinstance(self.periods, (list, tuple)) or not all(map(_is_number, self.periods)):
            raise ValueError(f"feature periods must be a list of numbers, got {self.periods!r}")
        for name in ("weekday", "products"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"feature {name} must be a bool, got {getattr(self, name)!r}")
        object.__setattr__(self, "periods", tuple(float(p) for p in self.periods))
        if not all(0 < p < np.inf for p in self.periods):
            raise ValueError(f"periods must be finite and positive, got {self.periods}")
        if not self.periods and not self.weekday:
            raise ValueError("feature spec is empty")

    @property
    def base_columns(self) -> int:
        return 2 * len(self.periods) + (1 if self.weekday else 0)

    @property
    def columns(self) -> int:
        b = self.base_columns
        return b + b * b if self.products else b


def time_features(t_index: np.ndarray, spec: FeatureSpec) -> np.ndarray:
    """Feature rows for the given integer times, one row per time."""
    t = np.asarray(t_index, dtype=float).reshape(-1)
    cols = []
    for p in spec.periods:
        ang = 2.0 * np.pi * t / p
        cols.append(np.sin(ang))
        cols.append(np.cos(ang))
    if spec.weekday:
        day = (np.asarray(t_index).astype(int) // HOURS_PER_DAY) % DAYS_PER_WEEK
        cols.append((day < 5).astype(float))
    base = np.column_stack(cols)
    if not spec.products:
        return base
    prod = base[:, :, None] * base[:, None, :]
    return np.hstack([base, prod.reshape(base.shape[0], -1)])


@dataclass
class TrendModel:
    """A per-time linear baseline x_t ~ S a_t for feature rows a_t; S finite, real lam >= 0."""

    S: np.ndarray
    lam: float = 0.0
    features: FeatureSpec | None = None

    def __post_init__(self):
        self.S = np.asarray(self.S, dtype=float)
        if self.S.ndim != 2:
            raise ValueError("trend S must be a matrix")
        if not _is_number(self.lam):
            raise ValueError(f"trend field lam must be a real number, got {self.lam!r}")
        for name, value in (("S", self.S), ("lam", self.lam)):
            if not np.isfinite(value).all():
                raise ValueError(f"trend field {name} has a non-finite value")
        if self.lam < 0:
            raise ValueError(f"trend lam must be nonnegative, got {self.lam}")

    def check_width(self, n: int) -> None:
        """Refuses n series unless S has one row each, which broadcasting would not catch."""
        if self.S.shape[0] != n:
            raise ValueError(f"trend was fitted on {self.S.shape[0]} series, not {n}")


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
    if not 0 <= lam < np.inf:
        raise ValueError(f"lam must be finite and nonnegative, got {lam}")
    A = _aux_rows(series, features, aux)
    St = _ridge_solve(A, series.values, series.T * lam,
                      "aux features are rank deficient at lam=0; pass lam > 0")
    return TrendModel(S=St.T, lam=lam, features=features)


def detrend_apply(
    series: TimeSeries | np.ndarray, trend: TrendModel, aux: np.ndarray | None = None
) -> TimeSeries:
    """Residual series x_t - S a_t."""
    if not isinstance(series, TimeSeries):
        series = TimeSeries(series)
    trend.check_width(series.n)
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
    trend.check_width(rows.shape[1])
    if aux_future.shape[0] != rows.shape[0]:
        raise ValueError("need one aux row per forecast row")
    out = rows + aux_future @ trend.S.T
    return out.ravel() if flat else out


def origin_times(series: TimeSeries, M: int, count: int) -> np.ndarray:
    """Origin times of the first count windows: each forecasts from its last past row."""
    return series.t0 + M - 1 + np.arange(count)


@dataclass
class ModelBundle:
    """A fitted forecaster with the trend and aux terms that apply it to a series.

    The trend, one S row per series, is removed before centering (retrend
    adds it back to forecasts); phi, finite p x Hn, weighs the aux_features
    rows at each forecast origin, so p is aux_features.columns when both are
    given.  A bare forecaster is the bundle with no attachments.
    """

    model: LowRankForecaster
    trend: TrendModel | None = None
    phi: np.ndarray | None = None
    aux_features: FeatureSpec | None = None

    def __post_init__(self):
        if self.phi is not None:
            self.phi = np.asarray(self.phi, dtype=float)
            hn = self.model.H * self.model.n
            if self.phi.ndim != 2 or self.phi.shape[1] != hn:
                raise ValueError(f"aux Phi has shape {self.phi.shape}, want p x {hn}")
            if not np.isfinite(self.phi).all():
                raise ValueError("model field aux Phi has a non-finite value")
            if self.aux_features is not None and self.phi.shape[0] != self.aux_features.columns:
                raise ValueError(f"aux Phi has {self.phi.shape[0]} rows, but the feature spec "
                                 f"has {self.aux_features.columns} columns")
        if self.trend is not None:
            self.trend.check_width(self.model.n)

    def center(self, series: TimeSeries | np.ndarray) -> TimeSeries:
        """De-trends with the stored trend, if any, then centers with the model's means."""
        if self.trend is not None:
            series = detrend_apply(series, self.trend)
        return center(series, self.model.means)[0]

    def aux_term(self, origins: np.ndarray) -> np.ndarray | float:
        """time_features(origins) @ phi, one row per origin; 0.0 without phi."""
        if self.phi is None:
            return 0.0
        if self.aux_features is None:
            raise ValueError("model carries aux coefficients but no feature spec")
        return time_features(origins, self.aux_features) @ self.phi

    def forecast(self, P: np.ndarray, origins: np.ndarray) -> np.ndarray:
        """Centered forecasts of the past windows P plus the aux term at their origins."""
        Fhat = self.model.forecast(P)
        # without phi the forecasts pass through as computed, with no N x Hn copy
        return Fhat if self.phi is None else Fhat + self.aux_term(origins)


def latent_ar_fit(Z: np.ndarray, jitter: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """One-step linear dynamics of an encoded state sequence.

    Least squares of z_{t+1} on z_t; returns (A, residual covariance).
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[0] < 2:
        raise ValueError("need a T x r state sequence with T >= 2")
    if not 0 <= jitter < np.inf:
        raise ValueError(f"jitter must be finite and nonnegative, got {jitter}")
    X, Y = Z[:-1], Z[1:]
    B = _ridge_solve(X, Y, jitter, "state regression is singular; pass jitter > 0")
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
    (lam/2) ||Phi||_F^2 outside the factorization and is optimized with the
    factors: jointly with V in each closed-form sweep, or with U and V in
    each L-BFGS solve.  With zero aux columns both paths reduce to
    fit_auto_rank.

    The factor width grows as in fit_auto_rank, with the same report, from
    opts.k up to min(columns of the factored design, Hn): [P, aux], whose
    stacked factors warm-start the next width, or P, with Phi refitted from
    the zero start at each width.
    """
    aux = np.asarray(aux, dtype=float)
    if aux.ndim != 2 or aux.shape[0] != data.N:
        raise ValueError(f"aux must be N x p with N={data.N}, got {aux.shape}")
    # stacked: aux columns join P inside the factorization; ridge: aux is the R block
    P, R = (np.hstack([data.P, aux]), aux[:, :0]) if joint_nuclear else (data.P, aux)
    fit = partial(_fit_design, P, data, lam, kappa, loss, W, means=means, R=R)
    (model, Phi), report = _widen(fit, opts or FitOptions(), min(P.shape[1], data.F.shape[1]))
    return model, Phi, report
