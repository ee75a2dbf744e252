"""Vector time series containers and past/future window construction.

A length-T series of n-vectors x_1, ..., x_T is turned into N = T - M - H + 1
aligned (past, future) pairs: the past window at time t stacks the M most
recent values (x_{t-M+1}, ..., x_t) and the future window stacks the next H
values (x_{t+1}, ..., x_{t+H}).  Collecting the windows as rows gives a pair
of block-Hankel matrices P (N x Mn) and F (N x Hn) with block width n.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def _is_number(x, integer: bool = False) -> bool:
    """True for a Python or numpy real number, or integer if asked; a bool is neither."""
    return not isinstance(x, bool) and isinstance(x, numbers.Integral if integer else numbers.Real)


@dataclass
class TimeSeries:
    """A finite vector time series stored as a T x n array of floats.

    values: T x n array, row t is the observation at time t0 + t.
    names: optional per-column labels (defaults to x1..xn).
    t0: index of the first row; only used for labeling and for
        deterministic time features.
    """

    values: np.ndarray
    names: list[str] | None = None
    t0: int = 1

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v.reshape(-1, 1)
        if v.ndim != 2:
            raise ValueError(f"series values must be 1-D or 2-D, got ndim={v.ndim}")
        if v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError(f"series must be non-empty, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("series contains non-finite values")
        self.values = v
        if self.names is not None and len(self.names) != v.shape[1]:
            raise ValueError(
                f"got {len(self.names)} column names for {v.shape[1]} columns"
            )

    @property
    def T(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def column_names(self) -> list[str]:
        if self.names is not None:
            return list(self.names)
        return [f"x{j + 1}" for j in range(self.n)]


@dataclass
class WindowedDataset:
    """Past/future window matrices for a series, as produced by build_windows.

    P: N x Mn matrix; row i is the flattened past window at time t = M + i
       (0-indexed rows, oldest value first).
    F: N x Hn matrix; row i is the flattened future window at the same time.
    """

    P: np.ndarray
    F: np.ndarray
    n: int
    M: int
    H: int

    def __post_init__(self):
        self.P = np.asarray(self.P, dtype=float)
        self.F = np.asarray(self.F, dtype=float)
        if self.P.ndim != 2 or self.F.ndim != 2:
            raise ValueError("P and F must be 2-D")
        if self.P.shape[0] != self.F.shape[0]:
            raise ValueError(
                f"P and F must have the same number of rows, got "
                f"{self.P.shape[0]} and {self.F.shape[0]}"
            )
        if self.P.shape[1] != self.M * self.n:
            raise ValueError(
                f"P has {self.P.shape[1]} columns, expected M*n = {self.M * self.n}"
            )
        if self.F.shape[1] != self.H * self.n:
            raise ValueError(
                f"F has {self.F.shape[1]} columns, expected H*n = {self.H * self.n}"
            )

    @property
    def N(self) -> int:
        return self.P.shape[0]


def past_windows(x: np.ndarray, M: int) -> np.ndarray:
    """Stacks every length-M window of the rows of x, oldest row first.

    For a T x n array x, row i of the (T - M + 1) x Mn result is
    x[i : i + M].ravel().  The result is a fresh writable array that
    shares no memory with x.
    """
    x = np.asarray(x, dtype=float)
    windows = sliding_window_view(x, (M, x.shape[1]))[:, 0]
    # the reshape is still a read-only view of x, so copy it explicitly
    return np.array(windows.reshape(windows.shape[0], -1))


def build_windows(series: TimeSeries | np.ndarray, M: int, H: int) -> WindowedDataset:
    """Builds the past/future window matrices P (N x Mn) and F (N x Hn).

    Requires M >= 1, H >= 1 and T >= M + H so that at least one
    (past, future) pair exists; N = T - M - H + 1.
    """
    if not isinstance(series, TimeSeries):
        series = TimeSeries(series)
    if M < 1 or H < 1:
        raise ValueError(f"M and H must be >= 1, got M={M}, H={H}")
    T, n = series.T, series.n
    if T < M + H:
        raise ValueError(
            f"series too short: T={T} but M+H={M + H}; need T >= M + H"
        )
    x = series.values
    P = past_windows(x[: T - H], M)
    F = past_windows(x[M:], H)
    return WindowedDataset(P=P, F=F, n=n, M=M, H=H)


def center(
    series: TimeSeries | np.ndarray, means: np.ndarray | None = None
) -> tuple[TimeSeries, np.ndarray]:
    """Subtracts per-column means and returns (centered series, means used).

    When means is omitted the column means of the series itself are used;
    pass stored means to center held-out data consistently with a fit.
    """
    if not isinstance(series, TimeSeries):
        series = TimeSeries(series)
    if means is None:
        means = series.values.mean(axis=0)
    means = np.asarray(means, dtype=float).reshape(-1)
    if means.shape[0] != series.n:
        raise ValueError(f"means has length {means.shape[0]}, expected n={series.n}")
    centered = TimeSeries(
        values=series.values - means, names=series.names, t0=series.t0
    )
    return centered, means
