"""Model evaluation and (alpha, kappa) regularization sweeps."""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .core import TimeSeries, build_windows, center
from .features import ModelBundle, origin_times
from .objective import Loss, _elementwise_penalty, inconsistency
from .solver import FitOptions, LowRankForecaster, fit_auto_rank, lambda_max

# the sweep CSV's headings: SweepRow's leading fields in order, lam as "lambda"
SWEEP_CSV_COLUMNS = (
    "alpha",
    "kappa",
    "lambda",
    "rank",
    "train_loss",
    "test_loss",
    "train_inconsistency",
    "test_inconsistency",
    "wall_time_s",
)


@dataclass
class EvalResult:
    """Forecast quality of a model on one series."""

    loss: float
    inconsistency: float
    per_horizon_loss: np.ndarray
    n_windows: int


def evaluate_forecasts(
    Fhat: np.ndarray, F: np.ndarray, n: int, loss: Loss = Loss()
) -> EvalResult:
    """Metrics for a precomputed forecast matrix against realized futures."""
    Fhat = np.asarray(Fhat, dtype=float)
    F = np.asarray(F, dtype=float)
    if Fhat.shape != F.shape:
        raise ValueError(f"shape mismatch: Fhat {Fhat.shape} vs F {F.shape}")
    N, H = F.shape[0], F.shape[1] // n
    # one penalty array scores the total, summed as loss_value sums it, and each
    # horizon; it is freed before inconsistency allocates its own N x Hn arrays
    penalty = _elementwise_penalty(Fhat - F, loss)
    total, per_h = float(penalty.sum() / N), penalty.reshape(N, H, n).sum(axis=(0, 2)) / N
    del penalty
    return EvalResult(
        loss=total, inconsistency=inconsistency(Fhat, n), per_horizon_loss=per_h, n_windows=N
    )


def evaluate(
    model: LowRankForecaster | ModelBundle, series: TimeSeries | np.ndarray, loss: Loss = Loss()
) -> EvalResult:
    """Windowed forecast metrics of a model (fitted or a baseline) or ModelBundle on a series.

    The series is de-trended and centered by ModelBundle.center, windowed
    with the model's M and H, forecast with the aux term at each window's
    origin by ModelBundle.forecast, and scored with the given loss; a bare
    model is the bundle with no attachments.  The per-horizon losses use
    the same per-window averaging as the total, restricted to one horizon
    block, so for elementwise losses they sum to the total.
    """
    bundle = model if isinstance(model, ModelBundle) else ModelBundle(model)
    centered = bundle.center(series)
    data = build_windows(centered, bundle.model.M, bundle.model.H)
    Fhat = bundle.forecast(data.P, origin_times(centered, data.M, data.N))
    F, n = data.F, data.n
    del data  # the past windows are not needed for scoring; free them first
    return evaluate_forecasts(Fhat, F, n, loss)


@dataclass
class SweepRow:
    alpha: float
    kappa: float
    lam: float
    rank: int
    train_loss: float
    test_loss: float
    train_inconsistency: float
    test_inconsistency: float
    wall_time_s: float
    failed: bool = False
    error: str = ""  # "Type: message" of a failed fit's exception; not in the CSV
    converged: bool = False  # the fit's FitReport.converged; not in the CSV


# rows within a factor (1 + TIE_TOL) of the best test loss tie in SweepTable.best
TIE_TOL = 0.01


@dataclass
class SweepTable:
    rows: list[SweepRow] = field(default_factory=list)

    def best(self) -> SweepRow:
        """Row minimizing test loss, near-ties toward larger alpha then kappa.

        Rows within (1 + TIE_TOL) of the minimum test loss are considered
        tied; the tied row with the largest alpha (then largest kappa)
        wins, preferring stronger regularization at equal quality.
        """
        ok = [r for r in self.rows if not r.failed and np.isfinite(r.test_loss)]
        if not ok:
            raise ValueError("sweep produced no successful rows")
        lo = min(r.test_loss for r in ok)
        tied = [r for r in ok if r.test_loss <= lo * (1.0 + TIE_TOL)]
        return max(tied, key=lambda r: (r.alpha, r.kappa))


def _sweep_chain(
    alphas,
    kappa: float,
    data_train,
    data_test,
    lmax: float,
    loss: Loss,
    opts: FitOptions,
    means: np.ndarray,
) -> list[SweepRow]:
    """Fits one kappa column across the alpha grid with warm starts.

    The first fit starts cold at opts.k.  Each later fit starts from the
    previous row's factors at width 2 * rank, the step fit_auto_rank widens
    by, so the next lam has room to raise the rank without a width
    escalation; a rank-0 row is a width-0 warm start, and the fit after it
    starts cold at opts.k again.  Both widths are capped as in fit_auto_rank.
    """
    first_k = opts.k
    rows = []
    for alpha in alphas:
        lam = alpha * lmax
        t0 = time.perf_counter()
        try:
            model, report = fit_auto_rank(data_train, lam, kappa, loss, opts=opts, means=means)
        except Exception as e:
            rows.append(
                SweepRow(alpha, kappa, lam, -1, np.nan, np.nan, np.nan, np.nan,
                         time.perf_counter() - t0, failed=True,
                         error=f"{type(e).__name__}: {e}")
            )
            continue
        tr, te = (evaluate_forecasts(model.forecast(d.P), d.F, d.n, loss)
                  for d in (data_train, data_test))
        rows.append(
            SweepRow(alpha, kappa, lam, model.rank, tr.loss, te.loss,
                     tr.inconsistency, te.inconsistency, report.wall_time,
                     converged=report.converged)
        )
        opts = replace(opts, k=2 * model.rank or first_k, init=(model.U, model.V))
    return rows


def sweep(
    train: TimeSeries | np.ndarray,
    test: TimeSeries | np.ndarray,
    alphas,
    kappas,
    M: int,
    H: int,
    loss: Loss = Loss(),
    opts: FitOptions | None = None,
    jobs: int = 1,
    means: np.ndarray | None = None,
) -> SweepTable:
    """Fits a grid of (alpha, kappa) penalties and scores train and test.

    The nuclear-norm weight for each row is alpha * lambda_max computed on
    the training windows.  The kappa columns run one after another, each a
    warm-started path down the alpha grid (see _sweep_chain): every fit
    after the first starts from the previous alpha's factors at twice the
    previous rank, so opts.k sets only the width of each column's first
    fit and of a fit after a rank-0 row.  A failed fit marks its row rather
    than aborting; a row's converged copies its fit's FitReport.converged,
    so a certified fit can be told from one that ran out of sweeps.  Rows
    come back in alpha-major grid order.

    Both series are centered with the training means by default; pass
    explicit means (e.g. zeros, when the process mean is known) to
    override.  The fitted models carry whichever means were used.

    jobs accepts only 1 and raises ValueError otherwise.  It is left only
    because the benchmark calls sweep(..., jobs=1); the benchmark change
    that drops that argument deletes it.
    """
    if jobs != 1:
        raise ValueError(f"jobs={jobs!r}: sweep runs its kappa columns serially, only jobs=1")
    opts = opts or FitOptions()
    alphas = [float(a) for a in alphas]
    kappas = [float(k) for k in kappas]
    if not alphas or not kappas:
        raise ValueError("alphas and kappas must be non-empty")
    bad = [v for v in alphas + kappas if not 0 <= v < np.inf]
    if bad:
        raise ValueError(f"alphas and kappas must be finite and nonnegative, got {bad[0]}")
    centered_train, means = center(train, means)
    centered_test, _ = center(test, means)
    data_train = build_windows(centered_train, M, H)
    data_test = build_windows(centered_test, M, H)
    lmax = lambda_max(data_train.P, data_train.F, loss)
    columns = [_sweep_chain(alphas, kappa, data_train, data_test, lmax, loss, opts, means)
               for kappa in kappas]
    return SweepTable([row for rows in zip(*columns) for row in rows])
