"""Evaluation and sweep tests."""

from dataclasses import replace

import numpy as np
import pytest

import lrforecast.evaluation as evaluation
from lrforecast import (
    EvalResult,
    FitOptions,
    Loss,
    ModelBundle,
    SimSpec,
    SweepRow,
    SweepTable,
    TimeSeries,
    build_windows,
    center,
    evaluate,
    evaluate_forecasts,
    fit_auto_rank,
    gen_model,
    inconsistency,
    lambda_max,
    loss_value,
    ridge_fit,
    sample,
    sweep,
)
from lrforecast.solver import CERT_TOL


def small_series(rng, T=60, n=2):
    return rng.normal(size=(T, n)).cumsum(axis=0) * 0.2 + rng.normal(size=(T, n))


# ------------------------------------------------------------------ evaluate


def test_per_horizon_losses_partition_total(rng):
    n, H, N = 2, 3, 15
    Fhat = rng.normal(size=(N, H * n))
    F = rng.normal(size=(N, H * n))
    res = evaluate_forecasts(Fhat, F, n)
    assert res.per_horizon_loss.shape == (H,)
    assert np.isclose(res.per_horizon_loss.sum(), res.loss)
    assert res.n_windows == N
    assert np.isclose(res.inconsistency, inconsistency(Fhat, n))


@pytest.mark.parametrize("loss", [Loss(), Loss("l1"), Loss("huber", delta=0.5)])
def test_one_pass_scores_match_loss_value(rng, loss):
    # the total sums the penalty array as loss_value does, so it is bitwise
    # equal; each horizon sums in another order, so only to rounding
    n, H, N = 3, 4, 200
    Fhat = rng.normal(size=(N, H * n))
    F = rng.normal(size=(N, H * n))
    res = evaluate_forecasts(Fhat, F, n, loss)
    assert res.loss == loss_value(Fhat, F, loss)
    block = [loss_value(Fhat[:, h * n:(h + 1) * n], F[:, h * n:(h + 1) * n], loss)
             for h in range(H)]
    assert np.allclose(res.per_horizon_loss, block, rtol=1e-12, atol=0.0)


def test_per_horizon_blocks_scored_separately(rng):
    # corrupt only the last horizon block: earlier entries stay exact
    n, H, N = 2, 3, 10
    F = rng.normal(size=(N, H * n))
    Fhat = F.copy()
    Fhat[:, -n:] += 1.0
    res = evaluate_forecasts(Fhat, F, n)
    assert np.allclose(res.per_horizon_loss[:-1], 0.0)
    assert res.per_horizon_loss[-1] > 0


def test_evaluate_matches_manual_computation(rng):
    x = small_series(rng)
    train = x[:40]
    data = build_windows(center(train)[0], 4, 2)
    model = ridge_fit(data, 0.1, means=train.mean(axis=0))
    res = evaluate(model, x[40:])
    centered, _ = center(x[40:], model.means)
    held = build_windows(centered, 4, 2)
    manual_loss = loss_value(held.P @ model.theta(), held.F)
    assert np.isclose(res.loss, manual_loss)
    assert res.n_windows == held.N
    # a bare model is the bundle with no attachments, bit for bit
    bundled = evaluate(ModelBundle(model), x[40:])
    assert bundled.loss == res.loss and bundled.inconsistency == res.inconsistency
    assert np.array_equal(bundled.per_horizon_loss, res.per_horizon_loss)
    assert bundled.n_windows == res.n_windows
    with pytest.raises(ValueError, match="no feature spec"):
        evaluate(ModelBundle(model, phi=np.zeros((1, 4))), x[40:])


def test_evaluate_uses_model_means_not_series_means(rng):
    x = small_series(rng, T=30)
    data = build_windows(center(x)[0], 3, 2)
    m_true = x.mean(axis=0)
    model_good = ridge_fit(data, 0.1, means=m_true)
    model_off = ridge_fit(data, 0.1, means=m_true + 10.0)
    shifted = x + 5.0
    good = evaluate(model_good, shifted - 5.0)
    off = evaluate(model_off, shifted - 5.0)
    assert off.loss > good.loss


def test_evaluate_huber_loss(rng):
    x = small_series(rng, T=30)
    data = build_windows(center(x)[0], 3, 2)
    model = ridge_fit(data, 0.1, means=x.mean(axis=0))
    l2 = evaluate(model, x)
    hub = evaluate(model, x, loss=Loss(kind="huber", delta=0.05))
    assert hub.loss < l2.loss  # huber flattens large residuals


# --------------------------------------------------------------------- sweep


def test_sweep_grid_order_and_lambda(rng):
    x = small_series(rng, T=50)
    train, test = x[:35], x[35:]
    alphas = [0.5, 0.1]
    kappas = [0.0, 1.0]
    table = sweep(train, test, alphas, kappas, M=3, H=2, opts=FitOptions(k=3))
    combos = [(r.alpha, r.kappa) for r in table.rows]
    assert combos == [(0.5, 0.0), (0.5, 1.0), (0.1, 0.0), (0.1, 1.0)]
    centered, _ = center(train)
    lmax = lambda_max(*(lambda d: (d.P, d.F))(build_windows(centered, 3, 2)))
    for r in table.rows:
        assert np.isclose(r.lam, r.alpha * lmax)
        assert not r.failed
        assert r.rank >= 0 and np.isfinite(r.test_loss)


def test_sweep_jobs_do_not_change_results(rng):
    # the kappa columns run one after another; jobs is left only for callers
    # that pass jobs=1, so any other value is refused
    x = small_series(rng, T=50)
    train, test = x[:35], x[35:]
    kw = dict(alphas=[0.3, 0.1], kappas=[0.0, 0.5, 1.0], M=3, H=2,
              opts=FitOptions(k=3))
    for jobs in (3, 2, 0):
        with pytest.raises(ValueError, match=f"jobs={jobs}: sweep runs its kappa columns"):
            sweep(train, test, jobs=jobs, **kw)
    default = sweep(train, test, **kw)
    one = sweep(train, test, jobs=1, **kw)
    assert len(default.rows) == len(one.rows) == 6
    for a, b in zip(default.rows, one.rows):  # every field but the wall time
        assert replace(a, wall_time_s=0.0) == replace(b, wall_time_s=0.0)


def test_sweep_marks_failed_rows(rng, monkeypatch):
    x = small_series(rng, T=50)
    real = evaluation.fit_auto_rank

    def flaky(data, lam, kappa=0.0, loss=Loss(), opts=None, means=None):
        if kappa > 0.5:
            raise RuntimeError("synthetic failure")
        return real(data, lam, kappa, loss, opts=opts, means=means)

    monkeypatch.setattr(evaluation, "fit_auto_rank", flaky)
    table = sweep(x[:35], x[35:], [0.3], [0.0, 1.0], M=3, H=2, opts=FitOptions(k=3))
    good, bad = table.rows
    assert not good.failed and good.error == "" and good.converged
    assert bad.failed and not bad.converged
    assert bad.error == "RuntimeError: synthetic failure"
    assert bad.rank == -1
    assert np.isnan(bad.test_loss) and np.isnan(bad.train_loss)


def paper_split():
    """The seed-0 paper series: 100 training steps, 100 test steps."""
    spec = SimSpec(n=10, r=2, T_train=100, seed=0)
    train, _ = sample(gen_model(spec), spec.T_train, seed=0)
    test, _ = sample(gen_model(spec), 100, seed=1)
    return train, test


def test_sweep_rows_tell_certified_from_out_of_sweeps():
    # the 20-alpha chain on the seed-0 paper series: one of its warm-started
    # fits ends at max_outer without meeting the KKT certificate
    train, test = paper_split()
    table = sweep(train, test, np.linspace(0.3, 0.01, 20), [0.0], 12, 12)
    assert sum(r.converged for r in table.rows) == 19
    assert not any(r.failed for r in table.rows)


def spy_fits(monkeypatch):
    """Records (data, lam, kappa, opts, model, report) of every sweep fit."""
    fits = []

    def spy(data, lam, kappa=0.0, loss=Loss(), opts=None, means=None):
        model, report = fit_auto_rank(data, lam, kappa, loss, opts=opts, means=means)
        fits.append((data, lam, kappa, opts, model, report))
        return model, report

    monkeypatch.setattr(evaluation, "fit_auto_rank", spy)
    return fits


def test_sweep_chain_width_rule(monkeypatch):
    # a column's first fit and the fit after a rank-0 row start cold at k;
    # every other fit starts from the previous row's factors at twice its rank
    fits = spy_fits(monkeypatch)
    train, test = paper_split()
    opts = FitOptions(k=20)
    table = sweep(train, test, [1.5, 0.3, 0.1, 0.03], [0.0], 12, 12, opts=opts)
    assert len(fits) == 4 and table.rows[0].rank == 0
    assert all(r.rank > 0 for r in table.rows[1:])
    cap = min(fits[0][0].P.shape[1], fits[0][0].F.shape[1])
    prev_rank = 0
    for data, lam, _, fit_opts, model, report in fits:
        cold, _ = fit_auto_rank(data, lam, opts=opts)
        if prev_rank == 0:
            assert report.k_schedule[0] == min(opts.k, cap)
            assert np.array_equal(model.theta(), cold.theta())
        else:
            assert report.k_schedule[0] == min(2 * prev_rank, cap)
            assert fit_opts.init[0].shape[1] == prev_rank
        assert model.rank == cold.rank
        prev_rank = model.rank


def test_sweep_kappa_chain_certified_at_cold_start_ranks(monkeypatch):
    # a kappa > 0 column takes the same warm starts through the L-BFGS engine:
    # a row that reports converged meets the certificate, and every row has
    # the rank a cold fit_auto_rank finds at the same lam
    fits = spy_fits(monkeypatch)
    spec = SimSpec(n=3, r=1, T_train=60, seed=0)
    truth = gen_model(spec)
    train, _ = sample(truth, spec.T_train, seed=0)
    test, _ = sample(truth, 40, seed=1)
    table = sweep(train, test, [0.5, 0.2, 0.1, 0.05, 0.02], [0.5], M=4, H=4)
    assert len(fits) == 5 and not any(r.failed for r in table.rows)
    for (data, lam, kappa, _, model, report), r in zip(fits, table.rows):
        assert r.rank == model.rank and r.converged == report.converged
        if report.converged:
            assert max(report.optimality_residuals) <= CERT_TOL * lam
        cold, _ = fit_auto_rank(data, lam, kappa)
        assert model.rank == cold.rank
    # the checks above are not vacuous: the rank moves and most rows certify
    assert len({r.rank for r in table.rows}) > 2
    assert sum(r.converged for r in table.rows) >= 4


def test_sweep_validation(rng):
    x = small_series(rng, T=40)
    with pytest.raises(ValueError):
        sweep(x[:30], x[30:], [], [0.0], M=3, H=2)
    with pytest.raises(ValueError):
        sweep(x[:30], x[30:], [0.1], [], M=3, H=2)
    with pytest.raises(ValueError):
        sweep(x[:30], x[30:], [-0.1], [0.0], M=3, H=2)


@pytest.mark.parametrize("alphas,kappas", [
    ([0.1, float("nan")], [0.0]), ([float("inf")], [0.0]), ([0.1], [0.0, float("nan")]),
    ([0.1], [float("inf")]),
])
def test_sweep_rejects_non_finite_penalties_before_fitting(rng, monkeypatch, alphas, kappas):
    def no_fit(*args, **kwargs):
        raise AssertionError("sweep fitted before it checked its grid")

    monkeypatch.setattr(evaluation, "fit_auto_rank", no_fit)
    x = small_series(rng, T=40)
    with pytest.raises(ValueError, match="finite and nonnegative, got (nan|inf)"):
        sweep(x[:30], x[30:], alphas, kappas, M=3, H=2)


# ----------------------------------------------------------------- SweepTable


def row(alpha, kappa, test_loss, failed=False):
    return SweepRow(alpha, kappa, alpha, 2, 1.0, test_loss, 0.0, 0.0, 0.0, failed)


def test_best_picks_min_test_loss():
    t = SweepTable(rows=[row(0.1, 0.0, 5.0), row(0.2, 0.0, 3.0), row(0.3, 0.0, 4.0)])
    assert t.best().alpha == 0.2


def test_best_breaks_near_ties_toward_stronger_regularization():
    t = SweepTable(
        rows=[row(0.1, 0.0, 3.0), row(0.2, 0.0, 3.002), row(0.2, 1.0, 3.001)]
    )
    best = t.best()
    assert best.alpha == 0.2 and best.kappa == 1.0
    # outside the 1% band the true minimum wins
    t2 = SweepTable(rows=[row(0.1, 0.0, 3.0), row(0.5, 0.0, 3.2)])
    assert t2.best().alpha == 0.1


def test_best_skips_failed_and_raises_when_empty():
    t = SweepTable(rows=[row(0.1, 0.0, np.nan, failed=True), row(0.2, 0.0, 7.0)])
    assert t.best().alpha == 0.2
    dead = SweepTable(rows=[row(0.1, 0.0, np.nan, failed=True)])
    with pytest.raises(ValueError):
        dead.best()
