"""Command line surface: simulate, fit, forecast, evaluate, sweep, detrend, latent.

All commands work over CSV series files and JSON documents (see the
serialize module for the exact formats).  A JSON config file can supply
any fit/sweep setting under the same name as its flag group; explicit
flags win over config values.

Exit codes: 0 success, 2 input validation error, 3 numerical failure.
Given identical inputs and seeds every command writes bytewise-identical
payload files; only report.json and sweep.csv contain wall-clock timings.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .core import TimeSeries, build_windows, center, past_windows
from .evaluation import evaluate_forecasts, sweep
from .features import (
    FeatureSpec,
    aux_joint_fit,
    detrend_apply,
    detrend_fit,
    latent_ar_fit,
    retrend,
    time_features,
)
from .objective import HUBER, L1, SQUARED_L2, Loss, build_weights
from .serialize import (
    ModelBundle,
    dump_json,
    load_json,
    load_model_json,
    read_series_csv,
    save_model_json,
    ss_to_json,
    trend_from_json,
    trend_to_json,
    write_matrix_csv,
    write_series_csv,
    write_sweep_csv,
)
from .simgen import SimSpec, gen_model, sample
from .solver import (
    FitOptions,
    NumericalError,
    _pad_factors,
    fit_auto_rank,
    fit_factored,
    lambda_max,
)
from dataclasses import fields as dc_fields, replace


# --------------------------------------------------------------- config glue


def _pick(*vals, default=None):
    for v in vals:
        if v is not None:
            return v
    return default


def _get(cfg: dict, *keys):
    cur = cfg
    for k in keys:
        if not isinstance(cur, dict) or k not in cur:
            return None
        cur = cur[k]
    return cur


def _config(args) -> dict:
    if not getattr(args, "config", None):
        return {}
    cfg = load_json(args.config)
    if not isinstance(cfg, dict):
        raise ValueError(f"{args.config}: config must be a JSON object")
    return cfg


def _comma_floats(s: str) -> list[float]:
    try:
        return [float(tok) for tok in s.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number list {s!r}") from None


def _loss_from(args, cfg) -> Loss:
    doc = cfg.get("loss")
    cfg_kind = doc.get("kind") if isinstance(doc, dict) else doc
    cfg_delta = doc.get("delta") if isinstance(doc, dict) else None
    kind = _pick(getattr(args, "loss", None), cfg_kind, default=SQUARED_L2)
    delta = _pick(getattr(args, "delta", None), cfg_delta)
    if kind == HUBER and delta is None:
        delta = 1.0
    return Loss(kind=kind, delta=None if kind != HUBER else float(delta))


def _opts_from(args, cfg) -> FitOptions:
    base = dict(cfg.get("solver") or {})
    known = {f.name for f in dc_fields(FitOptions)}
    unknown = set(base) - known
    if unknown:
        raise ValueError(f"unknown solver options: {', '.join(sorted(unknown))}")
    if "seed" not in base and cfg.get("seed") is not None:
        base["seed"] = cfg["seed"]
    for name in ("k", "max_outer", "obj_tol", "grad_tol", "seed"):
        v = getattr(args, name, None)
        if v is not None:
            base[name] = v
    return FitOptions(**base)


def _features_from(args, cfg) -> tuple[FeatureSpec | None, bool]:
    periods = _pick(getattr(args, "periods", None), _get(cfg, "features", "periods"))
    weekday = _pick(getattr(args, "weekday", None), _get(cfg, "features", "weekday"),
                    default=False)
    products = _pick(getattr(args, "products", None), _get(cfg, "features", "products"),
                     default=False)
    joint = _pick(getattr(args, "joint_nuclear", None),
                  _get(cfg, "features", "joint_nuclear"), default=True)
    if not periods and not weekday:
        return None, bool(joint)
    spec = FeatureSpec(
        periods=tuple(periods or ()), weekday=bool(weekday), products=bool(products)
    )
    return spec, bool(joint)


def _weights_from(args, cfg, N, M, H, T, n):
    h_t = _pick(getattr(args, "weight_h_t", None), _get(cfg, "weights", "h_t"))
    h_tau = _pick(getattr(args, "weight_h_tau", None), _get(cfg, "weights", "h_tau"))
    w_col = _pick(getattr(args, "weight_col", None), _get(cfg, "weights", "w_col"))
    if h_t is None and h_tau is None and w_col is None:
        return None
    if h_t is None or h_tau is None:
        raise ValueError("weighting needs both --weight-h-t and --weight-h-tau")
    w_col = np.ones(n) if w_col is None else np.asarray(w_col, dtype=float)
    if w_col.shape != (n,):
        raise ValueError(f"--weight-col needs {n} entries, got {w_col.shape[0]}")
    return build_weights(float(h_t), float(h_tau), w_col, N, M, H, T)


def _origin_times(series: TimeSeries, M: int, count: int) -> np.ndarray:
    # window i forecasts from the time of its last past row
    return series.t0 + M - 1 + np.arange(count)


def _bundle_metrics(bundle: ModelBundle, series: TimeSeries, loss: Loss):
    """Evaluation that honors a bundle's trend and aux attachments."""
    model = bundle.model
    if bundle.trend is not None:
        series = detrend_apply(series, bundle.trend)
    centered, _ = center(series, model.means)
    data = build_windows(centered, model.M, model.H)
    Fhat = model.forecast(data.P)
    if bundle.phi is not None:
        if bundle.aux_features is None:
            raise ValueError(
                "model carries aux coefficients but no feature spec to evaluate them"
            )
        aux = time_features(_origin_times(series, model.M, data.N), bundle.aux_features)
        Fhat = Fhat + aux @ bundle.phi
    return evaluate_forecasts(Fhat, data.F, data.n, loss)


# ----------------------------------------------------------------- commands


def cmd_simulate(args) -> int:
    spec = SimSpec(
        n=args.n,
        r=args.rank,
        T_train=args.T_train,
        T_test=args.T_test,
        spectral_radius=args.spectral_radius,
        q_scale=args.q_scale,
        r_scale=args.r_scale,
        seed=args.seed,
    )
    model = gen_model(spec)
    train, Z = sample(model, spec.T_train, seed=spec.seed)
    test, _ = sample(model, spec.T_test, seed=spec.seed + 1)
    os.makedirs(args.out_dir, exist_ok=True)
    write_series_csv(os.path.join(args.out_dir, "train.csv"), train)
    write_series_csv(os.path.join(args.out_dir, "test.csv"), test)
    dump_json(os.path.join(args.out_dir, "model.json"), ss_to_json(model, spec))
    write_matrix_csv(
        os.path.join(args.out_dir, "states.csv"),
        Z,
        [f"z{j + 1}" for j in range(spec.r)],
        t_index=np.arange(1, spec.T_train + 1),
    )
    print(
        f"simulate: wrote train ({train.T}x{train.n}), test ({test.T}x{test.n}) "
        f"to {args.out_dir}"
    )
    return 0


def cmd_fit(args) -> int:
    cfg = _config(args)
    train_path = _pick(args.train, cfg.get("train"))
    if not train_path:
        raise ValueError("a training CSV is required (--train)")
    M = _pick(args.M, cfg.get("M"))
    H = _pick(args.H, cfg.get("H"))
    if M is None or H is None:
        raise ValueError("--M and --H are required")
    M, H = int(M), int(H)
    loss = _loss_from(args, cfg)
    alpha = _pick(args.alpha, cfg.get("alpha"))
    lam = _pick(args.lam, cfg.get("lambda"))
    if (alpha is None) == (lam is None):
        raise ValueError("exactly one of --alpha and --lambda must be given")
    kappa = float(_pick(args.kappa, cfg.get("kappa"), default=0.0))
    opts = _opts_from(args, cfg)
    model_out = _pick(args.model_out, cfg.get("model_out"), default="model.json")
    report_out = _pick(args.report_out, cfg.get("report_out"), default="report.json")

    series = read_series_csv(train_path)
    centered, means = center(series)
    data = build_windows(centered, M, H)
    W = _weights_from(args, cfg, data.N, M, H, series.T, series.n)
    if alpha is not None:
        lam = float(alpha) * lambda_max(data.P, data.F, loss, W=W)
    else:
        lam = float(lam)
    trend = None
    trend_path = _pick(args.trend, cfg.get("trend"))
    if trend_path:
        trend = trend_from_json(load_json(trend_path))
        # the trend is carried for forecasting; fitting uses the input as is
    spec, joint = _features_from(args, cfg)
    if spec is not None:
        aux = time_features(_origin_times(series, M, data.N), spec)
        model, phi, report = aux_joint_fit(
            data, aux, lam, kappa, loss, W, opts, joint_nuclear=joint, means=means
        )
        bundle = ModelBundle(model, trend=trend, phi=phi, aux_features=spec)
        save_model_json(model_out, model, trend=trend, phi=phi, aux_features=spec)
    else:
        warm_path = _pick(args.warm_start, cfg.get("warm_start"))
        if warm_path:
            prev = load_model_json(warm_path).model
            if (prev.n, prev.M, prev.H) != (data.n, M, H):
                raise ValueError(
                    "warm-start model shape "
                    f"(n={prev.n}, M={prev.M}, H={prev.H}) does not match the data"
                )
            # resume at the stored width unless a wider k is asked for
            # explicitly; padding to the default width would bury the warm
            # start under random columns at signal scale
            cap = min(data.P.shape[1], data.F.shape[1])
            k_req = _pick(args.k, _get(cfg, "solver", "k"))
            if k_req is None:
                k = max(prev.rank, 1)
            else:
                k = min(max(int(k_req), prev.rank, 1), cap)
            scale = float(np.std(data.F)) or 1.0
            init = _pad_factors(prev.U, prev.V, k, opts.seed, scale)
            model, report = fit_factored(
                data, lam, kappa, loss, W, replace(opts, k=k, init=init), means
            )
        else:
            model, report = fit_auto_rank(data, lam, kappa, loss, W, opts, means)
        bundle = ModelBundle(model, trend=trend)
        save_model_json(model_out, model, trend=trend)
    res = _bundle_metrics(bundle, series, loss)
    report_doc = {
        "lambda": lam,
        "alpha": None if alpha is None else float(alpha),
        "kappa": kappa,
        "loss": loss.to_json(),
        "rank": model.rank,
        "final_objective": report.final_objective,
        "objective_trace": list(report.objective_trace),
        "iterations": report.iterations,
        "sweeps": report.sweeps,
        "converged": report.converged,
        "k_schedule": list(report.k_schedule),
        "cap_reached": report.cap_reached,
        "optimality_residuals": (
            None
            if report.optimality_residuals is None
            else list(report.optimality_residuals)
        ),
        "train_loss": res.loss,
        "train_inconsistency": res.inconsistency,
        "per_horizon_train_loss": res.per_horizon_loss.tolist(),
        "n_windows": res.n_windows,
        "wall_time_s": report.wall_time,
    }
    dump_json(report_out, report_doc)
    print(
        f"fit: rank={model.rank} lambda={lam:.6g} kappa={kappa:g} "
        f"objective={report.final_objective:.6g} train_loss={res.loss:.6g}"
    )
    return 0


def cmd_forecast(args) -> int:
    bundle = load_model_json(args.model)
    model = bundle.model
    series = read_series_csv(args.input)
    t_last = series.t0 + series.T - 1
    at = t_last if args.at is None else int(args.at)
    if at < series.t0 or at > t_last:
        raise ValueError(f"--at {at} outside the series range [{series.t0}, {t_last}]")
    avail = at - series.t0 + 1
    if avail < model.M:
        raise ValueError(
            f"insufficient history: need {model.M} rows up to t={at}, have {avail}"
        )
    work = detrend_apply(series, bundle.trend) if bundle.trend is not None else series
    centered, _ = center(work, model.means)
    p = centered.values[avail - model.M : avail].ravel()
    z = model.encode(p)
    fhat = model.decode(z).reshape(model.H, model.n) + model.means
    if bundle.phi is not None:
        if bundle.aux_features is None:
            raise ValueError(
                "model carries aux coefficients but no feature spec to forecast with"
            )
        row = time_features(np.array([at]), bundle.aux_features) @ bundle.phi
        fhat = fhat + row.reshape(model.H, model.n)
    future_t = np.arange(at + 1, at + model.H + 1)
    if bundle.trend is not None:
        if bundle.trend.features is None:
            raise ValueError("stored trend has no feature spec; cannot retrend")
        fhat = retrend(fhat, bundle.trend, time_features(future_t, bundle.trend.features))
    names = series.column_names()
    out = fhat
    if args.emit_latent:
        names = names + [f"z{j + 1}" for j in range(model.rank)]
        out = np.hstack([fhat, np.tile(z, (model.H, 1))])
    write_matrix_csv(args.out, out, names, t_index=future_t)
    print(f"forecast: wrote {model.H} rows from origin t={at} to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    bundle = load_model_json(args.model)
    series = read_series_csv(args.input)
    res = _bundle_metrics(bundle, series, bundle.model.loss)
    dump_json(
        args.out,
        {
            "loss": res.loss,
            "inconsistency": res.inconsistency,
            "per_horizon_loss": res.per_horizon_loss.tolist(),
            "n_windows": res.n_windows,
        },
    )
    print(f"evaluate: loss={res.loss:.6g} inconsistency={res.inconsistency:.6g}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _config(args)
    train_path = _pick(args.train, cfg.get("train"))
    test_path = _pick(args.test, cfg.get("test"))
    if not train_path or not test_path:
        raise ValueError("--train and --test CSVs are required")
    M = _pick(args.M, cfg.get("M"))
    H = _pick(args.H, cfg.get("H"))
    if M is None or H is None:
        raise ValueError("--M and --H are required")
    alphas = _pick(args.alphas, cfg.get("alphas"))
    if not alphas:
        raise ValueError("--alphas is required (comma-separated)")
    kappas = _pick(args.kappas, cfg.get("kappas"), default=[0.0])
    loss = _loss_from(args, cfg)
    opts = _opts_from(args, cfg)
    jobs = int(_pick(args.jobs, cfg.get("jobs"), default=1))
    out = _pick(args.out, cfg.get("out"), default="sweep.csv")
    train = read_series_csv(train_path)
    test = read_series_csv(test_path)
    table = sweep(train, test, alphas, kappas, int(M), int(H), loss, opts, jobs=jobs)
    write_sweep_csv(out, table.rows)
    best = table.best()
    print(
        f"sweep: {len(table.rows)} rows -> {out}; best alpha={best.alpha:g} "
        f"kappa={best.kappa:g} rank={best.rank} test_loss={best.test_loss:.6g}"
    )
    return 0


def cmd_detrend(args) -> int:
    series = read_series_csv(args.input)
    if args.aux:
        aux_mat = read_series_csv(args.aux).values
        if aux_mat.shape[0] != series.T:
            raise ValueError(
                f"aux CSV has {aux_mat.shape[0]} rows for a series of length {series.T}"
            )
        spec = None
    else:
        spec, _ = _features_from(args, {})
        if spec is None:
            raise ValueError("give --periods/--weekday features or an --aux CSV")
        aux_mat = None
    trend = detrend_fit(series, aux=aux_mat, lam=args.lam, features=spec)
    resid = detrend_apply(series, trend, aux=aux_mat)
    write_series_csv(args.out, resid)
    dump_json(args.trend_out, trend_to_json(trend))
    print(f"detrend: wrote residual to {args.out}, baseline to {args.trend_out}")
    return 0


def cmd_latent(args) -> int:
    bundle = load_model_json(args.model)
    model = bundle.model
    if model.rank == 0:
        raise ValueError("model has rank 0: no latent states to extract")
    series = read_series_csv(args.input)
    work = detrend_apply(series, bundle.trend) if bundle.trend is not None else series
    centered, _ = center(work, model.means)
    if centered.T < model.M:
        raise ValueError(f"series has {centered.T} rows; need at least M={model.M}")
    Z = model.encode(past_windows(centered.values, model.M))
    count = Z.shape[0]
    write_matrix_csv(
        args.out,
        Z,
        [f"z{j + 1}" for j in range(model.rank)],
        t_index=_origin_times(series, model.M, count),
    )
    A, Wc = latent_ar_fit(Z, jitter=args.jitter)
    rho = float(np.max(np.abs(np.linalg.eigvals(A))))
    dump_json(
        args.ar_out,
        {"A": A.tolist(), "W": Wc.tolist(), "spectral_radius": rho},
    )
    print(f"latent: wrote {count} states to {args.out}; AR spectral radius {rho:.4f}")
    return 0


# -------------------------------------------------------------------- parser


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, help="initial factor width")
    p.add_argument("--max-outer", dest="max_outer", type=int,
                   help="max alternation sweeps")
    p.add_argument("--obj-tol", dest="obj_tol", type=float,
                   help="relative objective decrease stop")
    p.add_argument("--grad-tol", dest="grad_tol", type=float,
                   help="inner solver gradient tolerance")
    p.add_argument("--seed", type=int, help="factor initialization seed")
    p.add_argument("--config", help="JSON config file; flags override it")


def _add_loss_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--loss", choices=[SQUARED_L2, L1, HUBER], help="penalty kind")
    p.add_argument("--delta", type=float, help="huber threshold")


def _add_feature_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--periods", type=_comma_floats,
                   help="sin/cos feature periods, comma-separated")
    p.add_argument("--weekday", action=argparse.BooleanOptionalAction, default=None,
                   help="add a weekday indicator feature")
    p.add_argument("--products", action=argparse.BooleanOptionalAction, default=None,
                   help="add all ordered products of the base features")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lrforecast",
        description="Low-rank forecasting of vector time series.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="sample a random stable state-space model")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--T-train", dest="T_train", type=int, default=100)
    p.add_argument("--T-test", dest="T_test", type=int, default=500)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--rank", type=int, default=2, help="latent dimension")
    p.add_argument("--spectral-radius", dest="spectral_radius", type=float, default=0.98)
    p.add_argument("--q-scale", dest="q_scale", type=float, default=1.0)
    p.add_argument("--r-scale", dest="r_scale", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit a low-rank forecaster to a series CSV")
    p.add_argument("--train")
    p.add_argument("--M", type=int)
    p.add_argument("--H", type=int)
    p.add_argument("--alpha", type=float, help="lambda as a fraction of lambda_max")
    p.add_argument("--lambda", dest="lam", type=float, help="nuclear norm weight")
    p.add_argument("--kappa", type=float, help="consistency penalty weight")
    p.add_argument("--weight-h-t", dest="weight_h_t", type=float,
                   help="horizon half-life (steps)")
    p.add_argument("--weight-h-tau", dest="weight_h_tau", type=float,
                   help="recency half-life (steps)")
    p.add_argument("--weight-col", dest="weight_col", type=_comma_floats,
                   help="per-coordinate weights, comma-separated")
    p.add_argument("--no-joint-nuclear", dest="joint_nuclear", action="store_false",
                   default=None, help="keep aux coefficients under a ridge penalty")
    p.add_argument("--trend", help="trend.json to carry along for forecasting")
    p.add_argument("--warm-start", dest="warm_start", help="model.json to start from")
    p.add_argument("--model-out", dest="model_out")
    p.add_argument("--report-out", dest="report_out")
    _add_loss_flags(p)
    _add_feature_flags(p)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("forecast", help="forecast H steps from a chosen origin")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", default="forecast.csv")
    p.add_argument("--at", type=int, help="origin time (default: last row)")
    p.add_argument("--emit-latent", dest="emit_latent", action="store_true")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("evaluate", help="score a fitted model on a series CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", default="metrics.json")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="grid over (alpha, kappa) with train/test scoring")
    p.add_argument("--train")
    p.add_argument("--test")
    p.add_argument("--M", type=int)
    p.add_argument("--H", type=int)
    p.add_argument("--alphas", type=_comma_floats)
    p.add_argument("--kappas", type=_comma_floats)
    p.add_argument("--jobs", type=int)
    p.add_argument("--out")
    _add_loss_flags(p)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("detrend", help="subtract a least-squares feature baseline")
    p.add_argument("--input", required=True)
    p.add_argument("--out", default="residual.csv")
    p.add_argument("--trend-out", dest="trend_out", default="trend.json")
    p.add_argument("--aux", help="CSV of auxiliary columns aligned to the series")
    p.add_argument("--lam", type=float, default=0.0)
    _add_feature_flags(p)
    p.set_defaults(func=cmd_detrend)

    p = sub.add_parser("latent", help="extract latent states and fit their dynamics")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", default="latent.csv")
    p.add_argument("--ar-out", dest="ar_out", default="ar.json")
    p.add_argument("--jitter", type=float, default=0.0)
    p.set_defaults(func=cmd_latent)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
