"""Command line surface: simulate, fit, forecast, evaluate, sweep, detrend, latent.

All commands work over CSV series files and JSON documents (see the
serialize module for the exact formats).  A JSON config file can supply
any fit/sweep setting under the same name as its flag group; explicit
flags win over config values, and keys that name no setting are rejected.

Exit codes: 0 success, 2 input validation error, 3 numerical failure.
Given identical inputs and seeds every command writes bytewise-identical
payload files; only report.json and sweep.csv contain wall-clock timings.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from .core import build_windows, center, past_windows
from .evaluation import evaluate, sweep
from .features import (
    FeatureSpec,
    ModelBundle,
    aux_joint_fit,
    detrend_apply,
    detrend_fit,
    latent_ar_fit,
    origin_times,
    retrend,
    time_features,
)
from .objective import HUBER, L1, SQUARED_L2, Loss, build_weights
from .serialize import (
    dump_json,
    json_object,
    load_json,
    load_model_json,
    loss_to_json,
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
from .solver import FitOptions, NumericalError, fit_auto_rank, lambda_max


# --------------------------------------------------------------- config glue


# Every config key and the flag dest it fills; a dict is a nested group.
CONFIG_KEYS = {
    "solver": {k: k for k in ("k", "max_outer", "seed")},
    "loss": {"kind": "loss", "delta": "delta"},  # or a bare kind string
    "features": {k: k for k in ("periods", "weekday", "products", "joint_nuclear")},
    "weights": {"h_t": "weight_h_t", "h_tau": "weight_h_tau", "w_col": "weight_col"},
    "lambda": "lam",
    **{k: k for k in (
        "train", "test", "M", "H", "alpha", "kappa", "alphas", "kappas", "out",
        "model_out", "report_out", "trend", "warm_start",
    )},
}

# the FitOptions fields settable by flag or by the config's "solver" object
SOLVER_KEYS = tuple(CONFIG_KEYS["solver"].values())


def _merge_config(args, doc, flags, table=CONFIG_KEYS, group="config") -> None:
    """Fills every setting whose flag was not given from the config document.

    Keys outside the table are rejected at every level.  A known key whose
    flag the command lacks is ignored, so one file serves fit and sweep.
    flags maps each flag dest of the command to the action that checks it.
    """
    json_object(doc, group, optional=table, noun="options")
    for key, dest in table.items():
        val = doc.get(key)
        if val is None:
            continue
        if isinstance(dest, dict):
            if key == "loss" and isinstance(val, str):
                val = {"kind": val}
            _merge_config(args, val, flags, dest, key)
        elif dest in flags and getattr(args, dest) is None:
            setattr(args, dest, _flag_value(flags[dest], f"{group} option {key}", val))


def _flag_value(action: argparse.Action, name: str, val):
    """A config value as its flag would parse it, or a ValueError naming it.

    A switch takes a boolean; other values pass the flag's type and choices
    as flag text (a list comma-joined, accepted where the flag parses one).
    """
    out, ok = val, isinstance(val, bool)
    if action.nargs != 0:  # not a switch
        text = ",".join(map(str, val)) if isinstance(val, list) else str(val)
        try:
            out = text if action.type is None else action.type(text)
            ok = isinstance(out, list) == isinstance(val, list)
            ok = ok and (action.choices is None or out in action.choices)
        except (ValueError, argparse.ArgumentTypeError):
            ok = False
    if not ok:
        raise ValueError(f"{name}: invalid value {val!r}")
    return out


def _comma_floats(s: str) -> list[float]:
    try:
        return [float(tok) for tok in s.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number list {s!r}") from None


def _loss_from(args) -> Loss:
    kind = SQUARED_L2 if args.loss is None else args.loss
    # huber defaults its threshold to 1; a delta given with another kind is refused by Loss
    delta = 1.0 if kind == HUBER and args.delta is None else args.delta
    return Loss(kind=kind, delta=delta)


def _opts_from(args) -> FitOptions:
    return FitOptions(**{
        name: getattr(args, name) for name in SOLVER_KEYS if getattr(args, name) is not None
    })


def _features_from(args) -> FeatureSpec | None:
    if not args.periods and not args.weekday:
        return None
    return FeatureSpec(args.periods or (), bool(args.weekday), bool(args.products))


def _weights_from(args, N, H, n):
    h_t, h_tau, w_col = args.weight_h_t, args.weight_h_tau, args.weight_col
    if h_t is None and h_tau is None and w_col is None:
        return None
    if h_t is None or h_tau is None:
        raise ValueError("weighting needs both --weight-h-t and --weight-h-tau")
    w_col = np.ones(n) if w_col is None else np.asarray(w_col, dtype=float)
    if w_col.shape != (n,):
        raise ValueError(f"--weight-col needs {n} entries, got {w_col.shape[0]}")
    return build_weights(h_t, h_tau, w_col, N, H)


# ----------------------------------------------------------------- commands


def cmd_simulate(args) -> int:
    spec = SimSpec(**{f.name: getattr(args, f.name) for f in fields(SimSpec)})
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
    if not args.train:
        raise ValueError("a training CSV is required (--train)")
    if args.M is None or args.H is None:
        raise ValueError("--M and --H are required")
    M, H = args.M, args.H
    loss = _loss_from(args)
    alpha, lam = args.alpha, args.lam
    if (alpha is None) == (lam is None):
        raise ValueError("exactly one of --alpha and --lambda must be given")
    kappa = 0.0 if args.kappa is None else args.kappa
    opts = _opts_from(args)
    spec = _features_from(args)
    if spec is not None and args.warm_start:
        raise ValueError("--warm-start cannot be combined with feature flags")
    model_out = args.model_out or "model.json"
    report_out = args.report_out or "report.json"

    series = read_series_csv(args.train)
    centered, means = center(series)
    data = build_windows(centered, M, H)
    W = _weights_from(args, data.N, H, series.n)
    aux = None if spec is None else time_features(origin_times(series, M, data.N), spec)
    joint = aux is not None and args.joint_nuclear is not False
    if alpha is not None:  # a joint-nuclear fit is zero above the lambda_max of [P, aux]
        lam = alpha * lambda_max(np.hstack([data.P, aux]) if joint else data.P, data.F, loss, W=W)
    trend = trend_from_json(load_json(args.trend)) if args.trend else None
    if trend is not None and trend.features is None:  # evaluate/forecast re-apply it
        raise ValueError("--trend needs a trend fitted on features, not on --aux rows")
    if trend is not None:
        trend.check_width(series.n)
    phi = None
    if spec is not None:
        model, phi, report = aux_joint_fit(
            data, aux, lam, kappa, loss, W, opts, joint_nuclear=joint, means=means
        )
    elif args.warm_start:
        prev = load_model_json(args.warm_start).model
        if (prev.n, prev.M, prev.H) != (data.n, M, H):
            raise ValueError(
                "warm-start model shape "
                f"(n={prev.n}, M={prev.M}, H={prev.H}) does not match the data"
            )
        # start at the stored width unless a wider k is asked for explicitly, and
        # widen from there like a cold fit; padding to the default width would
        # bury the warm start under random columns whose forecast alone has F's norm
        warm = replace(opts, k=args.k or 1, init=(prev.U, prev.V))
        model, report = fit_auto_rank(data, lam, kappa, loss, W, warm, means)
    else:
        model, report = fit_auto_rank(data, lam, kappa, loss, W, opts, means)
    save_model_json(model_out, model, trend=trend, phi=phi, aux_features=spec)
    # the input is already the trend's residual, so it is scored without the trend
    res = evaluate(ModelBundle(model, phi=phi, aux_features=spec), series, loss)
    report_doc = asdict(report)  # optimality_residuals' tuple dumps as a list
    report_doc["wall_time_s"] = report_doc.pop("wall_time")
    dump_json(report_out, {
        **report_doc, "lambda": lam, "alpha": alpha, "kappa": kappa, "loss": loss_to_json(loss),
        "train_loss": res.loss, "train_inconsistency": res.inconsistency,
        "per_horizon_train_loss": res.per_horizon_loss.tolist(), "n_windows": res.n_windows,
    })
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
    p = bundle.center(series).values[avail - model.M : avail].ravel()
    z = model.encode(p)
    # data-scale forecast summed as (decode + means) + aux row, in that order
    fhat = model.decode(z) + np.tile(model.means, model.H) + bundle.aux_term([at])
    fhat = fhat.reshape(model.H, model.n)
    future_t = np.arange(at + 1, at + model.H + 1)
    if bundle.trend is not None:  # bundle.center raised if it has no feature spec
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
    res = evaluate(bundle, series, bundle.model.loss)
    dump_json(args.out, {**asdict(res), "per_horizon_loss": res.per_horizon_loss.tolist()})
    print(f"evaluate: loss={res.loss:.6g} inconsistency={res.inconsistency:.6g}")
    return 0


def cmd_sweep(args) -> int:
    if not args.train or not args.test:
        raise ValueError("--train and --test CSVs are required")
    if args.M is None or args.H is None:
        raise ValueError("--M and --H are required")
    if not args.alphas:
        raise ValueError("--alphas is required (comma-separated)")
    kappas = [0.0] if args.kappas is None else args.kappas
    loss = _loss_from(args)
    opts = _opts_from(args)
    out = args.out or "sweep.csv"
    train = read_series_csv(args.train)
    test = read_series_csv(args.test)
    table = sweep(train, test, args.alphas, kappas, args.M, args.H, loss, opts)
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
        spec = None
    else:
        spec = _features_from(args)
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
    centered = bundle.center(series)
    if centered.T < model.M:
        raise ValueError(f"series has {centered.T} rows; need at least M={model.M}")
    Z = model.encode(past_windows(centered.values, model.M))
    count = Z.shape[0]
    # fit before writing, so a failed fit leaves neither file behind
    A, Wc = latent_ar_fit(Z, jitter=args.jitter)
    rho = float(np.max(np.abs(np.linalg.eigvals(A))))
    write_matrix_csv(
        args.out,
        Z,
        [f"z{j + 1}" for j in range(model.rank)],
        t_index=origin_times(series, model.M, count),
    )
    dump_json(
        args.ar_out,
        {"A": A.tolist(), "W": Wc.tolist(), "spectral_radius": rho},
    )
    print(f"latent: wrote {count} states to {args.out}; AR spectral radius {rho:.4f}")
    return 0


# -------------------------------------------------------------------- parser


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, help="initial factor width, at least 1; in sweep, "
                   "of each kappa column's first fit (later rows start at 2 x the last rank)")
    p.add_argument("--max-outer", dest="max_outer", type=int,
                   help="max solver sweeps (closed-form V/U passes or L-BFGS restarts)")
    p.add_argument("--seed", type=int, help="factor initialization seed")
    p.add_argument("--config", help="JSON config file; flags override it")


def _add_loss_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--loss", choices=[SQUARED_L2, L1, HUBER], help="penalty kind")
    p.add_argument("--delta", type=float, help="huber threshold (default 1); only with --loss huber")


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
    for f in fields(SimSpec):  # r is the latent dimension, flagged --rank
        flag = "--rank" if f.name == "r" else "--" + f.name.replace("_", "-")
        p.add_argument(flag, dest=f.name, type=type(f.default), default=f.default,
                       help="latent dimension" if f.name == "r" else None)
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
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if getattr(args, "config", None):
            (commands,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
            flags = {a.dest: a for a in commands.choices[args.command]._actions}
            _merge_config(args, load_json(args.config), flags)
        return args.func(args)
    except (NumericalError, np.linalg.LinAlgError) as e:  # LinAlgError is a ValueError
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
