"""Benchmark of lrforecast: end-to-end metrics, or per-layer metrics when traced.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload sweep_paper --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1

The program is imported from `src/` of the checkout; without it the run
exits non-zero.  A run sets up five times (median = setup_s), then
times whole passes over the workload's fixed instance set, starting a
further pass only while the --seconds window still holds one, and
checks every operation outside the timed region.  With --trace 1 it
times one untraced pass, one traced pass, and one pass in a child
process with a single BLAS thread, and reports per-layer metrics.
Human-readable lines come first; the last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = ROOT / "src" / "lrforecast"
SETUP_REPEATS = 5
# fits listed in the traced output: unconverged, or KKT residual above this share of lam
KKT_NOTE = 0.01
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    ap = argparse.ArgumentParser(description="lrforecast benchmark")
    ap.add_argument("--workload", required=True,
                    help="sweep_paper, consistency_paper, cli_long, or all")
    ap.add_argument("--seed", type=int, default=0, help="orders the fixed instance set")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measurement window; at least one whole pass runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="0: end-to-end metrics; 1: per-layer metrics")
    ap.add_argument("--blas-threads", dest="blas_threads", type=int,
                    help="BLAS threads (default: the usable cores, OpenBLAS's own default)")
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs small instances, for the benchmark's self-tests")
    return ap.parse_args(argv)


def default_blas_threads() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def pin_blas(threads: int) -> None:
    # must run before numpy is imported: OpenBLAS reads these once, at load
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def import_program():
    """(Re)imports lrforecast from the checkout's src/ directory."""
    src = PROGRAM.parent
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "lrforecast" or m.startswith("lrforecast.")]:
        del sys.modules[name]
    lf = importlib.import_module("lrforecast")
    importlib.import_module("lrforecast.serialize")
    importlib.import_module("lrforecast.cli")
    if Path(lf.__file__).resolve().parent != PROGRAM.resolve():
        raise SystemExit(f"error: imported lrforecast from {lf.__file__}, not {PROGRAM}")
    return lf


def blas_threads_reported(np):
    """Thread count that numpy's bundled OpenBLAS reports, or None."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def environment(np, scipy, args, threads, reported) -> dict:
    def blas_version(module):
        with contextlib.suppress(AttributeError, KeyError, TypeError, ValueError):
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        return "unknown"

    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            if out.returncode == 0:
                commit = out.stdout.strip()
    return {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "openblas_numpy": blas_version(np), "openblas_scipy": blas_version(scipy),
        "blas_threads_pinned": threads, "blas_threads_reported": reported,
        "git_commit": commit,
    }


@contextlib.contextmanager
def _no_span(name):
    yield


def set_up(workload, size, workdir):
    """Import, input generation and a tiny warm-up operation, SETUP_REPEATS times."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lf = import_program()
        instances = workload.instances(lf, size, workdir)
        workload.op(lf, workload.instances(lf, "tiny", workdir / "warmup")[0], _no_span)
        times.append(time.perf_counter() - t0)
    print("setup_s samples " + " ".join(f"{t:.4f}" for t in times))
    return lf, instances, statistics.median(times)


def run_passes(W, workload, lf, instances, order, seconds, refs, label, tracer=None):
    """Whole timed passes over the instances; returns (instance seed, seconds, Outcome)."""
    records = []
    spent = 0.0
    noted = 0
    while True:
        pass_s = 0.0
        for i in order:
            inst = instances[i]
            with tracer.installed() if tracer else contextlib.nullcontext():
                t0 = time.perf_counter()
                try:
                    result, error = workload.op(lf, inst, tracer.span if tracer else _no_span), None
                except Exception as e:  # a failed operation is recorded, not fatal
                    traceback.print_exc()
                    result, error = None, f"{type(e).__name__}: {e}"
                dt = time.perf_counter() - t0
            if error is None:
                try:
                    outcome = workload.check(lf, inst, result, refs)
                except Exception as e:  # so is a check that cannot complete
                    traceback.print_exc()
                    outcome = W.Outcome(False, f"check raised {type(e).__name__}: {e}")
            else:
                outcome = W.Outcome(False, error)
            records.append((inst.seed, dt, outcome))
            pass_s += dt
            status = "ok" if outcome.ok else f"FAIL: {outcome.reason}"
            print(f"op {label} {len(records)} instance={inst.seed} time_s={dt:.4f} "
                  f"gap={outcome.gap:.3g} {status}")
            if tracer:
                for lam, rank, converged, kkt in tracer.fits[noted:]:
                    if not converged or kkt > KKT_NOTE:
                        print(f"fit instance={inst.seed} lam={lam:.6g} rank={rank} "
                              f"converged={converged} kkt_rel={kkt:.3g}")
                noted = len(tracer.fits)
        spent += pass_s
        if seconds - spent < pass_s:
            return records


def _mean_ok(records, field):
    vals = [getattr(o, field) for _, _, o in records if o.ok]
    return statistics.fmean(vals) if vals else math.nan


def end_to_end(records, setup_s) -> dict:
    times = [dt for _, dt, _ in records]
    ok = sum(o.ok for _, _, o in records)
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "ops_per_s": (ok / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "test_loss": (_mean_ok(records, "test_loss"), "loss"),
        "test_inconsistency": (_mean_ok(records, "test_inconsistency"), "sq_dist"),
    }


def per_layer(W, tr, traced, untraced, threads, single_p50) -> dict:
    m = {}

    def calls_self(name):
        m[f"{name}.calls"] = (tr.calls.get(name, 0), "count")
        m[f"{name}.self_s"] = (tr.self_s(name), "s")

    for name in ("objective.hankel_project", "objective.loss_grad", "objective.loss_value"):
        calls_self(name)
    calls_self("solver.minimize")
    m["solver.minimize.nfev"] = (tr.nfev, "count")
    m["solver.lbfgs_iters"] = (tr.lbfgs_iters, "count")
    m["solver.sweeps"] = (tr.sweeps, "count")
    calls_self("solver.fit_factored")
    attempts = tr.calls.get("solver.fit_factored", 0)
    m["solver.useful_width_ratio"] = (
        tr.calls.get("solver.fit_auto_rank", 0) / attempts if attempts else 0.0, "ratio")
    calls_self("solver.lambda_max")
    calls_self("solver.reduce_rank")
    gaps = [o.gap for _, _, o in traced if math.isfinite(o.gap)]
    m["solver.objective_gap"] = (max(gaps, default=math.nan), "ratio")
    m["solver.kkt_max_rel"] = (tr.kkt_max_rel, "ratio")
    m["solver.unconverged"] = (tr.unconverged, "count")
    calls_self("evaluation.evaluate_forecasts")
    m["evaluation.sweep.self_s"] = (tr.self_s("evaluation.sweep"), "s")
    calls_self("core.build_windows")
    for fn in ("read_series_csv", "write_series_csv", "write_matrix_csv", "dump_json",
               "load_json"):
        calls_self(f"serialize.{fn}")
        m[f"serialize.{fn}.bytes"] = (tr.bytes.get(f"serialize.{fn}", 0), "B")
    for stage in W.CLI_STAGES:
        m[f"cli.{stage}.s"] = (tr.total_s.get(f"cli.{stage}", 0.0), "s")
    untraced_p50 = statistics.median(dt for _, dt, _ in untraced)
    m["blas.threads"] = (threads, "count")
    m["blas.single_thread_speedup"] = (
        untraced_p50 / single_p50 if single_p50 else math.nan, "ratio")
    m["trace.overhead_ratio"] = (
        statistics.median(dt for _, dt, _ in traced) / untraced_p50, "ratio")
    return m


def child_argv(workload, args, seconds, trace, threads):
    return [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace),
            "--blas-threads", str(threads), "--size", args.size]


def single_thread_pass(args):
    """One untraced pass in a child process pinned to one BLAS thread."""
    argv = child_argv(args.workload, args, 0, 0, 1)
    try:
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"single-thread pass exceeded {CHILD_TIMEOUT_S} s"
    if out.returncode != 0:
        return None, f"single-thread pass exited {out.returncode}: {out.stderr.strip()[-500:]}"
    return json.loads(out.stdout.strip().splitlines()[-1]), None


def print_metrics(kind, metrics, n_ops):
    for name, (value, unit) in metrics.items():
        extra = f" (n={n_ops})" if name == "op_p50_s" else ""
        print(f"metric {kind} {name} = {value:.6g} {unit}{extra}")


def run_workload(args, threads) -> dict:
    import numpy as np
    import scipy
    import scipy.optimize  # noqa: F401  (loaded before set-up, so each set-up is alike)

    import tracer as T
    import workloads as W

    if args.workload not in W.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(W.WORKLOADS)} or all")
    workload = W.WORKLOADS[args.workload]
    reported = blas_threads_reported(np)
    print("env " + json.dumps(environment(np, scipy, args, threads, reported), sort_keys=True))
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        lf, instances, setup_s = set_up(workload, args.size, workdir)
        order = list(range(len(instances)))
        random.Random(args.seed).shuffle(order)
        refs = W.References()
        seconds = 0.0 if args.trace else args.seconds
        untraced = run_passes(W, workload, lf, instances, order, seconds, refs, "untraced")
        e2e = end_to_end(untraced, setup_s)
        print_metrics("end_to_end", e2e, len(untraced))
        records = list(untraced)
        failed_extra = attempted_extra = 0
        metrics = e2e
        if args.trace:
            tr = T.Tracer()
            traced = run_passes(W, workload, lf, instances, order, 0.0, refs, "traced", tracer=tr)
            records += traced
            single, error = single_thread_pass(args)
            if error:
                print(f"FAIL single-thread pass: {error}")
                attempted_extra, failed_extra, single_p50 = 1, 1, None
            else:
                attempted_extra, failed_extra = single["attempted"], single["failed"]
                single_p50 = single["metrics"]["op_p50_s"]["value"]
            metrics = per_layer(W, tr, traced, untraced,
                                reported if reported is not None else threads, single_p50)
            print_metrics("per_layer", metrics, len(traced))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    failed = sum(not o.ok for _, _, o in records) + failed_extra
    attempted = len(records) + attempted_extra
    print(f"metric end_to_end fail_ratio = {failed / attempted:.6g} ratio (n={attempted})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": _finite_or_none(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def _finite_or_none(v):
    # JSON has no NaN: a metric that could not be measured is null
    return v if isinstance(v, int) or math.isfinite(v) else None


def run_all(args, threads) -> dict:
    """Runs every workload in its own process and merges their results."""
    import workloads as W

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in W.WORKLOADS:
        argv = child_argv(name, args, args.seconds, args.trace, threads)
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode != 0 or not lines:
            raise SystemExit(f"error: {name} exited {out.returncode}: {out.stderr.strip()}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    return merged


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PROGRAM / "__init__.py").is_file():
        raise SystemExit(f"error: {PROGRAM} not found; run from a checkout of the repository")
    threads = args.blas_threads or default_blas_threads()
    pin_blas(threads)
    result = run_all(args, threads) if args.workload == "all" else run_workload(args, threads)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
