"""The benchmark's workloads: inputs, one timed operation, and its check.

Every workload runs the same fixed instance set on every run, so that
runs with different seeds measure the same work; the run seed only
orders the instances.  The instance seeds were fixed before measuring
and are never edited to drop an instance that fails or stops early.

Each operation is checked outside its timed region.  A fit passes when
its convex objective is at most GAP_TOL (relative) above the objective
of `svt_reference_solve` on the same input.  The reference is computed
once per input and cached for the rest of the run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEEDS = (0, 1, 2)
CLI_SEEDS = (0,)
# The reference stops once its relative objective change stalls below
# 1e-8, and on the default instances it lands up to 6e-7 above the
# factored fit; a fit more than 1e-6 above it is not at the optimum.
GAP_TOL = 1e-6
EVAL_RTOL = 1e-12

# full: the sizes the workloads are defined at; tiny: warm-up and self-tests
SIZES = {
    "full": {"n": 10, "r": 2, "T_train": 100, "T_test": 500, "M": 12,
             "alphas": 20, "cli_T_train": 2000, "cli_T_test": 20000},
    "tiny": {"n": 3, "r": 1, "T_train": 40, "T_test": 40, "M": 4,
             "alphas": 4, "cli_T_train": 60, "cli_T_test": 60},
}


@dataclass
class Outcome:
    """Result of checking one operation."""

    ok: bool
    reason: str = ""
    test_loss: float = math.nan
    test_inconsistency: float = math.nan
    gap: float = math.nan


@dataclass
class PaperInstance:
    seed: int
    train: object
    test: object
    data: object
    means: np.ndarray
    lam: float
    M: int
    alphas: np.ndarray


class References:
    """svt_reference_solve objectives, computed once per (input, lam, kappa)."""

    def __init__(self):
        self._obj: dict[tuple, float] = {}

    def gap(self, lf, key, data, theta, lam, kappa) -> float:
        """Relative amount by which theta's objective exceeds the reference's."""
        ref_key = (key, lam, kappa)
        if ref_key not in self._obj:
            theta_ref = lf.svt_reference_solve(data, lam, kappa)
            self._obj[ref_key] = lf.main_objective(theta_ref, data, lam, kappa)
        ref = self._obj[ref_key]
        return (lf.main_objective(theta, data, lam, kappa) - ref) / abs(ref)


def _fit_outcome(gap: float, test_loss: float, test_inconsistency: float) -> Outcome:
    if not gap <= GAP_TOL:
        reason = f"objective {gap:.3g} above reference (tolerance {GAP_TOL:g})"
        return Outcome(False, reason, test_loss, test_inconsistency, gap)
    return Outcome(True, "", test_loss, test_inconsistency, gap)


def paper_instances(lf, size: str) -> list[PaperInstance]:
    """Paper-scale simulated series (SimSpec defaults), one per default seed."""
    p = SIZES[size]
    out = []
    for s in DEFAULT_SEEDS:
        spec = lf.SimSpec(n=p["n"], r=p["r"], T_train=p["T_train"], T_test=p["T_test"], seed=s)
        model = lf.gen_model(spec)
        train, _ = lf.sample(model, spec.T_train, seed=s)
        test, _ = lf.sample(model, spec.T_test, seed=s + 1)
        centered, means = lf.center(train)
        data = lf.build_windows(centered, p["M"], p["M"])
        lam = 0.1 * lf.lambda_max(data.P, data.F)
        out.append(PaperInstance(s, train, test, data, means, lam, p["M"],
                                 np.linspace(0.3, 0.01, p["alphas"])))
    return out


class SweepPaper:
    """Warm-started 20-alpha model-selection sweep at kappa = 0."""

    name = "sweep_paper"

    def instances(self, lf, size, workdir):
        return paper_instances(lf, size)

    def op(self, lf, inst, span):
        return lf.sweep(inst.train, inst.test, alphas=inst.alphas, kappas=[0.0],
                        M=inst.M, H=inst.M, jobs=1)

    def check(self, lf, inst, table, refs):
        failed = [f"{r.alpha:.4g}" for r in table.rows if r.failed]
        if failed:
            return Outcome(False, f"sweep rows failed at alpha {', '.join(failed)}")
        best = table.best()
        # the selected row is refitted cold and held to the reference
        model, _ = lf.fit_auto_rank(inst.data, best.lam, 0.0, means=inst.means)
        gap = refs.gap(lf, inst.seed, inst.data, model.theta(), best.lam, 0.0)
        return _fit_outcome(gap, best.test_loss, best.test_inconsistency)


class ConsistencyPaper:
    """One consistency-regularized fit (kappa = 1) at 0.1 * lambda_max."""

    name = "consistency_paper"
    kappa = 1.0

    def instances(self, lf, size, workdir):
        return paper_instances(lf, size)

    def op(self, lf, inst, span):
        return lf.fit_auto_rank(inst.data, inst.lam, self.kappa, means=inst.means)

    def check(self, lf, inst, fitted, refs):
        model, _ = fitted
        gap = refs.gap(lf, inst.seed, inst.data, model.theta(), inst.lam, self.kappa)
        res = lf.evaluate(model, inst.test)
        return _fit_outcome(gap, res.loss, res.inconsistency)


@dataclass
class CliInstance:
    seed: int
    workdir: Path
    T_train: int
    T_test: int
    n: int
    r: int
    M: int
    ops: int = 0


CLI_STAGES = ("simulate", "fit", "evaluate", "forecast", "latent")


class CliLong:
    """In-process CLI pipeline on a long simulated series, in a scratch dir."""

    name = "cli_long"

    def instances(self, lf, size, workdir):
        p = SIZES[size]
        return [CliInstance(s, Path(workdir), p["cli_T_train"], p["cli_T_test"],
                            p["n"], p["r"], p["M"]) for s in CLI_SEEDS]

    def op(self, lf, inst, span):
        inst.ops += 1
        d = inst.workdir / f"cli-{inst.seed}-{inst.ops}"
        m = str(inst.M)
        argv = {
            "simulate": ["--out-dir", str(d), "--T-train", str(inst.T_train),
                         "--T-test", str(inst.T_test), "--n", str(inst.n),
                         "--rank", str(inst.r), "--seed", str(inst.seed)],
            "fit": ["--train", str(d / "train.csv"), "--M", m, "--H", m, "--alpha", "0.1",
                    "--model-out", str(d / "model.json"),
                    "--report-out", str(d / "report.json")],
            "evaluate": ["--model", str(d / "model.json"), "--input", str(d / "test.csv"),
                         "--out", str(d / "metrics.json")],
            "forecast": ["--model", str(d / "model.json"), "--input", str(d / "test.csv"),
                         "--out", str(d / "forecast.csv")],
            "latent": ["--model", str(d / "model.json"), "--input", str(d / "test.csv"),
                       "--out", str(d / "latent.csv"), "--ar-out", str(d / "ar.json")],
        }
        log = io.StringIO()
        for stage in CLI_STAGES:
            with span(f"cli.{stage}"), contextlib.redirect_stdout(log), \
                    contextlib.redirect_stderr(log):
                rc = lf.cli.main([stage] + argv[stage])
            if rc != 0:
                return d, f"{stage} exited {rc}: {log.getvalue().strip()}"
        return d, None

    def check(self, lf, inst, result, refs):
        d, error = result
        try:
            return Outcome(False, error) if error else self._check_files(lf, inst, d, refs)
        finally:
            shutil.rmtree(d, ignore_errors=True)

    def _check_files(self, lf, inst, d, refs):
        with open(d / "metrics.json", encoding="utf-8") as fh:
            metrics = json.load(fh)
        with open(d / "report.json", encoding="utf-8") as fh:
            lam = json.load(fh)["lambda"]
        model = lf.serialize.load_model_json(str(d / "model.json")).model
        lib = lf.evaluate(model, lf.serialize.read_series_csv(str(d / "test.csv")))
        for key, got, want in (("loss", metrics["loss"], lib.loss),
                               ("inconsistency", metrics["inconsistency"], lib.inconsistency)):
            if not abs(got - want) <= EVAL_RTOL * abs(want):
                return Outcome(False, f"metrics.json {key} {got!r} != library evaluate {want!r}")
        centered, _ = lf.center(lf.serialize.read_series_csv(str(d / "train.csv")), model.means)
        data = lf.build_windows(centered, model.M, model.H)
        gap = refs.gap(lf, inst.seed, data, model.theta(), lam, model.kappa)
        return _fit_outcome(gap, lib.loss, lib.inconsistency)


WORKLOADS = {w.name: w for w in (SweepPaper(), ConsistencyPaper(), CliLong())}
