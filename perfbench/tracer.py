"""In-memory span tracer for the lrforecast benchmark.

The tracer wraps public lrforecast functions (and scipy's `minimize` as
bound in `lrforecast.solver`) at every module attribute that names them,
so calls made inside the package are caught at the name the caller
binds.  Each call is one span; spans nest through a stack, and a span's
self time is its duration minus the durations of its direct children.
Only per-name totals are kept, in memory, and read when the run ends.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
import time

# metric prefix -> (module, attribute) of the function to wrap
TRACED = {
    "objective.hankel_project": ("lrforecast.objective", "hankel_project"),
    "objective.loss_grad": ("lrforecast.objective", "loss_grad"),
    "objective.loss_value": ("lrforecast.objective", "loss_value"),
    "solver.minimize": ("lrforecast.solver", "minimize"),
    "solver.fit_factored": ("lrforecast.solver", "fit_factored"),
    "solver.fit_auto_rank": ("lrforecast.solver", "fit_auto_rank"),
    "solver.lambda_max": ("lrforecast.solver", "lambda_max"),
    "solver.reduce_rank": ("lrforecast.solver", "reduce_rank"),
    "evaluation.evaluate_forecasts": ("lrforecast.evaluation", "evaluate_forecasts"),
    "evaluation.sweep": ("lrforecast.evaluation", "sweep"),
    "core.build_windows": ("lrforecast.core", "build_windows"),
    "serialize.read_series_csv": ("lrforecast.serialize", "read_series_csv"),
    "serialize.write_series_csv": ("lrforecast.serialize", "write_series_csv"),
    "serialize.write_matrix_csv": ("lrforecast.serialize", "write_matrix_csv"),
    "serialize.dump_json": ("lrforecast.serialize", "dump_json"),
    "serialize.load_json": ("lrforecast.serialize", "load_json"),
}

# serialize functions whose first argument is the path of the file they
# read or write; its size is counted as bytes moved
_FILE_IO = {name for name in TRACED if name.startswith("serialize.")}


class Tracer:
    """Span totals plus the per-call counts read from return values."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.child_s: dict[str, float] = {}
        self.bytes: dict[str, int] = {}
        self.nfev = 0
        self.lbfgs_iters = 0
        self.sweeps = 0
        self.unconverged = 0
        self.kkt_max_rel = 0.0
        # (lam, rank, converged, KKT residual / lam) of every fit_auto_rank call
        self.fits: list[tuple[float, int, bool, float]] = []
        self._stack: list[float] = []

    def self_s(self, name: str) -> float:
        return self.total_s.get(name, 0.0) - self.child_s.get(name, 0.0)

    @contextlib.contextmanager
    def span(self, name: str):
        """Records one span around the enclosed block."""
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            child = self._stack.pop()
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total_s[name] = self.total_s.get(name, 0.0) + dt
            self.child_s[name] = self.child_s.get(name, 0.0) + child
            if self._stack:
                self._stack[-1] += dt

    def _observe(self, name: str, args, kwargs, out) -> None:
        if name == "solver.minimize":
            self.nfev += int(out.nfev)
        elif name == "solver.fit_factored":
            report = out[1]
            self.lbfgs_iters += report.iterations
            self.sweeps += report.sweeps
        elif name == "solver.fit_auto_rank":
            report = out[1]
            lam = args[1] if len(args) > 1 else kwargs["lam"]
            kkt = math.nan
            if report.optimality_residuals is not None and lam > 0:
                kkt = max(report.optimality_residuals) / lam
                self.kkt_max_rel = max(self.kkt_max_rel, kkt)
            self.unconverged += not report.converged
            self.fits.append((lam, report.rank, report.converged, kkt))
        elif name in _FILE_IO:
            path = args[0] if args else kwargs["path"]
            self.bytes[name] = self.bytes.get(name, 0) + os.path.getsize(path)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            self._observe(name, args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wraps every lrforecast module attribute bound to a traced function."""
        originals = {}
        for name, (module, attr) in TRACED.items():
            fn = getattr(sys.modules[module], attr)
            originals[id(fn)] = (fn, self._wrap(name, fn))
        patched = []
        for modname, module in list(sys.modules.items()):
            if modname != "lrforecast" and not modname.startswith("lrforecast."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)
