"""Spans and work counts around calls into cascadelab's public functions.

The tracer rebinds each traced function to a wrapper in every cascadelab
module that holds it, not only in the module that defines it: ``coeffs``
and ``checks`` import ``transform_profiles`` by name, ``pipeline``,
``convergence`` and ``checks`` import ``integrate_limit`` by name, and so
on.  Rebinding only the defining module would silently drop those calls.

Spans (name, start, end, parent) are kept in memory for one command at a
time; ``layer_metrics`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import hashlib
import inspect
import os
import sys
import time

import numpy as np

#: (module, function) -> span name.  Every function here is public.
TRACED = {
    ("config", "parse_config"): "config.parse",
    ("spectrum", "solve_radial_eigenpairs"): "spectrum.eigensolve",
    ("kernels", "transform_profiles"): "kernels.transform",
    ("kernels", "radial_convolution"): "kernels.convolution",
    ("coeffs", "gamma_fgr"): "coeffs.fgr",
    ("coeffs", "assemble_limit_matrix"): "coeffs.limit_assembly",
    ("coeffs", "assemble_prelimit_tensor"): "coeffs.tensor_assembly",
    ("dynamics", "integrate_limit"): "dynamics.limit",
    ("dynamics", "integrate_prelimit"): "dynamics.prelimit",
    ("convergence", "eta_sweep"): "convergence.sweep",
    ("checks", "spectrum_checks"): "checks.spectrum",
    ("checks", "coefficient_checks"): "checks.coefficients",
    ("checks", "dynamics_checks"): "checks.dynamics",
    ("checks", "convergence_checks"): "checks.convergence",
    ("io", "write_json"): "io.write",
    ("io", "write_csv"): "io.write",
}

#: Per-layer metrics of the traced run: name -> (unit, better).  Every
#: time here is spent on all three workloads.
LAYER_METRICS = {
    "spectrum.eigensolves": ("count", "lower"),
    "spectrum.eigensolve_s": ("s", "lower"),
    "kernels.transform_calls": ("count", "lower"),
    "kernels.onshell_calls": ("count", "lower"),
    "kernels.sinc_evals": ("count", "lower"),
    "kernels.transform_rows": ("count", "lower"),
    "kernels.distinct_row_ratio": ("ratio", "higher"),
    "kernels.transform_s": ("s", "lower"),
    "coeffs.limit_assemblies": ("count", "lower"),
    "coeffs.tensor_assemblies": ("count", "lower"),
    "coeffs.fgr_calls": ("count", "lower"),
    "coeffs.assembly_self_s": ("s", "lower"),
    "coeffs.limit_assembly_self_s": ("s", "lower"),
    "dynamics.limit_nfev": ("count", "lower"),
    "dynamics.prelimit_nfev": ("count", "lower"),
    "dynamics.integrate_s": ("s", "lower"),
    "dynamics.limit_s": ("s", "lower"),
    "dynamics.limit_us_per_rhs": ("us", "lower"),
    "convergence.sweeps": ("count", "lower"),
    "io.files_written": ("count", "lower"),
    "io.bytes_written": ("B", "lower"),
    "io.write_s": ("s", "lower"),
    "cli.command_s": ("s", "lower"),
    "cli.cpu_s": ("s", "lower"),
    "config.parse_s": ("s", "lower"),
}

#: Times of layers that some workload never calls: name -> unit.  They
#: read exactly 0 there on every run, so they go to the details line only;
#: the ones that matter follow from the metrics above (prelimit_s =
#: integrate_s - limit_s, tensor self time = assembly_self_s -
#: limit_assembly_self_s).
DETAIL_METRICS = {
    "kernels.convolution_s": "s",
    "coeffs.tensor_assembly_self_s": "s",
    "dynamics.prelimit_s": "s",
    "dynamics.prelimit_us_per_rhs": "us",
    "convergence.sweep_s": "s",
    "checks.spectrum_s": "s",
    "checks.coefficients_s": "s",
    "checks.dynamics_s": "s",
    "checks.convergence_s": "s",
}

#: Metrics derived from work counts alone; they repeat exactly from run to run.
COUNT_METRICS = tuple(
    name for name, (unit, _) in LAYER_METRICS.items() if unit not in ("s", "us")
)


class Tracer:
    """Records spans and counts for the command currently running."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts = {
            "onshell_calls": 0,
            "sinc_evals": 0,
            "transform_rows": 0,
            "limit_nfev": 0,
            "prelimit_nfev": 0,
            "bytes_written": 0,
        }
        self._rows: set[tuple[bytes, bytes]] = set()

    # ------------------------------------------------------------------
    # installing the wrappers
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function in every cascadelab module."""
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "cascadelab" or name.startswith("cascadelab."))
        ]
        for (module, func), span in TRACED.items():
            original = getattr(sys.modules[f"cascadelab.{module}"], func)
            wrapper = self._wrap(span, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, span: str, fn):
        signature = inspect.signature(fn)
        count = _COUNTERS.get(span)

        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([span, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index][1:3] = start, end
            if count is not None:
                count(self, signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # turning spans into metrics
    # ------------------------------------------------------------------

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls, total time and self time."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            entry = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - inner
        return totals

    def layer_metrics(self, command_s: float, cpu_s: float) -> dict[str, float]:
        """Every metric of LAYER_METRICS and DETAIL_METRICS for this command."""
        totals = self.span_totals()

        def calls(span):
            return totals.get(span, {}).get("calls", 0)

        def total(span):
            return totals.get(span, {}).get("total_s", 0.0)

        def self_time(span):
            return totals.get(span, {}).get("self_s", 0.0)

        def per_rhs(span, nfev):
            return total(span) / nfev * 1e6 if nfev else 0.0

        c = self.counts
        rows = c["transform_rows"]
        return {
            "spectrum.eigensolves": calls("spectrum.eigensolve"),
            "spectrum.eigensolve_s": total("spectrum.eigensolve"),
            "kernels.transform_calls": calls("kernels.transform"),
            "kernels.onshell_calls": c["onshell_calls"],
            "kernels.sinc_evals": c["sinc_evals"],
            "kernels.transform_rows": rows,
            "kernels.distinct_row_ratio": len(self._rows) / rows if rows else 0.0,
            "kernels.transform_s": total("kernels.transform"),
            "kernels.convolution_s": total("kernels.convolution"),
            "coeffs.limit_assemblies": calls("coeffs.limit_assembly"),
            "coeffs.tensor_assemblies": calls("coeffs.tensor_assembly"),
            "coeffs.fgr_calls": calls("coeffs.fgr"),
            "coeffs.assembly_self_s": self_time("coeffs.limit_assembly")
            + self_time("coeffs.tensor_assembly"),
            "coeffs.limit_assembly_self_s": self_time("coeffs.limit_assembly"),
            "coeffs.tensor_assembly_self_s": self_time("coeffs.tensor_assembly"),
            "dynamics.integrate_s": total("dynamics.limit") + total("dynamics.prelimit"),
            "dynamics.limit_nfev": c["limit_nfev"],
            "dynamics.limit_s": total("dynamics.limit"),
            "dynamics.limit_us_per_rhs": per_rhs("dynamics.limit", c["limit_nfev"]),
            "dynamics.prelimit_nfev": c["prelimit_nfev"],
            "dynamics.prelimit_s": total("dynamics.prelimit"),
            "dynamics.prelimit_us_per_rhs": per_rhs("dynamics.prelimit", c["prelimit_nfev"]),
            "convergence.sweeps": calls("convergence.sweep"),
            "convergence.sweep_s": total("convergence.sweep"),
            "checks.spectrum_s": total("checks.spectrum"),
            "checks.coefficients_s": total("checks.coefficients"),
            "checks.dynamics_s": total("checks.dynamics"),
            "checks.convergence_s": total("checks.convergence"),
            "io.files_written": calls("io.write"),
            "io.bytes_written": c["bytes_written"],
            "io.write_s": total("io.write"),
            "cli.command_s": command_s,
            "cli.cpu_s": cpu_s,
            "config.parse_s": total("config.parse"),
        }


# ----------------------------------------------------------------------
# work counters, read from each call's arguments and result
# ----------------------------------------------------------------------


def _count_transform(tracer: Tracer, args: dict, _result) -> None:
    profiles = np.atleast_2d(np.asarray(args["profiles"], dtype=float))
    rho = np.asarray(args["rho"], dtype=float)
    grid = args["grid"]
    c = tracer.counts
    if len(rho) == 1:
        c["onshell_calls"] += 1
    c["sinc_evals"] += len(rho) * grid.n_points
    c["transform_rows"] += profiles.shape[0]
    rho_key = hashlib.sha1(rho.tobytes()).digest() + repr((grid.r_max, grid.n_points)).encode()
    for row in profiles:
        tracer._rows.add((hashlib.sha1(row.tobytes()).digest(), rho_key))


def _count_nfev(key: str):
    def count(tracer: Tracer, _args: dict, result) -> None:
        tracer.counts[key] += int(result.meta["nfev"])

    return count


def _count_bytes(tracer: Tracer, args: dict, _result) -> None:
    tracer.counts["bytes_written"] += os.path.getsize(args["path"])


_COUNTERS = {
    "kernels.transform": _count_transform,
    "dynamics.limit": _count_nfev("limit_nfev"),
    "dynamics.prelimit": _count_nfev("prelimit_nfev"),
    "io.write": _count_bytes,
}
