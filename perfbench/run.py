"""Benchmark of cascadelab's shipped runs, end to end or layer by layer.

    python3 perfbench/run.py --workload {cascade,sweep,certify} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The workload's CLI command runs in this
process through ``cascadelab.cli.main``, in a closed loop with one client,
for S seconds; every invocation writes into a fresh directory under
``.perfbench_runs/`` and passes the workload's correctness gate or counts
as failed.

``--trace 0`` reports the end-to-end metrics, with the wall time divided
by that of a reference computation run between calls; ``--trace 1`` alternates
untraced and traced invocations and reports the per-layer metrics of the
traced ones.  The last line of standard output is the result object; the
line before it holds the details (environment, samples, output digests,
tracing overhead) and a readable summary goes to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np

from tracing import COUNT_METRICS, DETAIL_METRICS, LAYER_METRICS, Tracer
from workloads import WORKLOADS, seeded_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")

#: Fresh interpreters timed per run for setup_s, before and after the
#: calls so that a short burst of load on the machine hits only some of
#: them; the median is reported.
SETUP_PROBES = (4, 3)

#: Time spent on the reference computation after each call, as a share of
#: that call's wall time (one reference run at least).
REFERENCE_SHARE = 0.05

#: End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "wall_rel": ("ratio", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "min_headroom": ("ratio", "higher"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*.so*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(lib, name, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": _git_commit(),
    }


# ----------------------------------------------------------------------
# measuring
# ----------------------------------------------------------------------


def setup_samples(config_path: str, count: int) -> list[float]:
    """Seconds to import cascadelab.cli and parse the config, per fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, probe, config_path],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def reference_seconds() -> float:
    """Time a fixed computation shaped like the program's own work.

    Blocked sinc evaluations over a radial grid, then a loop of small
    complex numpy steps like an RK45 right-hand side.  It calls no
    multi-threaded BLAS, whose spin-waiting overstates contention.  On a
    shared 2-core machine the speed drifted by up to 70% within an hour
    with the neighbours' load.  With one and with two busy processes added,
    `evolve` slowed by 1.30x and 2.02x and this computation by 1.30x and
    1.99x, so their ratio keeps to the program's own speed.
    """
    start = time.perf_counter()
    r = np.linspace(0.0, 36.0, 2400)
    weights = np.cos(r / 36.0)
    for block in np.split(np.linspace(0.0, 40.0, 2048), 8):  # small, not to move peak RSS
        (np.sinc(np.outer(block, r) / np.pi) * weights).sum()
    m = (np.arange(36).reshape(6, 6) - 17.5) * 1e-3 * (1 + 1j)
    y = np.full(6, 0.4, dtype=complex)
    for _ in range(14_000):
        y = y + 1e-3 * (m @ np.abs(y) ** 2) * y
    return time.perf_counter() - start


def digest_outputs(out_dir: str) -> dict[str, str]:
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def invoke(cli, workload, config_path, config, run_dir, index, tracer=None) -> dict:
    """Run the workload's command once and gate its outputs."""
    out_dir = os.path.join(run_dir, f"out-{index}")
    argv = [workload.command, "--config", config_path, "--out", out_dir]
    captured_err = io.StringIO()
    gc.collect()
    if tracer is not None:
        tracer.reset()
    cpu0 = time.process_time()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(captured_err):
            code = cli.main(argv)
    except Exception:
        code, crash = None, traceback.format_exc(limit=3)
    else:
        crash = None
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0

    sample = {"wall_s": wall, "traced": tracer is not None, "failures": [], "headroom": None}
    if code != 0:
        sample["failures"].append(f"exit code {code}: {crash or captured_err.getvalue().strip()}")
    else:
        try:
            failures, headroom = workload.gate(out_dir, config)
            sample["failures"] += failures
            sample["headroom"] = headroom
            sample["outputs"] = digest_outputs(out_dir)
        except (OSError, KeyError, ValueError, TypeError, IndexError, ZeroDivisionError) as exc:
            sample["failures"].append(f"unreadable outputs: {exc!r}")
    if tracer is not None:
        sample["layers"] = tracer.layer_metrics(wall, cpu)
    shutil.rmtree(out_dir, ignore_errors=True)
    return sample


def measure(args, workload, run_dir) -> tuple[dict, dict]:
    """Run the loop; return (metrics, details)."""
    sys.path.insert(0, SRC)
    import cascadelab.cli as cli
    from cascadelab.config import parse_config

    config_path = seeded_config(ROOT, workload, args.seed, os.path.join(run_dir, "seeded.cfg"))
    config = parse_config(config_path)
    setup = setup_samples(config_path, SETUP_PROBES[0])

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    samples = []
    reference_seconds()  # warm-up
    ref_times = [reference_seconds()]
    deadline = time.perf_counter() + args.seconds
    try:
        while True:
            traced = tracer is not None and len(samples) % 2 == 1
            samples.append(
                invoke(cli, workload, config_path, config, run_dir, len(samples),
                       tracer if traced else None)
            )
            repeats = max(1, round(REFERENCE_SHARE * samples[-1]["wall_s"] / ref_times[-1]))
            ref_times += [reference_seconds() for _ in range(repeats)]
            # two calls at least: byte identity needs a second output, and a
            # traced run needs one untraced call to measure its overhead
            if len(samples) >= 2 and time.perf_counter() >= deadline:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup += setup_samples(config_path, SETUP_PROBES[1])

    # outputs of one input must be byte-identical within a run
    first_outputs = next((s["outputs"] for s in samples if "outputs" in s), None)
    for s in samples:
        if "outputs" in s and s["outputs"] != first_outputs:
            s["failures"].append("outputs differ from the first invocation's")

    failed = sum(1 for s in samples if s["failures"])
    plain = [s["wall_s"] for s in samples if not s["traced"]]
    headrooms = [s["headroom"] for s in samples if not s["failures"]]
    details = {
        "workload": workload.name,
        "command": f"{workload.command} --config {workload.config}",
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "attempted": len(samples),
        "failed": failed,
        "error_rate": failed / len(samples),
        "failures": [f for s in samples for f in s["failures"]][:5],
        "wall_s": statistics.median(plain),
        "wall_s_samples": plain,
        "reference_s_samples": ref_times,
        "setup_s_samples": setup,
        "outputs_sha256": first_outputs,
    }
    if args.trace:
        traced = [s for s in samples if s["traced"]]
        counts = [{k: s["layers"][k] for k in COUNT_METRICS} for s in traced]
        details["traced_wall_s_samples"] = [s["wall_s"] for s in traced]
        details["trace_overhead_s"] = (
            statistics.median(s["wall_s"] for s in traced) - statistics.median(plain)
        )
        details["counts_repeat"] = all(c == counts[0] for c in counts)
        details["layers"] = {
            name: statistics.median_low(s["layers"][name] for s in traced)
            for name in traced[0]["layers"]
        }
        metrics = {name: details["layers"][name] for name in LAYER_METRICS}
    else:
        metrics = {
            "wall_rel": statistics.median(plain) / statistics.median(ref_times),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "min_headroom": min(headrooms) if headrooms else 0.0,
        }
    return metrics, details


def summary(details: dict, metrics: dict, units: dict) -> str:
    lines = [
        f"{details['workload']} (seed {details['seed']}, trace {details['trace']}): "
        f"{details['attempted']} invocations, {len(details['wall_s_samples'])} untraced"
    ]
    layers = details.get("layers", {})
    rows = [(name, value, units[name][0]) for name, value in metrics.items()]
    rows += [(name, layers[name], unit) for name, unit in DETAIL_METRICS.items() if layers]
    rows.append(("wall_s", details["wall_s"], "s"))
    rows.append(("error_rate", details["error_rate"], "fraction"))
    if "trace_overhead_s" in details:
        rows.append(("trace_overhead_s", details["trace_overhead_s"], "s"))
    lines += [f"  {name:32s} {value:>16.6g} {unit}" for name, value, unit in rows]
    lines += [f"  FAILED: {failure}" for failure in details["failures"]]
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    missing = [
        p
        for p in (os.path.join(SRC, "cascadelab", "cli.py"), os.path.join(ROOT, workload.config))
        if not os.path.isfile(p)
    ]
    if missing:
        print(f"perfbench: program files missing: {', '.join(missing)}", file=sys.stderr)
        return 2

    os.makedirs(RUNS, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=RUNS)
    try:
        metrics, details = measure(args, workload, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(RUNS)

    units = LAYER_METRICS if args.trace else END_TO_END
    print(summary(details, metrics, units), file=sys.stderr)
    print(json.dumps({"detail": details}, sort_keys=True))
    result = {
        "correct": details["failed"] == 0,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {name: {"value": v, "unit": units[name][0]} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
