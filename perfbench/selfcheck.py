"""Self-check of the benchmark.

    python3 perfbench/selfcheck.py [workload ...]

Run from the root of a checkout.  Checks that BENCHMARK.json names exactly
the metrics run.py reports, then runs two traced invocations of each
workload (all three by default) on its shipped config and checks that
their work counts repeat exactly and equal SEED_COUNTS.  A refactor that
moves a traced function out of reach of the tracer zeroes a counter and
fails here.  A change that alters the work on purpose updates SEED_COUNTS
and says so.  Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
import tempfile

from run import END_TO_END, ROOT, RUNS, SRC, invoke
from tracing import COUNT_METRICS, LAYER_METRICS, Tracer
from workloads import WORKLOADS

#: Work counts of one invocation of each workload at seed 0.
SEED_COUNTS = {
    "cascade": {
        "spectrum.eigensolves": 1,
        "kernels.transform_calls": 33,
        "kernels.onshell_calls": 30,
        "kernels.sinc_evals": 59_054_400,
        "kernels.transform_rows": 53,
        "kernels.distinct_row_ratio": 1.0,
        "coeffs.limit_assemblies": 1,
        "coeffs.tensor_assemblies": 0,
        "coeffs.fgr_calls": 15,
        "dynamics.limit_nfev": 150_446,
        "dynamics.prelimit_nfev": 0,
        "convergence.sweeps": 0,
        "io.files_written": 3,
        "io.bytes_written": 247_423,
    },
    "sweep": {
        "spectrum.eigensolves": 1,
        "kernels.transform_calls": 57,
        "kernels.onshell_calls": 48,
        "kernels.sinc_evals": 118_041_600,
        "kernels.transform_rows": 120,
        "kernels.distinct_row_ratio": 23 / 120,
        "coeffs.limit_assemblies": 4,
        "coeffs.tensor_assemblies": 3,
        "coeffs.fgr_calls": 24,
        "dynamics.limit_nfev": 1_280,
        "dynamics.prelimit_nfev": 194_892,
        "convergence.sweeps": 1,
        "io.files_written": 3,
        "io.bytes_written": 3_279,
    },
    "certify": {
        "spectrum.eigensolves": 4,
        "kernels.transform_calls": 271,
        "kernels.onshell_calls": 246,
        "kernels.sinc_evals": 446_158_400,
        "kernels.transform_rows": 477,
        "kernels.distinct_row_ratio": 99 / 477,
        "coeffs.limit_assemblies": 11,
        "coeffs.tensor_assemblies": 6,
        "coeffs.fgr_calls": 123,
        "dynamics.limit_nfev": 864_882,
        "dynamics.prelimit_nfev": 389_784,
        "convergence.sweeps": 2,
        "io.files_written": 1,
        "io.bytes_written": 5_327,
    },
}


def check_manifest() -> list[str]:
    """BENCHMARK.json must list the workloads and metrics run.py reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for key, table in (("end_to_end", END_TO_END), ("per_layer", LAYER_METRICS)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        if listed != table:
            problems.append(f"BENCHMARK.json {key} differs from what run.py reports")
    return problems


def check_counts(workload_name: str, run_dir: str) -> list[str]:
    import cascadelab.cli as cli
    from cascadelab.config import parse_config

    workload = WORKLOADS[workload_name]
    config_path = os.path.join(ROOT, workload.config)
    config = parse_config(config_path)
    tracer = Tracer()
    tracer.install()
    try:
        samples = [invoke(cli, workload, config_path, config, run_dir, i, tracer) for i in range(2)]
    finally:
        tracer.uninstall()

    problems = [f"{workload_name}: {f}" for s in samples for f in s["failures"]]
    first, second = ({k: s["layers"][k] for k in COUNT_METRICS} for s in samples)
    if first != second:
        problems.append(f"{workload_name}: counts differ between two runs: {first} vs {second}")
    for name, expected in SEED_COUNTS[workload_name].items():
        if first[name] != expected:
            problems.append(f"{workload_name}: {name} = {first[name]}, seed value {expected}")
    return problems


def main(argv: list[str]) -> int:
    names = argv or list(WORKLOADS)
    sys.path.insert(0, SRC)
    problems = check_manifest()
    os.makedirs(RUNS, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="selfcheck-", dir=RUNS)
    try:
        for name in names:
            found = check_counts(name, run_dir)
            print(f"{name}: {'ok' if not found else 'FAILED'}")
            problems += found
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(RUNS)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
