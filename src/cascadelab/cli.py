"""Batch command line front end.

Subcommands: ``spectrum`` (basis CSV + resonance report), ``coeffs``
(coefficient JSON + matrix CSV), ``evolve`` (trajectory CSV +
diagnostics JSON), ``converge`` (sweep report), ``check`` (full
invariant suite; exit 0 only if everything passes).

Exit codes: 0 success, 2 configuration parse error, 3 validation error,
4 numerical failure.  Errors also land as machine-readable JSON on
stderr.  Outputs for a run live in one directory with manifest.json at
its root; all files are byte-reproducible for a fixed configuration.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .checks import run_all_checks
from .config import SimulationConfig, config_hash, emit_config, parse_config
from .convergence import eta_sweep
from .errors import ConfigError, NumericalError, ValidationError
from .io import ensure_dir, fmt, write_csv, write_json
from .pipeline import Assets, evolve
from .spectrum import check_gap_independence

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4

#: seed is reserved (no stochastic components); both knobs are echoed into
#: manifests for provenance
_RUN_INFO = {"seed": 0, "threads": 1}


def _provenance(config: SimulationConfig) -> dict:
    c = config.conventions
    return {
        "package": "cascadelab",
        "version": __version__,
        "config_sha256": config_hash(config),
        "conventions": {
            "fourier": "forward e^{-ix.xi}, inverse (2pi)^{-3}",
            "fgr_pi_factor": c.fgr_pi_factor,
            "include_degenerate": c.include_degenerate,
            "lamb_mode": c.lamb_mode,
            "eps_policy": c.eps_policy,
        },
    }


def _csv_comments(config: SimulationConfig, extra: list[str] | None = None) -> list[str]:
    prov = _provenance(config)
    lines = [
        f"package=cascadelab version={prov['version']}",
        f"config_sha256={prov['config_sha256']}",
        "fourier=forward e^{-ix.xi}, inverse (2pi)^-3",
        f"fgr_pi_factor={config.conventions.fgr_pi_factor} "
        f"include_degenerate={config.conventions.include_degenerate} "
        f"lamb_mode={config.conventions.lamb_mode} eps_policy={config.conventions.eps_policy}",
    ]
    return lines + (extra or [])


def _write_manifest(out_dir: str, command: str, config: SimulationConfig, outputs: list[str], extra=None):
    manifest = {
        "command": command,
        "config_echo": emit_config(config),
        "outputs": sorted(outputs),
        "provenance": _provenance(config),
        "run": dict(_RUN_INFO),
    }
    if extra:
        manifest.update(extra)
    write_json(f"{out_dir}/manifest.json", manifest)


def cmd_spectrum(config: SimulationConfig, out_dir: str) -> int:
    assets = Assets(config)
    basis, grid = assets.basis, assets.grid
    report = check_gap_independence(basis, config.conventions.gap_tol)

    comments = _csv_comments(
        config, ["energies: " + " ".join(fmt(e) for e in basis.energies)]
    )
    header = ["r", "V"] + [f"chi_{k}" for k in range(basis.size)]
    rows = (
        [grid.nodes[i], assets.potential.values[i]] + list(basis.modes[:, i])
        for i in range(grid.n_points)
    )
    write_csv(f"{out_dir}/basis.csv", comments, header, rows)
    write_json(
        f"{out_dir}/resonance_report.json",
        {
            "gap_tol": report.gap_tol,
            "collisions": report.collisions,
            "min_offdiagonal_gap": report.min_offdiagonal_gap,
            "is_generic": report.is_generic,
            "energies": basis.energies,
            "provenance": _provenance(config),
        },
    )
    _write_manifest(out_dir, "spectrum", config, ["basis.csv", "resonance_report.json"])
    return EXIT_OK


def cmd_coeffs(config: SimulationConfig, out_dir: str) -> int:
    assets = Assets(config)
    coeffs = assets.coeffs
    document = {
        "size": coeffs.size,
        "fgr_pi_convention": coeffs.fgr_pi_convention,
        "include_degenerate": coeffs.include_degenerate,
        "hartree": coeffs.hartree,
        "lamb": coeffs.lamb,
        "fgr": coeffs.fgr,
        "limit_matrix": coeffs.limit_matrix,
        "hartree_exchange": coeffs.hartree_exchange,
        "hartree_direct": coeffs.hartree_direct,
        "lamb_exchange": coeffs.lamb_exchange,
        "lamb_direct": coeffs.lamb_direct,
        "assembly": coeffs.provenance,
        "provenance": _provenance(config),
    }
    write_json(f"{out_dir}/coefficients.json", document)
    rows = [
        [k, kp, coeffs.limit_matrix[k, kp].real, coeffs.limit_matrix[k, kp].imag]
        for k in range(coeffs.size)
        for kp in range(coeffs.size)
    ]
    write_csv(
        f"{out_dir}/limit_matrix.csv",
        _csv_comments(config),
        ["k", "kp", "re_m", "im_m"],
        rows,
    )
    _write_manifest(out_dir, "coeffs", config, ["coefficients.json", "limit_matrix.csv"])
    return EXIT_OK


def cmd_evolve(config: SimulationConfig, out_dir: str) -> int:
    traj, series, assets = evolve(config)
    size = traj.size
    comments = _csv_comments(
        config,
        [
            f"modes={size} system=limit",
            "columns hold Re/Im amplitudes, then mass, energy, ground occupation, tail masses",
        ],
    )
    header = ["T"]
    for k in range(size):
        header += [f"re_f_{k}", f"im_f_{k}"]
    header += ["mass", "energy", "ground_occupation"]
    header += [f"m_{j}" for j in range(1, size)]
    rows = []
    for i, t in enumerate(traj.times):
        row = [t]
        for k in range(size):
            row += [traj.states[i, k].real, traj.states[i, k].imag]
        row += [series.mass[i], series.energy[i], series.ground_occupation[i]]
        row += [series.tail_masses[j, i] for j in range(1, size)]
        rows.append(row)
    write_csv(f"{out_dir}/trajectory.csv", comments, header, rows)

    budget = 100.0 * config.dynamics.rtol
    summary = {
        "mass_drift": series.mass_drift(),
        "max_energy_increase": series.max_energy_increase(),
        "max_tail_increase": series.max_tail_increase(),
        "mass_conserved": series.mass_drift() <= budget * config.dynamics.t_end,
        "energy_monotone": series.max_energy_increase() <= budget,
        "tails_monotone": series.max_tail_increase() <= budget,
        "gamma_tilde": series.gamma_tilde,
        "flags": series.flags,
        "final_ground_occupation": float(series.ground_occupation[-1]),
        "final_excited_mass": float(series.mass[-1] - series.ground_occupation[-1]),
        "nfev": traj.meta["nfev"],
        "provenance": _provenance(config),
    }
    if series.logistic is not None:
        summary["min_logistic_margin"] = float(
            np.min(series.ground_occupation - series.logistic)
        )
    write_json(f"{out_dir}/diagnostics.json", summary)
    _write_manifest(out_dir, "evolve", config, ["trajectory.csv", "diagnostics.json"])
    return EXIT_OK


def cmd_converge(config: SimulationConfig, out_dir: str, threads: int) -> int:
    assets = Assets(config)
    report = eta_sweep(
        assets.basis,
        assets.coupling,
        assets.pair,
        config.initial_state(),
        config.sweep.t_final,
        config.eta_values(),
        solver=assets.solver_options,
        coeff_options=assets.coeff_options,
        n_samples=config.sweep.samples,
        threads=threads,
    )
    write_json(
        f"{out_dir}/convergence.json",
        {
            "config_echo": emit_config(config),
            "etas": report.etas,
            "sup_distances": report.sup_distances,
            "terminal_distances": report.terminal_distances,
            "mass_drifts": report.mass_drifts,
            "initial_distance": report.initial_distance,
            "monotone_within_noise": report.monotone_within_noise,
            "strictly_decreasing": report.strictly_decreasing,
            "noise_factor": report.noise_factor,
            "meta": report.meta,
            "provenance": _provenance(config),
        },
    )
    write_csv(
        f"{out_dir}/convergence.csv",
        _csv_comments(config),
        ["eta", "sup_distance"],
        list(zip(report.etas, report.sup_distances)),
    )
    _write_manifest(out_dir, "converge", config, ["convergence.json", "convergence.csv"])
    return EXIT_OK


def cmd_check(config: SimulationConfig, out_dir: str) -> int:
    result = run_all_checks(config)
    _write_manifest(
        out_dir,
        "check",
        config,
        [],
        extra={"checks": result["blocks"], "all_passed": result["all_passed"]},
    )
    for block, records in result["blocks"].items():
        for rec in records:
            status = "PASS" if rec["passed"] else "FAIL"
            print(f"[{status}] {block}.{rec['name']}")
    return EXIT_OK if result["all_passed"] else EXIT_VALIDATION


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cascadelab",
        description="Resonance-cascade numerical laboratory",
    )
    parser.add_argument(
        "command",
        choices=["spectrum", "coeffs", "evolve", "converge", "check"],
    )
    parser.add_argument("--config", help="configuration file (defaults to built-in preset)")
    parser.add_argument("--out", help="output directory (overrides [output] section)")
    parser.add_argument("--seed", type=int, default=0, help="reserved; recorded only")
    parser.add_argument("--threads", type=int, default=1, help="worker threads for sweeps")
    args = parser.parse_args(argv)

    try:
        if args.config:
            config = parse_config(args.config)
        else:
            config = SimulationConfig.default().validate()
        if args.threads < 1:
            raise ValidationError(f"--threads must be >= 1, got {args.threads}")
        _RUN_INFO["seed"] = args.seed
        _RUN_INFO["threads"] = args.threads
        out_dir = ensure_dir(args.out or config.output.directory)

        if args.command == "spectrum":
            return cmd_spectrum(config, out_dir)
        if args.command == "coeffs":
            return cmd_coeffs(config, out_dir)
        if args.command == "evolve":
            return cmd_evolve(config, out_dir)
        if args.command == "converge":
            return cmd_converge(config, out_dir, args.threads)
        return cmd_check(config, out_dir)
    except ConfigError as exc:
        _emit_error("config", exc)
        return EXIT_CONFIG
    except ValidationError as exc:
        _emit_error("validation", exc)
        return EXIT_VALIDATION
    except NumericalError as exc:
        _emit_error("numerical", exc)
        return EXIT_NUMERICAL


def _emit_error(kind: str, exc: Exception) -> None:
    record = {"error": kind, "type": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
