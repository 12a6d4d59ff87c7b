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
from .convergence import NOISE_FACTOR, eta_sweep
from .dynamics import METHOD, invariant_verdicts
from .errors import ConfigError, NumericalError, ValidationError
from .io import ensure_dir, fmt, write_csv, write_json
from .kernels import FOURIER_CONVENTION
from .pipeline import Assets, evolve
from .spectrum import GAP_TOL, check_gap_independence

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4


def _provenance(config: SimulationConfig) -> dict:
    return {
        "package": "cascadelab",
        "version": __version__,
        "config_sha256": config_hash(config),
        "conventions": {"fourier": FOURIER_CONVENTION},
    }


def _csv_comments(config: SimulationConfig, extra: list[str] | None = None) -> list[str]:
    prov = _provenance(config)
    lines = [
        f"package=cascadelab version={prov['version']}",
        f"config_sha256={prov['config_sha256']}",
        f"fourier={FOURIER_CONVENTION}",
    ]
    return lines + (extra or [])


def _write_manifest(out_dir: str, command: str, config: SimulationConfig, outputs: list[str], extra=None):
    manifest = {
        "command": command,
        "config_echo": emit_config(config),
        "outputs": sorted(outputs),
        "provenance": _provenance(config),
    }
    if extra:
        manifest.update(extra)
    write_json(f"{out_dir}/manifest.json", manifest)


def cmd_spectrum(config: SimulationConfig, out_dir: str) -> int:
    assets = Assets(config)
    basis, grid = assets.basis, assets.grid
    report = check_gap_independence(basis)

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
            "gap_tol": GAP_TOL,
            "collisions": report.collisions,
            "min_offdiagonal_gap": report.min_offdiagonal_gap,
            "is_generic": report.is_generic,
            "energies": basis.energies,
            "provenance": _provenance(config),
        },
    )
    _write_manifest(out_dir, "spectrum", config, ["basis.csv", "resonance_report.json"])
    return EXIT_OK


def _assembly(assets: Assets) -> dict:
    """What the coefficients of ``assets`` were assembled from: its config's trap and kernels."""
    gamma = assets.config.coefficient_preset()
    if gamma is not None:
        return {"synthetic": "uniform-rate preset", "gamma": gamma}
    t, k, momenta = assets.config.trap, assets.config.kernels, assets.table.momenta
    return {
        "n_points": t.n_points,
        "r_max": t.r_max,
        "n_rho": momenta.n_rho,
        "rho_max": momenta.rho_max,
        "modes": t.modes,
        "coupling_amplitude": k.coupling_amplitude,
        "coupling_width": k.coupling_width,
        "pair_amplitude": k.pair_amplitude,
        "pair_width": k.pair_width,
        "fourier": FOURIER_CONVENTION,
    }


def cmd_coeffs(config: SimulationConfig, out_dir: str) -> int:
    assets = Assets(config)
    coeffs = assets.coeffs
    matrix = coeffs.limit_matrix
    document = {
        "size": coeffs.size,
        "hartree": coeffs.hartree,
        "lamb": coeffs.lamb,
        "fgr": coeffs.fgr,
        "limit_matrix": matrix,
        "hartree_exchange": coeffs.hartree_exchange,
        "hartree_direct": coeffs.hartree_direct,
        "lamb_exchange": coeffs.lamb_exchange,
        "lamb_direct": coeffs.lamb_direct,
        "assembly": _assembly(assets),
        "provenance": _provenance(config),
    }
    write_json(f"{out_dir}/coefficients.json", document)
    rows = [
        [k, kp, matrix[k, kp].real, matrix[k, kp].imag]
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
    traj, series = evolve(Assets(config))
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
    # Re/Im of each mode side by side, as in the header
    amplitudes = np.stack([traj.states.real, traj.states.imag], axis=2).reshape(-1, 2 * size)
    rows = np.hstack(
        [
            traj.times[:, None],
            amplitudes,
            np.column_stack([series.mass, series.energy, series.ground_occupation]),
            series.tail_masses[1:].T,
        ]
    ).tolist()
    write_csv(f"{out_dir}/trajectory.csv", comments, header, rows)

    mass, energy, tails = invariant_verdicts(
        series, config.dynamics.rtol, config.dynamics.t_end
    ).values()
    summary = {
        "mass_drift": mass[0],
        "max_energy_increase": energy[0],
        "max_tail_increase": tails[0],
        "mass_conserved": mass[0] <= mass[1],
        "energy_monotone": energy[0] <= energy[1],
        "tails_monotone": tails[0] <= tails[1],
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


def cmd_converge(config: SimulationConfig, out_dir: str) -> int:
    setup = Assets(config).sweep
    report = eta_sweep(setup)
    solver = setup.solver
    # the sweep's settings and integrator, next to what each eta cost
    meta = dict(
        t_final=float(setup.t_final), n_samples=solver.n_samples, rtol=solver.rtol,
        atol=solver.atol, modes=setup.table.basis.size, prelimit_method=METHOD, **report.meta
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
            "noise_factor": NOISE_FACTOR,
            "meta": meta,
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
    commands = {
        "spectrum": cmd_spectrum,
        "coeffs": cmd_coeffs,
        "evolve": cmd_evolve,
        "converge": cmd_converge,
        "check": cmd_check,
    }
    parser = argparse.ArgumentParser(
        prog="cascadelab",
        description="Resonance-cascade numerical laboratory",
    )
    parser.add_argument("command", choices=list(commands))
    parser.add_argument("--config", help="configuration file (defaults to built-in preset)")
    parser.add_argument("--out", help="output directory (overrides [output] section)")
    args = parser.parse_args(argv)

    try:
        if args.config:
            config = parse_config(args.config)
        else:
            config = SimulationConfig.default().validate()
        out_dir = ensure_dir(args.out or config.output.directory)
        return commands[args.command](config, out_dir)
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
