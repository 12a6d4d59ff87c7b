"""Batch command line front end.

Subcommands: ``spectrum`` (basis CSV + resonance report), ``coeffs``
(coefficient JSON + matrix CSV), ``evolve`` (trajectory CSV +
diagnostics JSON), ``converge`` (sweep report), ``check`` (full
invariant suite; exit 0 only if everything passes).

Exit codes: 0 success, 2 configuration parse error, 3 validation error,
4 numerical failure.  Errors also land as machine-readable JSON on
stderr.  Each ``cmd_*`` computes its ``Run`` from the config alone;
only once it has returned does ``_write`` make the output directory and
write the run's files and ``manifest.json``, so a failed run leaves no
directory; only once they are written does ``main`` print the run's
lines (``check``'s verdicts), so a run that cannot write prints none.
All files are byte-reproducible for a fixed configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NamedTuple

import numpy as np

from . import __version__
from .checks import run_all_checks
from .config import SimulationConfig, config_hash, emit_config, parse_config
from .convergence import eta_sweep
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


class Run(NamedTuple):
    """A command's documents by file name (a dict for ``.json``, ``(comments,
    columns)`` for ``.csv``, its columns a ``{name: column}`` map), the manifest's
    extra keys, its exit code and the lines ``main`` prints once the files are written."""

    documents: dict
    extra: dict
    code: int
    lines: list


def _provenance(config: SimulationConfig) -> dict:
    return {
        "package": "cascadelab",
        "version": __version__,
        "config_sha256": config_hash(config),
        "conventions": {"fourier": FOURIER_CONVENTION},
    }


def _write(out_dir: str, command: str, config: SimulationConfig, run: Run) -> None:
    """Make ``out_dir`` and write the run's documents, each stamped with the
    provenance, then the manifest; an unwritable path is a validation error."""
    provenance = _provenance(config)
    stamp = [
        f"package=cascadelab version={__version__}",
        f"config_sha256={provenance['config_sha256']}",
        f"fourier={FOURIER_CONVENTION}",
    ]
    manifest = {
        "command": command,
        "config_echo": emit_config(config),
        "outputs": sorted(run.documents),
        **run.extra,
    }
    ensure_dir(out_dir)
    for name, document in {**run.documents, "manifest.json": manifest}.items():
        path = f"{out_dir}/{name}"
        try:
            if name.endswith(".csv"):
                comments, columns = document
                write_csv(path, stamp + comments, columns)
            else:
                write_json(path, {**document, "provenance": provenance})
        except OSError as exc:
            raise ValidationError(f"cannot write output file {path}: {exc}") from exc


def cmd_spectrum(config: SimulationConfig) -> Run:
    assets = Assets(config)
    basis = assets.basis
    report = check_gap_independence(basis)
    columns = {"r": assets.grid.nodes, "V": assets.potential.values}
    columns |= {f"chi_{k}": mode for k, mode in enumerate(basis.modes)}
    energies = ["energies: " + " ".join(fmt(e) for e in basis.energies)]
    resonance_report = {
        "gap_tol": GAP_TOL,
        "collisions": report.collisions,
        "min_offdiagonal_gap": report.min_offdiagonal_gap,
        "is_generic": report.is_generic,
        "energies": basis.energies,
    }
    documents = {"basis.csv": (energies, columns), "resonance_report.json": resonance_report}
    return Run(documents, {}, EXIT_OK, [])


def _assembly(assets: Assets) -> dict:
    """What the coefficients of ``assets`` were assembled from: its config's trap and kernels."""
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


def cmd_coeffs(config: SimulationConfig) -> Run:
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
    }
    k, kp = np.indices(matrix.shape).reshape(2, -1)
    columns = {"k": k, "kp": kp, "re_m": matrix.real.ravel(), "im_m": matrix.imag.ravel()}
    documents = {"coefficients.json": document, "limit_matrix.csv": ([], columns)}
    return Run(documents, {}, EXIT_OK, [])


def cmd_evolve(config: SimulationConfig) -> Run:
    assets = Assets(config)
    traj, series = evolve(assets)
    comments = [
        f"modes={traj.size} system=limit",
        "columns hold Re/Im amplitudes, then mass, energy, ground occupation, "
        "tail masses m_j = sum_{k>=j} |F_k|^2",
    ]
    columns = {"T": traj.times}
    for k, amplitude in enumerate(traj.states.T):
        columns |= {f"re_f_{k}": amplitude.real, f"im_f_{k}": amplitude.imag}
    columns |= {
        "mass": series.mass,
        "energy": series.energy,
        "ground_occupation": series.ground_occupation,
    }
    columns |= {f"m_{j}": tail for j, tail in enumerate(series.tail_masses, start=1)}

    mass, energy, tails = invariant_verdicts(series, assets.solver_options).values()
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
    }
    margin = series.logistic_margin()
    if margin is not None:
        summary["min_logistic_margin"] = margin
    documents = {"trajectory.csv": (comments, columns), "diagnostics.json": summary}
    return Run(documents, {}, EXIT_OK, [])


def cmd_converge(config: SimulationConfig) -> Run:
    setup = Assets(config).sweep
    report = eta_sweep(setup)
    solver = setup.solver
    # the sweep's settings and integrator, next to what each eta cost
    meta = dict(
        t_final=float(solver.t_end), n_samples=solver.n_samples, rtol=solver.rtol,
        atol=solver.atol, modes=setup.table.basis.size, prelimit_method=METHOD, **report.meta
    )
    document = {
        "etas": report.etas,
        "sup_distances": report.sup_distances,
        "terminal_distances": report.terminal_distances,
        "mass_drifts": report.mass_drifts,
        "initial_distance": report.initial_distance,
        "strictly_decreasing": report.strictly_decreasing,
        "meta": meta,
    }
    sweep_csv = ([], {"eta": report.etas, "sup_distance": report.sup_distances})
    documents = {"convergence.json": document, "convergence.csv": sweep_csv}
    return Run(documents, {}, EXIT_OK, [])


def cmd_check(config: SimulationConfig) -> Run:
    result = run_all_checks(config)
    lines = [
        f"[{'PASS' if rec['passed'] else 'FAIL'}] {block}.{rec['name']}"
        for block, records in result["blocks"].items()
        for rec in records
    ]
    extra = {"checks": result["blocks"], "all_passed": result["all_passed"]}
    return Run({}, extra, EXIT_OK if result["all_passed"] else EXIT_VALIDATION, lines)


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
        run = commands[args.command](config)
        _write(args.out or config.output.directory, args.command, config, run)
        for line in run.lines:
            print(line)
        return run.code
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
