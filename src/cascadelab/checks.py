"""The invariant suite behind the ``check`` command.

Each check returns a record with the measured value and its tolerance;
the suite passes only if every record does.  The convergence block always
runs on the canonical sweep setup (natural-unit anharmonic trap, four
modes, T0 = 1), which is what the monotone-decrease and factor-two
claims refer to; everything else follows the supplied configuration.

The convergence block runs that sweep twice, independently, to certify
that it reproduces.  All prelimit solves of both runs start first, on one
pool of forked workers, smallest eta first across the runs; the
spectrum, coefficient and dynamics blocks run in this process while they
do, and the convergence block then integrates each run's limit
trajectory and collects its solves.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .coeffs import (
    assemble_limit_matrix,
    branch_sum,
    cauchy_transform_limit,
    gamma_fgr,
    mode_pair_transforms,
    spectral_density,
    two_mode_coefficients,
)
from .config import SimulationConfig
from .convergence import ConvergenceReport, SweepSetup, sweep_runs
from .dynamics import (
    MIN_GROUND_RATE,
    SolverOptions,
    diagnostics,
    integrate_limit,
    logistic_bound,
)
from .grids import MomentumGrid, RadialGrid
from .io import to_jsonable
from .kernels import radial_convolution
from .pipeline import Assets
from .spectrum import Potential, check_gap_independence, mode_product, solve_radial_eigenpairs


def _record(name, measured, tolerance, passed=None, detail=""):
    if passed is None:
        passed = bool(measured <= tolerance)
    return {
        "name": name,
        "measured": to_jsonable(measured),
        "tolerance": to_jsonable(tolerance),
        "passed": bool(passed),
        "detail": detail,
    }


# ---------------------------------------------------------------------------
# spectrum block
# ---------------------------------------------------------------------------


def spectrum_checks(assets: Assets) -> list[dict]:
    basis = assets.basis
    checks = [_record("orthonormality", basis.orthonormality_defect(), 1e-8)]

    fine_grid = RadialGrid(assets.grid.r_max, 2 * assets.grid.n_points)
    fine_pot = Potential.anharmonic(
        fine_grid, beta=assets.potential.beta, scale=assets.potential.scale
    ) if assets.potential.kind != "custom" else None
    if fine_pot is not None:
        fine = solve_radial_eigenpairs(fine_pot, fine_grid, basis.size)
        drift = float(np.max(np.abs(basis.energies - fine.energies) / fine.energies))
        checks.append(_record("spectral_convergence_doubling", drift, 1e-6))

    first_nonzero = []
    for k in range(basis.size):
        psi = basis.modes[k] * assets.grid.nodes
        idx = int(np.argmax(np.abs(psi) > 1e-12 * np.max(np.abs(psi))))
        first_nonzero.append(psi[idx] > 0)
    checks.append(
        _record("sign_convention", int(sum(first_nonzero)), basis.size, all(first_nonzero))
    )

    osc_grid = RadialGrid(12.0, 2000)
    osc = solve_radial_eigenpairs(Potential.harmonic(osc_grid), osc_grid, 6)
    exact = 4.0 * np.arange(6) + 3.0
    checks.append(
        _record(
            "harmonic_oracle",
            float(np.max(np.abs(osc.energies - exact) / exact)),
            1e-6,
            detail="V = r^2 levels 4k+3",
        )
    )

    report = check_gap_independence(basis, assets.config.conventions.gap_tol)
    checks.append(
        _record(
            "spectral_genericity",
            len(report.collisions),
            0,
            report.is_generic,
            detail=f"min off-diagonal gap {report.min_offdiagonal_gap:.3e}",
        )
    )
    return checks


# ---------------------------------------------------------------------------
# coefficient block
# ---------------------------------------------------------------------------


def coefficient_checks(assets: Assets) -> list[dict]:
    basis, coupling, pair = assets.basis, assets.coupling, assets.pair
    momenta = coupling.momenta
    if assets.config.coefficient_preset() is None:
        coeffs = assets.coeffs
    else:
        # synthetic presets bypass the trap pipeline; check the real one
        coeffs = assemble_limit_matrix(basis, coupling, pair)
    checks = []

    defects = coeffs.symmetry_defects()
    structural = max(
        defects["fgr_symmetry"],
        defects["fgr_negativity"],
        defects["fgr_diagonal"],
        defects["re_m_antisymmetry"],
        defects["re_m_diagonal"],
    )
    checks.append(_record("coefficient_symmetries", structural, 0.0, structural == 0.0))

    # entries (k,k') and (k',k) are assembled from their own cells
    im_m = coeffs.limit_matrix.imag
    agreement = float(np.max(np.abs(im_m - im_m.T)))
    checks.append(
        _record("independent_recomputation", agreement, 1e-10, detail="max |Im M - Im M^T|")
    )

    ghat = coupling.transform * mode_pair_transforms(basis, momenta)
    worst = 0.0
    for k in range(basis.size):
        for kp in range(k + 1, basis.size):
            delta_route = gamma_fgr(basis, coupling, k, kp)
            a = spectral_density(ghat[k, kp], ghat[k, kp], momenta)
            lam = abs(float(basis.energies[k] - basis.energies[kp]))
            resolvent_route = -cauchy_transform_limit(a, lam).imag
            worst = max(worst, abs(delta_route - resolvent_route) / max(delta_route, 1e-12))
    checks.append(_record("dual_route_fgr", worst, 1e-6))

    # production Lamb shifts pair weight vectors with the densities; the
    # scalar route evaluates each cell's Cauchy transforms on its own
    energies = basis.energies
    produced, scalar = [], []
    for k in range(basis.size):
        for kp in range(basis.size):
            mu = float(energies[k] - energies[kp])
            a = spectral_density(ghat[k, kp], ghat[k, kp], momenta)
            produced.append(coeffs.lamb_exchange[k, kp])
            scalar.append(branch_sum(a, mu, 0.0).real)
            if k != kp:
                a = spectral_density(ghat[k, k], ghat[kp, kp], momenta)
                produced.append(coeffs.lamb_direct[k, kp])
                scalar.append(branch_sum(a, 0.0, 0.0).real)
    produced = np.array(produced)
    gap = float(np.max(np.abs(produced - np.array(scalar))) / np.max(np.abs(produced)))
    checks.append(
        _record("lamb_dual_route", gap, 1e-10, detail="exchange and direct cells, relative")
    )

    # the momentum side is the production transform; the real side shares none of it
    product = mode_product(basis, 0, 1)
    a01 = spectral_density(ghat[0, 1], ghat[0, 1], momenta)
    momentum_side = float(a01.integrate().real)
    g_real = radial_convolution(coupling.profile, product, basis.grid)
    real_side = float(4.0 * np.pi * basis.grid.integrate(g_real**2 * basis.grid.nodes**2))
    checks.append(
        _record("plancherel", abs(momentum_side - real_side) / abs(real_side), 1e-6)
    )

    eps_grid = np.geomspace(1.0, 1e-4, 9)
    worst_ratio = 0.0
    sup_abs = 0.0
    for k in range(basis.size):
        for kp in range(k, basis.size):
            a = spectral_density(ghat[k, kp], ghat[k, kp], momenta)
            mu = float(basis.energies[k] - basis.energies[kp])
            har = coeffs.hartree_exchange[k, kp]
            values = []
            for eps in eps_grid:
                s = branch_sum(a, mu, float(eps))
                values.append(abs(-1j * (har - s.real) - s.imag))
            sup_abs = max(sup_abs, max(values))
            worst_ratio = max(worst_ratio, values[-1] / values[-2])
    checks.append(
        _record(
            "eps_uniformity",
            worst_ratio,
            2.0,
            detail=f"sup |M^eps| = {sup_abs:.6e} over eps in [1e-4, 1]",
        )
    )

    fine = MomentumGrid(momenta.rho_max, 2 * momenta.n_rho)
    refined = assemble_limit_matrix(
        basis, assets.kernel("coupling", fine), assets.kernel("pair", fine)
    )
    rows = np.sum(np.abs(coeffs.limit_matrix), axis=1)
    rows_fine = np.sum(np.abs(refined.limit_matrix), axis=1)
    checks.append(
        _record(
            "row_sum_stability",
            float(np.max(np.abs(rows - rows_fine) / rows_fine)),
            1e-6,
            detail="sum_k' |M[k,k']| under momentum-grid doubling",
        )
    )
    return checks


# ---------------------------------------------------------------------------
# dynamics block
# ---------------------------------------------------------------------------


def dynamics_checks(assets: Assets) -> list[dict]:
    config = assets.config
    coeffs = assets.coeffs
    energies = assets.energies
    solver = assets.solver_options
    state = config.initial_state()
    t_end = config.dynamics.t_end
    budget = 100.0 * solver.rtol

    traj = integrate_limit(coeffs, state, t_end, solver)
    series = diagnostics(traj, energies, coeffs)
    checks = [
        _record("mass_conservation", series.mass_drift(), budget * t_end),
        _record("energy_monotonicity", series.max_energy_increase(), budget),
        _record("tail_monotonicity", series.max_tail_increase(), budget),
    ]

    rng = np.random.default_rng(20260810)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, coeffs.size))
    rotated = integrate_limit(coeffs, phases * state, t_end, solver)
    equivariance = float(np.max(np.abs(rotated.states - phases[None, :] * traj.states)))
    checks.append(_record("phase_equivariance", equivariance, budget * max(t_end, 1.0)))

    if series.logistic is not None:
        violation = float(np.min(series.ground_occupation - series.logistic))
        checks.append(
            _record(
                "logistic_domination",
                max(0.0, -violation),
                budget,
                detail=f"gamma_tilde = {series.gamma_tilde}",
            )
        )
    else:
        checks.append(
            _record(
                "logistic_domination",
                0.0,
                0.0,
                True,
                detail="skipped: " + series.flags.get("logistic_skipped", "not applicable"),
            )
        )

    ground_rates = coeffs.fgr[0, 1:]
    if np.min(ground_rates) < MIN_GROUND_RATE:
        checks.append(
            _record(
                "bec_formation",
                0.0,
                0.0,
                True,
                detail=f"skipped: some ground-row rate below {MIN_GROUND_RATE:g}",
            )
        )
    else:
        horizon = config.dynamics.bec_horizon
        threshold = config.dynamics.bec_threshold
        long_traj = integrate_limit(coeffs, state, horizon, solver)
        excited = np.sum(np.abs(long_traj.states[:, 1:]) ** 2, axis=1)
        reached = bool(np.any(excited < threshold))
        first = float(long_traj.times[np.argmax(excited < threshold)]) if reached else float("inf")
        checks.append(
            _record(
                "bec_formation",
                float(np.min(excited)),
                threshold,
                reached,
                detail=f"excited mass below threshold first at T = {first}",
            )
        )

    exact = 1.0 / (1.0 + np.exp(-2.0))
    two_mode = two_mode_coefficients(1.0)
    f0 = np.sqrt(np.array([0.5, 0.5], dtype=complex))
    logi = integrate_limit(two_mode, f0, 1.0, SolverOptions(rtol=1e-11, atol=1e-14, n_samples=201))
    curve = logistic_bound(0.5, 1.0, logi.times)
    deviation = float(np.max(np.abs(np.abs(logi.states[:, 0]) ** 2 - curve)))
    checks.append(
        _record(
            "two_mode_exactness",
            max(deviation, abs(float(np.abs(logi.states[-1, 0]) ** 2) - exact)),
            1e-8,
        )
    )
    return checks


# ---------------------------------------------------------------------------
# convergence block (canonical sweep)
# ---------------------------------------------------------------------------


def canonical_sweep() -> SweepSetup:
    """The canonical eta sweep: natural-unit anharmonic trap, four modes."""
    assets = Assets(SimulationConfig.convergence())
    config = assets.config
    return SweepSetup(
        assets.basis,
        assets.coupling,
        assets.pair,
        config.initial_state(),
        config.sweep.t_final,
        config.eta_values(),
        solver=assets.solver_options,
        eps_policy=config.conventions.eps_policy,
        n_samples=config.sweep.samples,
    )


def convergence_checks(
    first: Callable[[], ConvergenceReport], second: Callable[[], ConvergenceReport]
) -> list[dict]:
    """Records of two independent runs of the canonical sweep.

    ``first`` and ``second`` are the finishers that ``sweep_runs`` yields;
    each returns its run's report.
    """
    report = first()
    checks = [
        _record(
            "sweep_strictly_decreasing",
            list(report.sup_distances),
            "decreasing",
            report.strictly_decreasing,
        ),
        _record(
            "sweep_factor_two",
            report.sup_distances[-1] / report.sup_distances[0],
            0.5,
            report.sup_distances[-1] * 2.0 <= report.sup_distances[0],
            detail="smallest-eta error at most half the largest-eta error",
        ),
        _record("sweep_initial_distance", report.initial_distance, 0.0, report.initial_distance == 0.0),
    ]
    repeat = second()
    identical = (
        report.sup_distances == repeat.sup_distances
        and report.terminal_distances == repeat.terminal_distances
        and report.mass_drifts == repeat.mass_drifts
    )
    checks.append(_record("sweep_reproducibility", 0.0 if identical else 1.0, 0.0, identical))
    return checks


def run_all_checks(config: SimulationConfig) -> dict:
    """Execute every invariant block and collect a pass/fail manifest.

    Both canonical sweep runs start first, on worker processes where there
    are CPUs for them, and the other blocks run here meanwhile.
    """
    assets = Assets(config)
    sweep = canonical_sweep()
    with sweep_runs([sweep, sweep]) as (first, second):
        blocks = {
            "spectrum": spectrum_checks(assets),
            "coefficients": coefficient_checks(assets),
            "dynamics": dynamics_checks(assets),
            "convergence": convergence_checks(first, second),
        }
    all_passed = all(rec["passed"] for recs in blocks.values() for rec in recs)
    return {"blocks": blocks, "all_passed": all_passed}
