"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (written to the unbuffered
stream so it stays visible under pytest's capture).  Criteria 7/8 share
one six-mode run; 10/11 share one finitely-supported run; 12 reuses the
session sweep; 13 compares two end-to-end CLI ``check`` runs of the
session's ``check_runs``.
"""

import sys
import time

import numpy as np
import pytest

from cascadelab.coeffs import (
    branch_sum,
    cauchy_transform,
    gamma_fgr,
    spectral_density,
    two_mode_coefficients,
)
from cascadelab.dynamics import SolverOptions, diagnostics, integrate_limit, logistic_bound
from cascadelab.grids import RadialGrid
from cascadelab.kernels import radial_convolution, transform_profiles
from cascadelab.spectrum import Potential, mode_product, solve_radial_eigenpairs


def announce(number: int, name: str, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    sys.__stdout__.write(f"\n[{status}] criterion {number:2d} - {name}: {detail}\n")
    sys.__stdout__.flush()
    assert passed, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def k6_run(default_assets):
    """Limit-cascade run of the default config: K = 6, T_end = 50."""
    options = SolverOptions(50.0, rtol=1e-11, atol=1e-14, n_samples=501)
    state = default_assets.config.initial_state()
    traj = integrate_limit(default_assets.coeffs.limit_matrix, state, options)
    return diagnostics(traj, default_assets.basis.energies, default_assets.coeffs)


@pytest.fixture(scope="module")
def finitely_supported_run(default_assets):
    """Four occupied modes with |F_0|^2 = 0.25 inside the K = 6 system."""
    state = np.zeros(6, dtype=complex)
    state[:4] = 0.5
    options = SolverOptions(200.0, rtol=1e-11, atol=1e-14, n_samples=801)
    traj = integrate_limit(default_assets.coeffs.limit_matrix, state, options)
    return traj, diagnostics(traj, default_assets.basis.energies, default_assets.coeffs)


def test_criterion_01_harmonic_oracle():
    start = time.perf_counter()
    grid = RadialGrid(12.0, 2000)
    basis = solve_radial_eigenpairs(Potential.harmonic(grid), 6)
    elapsed = time.perf_counter() - start
    exact = 4.0 * np.arange(6) + 3.0
    worst = float(np.max(np.abs(basis.energies - exact) / exact))
    announce(
        1,
        "harmonic spectrum oracle",
        worst < 1e-6 and elapsed < 5.0,
        f"max rel err {worst:.2e} (tol 1e-6), runtime {elapsed:.2f}s (limit 5s)",
    )


def test_criterion_02_plancherel(default_assets):
    basis, w, momenta = default_assets.basis, default_assets.coupling, default_assets.table.momenta
    product = mode_product(basis, 0, 1)
    # dense sinc quadrature for both factors, apart from the table's chirp-z pass
    hats = transform_profiles(np.vstack([w.profile, product]), basis.grid, momenta.nodes)
    ghat = hats[0] * hats[1]
    momentum_side = float(spectral_density(ghat, ghat, momenta).integrate().real)
    g_real = radial_convolution(w.profile, product, basis.grid)
    real_side = float(
        4.0 * np.pi * basis.grid.integrate(g_real**2 * basis.grid.nodes**2)
    )
    rel = abs(momentum_side - real_side) / abs(real_side)
    announce(2, "Plancherel identity", rel < 1e-6, f"relative defect {rel:.2e} (tol 1e-6)")


def test_criterion_03_sokhotski_plemelj(gaussian_pair_density):
    a = gaussian_pair_density
    lam = 1.0
    target = -np.pi * 4.0 * np.pi * lam**2 * np.exp(-lam**2)
    constant = 10.0
    ok = True
    detail = []
    previous = np.inf
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        err = abs(cauchy_transform(a, lam, eps).imag - target)
        ok = ok and err <= constant * eps * np.log(1.0 / eps) and err < previous
        previous = err
        detail.append(f"{err:.1e}@{eps:.0e}")
    announce(
        3,
        "Sokhotski-Plemelj limit",
        ok,
        "errors " + " ".join(detail) + f" within {constant}*eps*log(1/eps)",
    )


def test_criterion_04_dual_route_fgr(default_assets):
    basis, w, table = default_assets.basis, default_assets.coupling, default_assets.table
    momenta = table.momenta
    ghat = table.ghat[table.index]
    worst = 0.0
    for k in range(basis.size):
        for kp in range(k + 1, basis.size):
            delta_route = gamma_fgr(basis, w, k, kp)
            a = spectral_density(ghat[k, kp], ghat[k, kp], momenta)
            lam = abs(float(basis.energies[k] - basis.energies[kp]))
            resolvent_route = -cauchy_transform(a, lam, 0.0).imag
            worst = max(worst, abs(delta_route - resolvent_route) / max(delta_route, 1e-12))
    announce(
        4,
        "dual-route golden-rule rates",
        worst < 1e-6,
        f"worst relative gap {worst:.2e} over all K=6 pairs (tol 1e-6)",
    )


def test_criterion_05_eps_uniformity(default_assets):
    basis, table = default_assets.basis, default_assets.table
    momenta = table.momenta
    ghat = table.ghat[table.index]
    coeffs = default_assets.coeffs
    eps_grid = np.geomspace(1.0, 1e-4, 9)
    worst = 0.0
    for k in range(basis.size):
        for kp in range(k, basis.size):
            a = spectral_density(ghat[k, kp], ghat[k, kp], momenta)
            mu = float(basis.energies[k] - basis.energies[kp])
            har = coeffs.hartree_exchange[k, kp]
            values = [
                abs(-1j * (har - s.real) - s.imag)
                for s in (branch_sum(a, mu, float(e)) for e in eps_grid)
            ]
            worst = max(worst, values[-1] / values[-2])
    announce(
        5,
        "eps-uniform boundedness",
        worst < 2.0,
        f"worst |M^eps| growth between the two smallest eps: {worst:.4f} (tol 2)",
    )


def test_criterion_06_symmetries(default_assets):
    coeffs = default_assets.coeffs
    defects = coeffs.symmetry_defects()
    structural = max(
        defects["fgr_symmetry"],
        defects["fgr_negativity"],
        defects["fgr_diagonal"],
        defects["re_m_antisymmetry"],
        defects["re_m_diagonal"],
    )
    # the (k',k) exchange cell is the exact conjugate of (k,k'), so this gap measures
    # the direct cells (k,k;k',k') against (k',k';k,k) and the mean-field table
    im_m = coeffs.limit_matrix.imag
    agreement = float(np.max(np.abs(im_m - im_m.T)))
    announce(
        6,
        "coefficient symmetries",
        structural == 0.0 and agreement < 1e-10,
        f"structural defect {structural:.1e} (exact), max |Im M - Im M^T| {agreement:.1e} (tol 1e-10)",
    )


def test_criterion_07_mass_conservation(k6_run):
    drift = k6_run.mass_drift()
    announce(7, "mass conservation K=6 T=50", drift < 1e-7, f"|drift| {drift:.2e} (tol 1e-7)")


def test_criterion_08_energy_and_tail_monotonicity(k6_run):
    energy_up = k6_run.max_energy_increase()
    tail_up = k6_run.max_tail_increase()
    announce(
        8,
        "energy and tail monotonicity",
        energy_up < 1e-7 and tail_up < 1e-7,
        f"max energy increase {energy_up:.2e}, max tail increase {tail_up:.2e} (tol 1e-7)",
    )


def test_criterion_09_two_mode_logistic():
    matrix = two_mode_coefficients(1.0).limit_matrix
    state = np.sqrt(np.array([0.5, 0.5], dtype=complex))
    traj = integrate_limit(matrix, state, SolverOptions(1.0, 1e-11, 1e-14, 201))
    occupation = np.abs(traj.states[:, 0]) ** 2
    curve = logistic_bound(0.5, 1.0, traj.times)
    terminal = abs(occupation[-1] - 1.0 / (1.0 + np.exp(-2.0)))
    sup = float(np.max(np.abs(occupation - curve)))
    announce(
        9,
        "two-mode logistic exactness",
        terminal < 1e-8 and sup < 1e-8,
        f"terminal err {terminal:.2e}, sup err {sup:.2e} (tol 1e-8)",
    )


def test_criterion_10_logistic_domination(finitely_supported_run):
    _, series = finitely_supported_run
    assert series.logistic is not None, series.flags
    margin = float(np.min(series.ground_occupation - series.logistic))
    announce(
        10,
        "logistic lower bound",
        margin >= -1e-7,
        f"min(measured - bound) {margin:.2e} over [0, 200] with "
        f"gamma_tilde {series.gamma_tilde:.4f} (tol -1e-7)",
    )


def test_criterion_11_bec_formation(finitely_supported_run):
    traj, _ = finitely_supported_run
    excited = np.sum(np.abs(traj.states[:, 1:]) ** 2, axis=1)
    reached = bool(np.any(excited < 1e-3))
    first = float(traj.times[np.argmax(excited < 1e-3)]) if reached else float("inf")
    announce(
        11,
        "condensate formation",
        reached and first <= 200.0,
        f"excited mass below 1e-3 first at T = {first:.2f} (horizon 200)",
    )


def test_criterion_12_weak_coupling_convergence(sweep_report):
    report, elapsed = sweep_report
    decreasing = report.strictly_decreasing
    announce(
        12,
        "weak-coupling convergence",
        decreasing and elapsed < 600.0,
        "sup distances "
        + " > ".join(f"{d:.3e}" for d in report.sup_distances)
        + f" for etas {report.etas}, runtime {elapsed:.0f}s (limit 600s)",
    )


def test_criterion_13_determinism(check_runs):
    first, second = check_runs["pooled"], check_runs["repeat"]
    code1, code2 = first.code, second.code
    identical = first.manifest is not None and first.manifest == second.manifest
    announce(
        13,
        "byte-identical check runs",
        code1 == 0 and code2 == 0 and identical,
        f"exit codes ({code1}, {code2}), manifests identical: {identical}",
    )
