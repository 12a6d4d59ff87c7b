import os
from dataclasses import replace

import numpy as np
import pytest

import cascadelab.checks as checks
import cascadelab.convergence as convergence
from cascadelab.checks import run_all_checks
from cascadelab.config import SimulationConfig
from cascadelab.coeffs import assemble_prelimit_tensor, limit_matrix_from_tensor
from cascadelab.convergence import eta_sweep
from cascadelab.dynamics import (
    SolverOptions,
    integrate,
    integrate_limit,
    integrate_prelimit,
    rhs_prelimit,
)
from cascadelab.errors import ValidationError
from cascadelab.spectrum import resonant_mask


def test_sweep_distances_strictly_decreasing(sweep_report):
    report, _ = sweep_report
    assert report.etas == (0.2, 0.1, 0.05)
    assert report.strictly_decreasing
    assert report.monotone_within_noise
    assert all(d > 0 for d in report.sup_distances)


def test_sweep_error_halves_at_least(sweep_report):
    report, _ = sweep_report
    assert report.sup_distances[-1] * 2.0 <= report.sup_distances[0]


def test_sweep_initial_distance_zero(sweep_report):
    report, _ = sweep_report
    assert report.initial_distance == 0.0


def test_sweep_mass_drift_small(sweep_report):
    report, _ = sweep_report
    assert max(report.mass_drifts) < 1e-9


def test_prelimit_integrator_error_within_budget(sweep_assets, sweep_report):
    """The capped DOP853 prelimit run stays within 1e-3 of each eta's sup distance.

    The reference is DOP853 at rtol 1e-13, atol 1e-16 on the public
    right-hand side.  Measured: 6.8e-7 of the sup distance at most, 6.8e-4
    of the budget.  The report's meta records the capped run's cost: 48,339
    RHS evaluations over the three eta (77,964 with RK45 at cap 0.25).
    """
    report, _ = sweep_report
    config = sweep_assets.config
    state = config.initial_state()
    t_final = config.sweep.t_final
    t_eval = np.linspace(0.0, t_final, config.sweep.samples)
    reference = SolverOptions(rtol=1e-13, atol=1e-16)
    for i, (eta, sup) in enumerate(zip(report.etas, report.sup_distances)):
        tensor = assemble_prelimit_tensor(
            sweep_assets.basis, sweep_assets.coupling, sweep_assets.pair, eta,
        )
        capped = integrate_prelimit(tensor, state, t_final, sweep_assets.solver_options, t_eval)
        exact = integrate(
            lambda t, y, tensor=tensor: rhs_prelimit(t, y, tensor),
            state, t_final, reference, t_eval, method="DOP853",
        )
        error = np.max(np.linalg.norm(capped.states - exact.states, axis=1))
        assert error <= 1e-3 * sup, eta
        assert report.meta["prelimit_nfev"][i] == capped.meta["nfev"]
        assert report.meta["prelimit_max_step"][i] == capped.meta["max_step"]
    assert sum(report.meta["prelimit_nfev"]) <= 60_000


def test_tiny_eta_resonant_tensor_reproduces_limit(sweep_assets):
    """A resonant-only tensor at nearly-zero eta is the limit system itself.

    Its phases are constant, so its flow must match the generator
    collapsed from the same tensor entries up to integrator noise.
    """
    solver = SolverOptions(rtol=1e-9, atol=1e-12)
    full = assemble_prelimit_tensor(
        sweep_assets.basis, sweep_assets.coupling, sweep_assets.pair, 1e-3,
    )
    tensor = replace(full, tensor=full.tensor * resonant_mask(full.size))
    collapsed = replace(sweep_assets.coeffs, limit_matrix=limit_matrix_from_tensor(tensor))
    state = sweep_assets.config.initial_state()
    t_eval = np.linspace(0.0, 1.0, 200)
    traj = integrate_prelimit(tensor, state, 1.0, solver, t_eval)
    reference = integrate_limit(collapsed, state, 1.0, solver, t_eval)
    distance = np.max(np.linalg.norm(traj.states - reference.states, axis=1))
    assert distance < 10.0 * solver.rtol


def test_empty_eta_list(sweep_assets):
    report = eta_sweep(
        sweep_assets.basis,
        sweep_assets.coupling,
        sweep_assets.pair,
        sweep_assets.config.initial_state(),
        1.0,
        [],
    )
    assert report.is_empty
    assert report.to_rows() == []


def test_eta_list_must_decrease(sweep_assets):
    state = sweep_assets.config.initial_state()
    with pytest.raises(ValidationError):
        eta_sweep(
            sweep_assets.basis, sweep_assets.coupling, sweep_assets.pair,
            state, 1.0, [0.1, 0.2],
        )
    with pytest.raises(ValidationError):
        eta_sweep(
            sweep_assets.basis, sweep_assets.coupling, sweep_assets.pair,
            state, 1.0, [0.2, -0.1],
        )


def test_small_sample_count_rejected(sweep_assets):
    with pytest.raises(ValidationError, match="samples"):
        eta_sweep(
            sweep_assets.basis, sweep_assets.coupling, sweep_assets.pair,
            sweep_assets.config.initial_state(), 1.0, [0.2], n_samples=5,
        )


def test_sweep_reproducible_bit_for_bit(sweep_assets):
    def run():
        return eta_sweep(
            sweep_assets.basis,
            sweep_assets.coupling,
            sweep_assets.pair,
            sweep_assets.config.initial_state(),
            0.5,
            [0.2],
            solver=SolverOptions(rtol=1e-9, atol=1e-12),
            n_samples=200,
        )

    first, second = run(), run()
    assert first.sup_distances == second.sup_distances
    assert first.terminal_distances == second.terminal_distances
    assert first.mass_drifts == second.mass_drifts


def test_non_finite_sweep_input_rejected(sweep_assets):
    state = sweep_assets.config.initial_state()
    for etas, t_final in (
        ([0.2, np.nan], 1.0),
        ([np.inf, 0.2], 1.0),
        ([0.2], np.inf),
        ([0.2], np.nan),
    ):
        with pytest.raises(ValidationError, match="finite"):
            eta_sweep(
                sweep_assets.basis, sweep_assets.coupling, sweep_assets.pair,
                state, t_final, etas,
            )


def test_unknown_eps_policy_rejected_before_pool(sweep_assets, usable_cpus, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a worker pool was started for an unknown eps_policy")

    monkeypatch.setattr(convergence, "ProcessPoolExecutor", refuse)
    usable_cpus(2)
    with pytest.raises(ValidationError, match="eps_policy"):
        eta_sweep(
            sweep_assets.basis, sweep_assets.coupling, sweep_assets.pair,
            sweep_assets.config.initial_state(), 0.25, [0.2, 0.1], eps_policy="limt",
        )


# ---------------------------------------------------------------------------
# worker processes
# ---------------------------------------------------------------------------


def _short_sweep(assets, etas):
    return eta_sweep(
        assets.basis,
        assets.coupling,
        assets.pair,
        assets.config.initial_state(),
        0.25,
        etas,
        solver=assets.solver_options,
        n_samples=200,
    )


def test_pooled_sweep_equals_in_process(sweep_assets, usable_cpus):
    usable_cpus(1)
    here = _short_sweep(sweep_assets, [0.2, 0.1])
    usable_cpus(2)
    pooled = _short_sweep(sweep_assets, [0.2, 0.1])
    assert pooled == here


def test_pooled_results_in_input_order(sweep_assets, usable_cpus):
    """Four eta on two workers; each entry equals its own one-eta sweep."""
    usable_cpus(2)
    etas = (0.4, 0.3, 0.2, 0.15)
    pooled = _short_sweep(sweep_assets, etas)
    assert pooled.etas == etas
    for i, eta in enumerate(etas):
        single = _short_sweep(sweep_assets, [eta])
        assert single.sup_distances[0] == pooled.sup_distances[i]
        assert single.meta["prelimit_nfev"][0] == pooled.meta["prelimit_nfev"][i]
        assert single.meta["prelimit_max_step"][0] == pooled.meta["prelimit_max_step"][i]


def test_one_usable_cpu_starts_no_process(sweep_assets, usable_cpus, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a worker pool was started on one usable CPU")

    monkeypatch.setattr(convergence, "ProcessPoolExecutor", refuse)
    usable_cpus(1)
    report = _short_sweep(sweep_assets, [0.2, 0.1])
    assert report.strictly_decreasing


def test_check_runs_two_independent_sweeps(usable_cpus, monkeypatch):
    """sweep_reproducibility compares two runs, each with its own solves.

    In process, the convergence block integrates the prelimit system once
    per eta and run and the limit system once per run; a block that reused
    the first run's report would pass the record with half the calls.
    """
    calls = {"prelimit": 0, "limit": 0}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        convergence, "integrate_prelimit", counted("prelimit", convergence.integrate_prelimit)
    )
    monkeypatch.setattr(
        convergence, "integrate_limit", counted("limit", convergence.integrate_limit)
    )
    for block in ("spectrum_checks", "coefficient_checks", "dynamics_checks"):
        monkeypatch.setattr(checks, block, lambda assets: [])
    usable_cpus(1)
    result = run_all_checks(SimulationConfig.default())
    records = {rec["name"]: rec for rec in result["blocks"]["convergence"]}
    assert records["sweep_reproducibility"]["passed"]
    etas = SimulationConfig.convergence().eta_values()
    assert calls == {"prelimit": 2 * len(etas), "limit": 2}


def test_usable_cpus_without_affinity_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert convergence._usable_cpus() == 3
