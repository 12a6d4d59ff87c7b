import ctypes
import glob
import os
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import cascadelab.checks as checks
import cascadelab.convergence as convergence
from cascadelab.checks import run_all_checks
from cascadelab.config import SimulationConfig
from cascadelab.coeffs import assemble_prelimit_tensor
from cascadelab.convergence import ConvergenceReport, eta_sweep
from cascadelab.dynamics import SolverOptions, integrate_limit, integrate_prelimit
from cascadelab.errors import ValidationError
from cascadelab.spectrum import resonant_mask

from oracles import limit_matrix_from_tensor, rhs_prelimit


def test_sweep_distances_strictly_decreasing(sweep_report):
    report, _ = sweep_report
    assert report.etas == (0.2, 0.1, 0.05)
    assert report.strictly_decreasing
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
    state = sweep_assets.config.initial_state()
    solver = sweep_assets.sweep.solver
    for i, (eta, sup) in enumerate(zip(report.etas, report.sup_distances)):
        tensor = assemble_prelimit_tensor(sweep_assets.table, eta)
        capped = integrate_prelimit(tensor, state, solver)
        exact = solve_ivp(
            lambda t, y, tensor=tensor: rhs_prelimit(t, y, tensor),
            (0.0, solver.t_end), state, method="DOP853", t_eval=capped.times,
            rtol=1e-13, atol=1e-16,
        )
        assert exact.success
        error = np.max(np.linalg.norm(capped.states - exact.y.T, axis=1))
        assert error <= 1e-3 * sup, eta
        assert report.meta["prelimit_nfev"][i] == capped.meta["nfev"]
        assert report.meta["prelimit_max_step"][i] == capped.meta["max_step"]
    assert sum(report.meta["prelimit_nfev"]) <= 60_000


def test_tiny_eta_resonant_tensor_reproduces_limit(sweep_assets):
    """A resonant-only tensor at nearly-zero eta is the limit system itself.

    Its phases are constant, so its flow must match the generator
    collapsed from the same tensor entries up to integrator noise.
    """
    solver = SolverOptions(1.0, rtol=1e-9, atol=1e-12, n_samples=200)
    full = assemble_prelimit_tensor(sweep_assets.table, 1e-3)
    tensor = replace(full, tensor=full.tensor * resonant_mask(full.size))
    collapsed = limit_matrix_from_tensor(tensor.tensor)
    state = sweep_assets.config.initial_state()
    traj = integrate_prelimit(tensor, state, solver)
    reference = integrate_limit(collapsed, state, solver)
    distance = np.max(np.linalg.norm(traj.states - reference.states, axis=1))
    assert distance < 10.0 * solver.rtol


def _sweep(assets, t_final, etas, **solver):
    """The assets' sweep setup with another horizon, eta list and solver fields."""
    setup = assets.sweep
    return replace(setup, etas=etas, solver=replace(setup.solver, t_end=t_final, **solver))


def test_sweep_solver_takes_the_sweep_samples(default_assets):
    """The sweep's solves run to [sweep] t_final and sample at [sweep] samples,
    not at the [dynamics] horizon and samples."""
    config = default_assets.config
    assert config.dynamics.samples != config.sweep.samples
    assert config.dynamics.t_end != config.sweep.t_final
    solver = default_assets.sweep.solver
    assert (solver.t_end, solver.n_samples) == (config.sweep.t_final, config.sweep.samples)
    assert (solver.rtol, solver.atol) == (config.dynamics.rtol, config.dynamics.atol)


@pytest.mark.parametrize(
    "sups, strict",
    [
        pytest.param((0.5, 0.25), True, id="halving"),
        pytest.param((0.5, 0.5), False, id="equal"),
        pytest.param((0.5, 0.25, 0.26), False, id="uptick"),
        pytest.param((0.5, 0.61), False, id="above-noise"),
        pytest.param((0.5,), True, id="one-eta"),
        pytest.param((), True, id="empty"),
    ],
)
def test_report_verdicts_read_sup_distances(sups, strict):
    etas = tuple(0.2 / 2**i for i in range(len(sups)))
    report = ConvergenceReport(etas, sups, sups, (0.0,) * len(sups), 0.0)
    assert report.strictly_decreasing is strict


def test_empty_eta_list(sweep_assets):
    report = eta_sweep(_sweep(sweep_assets, 1.0, []))
    assert report.etas == ()
    assert report.sup_distances == ()


def test_eta_list_must_decrease(sweep_assets):
    with pytest.raises(ValidationError):
        eta_sweep(_sweep(sweep_assets, 1.0, [0.1, 0.2]))
    with pytest.raises(ValidationError):
        eta_sweep(_sweep(sweep_assets, 1.0, [0.2, -0.1]))


def test_small_sample_count_rejected(sweep_assets):
    with pytest.raises(ValidationError, match="samples"):
        eta_sweep(_sweep(sweep_assets, 1.0, [0.2], n_samples=5))


def test_sweep_reproducible_bit_for_bit(sweep_assets):
    def run():
        return eta_sweep(_sweep(sweep_assets, 0.5, [0.2], n_samples=200))

    first, second = run(), run()
    assert first.sup_distances == second.sup_distances
    assert first.terminal_distances == second.terminal_distances
    assert first.mass_drifts == second.mass_drifts


def test_non_finite_sweep_input_rejected(sweep_assets):
    for etas, t_final in (
        ([0.2, np.nan], 1.0),
        ([np.inf, 0.2], 1.0),
        ([0.2], np.inf),
        ([0.2], np.nan),
    ):
        with pytest.raises(ValidationError, match="finite"):
            eta_sweep(_sweep(sweep_assets, t_final, etas))


# ---------------------------------------------------------------------------
# worker processes
# ---------------------------------------------------------------------------


def _short_setup(assets, etas):
    return _sweep(assets, 0.25, etas, n_samples=200)


def _short_sweep(assets, etas):
    return eta_sweep(_short_setup(assets, etas))


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
    monkeypatch.setattr(convergence, "_set_blas_threads", refuse)
    usable_cpus(1)
    report = _short_sweep(sweep_assets, [0.2, 0.1])
    assert report.strictly_decreasing


@pytest.fixture
def blas_threads():
    """The thread count of numpy's bundled OpenBLAS, read independently of
    the package: set to two for the test and restored after it.

    With one usable CPU the pool runs through the ``usable_cpus`` fixture,
    so a second CPU is not needed; numpy's OpenBLAS is.
    """
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*.so*")):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        before = get()
        put(2)
        yield get
        put(before)
        return
    pytest.skip("numpy bundles no OpenBLAS with a runtime thread-count API")


def test_pool_runs_parent_and_workers_at_one_blas_thread(
    sweep_assets, usable_cpus, blas_threads, monkeypatch, tmp_path
):
    """The count drops before the fork, so the workers inherit one thread too."""
    usable_cpus(2)
    run = convergence.SweepSetup.prelimit_run

    def prelimit_run(setup, eta):  # a worker unpickles the method by this name
        (tmp_path / f"{eta}.threads").write_text(str(blas_threads()))
        return run(setup, eta)

    monkeypatch.setattr(convergence.SweepSetup, "prelimit_run", prelimit_run)
    with convergence.sweep_runs([_short_setup(sweep_assets, [0.2, 0.1])]) as (finish,):
        assert blas_threads() == 1
        assert finish().strictly_decreasing
    assert blas_threads() == 2
    seen = sorted(path.read_text() for path in tmp_path.glob("*.threads"))
    assert seen == ["1", "1"]


def test_pool_restores_the_blas_threads_after_an_exception(
    sweep_assets, usable_cpus, blas_threads
):
    usable_cpus(2)
    with pytest.raises(RuntimeError, match="left by an exception"):
        with convergence.sweep_runs([_short_setup(sweep_assets, [0.2, 0.1])]):
            assert blas_threads() == 1
            raise RuntimeError("left by an exception")
    assert blas_threads() == 2


def test_pooled_sweep_without_openblas_is_unchanged(
    sweep_assets, usable_cpus, blas_threads, monkeypatch
):
    """Where the lookup finds no OpenBLAS the pool leaves the count alone."""
    usable_cpus(2)
    pooled = _short_sweep(sweep_assets, [0.2, 0.1])
    monkeypatch.setattr(convergence, "_set_blas_threads", lambda count: None)
    with convergence.sweep_runs([_short_setup(sweep_assets, [0.2, 0.1])]) as (finish,):
        assert blas_threads() == 2
        assert finish() == pooled


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
