"""Shared fixtures.

Heavy objects (eigenbases, coefficient assemblies, the convergence sweep)
are session-scoped: they are deterministic, read-only, and several test
modules check different facets of the same objects.
"""

import multiprocessing
import time

import numpy as np
import pytest

import cascadelab.convergence as convergence
from cascadelab import Assets, SimulationConfig
from cascadelab.convergence import eta_sweep
from cascadelab.grids import MomentumGrid, RadialGrid
from cascadelab.spectrum import Potential, solve_radial_eigenpairs


@pytest.fixture(scope="session")
def default_assets():
    """Cascade default: soft anharmonic trap, six modes."""
    return Assets(SimulationConfig.default())


@pytest.fixture(scope="session")
def sweep_assets():
    """Sweep preset: natural-unit anharmonic trap, four modes."""
    return Assets(SimulationConfig.convergence())


@pytest.fixture(scope="session")
def harmonic_basis():
    grid = RadialGrid(12.0, 2000)
    return solve_radial_eigenpairs(Potential.harmonic(grid), grid, 6)


@pytest.fixture(scope="session")
def natural_basis():
    """Natural-unit anharmonic basis used by unit-scale oracles."""
    grid = RadialGrid(12.0, 1600)
    return solve_radial_eigenpairs(Potential.anharmonic(grid, beta=0.2), grid, 6)


@pytest.fixture(scope="session")
def gaussian_pair_density():
    """The closed-form density a(rho) = 4 pi rho^2 e^{-rho^2} on a grid."""
    from cascadelab.coeffs import SpectralDensity

    momenta = MomentumGrid(8.0, 4096)
    values = 4.0 * np.pi * momenta.nodes**2 * np.exp(-momenta.nodes**2)
    return SpectralDensity(momenta, values)


@pytest.fixture(scope="session")
def sweep_report(sweep_assets):
    """The canonical eta sweep, with its wall time attached."""
    config = sweep_assets.config
    start = time.perf_counter()
    report = eta_sweep(
        sweep_assets.basis,
        sweep_assets.coupling,
        sweep_assets.pair,
        config.initial_state(),
        config.sweep.t_final,
        config.eta_values(),
        solver=sweep_assets.solver_options,
        coeff_options=sweep_assets.coeff_options,
        n_samples=config.sweep.samples,
    )
    elapsed = time.perf_counter() - start
    return report, elapsed


@pytest.fixture
def usable_cpus(monkeypatch):
    """Set the CPU count the sweep sees; above one it runs on forked workers."""

    def set_count(count):
        if count > 1 and "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method")
        monkeypatch.setattr(convergence, "_usable_cpus", lambda: count)

    return set_count
