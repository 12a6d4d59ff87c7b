"""Shared fixtures.

Heavy objects (eigenbases, coefficient assemblies, the convergence sweep)
are session-scoped: they are deterministic, read-only, and several test
modules check different facets of the same objects.
"""

import contextlib
import io
import multiprocessing
import time
from typing import NamedTuple

import numpy as np
import pytest

import cascadelab.convergence as convergence
from cascadelab.cli import main as cli_main
from cascadelab.config import SimulationConfig
from cascadelab.convergence import eta_sweep
from cascadelab.grids import MomentumGrid, RadialGrid
from cascadelab.pipeline import Assets
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
    return solve_radial_eigenpairs(Potential.harmonic(grid), 6)


@pytest.fixture(scope="session")
def natural_basis():
    """Natural-unit anharmonic basis used by unit-scale oracles."""
    grid = RadialGrid(12.0, 1600)
    return solve_radial_eigenpairs(Potential.anharmonic(grid, beta=0.2), 6)


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
    start = time.perf_counter()
    report = eta_sweep(sweep_assets.sweep)
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


class CheckRun(NamedTuple):
    code: int
    manifest: bytes | None
    stdout: str
    workers_left: list


@pytest.fixture(scope="session")
def check_runs(tmp_path_factory):
    """Three end-to-end ``check`` runs on the built-in preset, shared by the suite.

    "pooled" and "repeat" run on a two-worker fork pool (in process where
    fork is missing), "in_process" on one CPU.  Each is a CheckRun: exit
    code, manifest bytes, printed lines, and the workers still alive after it.
    """
    pool_size = 2 if "fork" in multiprocessing.get_all_start_methods() else 1
    runs = {}
    with pytest.MonkeyPatch.context() as patch:
        for name, count in (("pooled", pool_size), ("repeat", pool_size), ("in_process", 1)):
            patch.setattr(convergence, "_usable_cpus", lambda count=count: count)
            out = tmp_path_factory.mktemp(name)
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                code = cli_main(["check", "--out", str(out)])
            manifest = out / "manifest.json"
            runs[name] = CheckRun(
                code,
                manifest.read_bytes() if manifest.exists() else None,
                printed.getvalue(),
                multiprocessing.active_children(),
            )
    return runs
