"""Build simulation assets from a configuration.

One place turns a SimulationConfig into grids, basis, kernels,
coefficient sets and the eta sweep setup, so the CLI, the invariant
suite, and the tests all run through identical construction paths.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .coeffs import CoefficientSet, assemble_limit_matrix, two_mode_coefficients
from .config import SimulationConfig
from .convergence import SweepSetup
from .dynamics import SolverOptions, diagnostics, integrate_limit
from .errors import ConfigError, ValidationError
from .grids import MomentumGrid, RadialGrid
from .kernels import InteractionKernel, gaussian_kernel
from .spectrum import EigenBasis, Potential, solve_radial_eigenpairs


@dataclass
class Assets:
    """Everything derivable from a config, each asset built lazily, once."""

    config: SimulationConfig

    @cached_property
    def grid(self) -> RadialGrid:
        t = self.config.trap
        return RadialGrid(t.r_max, t.n_points)

    @cached_property
    def potential(self) -> Potential:
        return build_potential(self.config, self.grid)

    @cached_property
    def basis(self) -> EigenBasis:
        return solve_radial_eigenpairs(self.potential, self.config.trap.modes)

    @cached_property
    def momenta(self) -> MomentumGrid:
        max_gap = float(self.basis.energies[-1] - self.basis.energies[0])
        return MomentumGrid(self.config.rho_max_value(max_gap), self.config.momentum.n_rho)

    def kernel(self, role: str, momenta: MomentumGrid) -> InteractionKernel:
        """The configured ``coupling`` or ``pair`` kernel on a given momentum grid."""
        k = self.config.kernels
        amplitude, width = {
            "coupling": (k.coupling_amplitude, k.coupling_width),
            "pair": (k.pair_amplitude, k.pair_width),
        }[role]
        return gaussian_kernel(role, self.grid, momenta, amplitude, width)

    @cached_property
    def coupling(self) -> InteractionKernel:
        return self.kernel("coupling", self.momenta)

    @cached_property
    def pair(self) -> InteractionKernel:
        return self.kernel("pair", self.momenta)

    @cached_property
    def coeffs(self) -> CoefficientSet:
        preset = self.config.coefficient_preset()
        if preset is not None:
            return two_mode_coefficients(preset, size=self.config.trap.modes)
        return assemble_limit_matrix(self.basis, self.coupling, self.pair)

    @cached_property
    def sweep(self) -> SweepSetup:
        """The configured eta sweep, on the trap's kernels even under a coefficient preset.

        Its solver takes the [dynamics] tolerances and the [sweep] samples.
        """
        c = self.config
        return SweepSetup(
            self.basis,
            self.coupling,
            self.pair,
            c.initial_state(),
            c.sweep.t_final,
            c.eta_values(),
            replace(self.solver_options, n_samples=c.sweep.samples),
        )

    @property
    def energies(self) -> np.ndarray:
        if self.config.coefficient_preset() is not None:
            # synthetic coefficients carry mock unit-spaced levels
            return np.arange(self.config.trap.modes, dtype=float)
        return self.basis.energies

    @property
    def solver_options(self) -> SolverOptions:
        d = self.config.dynamics
        return SolverOptions(rtol=d.rtol, atol=d.atol, n_samples=d.samples)


def build_potential(config: SimulationConfig, grid: RadialGrid) -> Potential:
    """The tabulated trap of ``trap.file`` when it is set, else the anharmonic one."""
    t = config.trap
    if t.file:
        return Potential.tabulated(grid, _read_tabulated(t.file, grid))
    return Potential.anharmonic(grid, beta=t.beta, scale=t.scale)


def _read_tabulated(path: str, grid: RadialGrid) -> np.ndarray:
    """V(r) of a two-column CSV table whose radii are the grid's nodes.

    A file that cannot be read or parsed (a non-numeric entry, rows of
    unequal length) is a ConfigError; a table with no rows, of another
    width, or on other radii, a ValidationError.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # numpy's on no rows, reported below
            data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read trap file {path}: {exc}")
    if data.size == 0:
        raise ValidationError(f"trap file {path} holds no rows")
    if data.shape[1] != 2:
        raise ValidationError("trap file must have two columns: r, V(r)")
    r, v = data[:, 0], data[:, 1]
    if len(r) != grid.n_points or not np.allclose(r, grid.nodes, rtol=0, atol=1e-12):
        raise ValidationError("trap file radii do not match the configured grid")
    return v


def evolve(assets: Assets):
    """Integrate the limit cascade of ``assets.config``; returns (trajectory, series)."""
    config, coeffs = assets.config, assets.coeffs
    traj = integrate_limit(
        coeffs.limit_matrix, config.initial_state(), config.dynamics.t_end, assets.solver_options
    )
    return traj, diagnostics(traj, assets.energies, coeffs)
