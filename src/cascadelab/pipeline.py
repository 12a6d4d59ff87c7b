"""Build simulation assets from a configuration.

One place turns a SimulationConfig into grids, basis, kernels,
coefficient sets and the eta sweep setup, so the CLI, the invariant
suite, and the tests all run through identical construction paths.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .coeffs import CoefficientSet, assemble_limit_matrix, two_mode_coefficients
from .config import SimulationConfig
from .convergence import SweepSetup
from .dynamics import SolverOptions, diagnostics, integrate_limit
from .grids import MomentumGrid, RadialGrid
from .kernels import InteractionKernel
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
        return self.config.potential(self.grid)

    @cached_property
    def basis(self) -> EigenBasis:
        return solve_radial_eigenpairs(self.potential, self.config.trap.modes)

    @cached_property
    def momenta(self) -> MomentumGrid:
        max_gap = float(self.basis.energies[-1] - self.basis.energies[0])
        return MomentumGrid(self.config.rho_max_value(max_gap), self.config.momentum.n_rho)

    def kernel(self, role: str, momenta: MomentumGrid) -> InteractionKernel:
        """The configured ``coupling`` or ``pair`` kernel on the trap's grid and ``momenta``."""
        return self.config.kernel(role, self.grid, momenta)

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


def evolve(assets: Assets):
    """Integrate the limit cascade of ``assets.config``; returns (trajectory, series)."""
    config, coeffs = assets.config, assets.coeffs
    traj = integrate_limit(
        coeffs.limit_matrix, config.initial_state(), config.dynamics.t_end, assets.solver_options
    )
    return traj, diagnostics(traj, assets.energies, coeffs)
