"""Build simulation assets from a configuration.

One place turns a SimulationConfig into grids, basis, kernels, the
pairing table, coefficient sets and the eta sweep setup, so the CLI, the
invariant suite, and the tests all run through identical construction
paths.  The table is built once and read by both the limit coefficients
and the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .coeffs import (
    CoefficientSet,
    PairingTable,
    assemble_limit_matrix,
    pairing_table,
)
from .config import SimulationConfig
from .convergence import SweepSetup
from .dynamics import SolverOptions, diagnostics, integrate_limit
from .grids import MomentumGrid, RadialGrid
from .kernels import InteractionKernel
from .spectrum import EigenBasis, Potential, solve_radial_eigenpairs


@dataclass
class Assets:
    """Everything derivable from a config, each asset built lazily, once.

    There is one coefficient source: the limit coefficients and the sweep
    both read the pairing table of the trap's basis and kernels.
    """

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
    def coupling(self) -> InteractionKernel:
        return self.config.kernel("coupling", self.grid)

    @cached_property
    def pair(self) -> InteractionKernel:
        return self.config.kernel("pair", self.grid)

    @cached_property
    def table(self) -> PairingTable:
        """The pairing table of the trap's basis and kernels, on the configured momentum grid."""
        max_gap = float(self.basis.energies[-1] - self.basis.energies[0])
        momenta = MomentumGrid(self.config.rho_max_value(max_gap), self.config.momentum.n_rho)
        return pairing_table(self.basis, self.coupling, self.pair, momenta)

    @cached_property
    def coeffs(self) -> CoefficientSet:
        return assemble_limit_matrix(self.table)

    @cached_property
    def sweep(self) -> SweepSetup:
        """The configured eta sweep, on the trap's table.

        Its solver takes the [dynamics] tolerances and the [sweep] t_final and samples.
        """
        c = self.config
        solver = replace(self.solver_options, t_end=c.sweep.t_final, n_samples=c.sweep.samples)
        return SweepSetup(self.table, c.initial_state(), c.eta_values(), solver)

    @property
    def solver_options(self) -> SolverOptions:
        """The [dynamics] solve: t_end, tolerances and samples."""
        d = self.config.dynamics
        return SolverOptions(d.t_end, d.rtol, d.atol, d.samples)


def evolve(assets: Assets):
    """Integrate the limit cascade of ``assets.config``; returns (trajectory, series)."""
    config, coeffs = assets.config, assets.coeffs
    traj = integrate_limit(coeffs.limit_matrix, config.initial_state(), assets.solver_options)
    return traj, diagnostics(traj, assets.basis.energies, coeffs)
