"""Numerical laboratory for photon-driven resonance cascades in trapped boson gases.

The package is organised around five layers:

* :mod:`cascadelab.spectrum` -- radial bound-state eigensolver for the
  confining trap and spectral-genericity diagnostics,
* :mod:`cascadelab.kernels` -- interaction kernels and the radial Fourier
  transform,
* :mod:`cascadelab.coeffs` -- spectral densities, regularized Cauchy
  transforms, and the Hartree / Lamb-shift / golden-rule transition
  coefficients,
* :mod:`cascadelab.dynamics` -- integration of the limit cascade and the
  oscillatory prelimit system with theorem-level diagnostics,
* :mod:`cascadelab.convergence` -- the weak-coupling sweep measuring the
  distance between prelimit and limit trajectories.

The command line front end lives in :mod:`cascadelab.cli`.
"""

__version__ = "0.1.0"

from .grids import MomentumGrid, RadialGrid
from .spectrum import (
    EigenBasis,
    Potential,
    ResonanceReport,
    check_gap_independence,
    mode_product,
    solve_radial_eigenpairs,
)
from .kernels import InteractionKernel, gaussian_kernel, radial_convolution
from .coeffs import (
    CoefficientSet,
    PrelimitTensor,
    SpectralDensity,
    assemble_limit_matrix,
    assemble_prelimit_tensor,
    cauchy_transform,
    cauchy_transform_limit,
    gamma_fgr,
    lambda_hartree,
    lambda_lamb_shift,
    limit_matrix_from_tensor,
    spectral_density,
    two_mode_coefficients,
)
from .dynamics import (
    DiagnosticsSeries,
    SolverOptions,
    Trajectory,
    diagnostics,
    integrate,
    logistic_bound,
    rhs_prelimit,
)
from .convergence import ConvergenceReport, eta_sweep
from .config import SimulationConfig, parse_config
from .pipeline import Assets

__all__ = [
    "CoefficientSet",
    "ConvergenceReport",
    "DiagnosticsSeries",
    "EigenBasis",
    "InteractionKernel",
    "MomentumGrid",
    "Potential",
    "PrelimitTensor",
    "RadialGrid",
    "ResonanceReport",
    "SimulationConfig",
    "SolverOptions",
    "SpectralDensity",
    "Trajectory",
    "Assets",
    "assemble_limit_matrix",
    "assemble_prelimit_tensor",
    "cauchy_transform",
    "cauchy_transform_limit",
    "check_gap_independence",
    "diagnostics",
    "eta_sweep",
    "gamma_fgr",
    "gaussian_kernel",
    "integrate",
    "lambda_hartree",
    "lambda_lamb_shift",
    "limit_matrix_from_tensor",
    "logistic_bound",
    "mode_product",
    "parse_config",
    "radial_convolution",
    "rhs_prelimit",
    "solve_radial_eigenpairs",
    "spectral_density",
    "two_mode_coefficients",
]
