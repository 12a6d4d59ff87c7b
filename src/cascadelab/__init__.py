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
