"""Numerical laboratory for photon-driven resonance cascades in trapped boson gases.

The chain from trap to certificate, one module per layer:

* :mod:`cascadelab.grids` -- the radial and momentum grids,
* :mod:`cascadelab.spectrum` -- trap eigenmodes and spectral genericity,
* :mod:`cascadelab.kernels` -- interaction kernels and radial transforms,
* :mod:`cascadelab.coeffs` -- Hartree, Lamb-shift and golden-rule coefficients,
* :mod:`cascadelab.rk`, :mod:`cascadelab.dynamics` -- the limit and prelimit cascades,
* :mod:`cascadelab.convergence` -- the weak-coupling sweep,
* :mod:`cascadelab.checks` -- the invariant suite behind ``check``.

Around it, :mod:`cascadelab.config` parses configurations,
:mod:`cascadelab.pipeline` builds their assets, :mod:`cascadelab.io`
writes the files, :mod:`cascadelab.errors` maps failures to exit codes
and :mod:`cascadelab.cli` is the command line front end.
"""

__version__ = "0.1.0"
