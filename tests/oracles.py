"""Independent routes that tests compare the shipped code against.

The complex form of the limit right-hand side, and its modulus/phase form
with the phases integrated rather than read off the integrated
occupations, are the oracles of the modulus/occupation flow that
``dynamics.integrate_limit`` integrates.
"""

import numpy as np

from cascadelab.coeffs import CoefficientSet
from cascadelab.dynamics import _require_state


def rhs_limit(state: np.ndarray, coeffs: CoefficientSet) -> np.ndarray:
    """Right-hand side of the limit cascade in complex form."""
    state = _require_state(state, coeffs.size)
    return (coeffs.limit_matrix @ np.abs(state) ** 2) * state


def rhs_modulus_phase(coeffs: CoefficientSet):
    """(r, theta) -> (r * (Re M r^2), Im M r^2) as a real system of size 2K."""
    size = coeffs.size
    stacked = np.vstack([coeffs.limit_matrix.real, coeffs.limit_matrix.imag])

    def rhs(_t, y):
        r = y[:size]
        out = stacked @ (r * r)
        out[:size] *= r
        return out

    return rhs
