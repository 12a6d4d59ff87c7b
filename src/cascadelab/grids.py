"""Uniform radial and momentum grids.

Both grids exclude the origin: the first node sits one spacing away from
zero and the last node is exactly the cutoff.  Radial integrands in this
package always carry an r^2 (or rho^2) weight, so the origin contributes
nothing and quadrature can treat it as an implicit zero-valued node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

#: The solid angle of the sphere: the angular integral of every radial quadrature.
FOUR_PI = 4.0 * np.pi

#: The momentum cutoff must exceed the largest transition gap in use by
#: this factor; the ``auto`` cutoff of a config is this factor times it, plus 8.
COVER_FACTOR = 4.0

#: Fewest nodes of a radial or momentum grid.
MIN_NODES = 16


def trapezoid_weights(n_points: int, spacing: float) -> np.ndarray:
    """Trapezoid weights for nodes h, 2h, ..., n*h of an integral over [0, n*h].

    The implicit node at the origin carries weight h/2; because every
    integrand used here vanishes at the origin, that weight never appears.
    The last node gets the half weight of the right endpoint.
    """
    w = np.full(n_points, spacing)
    w[-1] = spacing / 2.0
    return w


@dataclass(frozen=True)
class RadialGrid:
    """Uniform discretization of the radial coordinate on (0, r_max].

    Two grids are equal, and hash alike, when r_max and n_points are; the
    nodes follow from them and take no part in the comparison.
    """

    r_max: float
    n_points: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    spacing: float = field(init=False)

    def __post_init__(self):
        if not np.isfinite(self.r_max) or self.r_max <= 0:
            raise ValidationError(f"r_max must be positive and finite, got {self.r_max}")
        if self.n_points < MIN_NODES:
            raise ValidationError(f"n_points must be at least {MIN_NODES}, got {self.n_points}")
        h = self.r_max / self.n_points
        object.__setattr__(self, "spacing", h)
        object.__setattr__(self, "nodes", h * np.arange(1, self.n_points + 1))

    @property
    def weights(self) -> np.ndarray:
        return trapezoid_weights(self.n_points, self.spacing)

    def integrate(self, values: np.ndarray) -> float | complex:
        """Integral over [0, r_max] of a sampled function vanishing at r = 0."""
        return np.dot(values, self.weights)

    def coarsened(self) -> "RadialGrid":
        """The 2h grid: every other node removed, which needs an even n_points >= 2 * MIN_NODES."""
        n, least = self.n_points, 2 * MIN_NODES
        if n % 2 != 0 or n < least:
            raise ValidationError(f"n_points must be even and >= {least} for the 2h grid, got {n}")
        return RadialGrid(self.r_max, self.n_points // 2)


@dataclass(frozen=True)
class MomentumGrid:
    """Uniform discretization of the photon frequency axis on (0, rho_max].

    Compared and hashed by rho_max and n_rho, like RadialGrid.
    """

    rho_max: float
    n_rho: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    spacing: float = field(init=False)

    def __post_init__(self):
        if not np.isfinite(self.rho_max) or self.rho_max <= 0:
            raise ValidationError(f"rho_max must be positive and finite, got {self.rho_max}")
        if self.n_rho < MIN_NODES:
            raise ValidationError(f"n_rho must be at least {MIN_NODES}, got {self.n_rho}")
        h = self.rho_max / self.n_rho
        object.__setattr__(self, "spacing", h)
        object.__setattr__(self, "nodes", h * np.arange(1, self.n_rho + 1))

    @property
    def weights(self) -> np.ndarray:
        return trapezoid_weights(self.n_rho, self.spacing)

    def integrate(self, values: np.ndarray) -> float | complex:
        return np.dot(values, self.weights)

    def require_covers(self, gap: float):
        """Check the resolvent evaluation point sits well inside the grid.

        Transition gaps must be covered with margin: the cutoff has to
        exceed the largest |Delta E| in use by COVER_FACTOR, otherwise
        on-shell evaluations would sit in the badly-resolved tail.
        """
        if abs(gap) >= self.rho_max:
            raise ValidationError(
                f"energy gap {gap} reaches beyond the momentum cutoff {self.rho_max}"
            )
        need = COVER_FACTOR * abs(gap)
        if need > self.rho_max:
            raise ValidationError(
                f"momentum cutoff {self.rho_max} is below {COVER_FACTOR} x |gap| = {need}"
            )
