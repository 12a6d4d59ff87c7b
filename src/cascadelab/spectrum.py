"""Radial bound states of the confining trap.

The trap is spherically symmetric and the package works in its s-wave
(zero angular momentum) sector.  With the substitution psi(r) = r*chi(r)
the radial problem for -Laplacian + V reduces to a one-dimensional
Dirichlet problem

    -psi'' + V(r) psi = E psi  on (0, r_max),  psi(0) = psi(r_max) = 0,

discretized with second-order central differences on the uniform grid.
Eigenvalues get a two-grid Richardson correction, which removes the
leading O(h^2) discretization bias while keeping the plain symmetric
tridiagonal solve as the work horse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ValidationError
from .grids import FOUR_PI, RadialGrid

#: Modes must have decayed to this fraction of their peak at the wall,
#: otherwise the box is too small (or the potential is not confining).
DECAY_TOL = 1e-8

#: Tolerance below which two gap differences count as colliding.
GAP_TOL = 1e-8


@dataclass(frozen=True)
class Potential:
    """Radial confining potential sampled on a grid.

    The analytic trap is the length-rescaled anharmonic one, harmonic at
    beta = 0: with scale L, V(r) = (1/L^2) * Vt(r/L) with
    Vt(x) = x^2 + beta*x^4, i.e. energies shrink by L^2 and modes widen
    by L relative to the natural-unit trap.  A potential holds only its
    samples, whichever constructor made them; ``SimulationConfig.potential``
    builds the configured trap on any grid.
    """

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        v, r = self.values, self.grid.nodes
        if len(v) != self.grid.n_points:
            raise ValidationError("potential values do not match the grid")
        if not np.all(np.isfinite(v)):
            raise ValidationError("potential contains non-finite values")
        # linear-coercivity proxy: a confining V has a positive slope c in
        # V(r) >= c*r - C0 between the midpoint and the wall
        mid = self.grid.n_points // 2
        slope = (v[-1] - v[mid]) / (r[-1] - r[mid])
        if slope <= 0:
            raise ValidationError(
                f"potential is not coercive on the grid (outer slope {slope:.3e} <= 0)"
            )

    @staticmethod
    def harmonic(grid: RadialGrid) -> "Potential":
        return Potential.anharmonic(grid, beta=0.0)

    @staticmethod
    def anharmonic(grid: RadialGrid, beta: float, scale: float = 1.0) -> "Potential":
        """The analytic trap on ``grid``; beta non-negative and scale positive, both finite."""
        if not 0 <= beta < np.inf:
            raise ValidationError(f"trap beta must be non-negative and finite, got {beta}")
        if not 0 < scale < np.inf:
            raise ValidationError(f"trap scale must be positive and finite, got {scale}")
        x = grid.nodes / scale
        return Potential(grid, (x**2 + beta * x**4) / scale**2)

    @staticmethod
    def tabulated(grid: RadialGrid, values: np.ndarray) -> "Potential":
        return Potential(grid, np.asarray(values, dtype=float))


@dataclass(frozen=True)
class EigenBasis:
    """The K lowest s-wave eigenpairs of -Laplacian + V.

    ``modes[k]`` samples chi_k on the grid; the normalization is the
    three-dimensional one, 4*pi * integral chi_j chi_k r^2 dr = delta_jk,
    so inner products of radial functions f, g read 4*pi*int f g r^2 dr.
    The basis keeps the grid it was solved on, not the potential.
    """

    energies: np.ndarray
    modes: np.ndarray  # shape (K, n_points)
    grid: RadialGrid

    @property
    def size(self) -> int:
        return len(self.energies)

    def orthonormality_defect(self) -> float:
        """max_{j,k} |<chi_j, chi_k> - delta_jk| over the computed modes."""
        r2w = self.grid.nodes**2 * self.grid.weights
        gram = FOUR_PI * (self.modes * r2w) @ self.modes.T
        return float(np.max(np.abs(gram - np.eye(self.size))))


@dataclass(frozen=True)
class ResonanceReport:
    """Spectral-genericity diagnostics over all index quadruples.

    A quadruple (k,k';j,j') collides when its gap difference
    |(E_k - E_k') - (E_j - E_j')| falls below GAP_TOL.  Quadruples
    that are resonant by construction (``resonant_mask``) are excluded:
    the diagonal family (k,k';k,k') and the zero-gap family with k = k'
    and j = j', whose gap difference vanishes identically for any spectrum.
    """

    collisions: list[tuple[int, int, int, int]]
    min_offdiagonal_gap: float

    @property
    def is_generic(self) -> bool:
        return len(self.collisions) == 0


def _tridiagonal_eigenpairs(potential_values, spacing, n_interior, count, eigvals_only=False):
    inv_h2 = 1.0 / spacing**2
    diag = 2.0 * inv_h2 + potential_values[:n_interior]
    off = np.full(n_interior - 1, -inv_h2)
    return eigh_tridiagonal(
        diag, off, eigvals_only=eigvals_only, select="i", select_range=(0, count - 1)
    )


def validate_mode_count(count: int, grid: RadialGrid):
    """The rule 1 <= count < n_points / 4, for a [trap] section and an eigensolve alike."""
    if count < 1:
        raise ValidationError(f"mode count must be positive, got {count}")
    if count >= grid.n_points / 4:
        raise ValidationError(f"mode count {count} too large for a grid of {grid.n_points} points")


def solve_radial_eigenpairs(potential: Potential, count: int) -> EigenBasis:
    """Compute the lowest ``count`` s-wave eigenpairs of -Laplacian + V on ``potential.grid``.

    The Dirichlet problem for psi = r*chi lives on the interior nodes;
    psi(r_max) = 0 pins the last grid node.  The eigenvalues are corrected
    with a second solve on the 2h grid, E = (4*E_h - E_2h)/3, which cancels
    the O(h^2) finite-difference bias; the eigenvectors come from the fine
    grid.  The 2h grid's nodes are the odd-indexed fine nodes, bit for bit
    (h_2h = 2h exactly), so the trap there is ``potential.values[1::2]``
    for an analytic and a tabulated trap alike.

    Raises a dimension error when the grid cannot resolve ``count`` modes
    or has too few or an odd number of points (before any eigensolve), and a
    domain-truncation error when the highest mode has not decayed
    at the wall (non-confining potential or r_max too small).
    """
    grid = potential.grid
    validate_mode_count(count, grid)

    # the 2h grid must nest in this one; coarsened() rejects an odd or too small n_points
    coarse = grid.coarsened()
    n_interior = grid.n_points - 1
    energies, vectors = _tridiagonal_eigenpairs(potential.values, grid.spacing, n_interior, count)
    # the 2h solve only corrects the energies: its eigenvectors are never formed
    coarse_vals = _tridiagonal_eigenpairs(
        potential.values[1::2], coarse.spacing, coarse.n_points - 1, count, eigvals_only=True
    )
    energies = (4.0 * energies - coarse_vals) / 3.0

    if np.any(np.diff(energies) <= 0):
        raise ValidationError(
            "computed spectrum is not strictly increasing: " + np.array2string(energies)
        )

    # psi on the full grid: interior eigenvector plus the pinned wall node
    psi = np.zeros((count, grid.n_points))
    psi[:, :n_interior] = vectors.T

    # undecayed tails mean the Dirichlet box truncates a genuine mode
    tail = np.max(np.abs(psi[:, -max(2, grid.n_points // 100) :]), axis=1)
    peak = np.max(np.abs(psi), axis=1)
    worst = float(np.max(tail / peak))
    if worst > DECAY_TOL:
        raise ValidationError(
            f"eigenfunctions not decayed at r_max (tail fraction {worst:.2e} > {DECAY_TOL:.0e}); "
            "increase r_max or use a confining potential"
        )

    # discrete trapezoid normalization: 4*pi*h*sum(psi^2) = 1 keeps the
    # basis orthonormal to machine precision in the package inner product
    psi /= np.sqrt(FOUR_PI * grid.spacing * np.sum(psi**2, axis=1))[:, None]

    # phase convention: first non-negligible sample positive
    for k in range(count):
        threshold = 1e-12 * np.max(np.abs(psi[k]))
        nz = int(np.argmax(np.abs(psi[k]) > threshold))
        if psi[k, nz] < 0:
            psi[k] = -psi[k]

    modes = psi / grid.nodes
    return EigenBasis(energies=energies, modes=modes, grid=grid)


def resonant_mask(size: int) -> np.ndarray:
    """Boolean indicator of the quadruples whose phase vanishes identically.

    These are the diagonal family (k,k';k,k') and the zero-gap family
    (k,k;j,j); for a generically-gapped spectrum every other quadruple
    oscillates and averages out in the weak-coupling limit.
    """
    idx = np.arange(size)
    diag = (idx[:, None, None, None] == idx[None, None, :, None]) & (
        idx[None, :, None, None] == idx[None, None, None, :]
    )
    zero_gap = (idx[:, None, None, None] == idx[None, :, None, None]) & (
        idx[None, None, :, None] == idx[None, None, None, :]
    )
    return diag | zero_gap


def gap_differences(energies: np.ndarray) -> np.ndarray:
    """The K^4 array of (E_a - E_b) - (E_c - E_d): the phase rate, times eta^2, of (a,b;c,d)."""
    gaps = energies[:, None] - energies[None, :]
    return gaps[:, :, None, None] - gaps[None, None, :, :]


def check_gap_independence(basis: EigenBasis) -> ResonanceReport:
    """Enumerate all K^4 quadruples and report gap differences below GAP_TOL.

    Returns the collision list and the minimum |gap difference| over
    quadruples that are not resonant by construction.  With a single mode
    there is nothing to compare and the minimum is +inf.
    """
    magnitudes = np.abs(gap_differences(basis.energies))
    informative = ~resonant_mask(basis.size)
    if not np.any(informative):
        return ResonanceReport([], float("inf"))

    colliding = informative & (magnitudes < GAP_TOL)
    collisions = [tuple(int(i) for i in q) for q in np.argwhere(colliding)]
    min_gap = float(np.min(magnitudes[informative]))
    return ResonanceReport(collisions, min_gap)


def mode_product(basis: EigenBasis, k: int, kp: int) -> np.ndarray:
    """Pointwise product chi_k * chi_k' on the radial grid."""
    if not (0 <= k < basis.size and 0 <= kp < basis.size):
        raise ValidationError(
            f"mode indices ({k}, {kp}) out of range for a basis of size {basis.size}"
        )
    return basis.modes[k] * basis.modes[kp]
