"""Independent routes that tests compare the shipped code against.

The complex form of the limit right-hand side, and its modulus/phase form
with the phases integrated rather than read off the integrated
occupations, are the oracles of the modulus/occupation flow that
``dynamics.integrate_limit`` integrates.

``rhs_prelimit`` is the prelimit right-hand side in the plain (t, y)
form, the reference that ``dynamics``'s stage form reproduces bit for bit
and the ``fun(t, y)`` that ``solve_ivp`` integrates in tests/test_rk.py.

The scalar coefficient routes evaluate one quadruple at a time, each from
its own transforms on a momentum grid they are given, never from a
pairing table: ``lambda_hartree`` and ``lambda_lamb_shift`` are the
oracles of the assembled Hartree and Lamb-shift cells, and
``limit_matrix_from_tensor`` collapses a prelimit tensor onto the limit
generator; ``resonant_limit_cells`` gives it the eps = 0 resonant cells
that production never assembles.  ``pair_transforms`` transforms kernels
with every ordered mode product, K^2 rows where the table has K(K+1)/2.

``density_at`` reads a spectral density off its grid by the local cubic
interpolation the Cauchy routes subtract at the pole.

``complex_branch_weights`` is the branch-sum weight vector with every
quotient taken in complex arithmetic, w / (d + i eps) at eps = 0 too: the
form ``coeffs.branch_weights`` replaces by real arithmetic at eps = 0.
"""

import numpy as np

from cascadelab.coeffs import (
    _ORIGIN_END_WEIGHT,
    DENSITY_PREFACTOR,
    CoefficientSet,
    PrelimitTensor,
    SpectralDensity,
    _extended_grid,
    _interpolate,
    _is_interior,
    _lagrange_row,
    _pole_node,
    branch_sum,
    spectral_density,
)
from cascadelab.dynamics import _require_state
from cascadelab.errors import ValidationError
from cascadelab.grids import MomentumGrid
from cascadelab.kernels import InteractionKernel, grid_transforms
from cascadelab.spectrum import EigenBasis, mode_product, resonant_mask


def density_at(a: SpectralDensity, lam: float):
    """The density ``a`` at an off-node frequency ``lam`` by local cubic interpolation."""
    nodes, _ = _extended_grid(a.momenta)
    if lam < nodes[0] or lam > nodes[-1]:
        raise ValidationError(f"interpolation point {lam} outside [0, {nodes[-1]}]")
    return _interpolate(nodes, a._extended_values(), lam)


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


def rhs_prelimit(
    t: float, state: np.ndarray, tensor: PrelimitTensor
) -> np.ndarray:
    """Right-hand side of the oscillatory prelimit system (remainders dropped).

    The plain (t, y) form, one exponential and fresh arrays per call: the
    reference that the stage form of ``_prelimit_rhs`` reproduces bit for
    bit (tests/test_rk.py).
    """
    state = _require_state(state, tensor.size)
    size = tensor.size
    flat = tensor.tensor.reshape(size * size, size * size)
    v = np.exp((1j * t) * (tensor.energies / tensor.eta**2))
    g = v.conj() * state
    s = (flat @ (g[:, None] * g.conj()).ravel()).reshape(size, size)
    return v * (s @ g)


def pair_transforms(basis: EigenBasis, momenta: MomentumGrid, *kernels: InteractionKernel):
    """Transforms of ``kernels``, then of the K^2 products chi_k chi_k' indexed [k, kp].

    One ``grid_transforms`` pass of its own over every ordered pair.
    """
    size = basis.size
    products = [mode_product(basis, k, kp) for k, kp in np.ndindex(size, size)]
    hats = grid_transforms(
        np.vstack([*(kernel.profile for kernel in kernels), *products]), basis.grid, momenta
    )
    return (*hats[: len(kernels)], hats[len(kernels) :].reshape(size, size, momenta.n_rho))


def _quadruple_transforms(
    basis: EigenBasis, kernel: InteractionKernel, momenta: MomentumGrid, k, kp, j, jp
):
    """Transforms of the kernel, chi_k chi_k' and chi_j chi_j' in one pass of their own."""
    profiles = np.vstack([kernel.profile, mode_product(basis, k, kp), mode_product(basis, j, jp)])
    return grid_transforms(profiles, basis.grid, momenta)


def _pair_density(
    basis: EigenBasis,
    coupling: InteractionKernel,
    momenta: MomentumGrid,
    k: int,
    kp: int,
    j: int,
    jp: int,
) -> SpectralDensity:
    """Density of (w*(chi_k chi_k'), w*(chi_j chi_j')) on ``momenta``."""
    what, hat1, hat2 = _quadruple_transforms(basis, coupling, momenta, k, kp, j, jp)
    return spectral_density(what * hat1, what * hat2, momenta)


def lambda_hartree(
    basis: EigenBasis,
    pair: InteractionKernel,
    momenta: MomentumGrid,
    k: int,
    kp: int,
    j: int,
    jp: int,
) -> float:
    """Mean-field overlap <chi_k chi_k', v * (chi_j chi_j')>.

    Computed in momentum space: (2 pi)^{-3} 4 pi int rho^2 phat_kk'(rho)
    vhat(rho) phat_jj'(rho) drho.  Real for real kernels and modes.
    """
    for idx in (k, kp, j, jp):
        if not 0 <= idx < basis.size:
            raise ValidationError(f"mode index {idx} out of range")
    vhat, hat1, hat2 = _quadruple_transforms(basis, pair, momenta, k, kp, j, jp)
    integrand = DENSITY_PREFACTOR * momenta.nodes**2 * hat1 * vhat * hat2
    return float(momenta.integrate(integrand))


def lambda_lamb_shift(
    basis: EigenBasis,
    coupling: InteractionKernel,
    momenta: MomentumGrid,
    k: int,
    kp: int,
    j: int,
    jp: int,
) -> float:
    """Off-shell energy renormalization for the quadruple (k,k';j,j').

    Principal-value pairing through both resolvent branches,
    PV int a(rho) [1/(rho - dE) + 1/(rho + dE)] drho with dE = E_j - E_j',
    the real part of the branch sum at eps = 0.
    """
    a = _pair_density(basis, coupling, momenta, k, kp, j, jp)
    mu = float(basis.energies[j] - basis.energies[jp])
    return float(branch_sum(a, mu, 0.0).real)


def limit_matrix_from_tensor(cells: np.ndarray) -> np.ndarray:
    """Collapse the resonant entries of K^4 tensor cells into the K x K limit generator.

    The resonant quadruples all produce terms of the form c |F_j|^2 F_k,
    so they sum into a single matrix: the diagonal family contributes
    cells[k,m,k,m] and the zero-gap family cells[k,k,m,m] (off the
    diagonal).  With the cells evaluated at eps = 0 this reproduces the
    assembled limit matrix.
    """
    size = len(cells)
    idx = np.arange(size)
    matrix = cells[idx[:, None], idx[None, :], idx[:, None], idx[None, :]].copy()
    off = ~np.eye(size, dtype=bool)
    matrix[off] += cells[idx[:, None], idx[:, None], idx[None, :], idx[None, :]][off]
    return matrix


def resonant_limit_cells(
    basis: EigenBasis, coupling: InteractionKernel, pair: InteractionKernel, momenta: MomentumGrid
) -> np.ndarray:
    """The K^4 tensor cells at eps = 0 on the resonant quadruples, zero elsewhere.

    Each cell (k,k';j,j') is -i (H - Re S) - Im S, as in the assembly, but
    one quadruple at a time: S is the scalar ``branch_sum`` of its density
    at the gap E_j - E_j' and H the mean-field pairing by quadrature on
    the momentum grid.
    """
    what, vhat, phat = pair_transforms(basis, momenta, coupling, pair)
    ghat = what * phat
    cells = np.zeros((basis.size,) * 4, dtype=complex)
    for k, kp, j, jp in np.argwhere(resonant_mask(basis.size)):
        a = spectral_density(ghat[k, kp], ghat[j, jp], momenta)
        s = branch_sum(a, float(basis.energies[j] - basis.energies[jp]), 0.0)
        har = momenta.integrate(
            DENSITY_PREFACTOR * momenta.nodes**2 * phat[k, kp] * vhat * phat[j, jp]
        )
        cells[k, kp, j, jp] = -1j * (har - s.real) - s.imag
    return cells


def complex_branch_weights(momenta: MomentumGrid, mu: float, eps: float) -> np.ndarray:
    """W = conj c(mu) + c(-mu) on the grid nodes, every quotient complex.

    c(lam) are the Cauchy-route weights over the extended nodes:
    w / (rho - lam + i eps) on the exterior route, plus the Euler-Maclaurin
    end weight at lam = eps = 0; the interior route adds the Lagrange row
    times (log term - sum c) and moves an eps = 0 pole node's weight onto
    its neighbours.
    """

    def cauchy(lam):
        nodes, weights = _extended_grid(momenta)
        denom = nodes - lam + 1j * eps
        if not _is_interior(momenta, lam):
            if lam != 0.0 or eps != 0.0:
                return weights / denom
            denom[0] = 1.0
            c = weights / denom
            c[1] += _ORIGIN_END_WEIGHT
            return c
        i = _pole_node(momenta, lam, eps)
        if i is not None:
            denom[i] = 1.0
        c = weights / denom
        if i is not None:
            c[i] = 0.0
        lo, row = _lagrange_row(nodes, lam)
        log_term = np.log(complex(nodes[-1] - lam, eps)) - np.log(complex(-lam, eps))
        c[lo : lo + 4] += row * (log_term - np.sum(c))
        if i is not None:
            quotient = weights[i] / (nodes[i + 1] - nodes[i - 1])
            c[i + 1] += quotient
            c[i - 1] -= quotient
        return c

    return (np.conj(cauchy(mu)) + cauchy(-mu))[1:]
