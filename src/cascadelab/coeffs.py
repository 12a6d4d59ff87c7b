"""Transition coefficients of the resonance cascade.

Everything here is built from one object: the spectral density a(rho) of
a pair of radial functions f, g with respect to the half-wave operator,

    a(rho) = (2 pi)^{-3} * 4 pi * rho^2 * fhat(rho) * conj(ghat(rho)),

whose integral over (0, inf) recovers the inner product <f, g>
(Plancherel).  Resolvent pairings become one-dimensional Cauchy
transforms of a; their eps -> 0 limits split into a principal-value part
(energy renormalization) and an on-shell part (transition rates).

A branch sum is linear in the density, so the assembly pairs densities
with one weight vector per gap and eps (``branch_weights``), while the
scalar Cauchy transforms evaluate one density at a time; the on-shell
rates also have a fresh single-point quadrature at the resonance
frequency.  Tests and the check suite pit these routes against each other.

The limit matrix and the prelimit tensor are each read off a table over
the K(K+1)/2 mode products chi_k chi_k' (k <= k'): one radial transform
pass, then the Hartree pairings and the branch sums of every cell as
matrix products.  The limit generator (``CoefficientSet``) keeps the
resonant cells at eps = 0 plus one golden-rule rate per pair; the
tensor (``PrelimitTensor``) is a value of its own, every cell at
eps = eta^2, and carries no limit part.

Convention note: the limit coefficients are the eps -> 0 limits of the
regularized pairings, which is what the prelimit flow converges to.  Two
conventions follow and are fixed: the stored rates carry the factor pi
of the Sokhotski-Plemelj on-shell term, and the limit generator keeps the
zero-gap quadruples (k,k;j,j) next to the exchange ones (k,k';k,k').
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .grids import MomentumGrid
from .kernels import InteractionKernel, grid_transforms, transform_profiles
from .spectrum import EigenBasis, mode_product

#: (2 pi)^{-3} * 4 pi, the radial collapse of the angular average.
DENSITY_PREFACTOR = 1.0 / (2.0 * np.pi**2)

#: Most modes a prelimit tensor is assembled for; its memory grows like K^4.
TENSOR_MODE_CAP = 12

#: Evaluation points this close to the ends of the momentum interval are
#: rejected: the subtraction stencil would leave the grid.
_INTERIOR_MARGIN = 2

#: At eps = 0 an interior node closer than this many spacings d to the pole
#: takes the central difference quotient in place of the remainder
#: (a(rho) - a(lam)) / (rho - lam), whose cancellation costs about u / d in
#: relative accuracy (u the unit roundoff).  The swap moves the quadrature
#: by at most h^2 (_POLE_WINDOW |a''| / 2 + h |a'''| / 6).
_POLE_WINDOW = 1e-3

#: Euler-Maclaurin end weight on the first node of the eps = 0 pole at the
#: origin (see _cauchy_exterior).
_ORIGIN_END_WEIGHT = 1.0 / 12.0


@dataclass(frozen=True)
class SpectralDensity:
    """Sampled spectral density on a momentum grid.

    ``zero_value`` is the continuation to rho = 0 (identically zero for
    genuine densities because of the rho^2 prefactor; synthetic test
    densities may override it).
    """

    momenta: MomentumGrid
    values: np.ndarray
    zero_value: float | complex = 0.0

    def __post_init__(self):
        if len(self.values) != self.momenta.n_rho:
            raise ValidationError("density values do not match the momentum grid")
        if not np.all(np.isfinite(self.values)):
            raise NumericalError("spectral density contains non-finite values")

    def integrate(self) -> float | complex:
        """Integral over [0, rho_max], including the implicit origin node."""
        return self.momenta.integrate(self.values) + 0.5 * self.momenta.spacing * self.zero_value

    def conjugated(self) -> "SpectralDensity":
        return SpectralDensity(self.momenta, np.conj(self.values), np.conj(self.zero_value))

    def _extended(self):
        nodes, weights = _extended_grid(self.momenta)
        return nodes, np.concatenate(([self.zero_value], self.values)), weights

    def at(self, lam: float):
        """Density at an off-node frequency by local cubic interpolation."""
        nodes, values, _ = self._extended()
        if lam < nodes[0] or lam > nodes[-1]:
            raise ValidationError(f"interpolation point {lam} outside [0, {nodes[-1]}]")
        lo, row = _lagrange_row(nodes, lam)
        return sum(y * weight for y, weight in zip(values[lo : lo + 4], row))


def _extended_grid(momenta: MomentumGrid) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and trapezoid weights of the grid with the origin node prepended."""
    nodes = np.concatenate(([0.0], momenta.nodes))
    weights = np.concatenate(([0.5 * momenta.spacing], momenta.weights))
    return nodes, weights


def _lagrange_row(nodes: np.ndarray, lam: float) -> tuple[int, np.ndarray]:
    """First node and weights of the 4-point Lagrange interpolation at lam."""
    i = int(np.searchsorted(nodes, lam))
    lo = min(max(i - 2, 0), len(nodes) - 4)
    xs = nodes[lo : lo + 4].tolist()
    row = [math.prod((lam - xs[n]) / (xs[m] - xs[n]) for n in range(4) if n != m) for m in range(4)]
    return lo, np.array(row)


def spectral_density(
    fhat: np.ndarray, ghat: np.ndarray, momenta: MomentumGrid
) -> SpectralDensity:
    """Spectral density of the pair (f, g) from their radial transforms."""
    fhat = np.asarray(fhat)
    ghat = np.asarray(ghat)
    if fhat.shape != (momenta.n_rho,) or ghat.shape != (momenta.n_rho,):
        raise ValidationError("transforms do not match the momentum grid")
    values = DENSITY_PREFACTOR * momenta.nodes**2 * fhat * np.conj(ghat)
    return SpectralDensity(momenta, values)


# ---------------------------------------------------------------------------
# Regularized Cauchy transforms
# ---------------------------------------------------------------------------


def _interior_bounds(momenta: MomentumGrid) -> tuple[float, float]:
    h = momenta.spacing
    return _INTERIOR_MARGIN * h, momenta.rho_max - _INTERIOR_MARGIN * h


def _pole_node(momenta: MomentumGrid, lam: float, eps: float) -> int | None:
    """Extended-grid node within _POLE_WINDOW spacings of an eps = 0 pole at lam, if any."""
    if eps != 0.0:
        return None
    i = round(lam / momenta.spacing)
    return i if abs(i * momenta.spacing - lam) < _POLE_WINDOW * momenta.spacing else None


def _cauchy_interior(a: SpectralDensity, lam: float, eps: float) -> complex:
    """Subtracted quadrature of int a(rho) / (rho - lam + i eps) drho.

    The singular weight integrates in closed form (complex logarithm at
    the interval endpoints); the remainder (a(rho) - a(lam)) / (...) is
    smooth on the scale of a itself and handled by the trapezoid rule.
    Valid for eps >= 0; at eps = 0 a node on the pole takes the central
    difference quotient in place of the 0/0 remainder.
    """
    nodes, values, weights = a._extended()
    a_lam = a.at(lam)
    numer = values - a_lam
    denom = nodes - lam + 1j * eps
    i = _pole_node(a.momenta, lam, eps)
    if i is not None:
        numer[i], denom[i] = 0.0, 1.0
    subtracted = np.dot(weights, numer / denom)
    if i is not None:
        subtracted += weights[i] * (values[i + 1] - values[i - 1]) / (nodes[i + 1] - nodes[i - 1])
    log_term = a_lam * (
        np.log(complex(nodes[-1] - lam, eps)) - np.log(complex(-lam, eps))
    )
    return complex(subtracted + log_term)


def _cauchy_exterior(a: SpectralDensity, lam: float, eps: float) -> complex:
    """Plain quadrature; requires the pole at lam <= 0, outside the interval.

    At lam = eps = 0 the integrand a(rho)/rho is odd with slope a''(0)/2 at
    the origin, so the trapezoid rule gains the Euler-Maclaurin end term
    h^2 f'(0)/12 = a(h)/12 + O(h^4).
    """
    nodes, values, weights = a._extended()
    denom = nodes - lam + 1j * eps
    if lam == 0.0 and eps == 0.0:
        # the origin node has zero denominator; a vanishes there like rho^2
        if a.zero_value != 0.0:
            raise ValidationError("pole at 0 with non-vanishing density")
        denom[0] = 1.0
        return complex(np.dot(weights, values / denom) + _ORIGIN_END_WEIGHT * values[1])
    return complex(np.dot(weights, values / denom))


def _is_interior(momenta: MomentumGrid, lam: float) -> bool:
    """Whether a pole at lam takes the interior route (lam <= 0 takes the exterior one)."""
    if lam <= 0.0:
        return False
    lo, hi = _interior_bounds(momenta)
    if lo <= lam <= hi:
        return True
    raise ValidationError(
        f"evaluation point {lam} is too close to the ends of the momentum interval "
        f"or beyond them to be resolved (usable range [{lo:.3g}, {hi:.3g}])"
    )


def _cauchy_any(a: SpectralDensity, lam: float, eps: float) -> complex:
    route = _cauchy_interior if _is_interior(a.momenta, lam) else _cauchy_exterior
    return route(a, lam, eps)


def _cauchy_weights(momenta: MomentumGrid, lam: float, eps: float) -> np.ndarray:
    """Weights c over the extended nodes with _cauchy_any(a, lam, eps) = c . a.

    Exterior: c = w / (rho - lam + i eps), plus the end weight on the first
    node at lam = eps = 0.  The interior route's subtraction adds
    l * (log term - sum c), l the Lagrange row of SpectralDensity.at, and
    moves the weight of a node on an eps = 0 pole onto its neighbours.
    """
    nodes, weights = _extended_grid(momenta)
    denom = nodes - lam + 1j * eps
    if not _is_interior(momenta, lam):
        if lam != 0.0 or eps != 0.0:
            return weights / denom
        denom[0] = 1.0  # a vanishes at the origin, so its weight there is immaterial
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


def cauchy_transform(a: SpectralDensity, lam: float, eps: float) -> complex:
    """int_0^rho_max a(rho) / (rho - lam + i eps) drho with lam interior.

    The singularity at rho = lam is subtracted and its weight integrated
    in closed form, so the quadrature error does not degrade as eps -> 0.
    """
    if eps <= 0:
        raise ValidationError(f"regularization eps must be positive, got {eps}")
    if not _is_interior(a.momenta, lam):
        raise ValidationError(f"lambda = {lam} must lie inside the momentum interval")
    return _cauchy_interior(a, lam, eps)


def cauchy_transform_limit(a: SpectralDensity, lam: float) -> complex:
    """The eps -> 0 limit of :func:`cauchy_transform` in closed form.

    The subtracted quadrature is uniformly valid down to eps = 0, where
    the singular weight's endpoint logarithm contributes the on-shell
    term -i pi a(lam) exactly (upper-edge boundary values).  Finite-eps
    transforms converge to this value at the Sokhotski-Plemelj rate
    O(eps log(1/eps)).
    """
    if not _is_interior(a.momenta, lam):
        raise ValidationError(f"lambda = {lam} must lie inside the momentum interval")
    return _cauchy_interior(a, lam, 0.0)


def branch_sum(a: SpectralDensity, mu: float, eps: float) -> complex:
    """Both resolvent branches of the second-order pairing at gap mu.

    S(mu, eps) = int a /(rho - mu - i eps) + int a /(rho + mu + i eps).
    Its real part carries the energy renormalization, its imaginary part
    the on-shell rate (pi times the density at |mu| as eps -> 0).
    """
    minus = np.conj(_cauchy_any(a.conjugated(), mu, eps))
    plus = _cauchy_any(a, -mu, eps)
    return minus + plus


def branch_weights(momenta: MomentumGrid, mu: float, eps: float) -> np.ndarray:
    """Weights W on the grid nodes with branch_sum(a, mu, eps) = W . a.values.

    W = conj c(mu) + c(-mu) from the Cauchy-route weights; a must vanish at
    the origin, as genuine densities do.  eps = 0 gives the limit pairing.
    """
    if not 0.0 <= eps < np.inf:
        raise ValidationError(f"regularization eps must be finite and non-negative, got {eps}")
    both = np.conj(_cauchy_weights(momenta, mu, eps)) + _cauchy_weights(momenta, -mu, eps)
    return both[1:]


# ---------------------------------------------------------------------------
# Named coefficients
# ---------------------------------------------------------------------------


def _pair_density(
    basis: EigenBasis, coupling: InteractionKernel, k: int, kp: int, j: int, jp: int
) -> SpectralDensity:
    """Density of (w*(chi_k chi_k'), w*(chi_j chi_j')) on the kernel's grid."""
    momenta = coupling.momenta
    products = np.vstack([mode_product(basis, k, kp), mode_product(basis, j, jp)])
    hats = grid_transforms(products, basis.grid, momenta)
    g1 = coupling.transform * hats[0]
    g2 = coupling.transform * hats[1]
    return spectral_density(g1, g2, momenta)


def gamma_fgr(
    basis: EigenBasis,
    coupling: InteractionKernel,
    k: int,
    kp: int,
) -> float:
    """On-shell transition rate between modes k and k', pi times the density there.

    Evaluates the spectral density of w*(chi_k chi_k') exactly at the
    resonance frequency |E_k - E_k'| via fresh single-point quadrature of
    the radial transforms (no grid interpolation).  Returns exactly 0 for
    k = k', where emission and absorption cancel.
    """
    if not (0 <= k < basis.size and 0 <= kp < basis.size):
        raise ValidationError(f"mode indices ({k}, {kp}) out of range")
    if k == kp:
        return 0.0
    gap = abs(float(basis.energies[k] - basis.energies[kp]))
    if gap >= coupling.momenta.rho_max:
        raise ValidationError(
            f"transition gap {gap} lies beyond the momentum cutoff "
            f"{coupling.momenta.rho_max}"
        )
    product_hat = transform_profiles(
        mode_product(basis, k, kp), basis.grid, np.array([gap])
    )[0, 0]
    g_hat = coupling.transform_at([gap])[0] * product_hat
    density_on_shell = DENSITY_PREFACTOR * gap**2 * g_hat**2
    return float(np.pi * density_on_shell)


def lambda_hartree(
    basis: EigenBasis, pair: InteractionKernel, k: int, kp: int, j: int, jp: int
) -> float:
    """Mean-field overlap <chi_k chi_k', v * (chi_j chi_j')>.

    Computed in momentum space: (2 pi)^{-3} 4 pi int rho^2 phat_kk'(rho)
    vhat(rho) phat_jj'(rho) drho.  Real for real kernels and modes.
    """
    for idx in (k, kp, j, jp):
        if not 0 <= idx < basis.size:
            raise ValidationError(f"mode index {idx} out of range")
    momenta = pair.momenta
    products = np.vstack([mode_product(basis, k, kp), mode_product(basis, j, jp)])
    hats = grid_transforms(products, basis.grid, momenta)
    integrand = DENSITY_PREFACTOR * momenta.nodes**2 * hats[0] * pair.transform * hats[1]
    return float(momenta.integrate(integrand))


def lambda_lamb_shift(
    basis: EigenBasis,
    coupling: InteractionKernel,
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
    a = _pair_density(basis, coupling, k, kp, j, jp)
    mu = float(basis.energies[j] - basis.energies[jp])
    return float(branch_sum(a, mu, 0.0).real)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


#: Regularizations a prelimit tensor is evaluated at: the physical eps = eta^2,
#: or eps = 0, where the cells take their limit values.
EPS_POLICIES = ("eta2", "limit")


@dataclass(frozen=True)
class CoefficientSet:
    """Limit matrix, its golden-rule rates and its four component matrices.

    The exchange cells (k,k';k,k') give ``hartree_exchange`` and
    ``lamb_exchange``; the zero-gap cells (k,k;k',k'), off the diagonal,
    give ``hartree_direct`` and ``lamb_direct``.  Those carry no on-shell
    rate (emission and absorption cancel at zero gap), only a purely
    imaginary dressing.  The effective ``hartree`` and ``lamb`` are the
    sums of both, so

        limit_matrix = -i (hartree - lamb) - fgr * sign,
        sign[k,k'] = 1 if k > k' else -1 if k < k' else 0

    holds exactly by construction.  ``fgr`` stores the rates including the
    Sokhotski-Plemelj factor pi.
    """

    fgr: np.ndarray
    limit_matrix: np.ndarray
    hartree_exchange: np.ndarray
    hartree_direct: np.ndarray
    lamb_exchange: np.ndarray
    lamb_direct: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (np.all(np.isfinite(self.fgr)) and np.all(np.isfinite(self.limit_matrix))):
            raise NumericalError("limit coefficients contain non-finite values")

    @property
    def size(self) -> int:
        return len(self.fgr)

    @property
    def hartree(self) -> np.ndarray:
        return self.hartree_exchange + self.hartree_direct

    @property
    def lamb(self) -> np.ndarray:
        return self.lamb_exchange + self.lamb_direct

    def symmetry_defects(self) -> dict[str, float]:
        """Measured violations of the structural invariants (0 when exact)."""
        m = self.limit_matrix
        return {
            "fgr_symmetry": float(np.max(np.abs(self.fgr - self.fgr.T))),
            "fgr_negativity": float(max(0.0, -np.min(self.fgr))),
            "fgr_diagonal": float(np.max(np.abs(np.diag(self.fgr)))),
            "re_m_antisymmetry": float(np.max(np.abs(m.real + m.real.T))),
            "re_m_diagonal": float(np.max(np.abs(np.diag(m).real))),
            "hartree_symmetry": float(np.max(np.abs(self.hartree - self.hartree.T))),
            "im_m_max": float(np.max(np.abs(m.imag))),
        }


@dataclass(frozen=True)
class PrelimitTensor:
    """The quadruple tensor of the oscillatory system at coupling eta.

    ``tensor[k,k',j,j']`` couples F_j conj(F_j') F_k' into the equation of
    F_k with the phase e^{i T dE / eta^2}, dE = (E_k - E_k') - (E_j - E_j').
    ``energies`` are the trap energies shifted by the ground level,
    E_k - E_0; the phases depend on energy differences only.
    """

    eta: float
    tensor: np.ndarray
    energies: np.ndarray

    def __post_init__(self):
        if not 0 < self.eta < np.inf:
            raise ValidationError(f"eta must be positive and finite, got {self.eta}")
        if self.tensor.shape != (len(self.energies),) * 4:
            raise ValidationError("tensor shape does not match the energies")
        if not np.all(np.isfinite(self.tensor)):
            raise NumericalError("prelimit tensor contains non-finite values")

    @property
    def size(self) -> int:
        return len(self.energies)


def _sign_matrix(size: int) -> np.ndarray:
    """sign[k, k'] of the rate term: 1 if k > k', -1 if k < k', else 0."""
    idx = np.arange(size)
    return np.sign(idx[:, None] - idx[None, :]).astype(float)


def two_mode_coefficients(gamma: float, size: int = 2) -> CoefficientSet:
    """Synthetic coefficient preset: a single transition rate, no shifts.

    With size 2 the cascade closes to the logistic equation
    d|F_0|^2/dT = 2 gamma |F_0|^2 |F_1|^2, the exactness oracle for the
    integrator.  Larger sizes place the rate gamma on every pair.
    """
    if not 0 < gamma < np.inf:
        raise ValidationError(f"synthetic rate must be positive and finite, got {gamma}")
    fgr = gamma * (1.0 - np.eye(size))
    zeros = np.zeros((size, size))
    return CoefficientSet(
        fgr=fgr,
        limit_matrix=(-fgr * _sign_matrix(size)).astype(complex),
        hartree_exchange=zeros,
        hartree_direct=zeros,
        lamb_exchange=zeros,
        lamb_direct=zeros,
        provenance={"synthetic": "uniform-rate preset", "gamma": gamma},
    )


def mode_pair_transforms(basis: EigenBasis, momenta: MomentumGrid) -> np.ndarray:
    """Transforms of all mode products, indexed [k, kp, :] (symmetric).

    One transform pass over the K(K+1)/2 products chi_k chi_k' with k <= k'.
    """
    rows, cols = np.triu_indices(basis.size)
    hats = grid_transforms(basis.modes[rows] * basis.modes[cols], basis.grid, momenta)
    return hats[_pair_index(basis.size)]


def _pair_index(size: int) -> np.ndarray:
    """Row of the unordered pair {k, k'} in the upper-triangle order of np.triu_indices."""
    rows, cols = np.triu_indices(size)
    index = np.empty((size, size), dtype=int)
    index[rows, cols] = index[cols, rows] = np.arange(len(rows))
    return index


@dataclass(frozen=True)
class _PairingTable:
    """Pairings of the mode products chi_k chi_k', one row per pair k <= k'.

    ``index[k, kp]`` is the row of the pair {k, kp}, ``ghat[p]`` the
    coupling-smoothed transform of row p and ``hartree[p, q]`` the
    mean-field pairing of rows p and q.  A cell (p; j, jp) pairs row p
    with the ordered pair (j, jp); its branch sum sits at the gap
    mu = E_j - E_jp, so the two orders of a pair put the pole on opposite
    sides of the origin.
    """

    basis: EigenBasis
    momenta: MomentumGrid
    index: np.ndarray
    ghat: np.ndarray
    hartree: np.ndarray

    def cell_sums(self, eps: float) -> np.ndarray:
        """Branch sums of every cell (p; j, jp), shape (P, K, K), at eps >= 0.

        Block j is ghat @ B with B[:, jp] = rho^2/(2 pi^2) conj(ghat of {j, jp}) W(E_j - E_jp).
        """
        energies, size = self.basis.energies, self.basis.size
        scale = DENSITY_PREFACTOR * self.momenta.nodes**2
        out = np.empty((len(self.ghat), size, size), dtype=complex)
        block = np.empty((self.momenta.n_rho, size), dtype=complex)
        for j in range(size):
            for jp in range(size):
                weights = branch_weights(self.momenta, float(energies[j] - energies[jp]), eps)
                block[:, jp] = scale * np.conj(self.ghat[self.index[j, jp]]) * weights
            out[:, j, :] = self.ghat @ block
        return out


def _pairing_table(
    basis: EigenBasis, coupling: InteractionKernel, pair: InteractionKernel
) -> _PairingTable:
    """One transform pass and one matrix product shared by every cell of an assembly."""
    if coupling.role != "coupling" or pair.role != "pair":
        raise ValidationError("expected a coupling kernel and a pair-interaction kernel")
    for kernel in (coupling, pair):
        if kernel.grid.n_points != basis.grid.n_points or kernel.grid.r_max != basis.grid.r_max:
            raise ValidationError("kernel and basis grids do not match")
    momenta = coupling.momenta
    momenta.require_covers(float(basis.energies[-1] - basis.energies[0]))
    rows, cols = np.triu_indices(basis.size)
    phat = mode_pair_transforms(basis, momenta)[rows, cols]
    weights = DENSITY_PREFACTOR * momenta.nodes**2 * pair.transform * momenta.weights
    return _PairingTable(
        basis=basis,
        momenta=momenta,
        index=_pair_index(basis.size),
        ghat=coupling.transform * phat,
        hartree=(phat * weights) @ phat.T,
    )


# An overflowing assembly fails its non-finite check; numpy need not warn first.
@np.errstate(over="ignore", invalid="ignore")
def assemble_limit_matrix(
    basis: EigenBasis,
    coupling: InteractionKernel,
    pair: InteractionKernel,
) -> CoefficientSet:
    """Assemble the limit transition matrix from the resonant quadruples at eps = 0.

    The exchange cells (k,k';k,k') give the Hartree and Lamb terms of
    entry (k,k'), the direct cells (k,k;k',k') their degenerate dressing,
    and ``gamma_fgr`` the rate of each unordered pair.  Entries (k,k')
    and (k',k) are evaluated on their own cells, so Im M, symmetric in
    exact arithmetic, cross-checks the assembly: max |Im M - Im M^T|
    is a rounding gap unless a cell is read at the wrong index.
    """
    table = _pairing_table(basis, coupling, pair)
    index = table.index
    size = basis.size
    sums = table.cell_sums(0.0).real
    k, kp = np.indices((size, size))

    # exchange cells (k,k'; k,k'), each order read off its own cell
    har_ex = table.hartree[index, index]
    lamb_ex = sums[index, k, kp]
    # direct cells (k,k; k',k') at zero gap, off the diagonal only
    diag = np.diag(index)
    har_dir = table.hartree[diag[:, None], diag[None, :]]
    np.fill_diagonal(har_dir, 0.0)
    lamb_dir = sums[diag[:, None], kp, kp]
    np.fill_diagonal(lamb_dir, 0.0)

    fgr = np.zeros((size, size))
    for a, b in zip(*np.triu_indices(size, 1)):
        fgr[a, b] = fgr[b, a] = gamma_fgr(basis, coupling, a, b)
    limit_matrix = -1j * ((har_ex + har_dir) - (lamb_ex + lamb_dir)) - fgr * _sign_matrix(size)

    momenta = table.momenta
    provenance = {
        "n_points": basis.grid.n_points,
        "r_max": basis.grid.r_max,
        "n_rho": momenta.n_rho,
        "rho_max": momenta.rho_max,
        "modes": size,
        "coupling_amplitude": coupling.amplitude,
        "coupling_width": coupling.width,
        "pair_amplitude": pair.amplitude,
        "pair_width": pair.width,
        "fourier": "forward e^{-ix.xi}, inverse (2pi)^{-3}",
    }
    return CoefficientSet(
        fgr=fgr,
        limit_matrix=limit_matrix,
        hartree_exchange=har_ex,
        hartree_direct=har_dir,
        lamb_exchange=lamb_ex,
        lamb_direct=lamb_dir,
        provenance=provenance,
    )


# Quiet for the same reason as assemble_limit_matrix.
@np.errstate(over="ignore", invalid="ignore")
def assemble_prelimit_tensor(
    basis: EigenBasis,
    coupling: InteractionKernel,
    pair: InteractionKernel,
    eta: float,
    eps_policy: str = "eta2",
) -> PrelimitTensor:
    """The full quadruple tensor at regularization eta^2, from its own pairing table.

    Entry (k,k';j,j') is -i (H - Re S) - Im S, with H the mean-field
    pairing of the pairs {k,k'} and {j,j'} and S the branch sum of the
    cell at eps = eta^2 (or at eps = 0 under ``eps_policy = "limit"``).  The energy mismatch
    dE = (E_k - E_k') - (E_j - E_j') of its phase follows from the stored
    ``energies``.  Memory grows like K^4; ``TENSOR_MODE_CAP`` guards
    against accidents.
    """
    if not 0 < eta < np.inf:
        raise ValidationError(f"eta must be positive and finite, got {eta}")
    if eps_policy not in EPS_POLICIES:
        raise ValidationError(f"unknown eps_policy {eps_policy!r}")
    size = basis.size
    if size > TENSOR_MODE_CAP:
        raise ValidationError(
            f"{size} modes would need {size**4} tensor entries; cap is "
            f"{TENSOR_MODE_CAP} modes"
        )
    table = _pairing_table(basis, coupling, pair)
    sums = table.cell_sums(0.0 if eps_policy == "limit" else eta**2)
    cells = -1j * (table.hartree[:, table.index] - sums.real) - sums.imag
    return PrelimitTensor(eta, cells[table.index], basis.energies - basis.energies[0])


def limit_matrix_from_tensor(tensor: PrelimitTensor) -> np.ndarray:
    """Collapse the resonant tensor entries into the K x K limit generator.

    The resonant quadruples all produce terms of the form c |F_j|^2 F_k,
    so they sum into a single matrix: the diagonal family contributes
    tensor[k,m,k,m] and the zero-gap family tensor[k,k,m,m] (off the
    diagonal).  With the tensor evaluated at eps = 0 this reproduces the
    assembled limit matrix.
    """
    size = tensor.size
    cells = tensor.tensor
    idx = np.arange(size)
    matrix = cells[idx[:, None], idx[None, :], idx[:, None], idx[None, :]].copy()
    off = ~np.eye(size, dtype=bool)
    matrix[off] += cells[idx[:, None], idx[:, None], idx[None, :], idx[None, :]][off]
    return matrix
