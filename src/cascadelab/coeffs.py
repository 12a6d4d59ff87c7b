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
scalar routes (``cauchy_transform(a, lam, eps)`` at any eps >= 0, and
``branch_sum``) evaluate one density at a time.  ``gamma_fgr`` takes an
on-shell rate from a fresh single-point quadrature at the resonance
frequency, sharing no transform with the assembly.  Tests and the check
suite pit these routes against the assembled coefficients.

The limit matrix and every prelimit tensor are read off one table over
the K(K+1)/2 mode products chi_k chi_k' (k <= k'), a ``PairingTable``
that ``pairing_table`` builds once per basis and momentum grid: one
radial transform pass over the two kernel profiles and the mode
products, then the Hartree pairings as one matrix product.  The table
owns the momentum grid.  Only its branch sums (``PairingTable.cell_sums``)
depend on eps; they are computed for the cells j <= j' alone, whose
conjugates give the other order exactly.  The limit generator
(``CoefficientSet``, ``assemble_limit_matrix``) keeps the resonant cells
at eps = 0, the golden-rule rates included (the on-shell part of the
exchange cells); the tensor (``PrelimitTensor``,
``assemble_prelimit_tensor``) is a value of its own, every cell at
eps = eta^2, and carries no limit part.

Convention note: the limit coefficients are the eps -> 0 limits of the
regularized pairings, which is what the prelimit flow converges to.  Two
conventions follow and are fixed: the stored rates carry the factor pi
of the Sokhotski-Plemelj on-shell term, and the limit generator keeps the
zero-gap quadruples (k,k;j,j) next to the exchange ones (k,k';k,k').
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields

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

    def _extended_values(self) -> np.ndarray:
        """The values on the nodes of ``_extended_grid``: zero_value first."""
        return np.concatenate(([self.zero_value], self.values))

    def at(self, lam: float):
        """Density at an off-node frequency by local cubic interpolation."""
        nodes, _ = _extended_grid(self.momenta)
        if lam < nodes[0] or lam > nodes[-1]:
            raise ValidationError(f"interpolation point {lam} outside [0, {nodes[-1]}]")
        return _interpolate(nodes, self._extended_values(), lam)


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


def _interpolate(nodes: np.ndarray, values: np.ndarray, lam: float):
    """The 4-point Lagrange interpolant of values on nodes, at lam."""
    lo, row = _lagrange_row(nodes, lam)
    return sum(y * weight for y, weight in zip(values[lo : lo + 4], row))


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


def _cauchy_interior(
    a: SpectralDensity, extended: tuple[np.ndarray, np.ndarray], lam: float, eps: float
) -> complex:
    """Subtracted quadrature of int a(rho) / (rho - lam + i eps) drho.

    The singular weight integrates in closed form (complex logarithm at
    the interval endpoints); the remainder (a(rho) - a(lam)) / (...) is
    smooth on the scale of a itself and handled by the trapezoid rule.
    Valid for eps >= 0; at eps = 0 a node on the pole takes the central
    difference quotient in place of the 0/0 remainder.  ``extended`` is
    ``_extended_grid(a.momenta)``.
    """
    nodes, weights = extended
    values = a._extended_values()
    a_lam = _interpolate(nodes, values, lam)
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


def _cauchy_exterior(
    a: SpectralDensity, extended: tuple[np.ndarray, np.ndarray], lam: float, eps: float
) -> complex:
    """Plain quadrature; requires the pole at lam <= 0, outside the interval.

    At lam = eps = 0 the integrand a(rho)/rho is odd with slope a''(0)/2 at
    the origin, so the trapezoid rule gains the Euler-Maclaurin end term
    h^2 f'(0)/12 = a(h)/12 + O(h^4).  ``extended`` is ``_extended_grid(a.momenta)``.
    """
    nodes, weights = extended
    values = a._extended_values()
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


def _cauchy_any(
    a: SpectralDensity, extended: tuple[np.ndarray, np.ndarray], lam: float, eps: float
) -> complex:
    route = _cauchy_interior if _is_interior(a.momenta, lam) else _cauchy_exterior
    return route(a, extended, lam, eps)


def _quotient(weights: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """weights / denom; a real denom (eps = 0) divides in real arithmetic.

    There the quotient is w * (1 / d): numpy's complex w / (d + 0j) bit for
    bit but for the sign of its zero imaginary part, which no weight reads.
    """
    return weights * (1.0 / denom) if denom.dtype == float else weights / denom


def _cauchy_weights(
    momenta: MomentumGrid, extended: tuple[np.ndarray, np.ndarray], lam: float, eps: float
) -> np.ndarray:
    """Weights c over the extended nodes (``_extended_grid(momenta)``) with
    _cauchy_any(a, extended, lam, eps) = c . a.

    Exterior: c = w / (rho - lam + i eps), plus the end weight on the first
    node at lam = eps = 0.  The interior route's subtraction adds
    l * (log term - sum c), l the Lagrange row of SpectralDensity.at, and
    moves the weight of a node on an eps = 0 pole onto its neighbours.  At
    eps = 0 the quotients are real (``_quotient``), so the exterior weights
    come back real and the interior ones complex through the logarithm.
    """
    nodes, weights = extended
    denom = nodes - lam + 1j * eps if eps else nodes - lam
    if not _is_interior(momenta, lam):
        if lam != 0.0 or eps != 0.0:
            return _quotient(weights, denom)
        denom[0] = 1.0  # a vanishes at the origin, so its weight there is immaterial
        c = _quotient(weights, denom)
        c[1] += _ORIGIN_END_WEIGHT
        return c
    i = _pole_node(momenta, lam, eps)
    if i is not None:
        denom[i] = 1.0
    c = _quotient(weights, denom).astype(complex, copy=False)
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


def _regularization(eps: float) -> float:
    """eps validated as finite and >= 0, with -0.0 read as +0.0.

    -0.0 passes ``0 <= eps`` but would select the lower-edge logarithm
    (np.log(complex(-lam, -0.0)) = log(lam) - i pi) and flip the on-shell term.
    """
    if not 0.0 <= eps < np.inf:
        raise ValidationError(f"regularization eps must be finite and non-negative, got {eps}")
    return abs(eps)


def cauchy_transform(a: SpectralDensity, lam: float, eps: float) -> complex:
    """int_0^rho_max a(rho) / (rho - lam + i eps) drho with lam interior and eps >= 0.

    The singularity at rho = lam is subtracted and its weight integrated
    in closed form, so the quadrature error does not degrade as eps -> 0.
    At eps = 0 the endpoint logarithm contributes the on-shell term
    -i pi a(lam) exactly (upper-edge boundary values); finite-eps
    transforms converge to it at the Sokhotski-Plemelj rate O(eps log(1/eps)).
    """
    eps = _regularization(eps)
    if not _is_interior(a.momenta, lam):
        raise ValidationError(f"lambda = {lam} must lie inside the momentum interval")
    return _cauchy_interior(a, _extended_grid(a.momenta), lam, eps)


def branch_sum(a: SpectralDensity, mu: float, eps: float) -> complex:
    """Both resolvent branches of the second-order pairing at gap mu.

    S(mu, eps) = int a /(rho - mu - i eps) + int a /(rho + mu + i eps).
    Its real part carries the energy renormalization, its imaginary part
    the on-shell rate (pi times the density at |mu| as eps -> 0).
    """
    eps = _regularization(eps)
    extended = _extended_grid(a.momenta)
    minus = np.conj(_cauchy_any(a.conjugated(), extended, mu, eps))
    plus = _cauchy_any(a, extended, -mu, eps)
    return minus + plus


def branch_weights(
    momenta: MomentumGrid, gaps: Iterable[float], eps: float
) -> Iterator[np.ndarray]:
    """Weights W(mu) on the grid nodes with branch_sum(a, mu, eps) = W(mu) . a.values.

    Yields W(mu) = conj c(mu) + c(-mu) from the Cauchy-route weights for
    each gap mu of ``gaps`` in turn, one vector alive at a time, on one
    extended grid built for all of them; a must vanish at the origin, as
    genuine densities do.  eps = 0 gives the limit pairing, in real
    arithmetic where the weights are real: W(0) at eps = 0 is a float
    vector, every other W complex.
    """
    eps = _regularization(eps)
    extended = _extended_grid(momenta)
    return (
        np.conj(_cauchy_weights(momenta, extended, mu, eps))[1:]
        + _cauchy_weights(momenta, extended, -mu, eps)[1:]
        for mu in gaps
    )


# ---------------------------------------------------------------------------
# Named coefficients
# ---------------------------------------------------------------------------


def gamma_fgr(
    basis: EigenBasis,
    coupling: InteractionKernel,
    k: int,
    kp: int,
) -> float:
    """On-shell transition rate between modes k and k', pi times the density there.

    Evaluates the spectral density of w*(chi_k chi_k') exactly at the
    resonance frequency |E_k - E_k'| via fresh single-point quadrature of
    the radial transforms (dense sinc, no grid interpolation, so no
    momentum grid and any gap).  It shares no transform with the assembly,
    which reads the rates off its eps = 0 cells, and serves as their
    independent oracle (``check``'s ``dual_route_fgr``).  Returns exactly 0
    for k = k', where emission and absorption cancel.
    """
    if not (0 <= k < basis.size and 0 <= kp < basis.size):
        raise ValidationError(f"mode indices ({k}, {kp}) out of range")
    if k == kp:
        return 0.0
    gap = abs(float(basis.energies[k] - basis.energies[kp]))
    rho = np.array([gap])
    product_hat = transform_profiles(mode_product(basis, k, kp), basis.grid, rho)[0, 0]
    g_hat = transform_profiles(coupling.profile, coupling.grid, rho)[0, 0] * product_hat
    density_on_shell = DENSITY_PREFACTOR * gap**2 * g_hat**2
    return float(np.pi * density_on_shell)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientSet:
    """The golden-rule rates and the four component matrices of the limit generator.

    The exchange cells (k,k';k,k') give ``hartree_exchange``,
    ``lamb_exchange`` and, from their on-shell part, ``fgr``; the zero-gap
    cells (k,k;k',k'), off the diagonal, give ``hartree_direct`` and
    ``lamb_direct``.  Those carry no on-shell rate (emission and absorption
    cancel at zero gap), only a purely imaginary dressing.  The effective
    ``hartree`` and ``lamb`` are the sums of both, and the generator is
    computed from the parts on each read:

        limit_matrix = -i (hartree - lamb) - fgr * sign,
        sign[k,k'] = 1 if k > k' else -1 if k < k' else 0

    ``fgr`` stores the rates including the Sokhotski-Plemelj factor pi.
    """

    fgr: np.ndarray
    hartree_exchange: np.ndarray
    hartree_direct: np.ndarray
    lamb_exchange: np.ndarray
    lamb_direct: np.ndarray

    def __post_init__(self):
        if not all(np.all(np.isfinite(getattr(self, f.name))) for f in fields(self)):
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

    @property
    def limit_matrix(self) -> np.ndarray:
        """The generator M = -i (hartree - lamb) - fgr * sign of the limit cascade."""
        return -1j * (self.hartree - self.lamb) - self.fgr * _sign_matrix(self.size)

    def symmetry_defects(self) -> dict[str, float]:
        """Measured violations of the structural invariants (0 when exact)."""
        m = self.limit_matrix
        return {
            "fgr_symmetry": float(np.max(np.abs(self.fgr - self.fgr.T))),
            "fgr_negativity": float(max(0.0, -np.min(self.fgr))),
            "fgr_diagonal": float(np.max(np.abs(np.diag(self.fgr)))),
            "re_m_antisymmetry": float(np.max(np.abs(m.real + m.real.T))),
            "re_m_diagonal": float(np.max(np.abs(np.diag(m).real))),
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


def two_mode_coefficients(gamma: float) -> CoefficientSet:
    """Synthetic two-mode coefficients: a single transition rate, no shifts.

    The cascade then closes to the logistic equation
    d|F_0|^2/dT = 2 gamma |F_0|^2 |F_1|^2, the exactness oracle for the
    integrator.
    """
    if not 0 < gamma < np.inf:
        raise ValidationError(f"synthetic rate must be positive and finite, got {gamma}")
    zeros = np.zeros((2, 2))
    return CoefficientSet(gamma * (1.0 - np.eye(2)), zeros, zeros, zeros, zeros)


@dataclass(frozen=True)
class PairingTable:
    """Pairings of the mode products chi_k chi_k', one row per pair k <= k'.

    Rows follow np.triu_indices order.  ``momenta`` is the grid of every
    transform and branch sum, ``ghat[p]`` the coupling-smoothed transform
    of row p and ``hartree[p, q]`` the mean-field pairing of rows p and q.
    A cell (p; j, jp) pairs row p with the ordered pair (j, jp); its branch
    sum sits at the gap mu = E_j - E_jp, so the two orders of a pair put
    the pole on opposite sides of the origin.  Nothing here depends on eps:
    the limit matrix and every eta's tensor read the same table.
    """

    basis: EigenBasis
    momenta: MomentumGrid
    ghat: np.ndarray
    hartree: np.ndarray

    @property
    def index(self) -> np.ndarray:
        """``index[k, kp]``, the row of the pair {k, kp}."""
        size = self.basis.size
        rows, cols = np.triu_indices(size)
        index = np.empty((size, size), dtype=int)
        index[rows, cols] = index[cols, rows] = np.arange(len(rows))
        return index

    def cell_sums(self, eps: float) -> np.ndarray:
        """Branch sums of every cell (p; j, jp), shape (P, K, K), at eps >= 0.

        One complex product ghat @ B^T over the P = K(K+1)/2 cells j <= jp, with
        row {j, jp} of B = rho^2/(2 pi^2) (ghat of {j, jp}) W(E_j - E_jp); the K
        zero-gap cells share W(0), so K(K-1)/2 + 1 weight vectors serve an assembly.
        ghat is real (its conjugate is itself) and W(-mu) = conj W(mu) bit for
        bit, so each cell (p; jp, j) with j < jp is the exact conjugate of
        (p; j, jp) and is filled as such.
        """
        energies, momenta = self.basis.energies, self.momenta
        rows, cols = np.triu_indices(self.basis.size)
        scale = DENSITY_PREFACTOR * momenta.nodes**2
        pairs = list(zip(rows, cols))
        gaps = [float(energies[j] - energies[jp]) for j, jp in pairs if j != jp]
        weights = branch_weights(momenta, [0.0] + gaps, eps)
        zero_gap = next(weights)
        # row c of B and of ghat belong to the pair {rows[c], cols[c]}
        block = np.empty(self.ghat.shape, dtype=complex)
        for c, (j, jp) in enumerate(pairs):
            np.multiply(scale * self.ghat[c], zero_gap if j == jp else next(weights), out=block[c])
        upper = self.ghat @ block.T
        out = np.empty((len(self.ghat), self.basis.size, self.basis.size), dtype=complex)
        out[:, cols, rows] = np.conj(upper)
        out[:, rows, cols] = upper  # last, so the zero-gap cells keep the product itself
        return out


def pairing_table(
    basis: EigenBasis,
    coupling: InteractionKernel,
    pair: InteractionKernel,
    momenta: MomentumGrid,
) -> PairingTable:
    """The pairing table of ``basis`` on ``momenta``: one transform pass and one matrix product.

    The pass covers the coupling profile, the pair profile and the mode
    products at once.  Both kernels must sit on the basis's radial grid,
    and ``momenta`` must cover the largest gap of the basis.
    """
    if coupling.role != "coupling" or pair.role != "pair":
        raise ValidationError("expected a coupling kernel and a pair-interaction kernel")
    if not coupling.grid == pair.grid == basis.grid:
        raise ValidationError("kernels and basis are on different grids")
    momenta.require_covers(float(basis.energies[-1] - basis.energies[0]))
    rows, cols = np.triu_indices(basis.size)
    profiles = np.vstack([coupling.profile, pair.profile, basis.modes[rows] * basis.modes[cols]])
    hats = grid_transforms(profiles, basis.grid, momenta)
    coupling_hat, pair_hat, phat = hats[0], hats[1], hats[2:]
    weights = DENSITY_PREFACTOR * momenta.nodes**2 * pair_hat * momenta.weights
    return PairingTable(
        basis=basis,
        momenta=momenta,
        ghat=coupling_hat * phat,
        # numpy's own summation loop: a BLAS product rounds by how many threads share it
        hartree=np.einsum("pn,qn->pq", phat * weights, phat),
    )


# An overflowing assembly fails its non-finite check; numpy need not warn first.
@np.errstate(over="ignore", invalid="ignore")
def assemble_limit_matrix(table: PairingTable) -> CoefficientSet:
    """Assemble the limit transition matrix from the resonant quadruples at eps = 0.

    The exchange cells (k,k';k,k') give the Hartree and Lamb terms of
    entry (k,k') (real part of the branch sum) and the golden-rule rate
    of the pair (its on-shell part, pi times the density at the gap), the
    direct cells (k,k;k',k') their degenerate dressing.  Each unordered
    pair's rate is read once, as the magnitude of its k < k' cell, and
    mirrored, so ``fgr`` is symmetric, non-negative and zero on the
    diagonal by construction.  The (k',k) exchange cell is the exact
    conjugate of the (k,k') one (``PairingTable.cell_sums``), so the
    exchange Lamb and Hartree terms are symmetric by construction too.
    Im M, symmetric in exact arithmetic, still cross-checks the rest:
    max |Im M - Im M^T| compares the direct cells (k,k;k',k') and
    (k',k';k,k), which pair different rows and columns, and the
    mean-field table; it is a rounding gap unless a cell is read at the
    wrong index.
    """
    index = table.index
    size = table.basis.size
    sums = table.cell_sums(0.0)
    k, kp = np.indices((size, size))

    # exchange cells (k,k'; k,k'); the k > k' order is the conjugate of the k < k' one
    exchange = sums[index, k, kp]
    har_ex = table.hartree[index, index]
    lamb_ex = exchange.real
    # direct cells (k,k; k',k') at zero gap, off the diagonal only
    diag = np.diag(index)
    har_dir = table.hartree[diag[:, None], diag[None, :]]
    np.fill_diagonal(har_dir, 0.0)
    lamb_dir = sums.real[diag[:, None], kp, kp]
    np.fill_diagonal(lamb_dir, 0.0)

    # on-shell part of the k < k' exchange cells, mirrored onto k > k'
    upper = np.triu(np.abs(exchange.imag), 1)
    return CoefficientSet(upper + upper.T, har_ex, har_dir, lamb_ex, lamb_dir)


def require_tensor_modes(size: int) -> None:
    """Reject a prelimit tensor over more than ``TENSOR_MODE_CAP`` modes (memory ~ K^4)."""
    if size > TENSOR_MODE_CAP:
        raise ValidationError(
            f"{size} modes would need {size**4} tensor entries; cap is {TENSOR_MODE_CAP} modes"
        )


# Quiet for the same reason as assemble_limit_matrix.
@np.errstate(over="ignore", invalid="ignore")
def assemble_prelimit_tensor(table: PairingTable, eta: float) -> PrelimitTensor:
    """The full quadruple tensor at regularization eps = eta^2, read off ``table``.

    Entry (k,k';j,j') is -i (H - Re S) - Im S, with H the mean-field
    pairing of the pairs {k,k'} and {j,j'} and S the branch sum of the
    cell at eps = eta^2, the regularization the weak-coupling limit fixes;
    as eta -> 0 its resonant cells tend to the limit matrix's.  The energy
    mismatch dE = (E_k - E_k') - (E_j - E_j') of its phase follows from the
    stored ``energies``.  Memory grows like K^4; ``TENSOR_MODE_CAP`` guards
    against accidents.
    """
    if not 0 < eta < np.inf:
        raise ValidationError(f"eta must be positive and finite, got {eta}")
    basis = table.basis
    require_tensor_modes(basis.size)
    index = table.index
    sums = table.cell_sums(eta**2)
    cells = -1j * (table.hartree[:, index] - sums.real) - sums.imag
    return PrelimitTensor(eta, cells[index], basis.energies - basis.energies[0])
