"""Transition coefficients of the resonance cascade.

Everything here is built from one object: the spectral density a(rho) of
a pair of radial functions f, g with respect to the half-wave operator,

    a(rho) = (2 pi)^{-3} * 4 pi * rho^2 * fhat(rho) * conj(ghat(rho)),

whose integral over (0, inf) recovers the inner product <f, g>
(Plancherel).  Resolvent pairings become one-dimensional Cauchy
transforms of a; their eps -> 0 limits split into a principal-value part
(energy renormalization) and an on-shell part (transition rates).

Two independent computational routes exist for the on-shell rates and are
kept deliberately separate: a direct evaluation of the density at the
resonance frequency (fresh single-point quadrature) and the imaginary
part of the regularized Cauchy transform extrapolated to eps = 0.  Tests
pit them against each other.

Convention note: the Sokhotski-Plemelj split of the regularized resolvent
carries a factor pi on the on-shell delta term.  With the default
``pi_convention`` the stored rate matrix includes that factor, so the
limit matrix equals the eps -> 0 limit of the regularized pairings; the
flag is recorded in every output and can be switched off to store the
bare delta pairing instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .grids import MomentumGrid
from .kernels import InteractionKernel, transform_profiles
from .spectrum import EigenBasis, mode_product

#: (2 pi)^{-3} * 4 pi, the radial collapse of the angular average.
DENSITY_PREFACTOR = 1.0 / (2.0 * np.pi**2)

#: Regularization ladder for the eps -> 0 extrapolation of principal values.
LAMB_EPS_VALUES = (1e-2, 5e-3, 2.5e-3)

#: Evaluation points this close to the ends of the momentum interval are
#: rejected: the subtraction stencil would leave the grid.
_INTERIOR_MARGIN = 2


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
        nodes = np.concatenate(([0.0], self.momenta.nodes))
        values = np.concatenate(([self.zero_value], self.values))
        weights = np.concatenate(([0.5 * self.momenta.spacing], self.momenta.weights))
        return nodes, values, weights

    def at(self, lam: float):
        """Density at an off-node frequency by local cubic interpolation."""
        nodes, values, _ = self._extended()
        if lam < nodes[0] or lam > nodes[-1]:
            raise ValidationError(f"interpolation point {lam} outside [0, {nodes[-1]}]")
        i = int(np.searchsorted(nodes, lam))
        lo = min(max(i - 2, 0), len(nodes) - 4)
        xs = nodes[lo : lo + 4]
        ys = values[lo : lo + 4]
        out = 0.0
        for m in range(4):
            num = 1.0
            for n in range(4):
                if n != m:
                    num *= (lam - xs[n]) / (xs[m] - xs[n])
            out = out + ys[m] * num
        return out


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


def _cauchy_interior(a: SpectralDensity, lam: float, eps: float) -> complex:
    """Subtracted quadrature of int a(rho) / (rho - lam + i eps) drho.

    The singular weight integrates in closed form (complex logarithm at
    the interval endpoints); the remainder (a(rho) - a(lam)) / (...) is
    smooth on the scale of a itself and handled by the trapezoid rule.
    Valid for eps >= 0.
    """
    nodes, values, weights = a._extended()
    a_lam = a.at(lam)
    shifted = nodes - lam
    denom = shifted + 1j * eps
    numer = values - a_lam
    if eps == 0.0:
        hit = np.abs(shifted) < 1e-9 * a.momenta.spacing
        if np.any(hit):
            quotient = np.zeros(len(nodes), dtype=complex)
            ok = ~hit
            quotient[ok] = numer[ok] / denom[ok]
            i = int(np.argmax(hit))
            j0, j1 = max(i - 1, 0), min(i + 1, len(nodes) - 1)
            quotient[i] = (values[j1] - values[j0]) / (nodes[j1] - nodes[j0])
        else:
            quotient = numer / denom
    else:
        quotient = numer / denom
    subtracted = np.dot(weights, quotient)
    log_term = a_lam * (
        np.log(complex(nodes[-1] - lam, eps)) - np.log(complex(-lam, eps))
    )
    return complex(subtracted + log_term)


def _cauchy_exterior(a: SpectralDensity, lam: float, eps: float) -> complex:
    """Plain quadrature; requires the pole at lam <= 0, outside the interval."""
    nodes, values, weights = a._extended()
    denom = nodes - lam + 1j * eps
    if lam == 0.0 and eps == 0.0:
        # the origin node has zero denominator; a vanishes there like rho^2
        if a.zero_value != 0.0:
            raise ValidationError("pole at 0 with non-vanishing density")
        denom = denom.copy()
        denom[0] = 1.0
    return complex(np.dot(weights, values / denom))


def _cauchy_any(a: SpectralDensity, lam: float, eps: float) -> complex:
    lo, hi = _interior_bounds(a.momenta)
    if lam <= 0.0:
        return _cauchy_exterior(a, lam, eps)
    if lo <= lam <= hi:
        return _cauchy_interior(a, lam, eps)
    raise ValidationError(
        f"evaluation point {lam} is inside the momentum interval but too close to "
        f"its ends to be resolved (usable range [{lo:.3g}, {hi:.3g}])"
    )


def cauchy_transform(a: SpectralDensity, lam: float, eps: float) -> complex:
    """int_0^rho_max a(rho) / (rho - lam + i eps) drho with lam interior.

    The singularity at rho = lam is subtracted and its weight integrated
    in closed form, so the quadrature error does not degrade as eps -> 0.
    """
    if eps <= 0:
        raise ValidationError(f"regularization eps must be positive, got {eps}")
    lo, hi = _interior_bounds(a.momenta)
    if not (lo <= lam <= hi):
        raise ValidationError(
            f"lambda = {lam} must lie inside the momentum interval "
            f"(usable range [{lo:.3g}, {hi:.3g}])"
        )
    return _cauchy_interior(a, lam, eps)


def cauchy_transform_limit(a: SpectralDensity, lam: float) -> complex:
    """The eps -> 0 limit of :func:`cauchy_transform` in closed form.

    The subtracted quadrature is uniformly valid down to eps = 0, where
    the singular weight's endpoint logarithm contributes the on-shell
    term -i pi a(lam) exactly (upper-edge boundary values).  Finite-eps
    transforms converge to this value at the Sokhotski-Plemelj rate
    O(eps log(1/eps)).
    """
    lo, hi = _interior_bounds(a.momenta)
    if not (lo <= lam <= hi):
        raise ValidationError(
            f"lambda = {lam} must lie inside the momentum interval "
            f"(usable range [{lo:.3g}, {hi:.3g}])"
        )
    return _cauchy_interior(a, lam, 0.0)


def _fit_limit(samples, eps_values, error_funcs):
    """Solve y(eps) = y0 + sum_j c_j f_j(eps) for y0 (exact small system)."""
    samples = np.asarray(samples)
    eps_values = np.asarray(eps_values, dtype=float)
    if len(samples) != len(error_funcs) + 1:
        raise ValidationError("need one sample per error term plus one for the limit")
    rows = [[1.0] + [f(e) for f in error_funcs] for e in eps_values]
    coeffs = np.linalg.solve(np.array(rows), samples)
    return coeffs[0]


def richardson_limit(samples, eps_values, powers=(1, 2)):
    """Extrapolate samples y(eps) = y0 + sum_j c_j eps^p_j to eps = 0.

    Needs len(samples) = len(powers) + 1; solves the small Vandermonde
    system exactly.  Works for real or complex samples.
    """
    return _fit_limit(samples, eps_values, [lambda e, p=p: e**p for p in powers])


def _branch_sum(a: SpectralDensity, mu: float, eps: float) -> complex:
    """Both resolvent branches of the second-order pairing at gap mu.

    S(mu, eps) = int a /(rho - mu - i eps) + int a /(rho + mu + i eps).
    Its real part carries the energy renormalization, its imaginary part
    the on-shell rate (pi times the density at |mu| as eps -> 0).
    """
    minus = np.conj(_cauchy_any(a.conjugated(), mu, eps))
    plus = _cauchy_any(a, -mu, eps)
    return minus + plus


def _branch_sum_limit(a: SpectralDensity, mu: float, eps_values=LAMB_EPS_VALUES) -> complex:
    """Three-point extrapolation of the branch sum to eps = 0.

    Away from zero gap the error is a plain power series in eps.  At
    mu = 0 both poles merge at the interval edge where the density
    vanishes quadratically; the error then starts at eps^2 log(1/eps),
    so the fit basis switches accordingly.
    """
    samples = [_branch_sum(a, mu, e) for e in eps_values]
    if mu == 0.0:
        funcs = [lambda e: e**2 * np.log(1.0 / e), lambda e: e**2]
        return _fit_limit(samples, eps_values, funcs)
    return richardson_limit(samples, eps_values)


# ---------------------------------------------------------------------------
# Named coefficients
# ---------------------------------------------------------------------------


def _pair_density(
    basis: EigenBasis, coupling: InteractionKernel, k: int, kp: int, j: int, jp: int
) -> SpectralDensity:
    """Density of (w*(chi_k chi_k'), w*(chi_j chi_j')) on the kernel's grid."""
    momenta = coupling.momenta
    products = np.vstack([mode_product(basis, k, kp), mode_product(basis, j, jp)])
    hats = transform_profiles(products, basis.grid, momenta.nodes)
    g1 = coupling.transform * hats[0]
    g2 = coupling.transform * hats[1]
    return spectral_density(g1, g2, momenta)


def gamma_fgr(
    basis: EigenBasis,
    coupling: InteractionKernel,
    k: int,
    kp: int,
    pi_convention: bool = True,
) -> float:
    """On-shell transition rate between modes k and k'.

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
    scale = np.pi if pi_convention else 1.0
    return float(scale * density_on_shell)


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
    hats = transform_profiles(products, basis.grid, momenta.nodes)
    integrand = DENSITY_PREFACTOR * momenta.nodes**2 * hats[0] * pair.transform * hats[1]
    return float(momenta.integrate(integrand))


def lambda_lamb_shift(
    basis: EigenBasis,
    coupling: InteractionKernel,
    k: int,
    kp: int,
    j: int,
    jp: int,
    mode: str = "extrapolate",
    eps_values=LAMB_EPS_VALUES,
) -> float:
    """Off-shell energy renormalization for the quadruple (k,k';j,j').

    Principal-value pairing through both resolvent branches,
    PV int a(rho) [1/(rho - dE) + 1/(rho + dE)] drho with dE = E_j - E_j'.
    ``mode`` selects the production route ("extrapolate": Richardson in
    eps over ``eps_values``) or the direct eps = 0 subtracted quadrature
    ("direct", used as a cross-check).
    """
    a = _pair_density(basis, coupling, k, kp, j, jp)
    mu = float(basis.energies[j] - basis.energies[jp])
    if mode == "extrapolate":
        return float(_branch_sum_limit(a, mu, eps_values).real)
    if mode == "direct":
        return float(_branch_sum(a, mu, 0.0).real)
    raise ValidationError(f"unknown lamb shift mode {mode!r}")


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoeffOptions:
    """Assembly policy knobs.

    ``include_degenerate`` keeps the identically-resonant quadruples
    (k,k;j,j) in the limit generator.  They carry no on-shell rate (the
    emission/absorption parts cancel at zero gap) but contribute a purely
    imaginary mean-field/renormalization dressing; dropping them changes
    trajectory phases, not occupations.
    ``eps_policy`` decides whether prelimit tensors are evaluated at the
    physical regularization eps = eta^2 or at the extrapolated eps -> 0
    values.
    """

    pi_convention: bool = True
    include_degenerate: bool = True
    lamb_mode: str = "extrapolate"
    lamb_eps_values: tuple = LAMB_EPS_VALUES
    eps_policy: str = "eta2"
    exploit_symmetry: bool = True
    tensor_mode_cap: int = 12
    cutoff_factor: float = 4.0
    #: "full" keeps all quadruples; "resonant" zeroes the oscillatory ones,
    #: leaving exactly the terms that survive the averaging limit
    tensor_restriction: str = "full"


@dataclass
class CoefficientSet:
    """Limit matrix, its three component matrices, and optional prelimit tensor.

    The stored ``hartree`` and ``lamb`` matrices are the effective ones
    entering the limit generator (exchange part on the diagonal quadruple
    plus, off the diagonal, the degenerate direct part when enabled), so

        limit_matrix = -i (hartree - lamb) - fgr * sign,
        sign[k,k'] = 1 if k > k' else -1 if k < k' else 0

    holds exactly by construction.  ``fgr`` stores the effective rates,
    including the pi factor when ``pi_convention`` is set.
    """

    size: int
    hartree: np.ndarray
    lamb: np.ndarray
    fgr: np.ndarray
    limit_matrix: np.ndarray
    fgr_pi_convention: bool
    include_degenerate: bool
    hartree_exchange: np.ndarray | None = None
    hartree_direct: np.ndarray | None = None
    lamb_exchange: np.ndarray | None = None
    lamb_direct: np.ndarray | None = None
    eta: float | None = None
    tensor: np.ndarray | None = None
    #: trap energies shifted by the ground level, E_k - E_0; the prelimit
    #: phases depend on energy differences only
    energies: np.ndarray | None = None
    provenance: dict = field(default_factory=dict)

    @property
    def has_tensor(self) -> bool:
        return self.tensor is not None

    def sign_matrix(self) -> np.ndarray:
        idx = np.arange(self.size)
        return np.sign(idx[:, None] - idx[None, :]).astype(float)

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


def two_mode_coefficients(gamma: float, size: int = 2) -> CoefficientSet:
    """Synthetic coefficient preset: a single transition rate, no shifts.

    With size 2 the cascade closes to the logistic equation
    d|F_0|^2/dT = 2 gamma |F_0|^2 |F_1|^2, the exactness oracle for the
    integrator.  Larger sizes place the rate gamma on every pair.
    """
    if gamma <= 0:
        raise ValidationError(f"synthetic rate must be positive, got {gamma}")
    fgr = gamma * (1.0 - np.eye(size))
    idx = np.arange(size)
    sign = np.sign(idx[:, None] - idx[None, :]).astype(float)
    zeros = np.zeros((size, size))
    return CoefficientSet(
        size=size,
        hartree=zeros.copy(),
        lamb=zeros.copy(),
        fgr=fgr,
        limit_matrix=(-fgr * sign).astype(complex),
        fgr_pi_convention=True,
        include_degenerate=True,
        provenance={"synthetic": "uniform-rate preset", "gamma": gamma},
    )


def _mode_pair_transforms(basis: EigenBasis, momenta: MomentumGrid) -> np.ndarray:
    """Transforms of all mode products, indexed [k, kp, :] (symmetric)."""
    size = basis.size
    pairs = [(k, kp) for k in range(size) for kp in range(k, size)]
    products = np.vstack([mode_product(basis, k, kp) for k, kp in pairs])
    hats = transform_profiles(products, basis.grid, momenta.nodes)
    out = np.empty((size, size, momenta.n_rho))
    for row, (k, kp) in enumerate(pairs):
        out[k, kp] = hats[row]
        out[kp, k] = hats[row]
    return out


def _density_from_hats(ghat_1, ghat_2, momenta) -> SpectralDensity:
    return SpectralDensity(momenta, DENSITY_PREFACTOR * momenta.nodes**2 * ghat_1 * ghat_2)


def _require_valid_inputs(basis, coupling, pair, options):
    if coupling.role != "coupling" or pair.role != "pair":
        raise ValidationError("expected a coupling kernel and a pair-interaction kernel")
    for kernel in (coupling, pair):
        if kernel.grid.n_points != basis.grid.n_points or kernel.grid.r_max != basis.grid.r_max:
            raise ValidationError("kernel and basis grids do not match")
    max_gap = float(basis.energies[-1] - basis.energies[0])
    coupling.momenta.require_covers(max_gap, factor=options.cutoff_factor)


def assemble_limit_matrix(
    basis: EigenBasis,
    coupling: InteractionKernel,
    pair: InteractionKernel,
    options: CoeffOptions = CoeffOptions(),
) -> CoefficientSet:
    """Assemble the limit transition matrix over the diagonal quadruples.

    Entries are written to preallocated slots pair by pair; with
    ``exploit_symmetry`` only the upper triangle is computed and mirrored
    through the exact symmetries, otherwise every entry is recomputed
    independently (the recomputation cross-check).
    """
    _require_valid_inputs(basis, coupling, pair, options)
    size = basis.size
    momenta = coupling.momenta
    phat = _mode_pair_transforms(basis, momenta)
    ghat = coupling.transform * phat
    vhat = pair.transform
    rho2 = momenta.nodes**2

    har_ex = np.zeros((size, size))
    lamb_ex = np.zeros((size, size))
    fgr = np.zeros((size, size))
    har_dir = np.zeros((size, size))
    lamb_dir = np.zeros((size, size))

    def lamb_value(a: SpectralDensity, mu: float) -> float:
        if options.lamb_mode == "direct":
            return _branch_sum(a, mu, 0.0).real
        return _branch_sum_limit(a, mu, options.lamb_eps_values).real

    for k in range(size):
        for kp in range(size):
            if options.exploit_symmetry and kp < k:
                har_ex[k, kp] = har_ex[kp, k]
                lamb_ex[k, kp] = lamb_ex[kp, k]
                fgr[k, kp] = fgr[kp, k]
                har_dir[k, kp] = har_dir[kp, k]
                lamb_dir[k, kp] = lamb_dir[kp, k]
                continue
            mu = float(basis.energies[k] - basis.energies[kp])
            har_ex[k, kp] = momenta.integrate(
                DENSITY_PREFACTOR * rho2 * phat[k, kp] * vhat * phat[k, kp]
            )
            a_ex = _density_from_hats(ghat[k, kp], ghat[k, kp], momenta)
            lamb_ex[k, kp] = lamb_value(a_ex, mu)
            if k != kp:
                fgr[k, kp] = gamma_fgr(basis, coupling, k, kp, options.pi_convention)
                har_dir[k, kp] = momenta.integrate(
                    DENSITY_PREFACTOR * rho2 * phat[k, k] * vhat * phat[kp, kp]
                )
                a_dir = _density_from_hats(ghat[k, k], ghat[kp, kp], momenta)
                lamb_dir[k, kp] = lamb_value(a_dir, 0.0)

    if options.include_degenerate:
        hartree = har_ex + har_dir
        lamb = lamb_ex + lamb_dir
    else:
        hartree = har_ex.copy()
        lamb = lamb_ex.copy()

    idx = np.arange(size)
    sign = np.sign(idx[:, None] - idx[None, :]).astype(float)
    limit_matrix = -1j * (hartree - lamb) - fgr * sign

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
        "lamb_mode": options.lamb_mode,
        "lamb_eps_values": list(options.lamb_eps_values),
        "fourier": "forward e^{-ix.xi}, inverse (2pi)^{-3}",
    }
    return CoefficientSet(
        size=size,
        hartree=hartree,
        lamb=lamb,
        fgr=fgr,
        limit_matrix=limit_matrix,
        fgr_pi_convention=options.pi_convention,
        include_degenerate=options.include_degenerate,
        hartree_exchange=har_ex,
        hartree_direct=har_dir,
        lamb_exchange=lamb_ex,
        lamb_direct=lamb_dir,
        provenance=provenance,
    )


def assemble_prelimit_tensor(
    basis: EigenBasis,
    coupling: InteractionKernel,
    pair: InteractionKernel,
    eta: float,
    options: CoeffOptions = CoeffOptions(),
) -> CoefficientSet:
    """Limit matrix plus the full quadruple tensor at regularization eta^2.

    For every quadruple (k,k';j,j') the tensor stores the coefficient
    obtained from both resolvent branches at eps = eta^2 (or at the
    extrapolated limit under ``eps_policy = "limit"``) together with the
    mean-field part.  The energy mismatch dE = (E_k - E_k') - (E_j - E_j')
    of its phase follows from the stored ``energies``.  Memory grows like
    K^4; the mode cap guards against accidents.
    """
    if eta <= 0:
        raise ValidationError(f"eta must be positive, got {eta}")
    size = basis.size
    if size > options.tensor_mode_cap:
        raise ValidationError(
            f"{size} modes would need {size**4} tensor entries; cap is "
            f"{options.tensor_mode_cap} modes"
        )
    coeffs = assemble_limit_matrix(basis, coupling, pair, options)

    momenta = coupling.momenta
    phat = _mode_pair_transforms(basis, momenta)
    ghat = coupling.transform * phat
    vhat = pair.transform
    rho2 = momenta.nodes**2
    energies = basis.energies
    eps = eta**2
    pi_scale = 1.0 if options.pi_convention else 1.0 / np.pi

    tensor = np.empty((size,) * 4, dtype=complex)

    branch_cache: dict[tuple, complex] = {}
    hartree_cache: dict[tuple, float] = {}

    def branch(pair_a, j, jp) -> complex:
        # canonical order j <= jp; the swap conjugates (real densities)
        swap = j > jp
        key = (pair_a, (jp, j) if swap else (j, jp))
        if key not in branch_cache:
            cj, cjp = key[1]
            a = _density_from_hats(ghat[pair_a], ghat[cj, cjp], momenta)
            mu = float(energies[cj] - energies[cjp])
            if options.eps_policy == "limit":
                branch_cache[key] = _branch_sum_limit(a, mu, options.lamb_eps_values)
            else:
                branch_cache[key] = _branch_sum(a, mu, eps)
        value = branch_cache[key]
        return np.conj(value) if swap else value

    def hartree_part(pair_a, pair_b) -> float:
        key = (pair_a, pair_b)
        if key not in hartree_cache:
            hartree_cache[key] = float(
                momenta.integrate(
                    DENSITY_PREFACTOR * rho2 * phat[pair_a] * vhat * phat[pair_b]
                )
            )
        return hartree_cache[key]

    for k in range(size):
        for kp in range(size):
            pair_a = (min(k, kp), max(k, kp))
            for j in range(size):
                for jp in range(size):
                    pair_b = (min(j, jp), max(j, jp))
                    s = branch(pair_a, j, jp)
                    har = hartree_part(pair_a, pair_b)
                    tensor[k, kp, j, jp] = -1j * (har - s.real) - pi_scale * s.imag

    if options.tensor_restriction == "resonant":
        tensor = tensor * resonant_mask(size)
    elif options.tensor_restriction != "full":
        raise ValidationError(f"unknown tensor restriction {options.tensor_restriction!r}")

    coeffs.eta = eta
    coeffs.tensor = tensor
    coeffs.energies = energies - energies[0]
    coeffs.provenance = dict(coeffs.provenance)
    coeffs.provenance.update(
        {
            "eta": eta,
            "eps_policy": options.eps_policy,
            "eps": eps,
            "tensor_restriction": options.tensor_restriction,
        }
    )
    return coeffs


def resonant_mask(size: int) -> np.ndarray:
    """Indicator of the quadruples whose phase vanishes identically.

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
    return (diag | zero_gap).astype(float)


def limit_matrix_from_tensor(coeffs: CoefficientSet) -> np.ndarray:
    """Collapse the resonant tensor entries into the K x K limit generator.

    The resonant quadruples all produce terms of the form c |F_j|^2 F_k,
    so they sum into a single matrix: the diagonal family contributes
    tensor[k,m,k,m] and the zero-gap family tensor[k,k,m,m] (off the
    diagonal).  With the tensor evaluated at eps -> 0 this reproduces the
    assembled limit matrix.
    """
    if not coeffs.has_tensor:
        raise ValidationError("coefficient set carries no prelimit tensor")
    size = coeffs.size
    idx = np.arange(size)
    matrix = coeffs.tensor[idx[:, None], idx[None, :], idx[:, None], idx[None, :]].copy()
    off = ~np.eye(size, dtype=bool)
    matrix[off] += coeffs.tensor[idx[:, None], idx[:, None], idx[None, :], idx[None, :]][off]
    return matrix


# ---------------------------------------------------------------------------
# Uniformity probes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LapProbeReport:
    """Empirical uniform-boundedness probe for the regularized transform."""

    eps_values: tuple
    sup_per_eps: tuple
    sup_abs: float
    holder_quotient: float
    growth_ratio: float
    flagged: bool

    @property
    def is_empty(self) -> bool:
        return len(self.eps_values) == 0


def lap_uniformity_probe(
    a: SpectralDensity,
    lambda_window: tuple[float, float],
    eps_list,
    growth_tolerance: float = 10.0,
    n_lambda: int = 33,
    holder_alpha: float = 1.0,
) -> LapProbeReport:
    """Tabulate sup |cauchy_transform(a, lam, eps)| over a frequency window.

    Also reports the empirical Hoelder quotient of the density on the
    window.  The probe flags when the sup grows monotonically as eps
    decreases and the total growth exceeds the tolerance factor, i.e.
    when the data behaves as if the eps -> 0 limit diverged.
    """
    eps_list = tuple(eps_list)
    if len(eps_list) == 0:
        return LapProbeReport((), (), float("nan"), float("nan"), float("nan"), False)
    lo, hi = lambda_window
    usable_lo, usable_hi = _interior_bounds(a.momenta)
    if lo < usable_lo or hi > usable_hi or lo >= hi:
        raise ValidationError(
            f"window [{lo}, {hi}] not inside the usable interior "
            f"[{usable_lo:.3g}, {usable_hi:.3g}]"
        )
    lams = np.linspace(lo, hi, n_lambda)
    sups = tuple(
        float(max(abs(cauchy_transform(a, lam, eps)) for lam in lams)) for eps in eps_list
    )

    # Hoelder quotient of a over the window, on a pair-subsampled node set
    mask = (a.momenta.nodes >= lo) & (a.momenta.nodes <= hi)
    nodes = a.momenta.nodes[mask]
    vals = np.asarray(a.values)[mask]
    if len(nodes) > 128:
        stride = len(nodes) // 128 + 1
        nodes, vals = nodes[::stride], vals[::stride]
    dv = np.abs(vals[:, None] - vals[None, :])
    dx = np.abs(nodes[:, None] - nodes[None, :]) ** holder_alpha
    off = ~np.eye(len(nodes), dtype=bool)
    holder = float(np.max(dv[off] / dx[off])) if len(nodes) > 1 else 0.0

    order = np.argsort(eps_list)[::-1]  # large eps -> small eps
    ordered = np.asarray(sups)[order]
    monotit = bool(np.all(np.diff(ordered) > 0)) if len(ordered) > 1 else False
    ratio = float(ordered[-1] / ordered[0]) if ordered[0] != 0 else float("inf")
    flagged = monotit and ratio > growth_tolerance
    return LapProbeReport(eps_list, sups, float(np.max(sups)), holder, ratio, flagged)
