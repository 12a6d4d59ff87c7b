"""Two-body interaction kernels and the radial Fourier transform.

Fourier convention: forward transform with e^{-i x.xi}, inverse carrying
the (2 pi)^{-3} factor.  For a radial profile f(r) the forward transform
collapses to

    fhat(rho) = 4*pi * int_0^inf f(r) * sin(rho r)/(rho r) * r^2 dr,

with the rho -> 0 limit replacing sin(x)/x by 1.  Profiles are assumed
even in r (they extend smoothly through the origin), which makes the
uniform trapezoid rule superalgebraically accurate for decayed profiles.

The same trapezoid sum has two evaluation routes.  On a full
MomentumGrid, rho_l r_i = l*i*theta with theta = h_rho*h_r, so the sum
is a chirp z-transform (Rabiner, Schafer & Rader 1969) and
``grid_transforms`` computes it as one FFT convolution (Bluestein).  Its
one caller is ``coeffs.pairing_table``, which transforms both kernel
profiles and the mode products in one pass.  An ``InteractionKernel``
holds only its role, radial grid and profile; the momentum grid belongs to
the pairing table, so building a kernel transforms nothing.  At explicit points
``transform_profiles`` sums the dense sinc quadrature: the oracle of the
FFT route, and the transform of the single-point on-shell rates
(``coeffs.gamma_fgr``) that check the assembled ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import ValidationError
from .grids import FOUR_PI, MomentumGrid, RadialGrid

#: The Fourier convention of every transform, as written into output provenance.
FOURIER_CONVENTION = "forward e^{-ix.xi}, inverse (2pi)^{-3}"


#: Row block size of the dense sinc quadrature, the oracle route at explicit
#: points; keeps its working set around ~20 MB even when it is given a
#: whole grid's nodes.
_RHO_BLOCK = 1024


def _weighted_profiles(profiles: np.ndarray, grid: RadialGrid, power: int) -> np.ndarray:
    """Profiles times r^power * w as a 2D float array, validated against ``grid``."""
    profiles = np.atleast_2d(np.asarray(profiles, dtype=float))
    if profiles.shape[1] != grid.n_points:
        raise ValidationError("profile does not match the radial grid")
    if not np.all(np.isfinite(profiles)):
        raise ValidationError("profile contains NaN or Inf")
    return profiles * (grid.nodes**power * grid.weights)


def transform_profiles(
    profiles: np.ndarray, grid: RadialGrid, rho: np.ndarray
) -> np.ndarray:
    """Radial transforms of many profiles at explicit points, shape (m, len(rho)).

    Dense quadrature: out[p, l] = 4*pi * sum_i sinc(rho_l r_i) *
    profiles[p, i] * r_i^2 * w_i, evaluated blockwise in rho to bound
    memory.  Full momentum grids go through ``grid_transforms``; this
    route is its oracle and serves the single-point on-shell rates.
    """
    r = grid.nodes
    weighted = _weighted_profiles(profiles, grid, 2)
    out = np.empty((weighted.shape[0], len(rho)))
    for start in range(0, len(rho), _RHO_BLOCK):
        block = rho[start : start + _RHO_BLOCK]
        # np.sinc is sin(pi y)/(pi y) and handles the rho = 0 limit itself
        kernel = np.sinc(np.outer(block, r) / np.pi)
        out[:, start : start + len(block)] = FOUR_PI * weighted @ kernel.T
    return out


def _next_fast_len(n: int) -> int:
    """Smallest 2*3*5*7*11-smooth integer >= n: scipy.fft's fast length for complex input."""
    m = max(n, 1)
    while True:
        rest = m
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


def _chirp(theta: float, start: int, stop: int) -> np.ndarray:
    """e^{i theta k^2 / 2} for k = start .. stop - 1, from exact integer squares."""
    k = np.arange(start, stop, dtype=np.int64)
    return np.exp(0.5j * theta * (k * k).astype(float))


def grid_transforms(
    profiles: np.ndarray, grid: RadialGrid, momenta: MomentumGrid
) -> np.ndarray:
    """Radial transforms of many profiles on every node of ``momenta``, shape (m, n_rho).

    The same trapezoid sum as ``transform_profiles``, written as
    out[p, l] = (4*pi / rho_l) * sum_i f_p(r_i) r_i w_i sin(l*i*theta)
    with theta = h_rho * h_r.  Bluestein's identity
    l*i = (l^2 + i^2 - (l - i)^2) / 2 turns the sine sum into
    Im[c_l sum_i (g_i c_i) conj(c_{l-i})] with the chirp
    c_k = e^{i theta k^2/2}: one FFT convolution of length
    >= n_r + n_rho - 1 for all rows at once.
    """
    g = _weighted_profiles(profiles, grid, 1)
    n_r, n_rho = grid.n_points, momenta.n_rho
    theta = grid.spacing * momenta.spacing
    size = _next_fast_len(n_r + n_rho - 1)
    # lags m = l - i run over 1 - n_r .. n_rho - 1; index m + n_r - 1
    lags = np.conj(_chirp(theta, 1 - n_r, n_rho))
    spectrum = np.fft.fft(g * _chirp(theta, 1, n_r + 1), size, axis=1)
    spectrum *= np.fft.fft(lags, size)
    # in place: one (m, size) complex array fewer at the peak of a check
    conv = np.fft.ifft(spectrum, axis=1, out=spectrum)[:, n_r - 1 : n_r - 1 + n_rho]
    sines = (conv * _chirp(theta, 1, n_rho + 1)).imag
    return sines * (FOUR_PI / momenta.nodes)


def radial_convolution(f: np.ndarray, g: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """3D convolution of two radial profiles, evaluated on the grid.

    Uses the shell-average reduction (f*g)(r) = (2 pi / r) *
    int_0^inf s f(s) [G(r+s) - G(|r-s|)] ds with G the antiderivative of
    t g(t).  G integrates the natural cubic spline through t g(t) on the
    knots k*h, k = 0 .. n, so the inner integral is O(h^4) accurate; the
    integrand's kink at s = r sits exactly on a grid node, keeping the
    outer trapezoid rule clean.  The natural end conditions (zero second
    derivative) are exact at the origin, where t g(t) is odd for the even
    profiles of this package, and hold at the wall, where g has decayed.
    With y_k = t_k g(t_k), the spline's second derivatives M solve one
    (1, 4, 1) tridiagonal system, and each interval [t_k, t_{k+1}]
    contributes h (y_k + y_{k+1}) / 2 - h^3 (M_k + M_{k+1}) / 24 to G.

    On the uniform grid r_i = i*h both arguments lie on the lattice k*h:
    G is evaluated once at k = 0 .. 2n, and the sums over s become one
    Hankel-type (G at i + j) and one Toeplitz-type (G at |i - j|) direct
    convolution, in O(n) memory.

    This is the real-space route: it shares no machinery with the
    momentum-space transforms and serves as their independent oracle.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    n = grid.n_points
    if len(f) != n or len(g) != n:
        raise ValidationError("profiles do not match the radial grid")

    r, h = grid.nodes, grid.spacing
    # t*g(t) on the knots k*h, k = 0 .. n; it vanishes at the origin
    tg = np.concatenate(([0.0], r * g))
    band = np.ones((3, n - 1))
    band[1] = 4.0
    curvature = np.zeros(n + 1)
    curvature[1:-1] = solve_banded((1, 1), band, (6.0 / h**2) * np.diff(tg, 2))
    pieces = 0.5 * h * (tg[:-1] + tg[1:]) - (h**3 / 24.0) * (curvature[:-1] + curvature[1:])
    # G(k h) for k = 0 .. 2n; beyond the wall g has decayed, so G is constant there
    lattice = np.zeros(2 * n + 1)
    np.cumsum(pieces, out=lattice[1 : n + 1])
    lattice[n + 1 :] = lattice[n]

    sf = r * f * grid.weights
    # node i = p + 1: upper[p] = sum_q sf[q] G(p + q + 2), lower[p] = sum_q sf[q] G(|p - q|)
    upper = np.convolve(lattice[2:], sf[::-1], "valid")
    lower = np.convolve(np.concatenate((lattice[n - 1 : 0 : -1], lattice[:n])), sf, "valid")
    return 2.0 * np.pi * (upper - lower) / r


@dataclass(frozen=True)
class InteractionKernel:
    """A radial two-body kernel: its role, its radial grid and its sampled profile.

    ``role`` distinguishes the photon-coupling kernel from the classical
    pair interaction.  The profile is the kernel; the parameters that built
    it (a Gaussian's amplitude and width) stay with the config.  Building
    one computes nothing and rejects a profile that is not finite, not on
    the radial grid or not decayed at the box wall (a zero profile has).
    The pairing table transforms the profile with the mode products.
    """

    role: str  # "coupling" or "pair"
    grid: RadialGrid
    profile: np.ndarray

    def __post_init__(self):
        if self.role not in ("coupling", "pair"):
            raise ValidationError(f"unknown kernel role {self.role!r}")
        profile = np.asarray(self.profile, dtype=float)
        if not np.all(np.isfinite(profile)):
            raise ValidationError(f"{self.role} kernel profile contains non-finite values")
        if profile.shape != (self.grid.n_points,):
            raise ValidationError("profile does not match the radial grid")
        if abs(profile[-1]) > 1e-10 * np.max(np.abs(profile)):
            raise ValidationError(f"{self.role} kernel profile has not decayed at r_max")


def gaussian_kernel(
    role: str,
    grid: RadialGrid,
    amplitude: float,
    width: float,
) -> InteractionKernel:
    """Gaussian kernel A * exp(-r^2 / (2 sigma^2)); amplitude finite, width positive and finite.

    Satisfies every regularity condition used by the coefficient bounds
    (smooth, even, all weighted norms finite) and has the closed-form
    transform A * (2 pi sigma^2)^{3/2} * exp(-sigma^2 rho^2 / 2) used by
    the quadrature oracles.
    """
    if not np.isfinite(amplitude):
        raise ValidationError(f"{role} kernel amplitude must be finite, got {amplitude}")
    if not 0 < width < np.inf:
        raise ValidationError(f"{role} kernel width must be positive and finite, got {width}")
    profile = amplitude * np.exp(-(grid.nodes**2) / (2.0 * width**2))
    return InteractionKernel(role=role, grid=grid, profile=profile)
