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
``grid_transforms`` computes it as one FFT convolution (Bluestein).  At
explicit points (on-shell rates, ``transform_at``) ``transform_profiles``
sums the dense sinc quadrature, which also serves as the oracle of the
FFT route.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import fft

from .errors import ValidationError
from .grids import MomentumGrid, RadialGrid

FOUR_PI = 4.0 * np.pi


#: Row block size of the dense sinc quadrature, which serves explicit points
#: (on-shell rates) and is the oracle of the chirp-z route; keeps its
#: working set around ~20 MB even when it is given a whole grid's nodes.
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
    route serves single points and is its oracle.
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
    size = fft.next_fast_len(n_r + n_rho - 1)
    # lags m = l - i run over 1 - n_r .. n_rho - 1; index m + n_r - 1
    lags = np.conj(_chirp(theta, 1 - n_r, n_rho))
    spectrum = fft.fft(g * _chirp(theta, 1, n_r + 1), size, axis=1)
    spectrum *= fft.fft(lags, size)
    conv = fft.ifft(spectrum, axis=1, overwrite_x=True)[:, n_r - 1 : n_r - 1 + n_rho]
    sines = (conv * _chirp(theta, 1, n_rho + 1)).imag
    return sines * (FOUR_PI / momenta.nodes)


def radial_convolution(f: np.ndarray, g: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """3D convolution of two radial profiles, evaluated on the grid.

    Uses the shell-average reduction (f*g)(r) = (2 pi / r) *
    int_0^inf s f(s) [G(r+s) - G(|r-s|)] ds with G the antiderivative of
    t g(t).  G comes from the antiderivative of a cubic spline, so the
    inner integral is O(h^4) accurate; the integrand's kink at s = r sits
    exactly on a grid node, keeping the outer trapezoid rule clean.

    On the uniform grid r_i = i*h both arguments lie on the lattice k*h:
    G is evaluated once at k = 0 .. 2n, and the sums over s become one
    Hankel-type (G at i + j) and one Toeplitz-type (G at |i - j|) direct
    convolution, in O(n) memory.

    This is the real-space route: it shares no machinery with the
    momentum-space transforms and serves as their independent oracle.
    """
    from scipy.interpolate import CubicSpline

    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    n = grid.n_points
    if len(f) != n or len(g) != n:
        raise ValidationError("profiles do not match the radial grid")

    r = grid.nodes
    # extend through the origin: t*g(t) vanishes there
    t_ext = np.concatenate(([0.0], r))
    tg_ext = np.concatenate(([0.0], r * g))
    big_g = CubicSpline(t_ext, tg_ext).antiderivative()
    # G(k h) for k = 0 .. 2n; beyond the wall g has decayed, so G is constant there
    lattice = big_g(np.minimum(grid.spacing * np.arange(2 * n + 1), grid.r_max))

    sf = r * f * grid.weights
    # node i = p + 1: upper[p] = sum_q sf[q] G(p + q + 2), lower[p] = sum_q sf[q] G(|p - q|)
    upper = np.convolve(lattice[2:], sf[::-1], "valid")
    lower = np.convolve(np.concatenate((lattice[n - 1 : 0 : -1], lattice[:n])), sf, "valid")
    return 2.0 * np.pi * (upper - lower) / r


@dataclass(frozen=True)
class InteractionKernel:
    """A radial two-body kernel together with its cached transform.

    ``role`` distinguishes the photon-coupling kernel from the classical
    pair interaction.  The regularity conditions (finite L1/L2/Linf norms
    and the polynomially weighted L2 norm used by the resolvent bounds)
    are recorded at construction; a kernel that has not decayed at the box
    wall is rejected, since its transform would be unreliable.
    """

    role: str  # "coupling" or "pair"
    grid: RadialGrid
    profile: np.ndarray
    momenta: MomentumGrid
    transform: np.ndarray = field(init=False, repr=False)
    amplitude: float = 0.0
    width: float = 0.0

    def __post_init__(self):
        if self.role not in ("coupling", "pair"):
            raise ValidationError(f"unknown kernel role {self.role!r}")
        profile = np.asarray(self.profile, dtype=float)
        if not np.all(np.isfinite(profile)):
            raise ValidationError("kernel profile contains non-finite values")
        peak = np.max(np.abs(profile))
        if peak == 0.0:
            object.__setattr__(self, "transform", np.zeros(self.momenta.n_rho))
            return
        if abs(profile[-1]) > 1e-10 * peak:
            raise ValidationError("kernel profile has not decayed at r_max")
        object.__setattr__(
            self, "transform", grid_transforms(profile, self.grid, self.momenta)[0]
        )

    def norms(self, weight_exponent: float = 1.0) -> dict[str, float]:
        """L1, L2, Linf and the (1+r^2)^s weighted L2 norm of the profile."""
        r = self.grid.nodes
        w = self.grid.weights
        absf = np.abs(self.profile)
        return {
            "l1": float(FOUR_PI * np.dot(absf * r**2, w)),
            "l2": float(np.sqrt(FOUR_PI * np.dot(absf**2 * r**2, w))),
            "linf": float(np.max(absf)),
            "weighted_l2": float(
                np.sqrt(
                    FOUR_PI
                    * np.dot((1.0 + r**2) ** weight_exponent * absf**2 * r**2, w)
                )
            ),
        }

    def transform_at(self, rho) -> np.ndarray:
        """Transform evaluated at arbitrary frequencies by dense sinc quadrature."""
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        return transform_profiles(self.profile, self.grid, rho)[0]


def gaussian_kernel(
    role: str,
    grid: RadialGrid,
    momenta: MomentumGrid,
    amplitude: float,
    width: float,
) -> InteractionKernel:
    """Gaussian kernel A * exp(-r^2 / (2 sigma^2)).

    Satisfies every regularity condition used by the coefficient bounds
    (smooth, even, all weighted norms finite) and has the closed-form
    transform A * (2 pi sigma^2)^{3/2} * exp(-sigma^2 rho^2 / 2) used by
    the quadrature oracles.
    """
    if width <= 0:
        raise ValidationError(f"kernel width must be positive, got {width}")
    profile = amplitude * np.exp(-(grid.nodes**2) / (2.0 * width**2))
    return InteractionKernel(
        role=role,
        grid=grid,
        profile=profile,
        momenta=momenta,
        amplitude=amplitude,
        width=width,
    )
