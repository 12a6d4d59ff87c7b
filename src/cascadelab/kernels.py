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
``grid_transforms`` computes it as an FFT convolution (Bluestein), in
blocks of _ROW_BLOCK rows that reuse one spectrum and one product buffer,
so its working set beside the output does not grow with the row count.
Its one caller is ``coeffs.pairing_table``, which transforms both kernel
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

#: Rows per block of the chirp-z route.  On default.cfg's 23 rows
#: (n_r = 2400, n_rho = 8192; one CPU, one BLAS thread), blocks of
#: 1 / 2 / 4 / 8 rows took 8.5 / 7.7 / 7.3 / 7.3 ms a pass with
#: 0.7 / 1.0 / 1.6 / 2.5 MB traced beside the output, and an in-process
#: ``evolve`` took 42.9 / 42.3 / 43.2 / 42.1 ms with 1312 / 1312 / 1773 / 1312
#: minor page faults.  All 23 rows at once: 8.5 ms, 7.6 MB, 54 ms and 3900.
_ROW_BLOCK = 8


def _profile_rows(profiles: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """Profiles as a 2D float array, validated against ``grid``."""
    profiles = np.atleast_2d(np.asarray(profiles, dtype=float))
    if profiles.shape[1] != grid.n_points:
        raise ValidationError("profile does not match the radial grid")
    if not np.all(np.isfinite(profiles)):
        raise ValidationError("profile contains NaN or Inf")
    return profiles


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
    weighted = _profile_rows(profiles, grid) * (grid.nodes**2 * grid.weights)
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
    c_k = e^{i theta k^2/2}: an FFT convolution of length
    >= n_r + n_rho - 1 per row.  The rows go through it _ROW_BLOCK at a
    time, in one product buffer (the chirped profiles, _ROW_BLOCK x n_r)
    and one spectrum buffer (_ROW_BLOCK x FFT length) that every block
    reuses, so the working set beside the output does not grow with the
    row count.  Each row's arithmetic does not depend on the rows it
    shares a block with.
    """
    rows = _profile_rows(profiles, grid)
    n_r, n_rho = grid.n_points, momenta.n_rho
    theta = grid.spacing * momenta.spacing
    size = _next_fast_len(n_r + n_rho - 1)
    # lags m = l - i run over 1 - n_r .. n_rho - 1; index m + n_r - 1
    lags = np.fft.fft(np.conj(_chirp(theta, 1 - n_r, n_rho)), size)
    head, tail = _chirp(theta, 1, n_r + 1), _chirp(theta, 1, n_rho + 1)
    radial, scale = grid.nodes * grid.weights, FOUR_PI / momenta.nodes
    block = min(_ROW_BLOCK, len(rows))
    product = np.empty((block, n_r), dtype=complex)
    spectrum = np.empty((block, size), dtype=complex)
    out = np.empty((len(rows), n_rho))
    for start in range(0, len(rows), _ROW_BLOCK):
        batch = rows[start : start + _ROW_BLOCK]
        chirped, spec = product[: len(batch)], spectrum[: len(batch)]
        np.multiply(batch * radial, head, out=chirped)
        np.fft.fft(chirped, size, axis=1, out=spec)  # zero-padded to size
        spec *= lags
        np.fft.ifft(spec, axis=1, out=spec)
        conv = spec[:, n_r - 1 : n_r - 1 + n_rho]
        conv *= tail
        np.multiply(conv.imag, scale, out=out[start : start + len(batch)])
    return out


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
