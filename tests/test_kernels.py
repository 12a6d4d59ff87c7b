import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

from cascadelab.errors import ValidationError
from cascadelab.grids import MomentumGrid, RadialGrid
from cascadelab.kernels import (
    _ROW_BLOCK,
    InteractionKernel,
    _next_fast_len,
    gaussian_kernel,
    grid_transforms,
    radial_convolution,
    transform_profiles,
)


def test_next_fast_len_is_scipys_complex_rule():
    assert all(_next_fast_len(n) == next_fast_len(n) for n in range(1, 50_001))


#: Chirp-z against dense sinc, relative to each row's peak.
ROUTE_AGREEMENT = 1e-12


@pytest.fixture(scope="module")
def grid():
    return RadialGrid(12.0, 2000)


@pytest.fixture(scope="module")
def momenta():
    return MomentumGrid(8.0, 4096)


def test_gaussian_self_transform(grid, momenta):
    profile = np.exp(-grid.nodes**2 / 2.0)
    hat = grid_transforms(profile, grid, momenta)[0]
    exact = (2.0 * np.pi) ** 1.5 * np.exp(-momenta.nodes**2 / 2.0)
    window = momenta.nodes <= 4.0
    rel = np.abs(hat[window] - exact[window]) / exact[window]
    assert np.max(rel) < 1e-8


def test_zero_frequency_is_volume_integral(grid):
    profile = np.exp(-grid.nodes**2 / 2.0)
    hat0 = transform_profiles(profile, grid, np.array([0.0]))[0, 0]
    direct = 4.0 * np.pi * grid.integrate(profile * grid.nodes**2)
    assert hat0 == pytest.approx(direct, rel=1e-14)


def test_unit_ball_transform():
    # node at r = 1 exactly; half weight at the jump keeps trapezoid clean
    grid = RadialGrid(12.0, 2400)
    momenta = MomentumGrid(8.0, 2048)
    ball = (grid.nodes < 1.0).astype(float)
    ball[np.isclose(grid.nodes, 1.0)] = 0.5
    hat = grid_transforms(ball, grid, momenta)[0]
    rho = momenta.nodes
    exact = 4.0 * np.pi * (np.sin(rho) - rho * np.cos(rho)) / rho**3
    assert np.max(np.abs(hat - exact)) < 1e-4 * (4.0 * np.pi / 3.0)


def test_non_finite_profile_rejected(grid, momenta):
    profile = np.exp(-grid.nodes)
    profile[10] = np.nan
    with pytest.raises(ValidationError):
        grid_transforms(profile, grid, momenta)


def test_gaussian_kernel_closed_form_transform(grid, momenta):
    kernel = gaussian_kernel("coupling", grid, amplitude=2.5, width=0.8)
    exact = 2.5 * (2.0 * np.pi * 0.8**2) ** 1.5 * np.exp(-(0.8 * momenta.nodes) ** 2 / 2.0)
    hat = grid_transforms(kernel.profile, grid, momenta)[0]
    assert np.max(np.abs(hat - exact)) < 1e-10 * exact[0]


def test_kernel_must_decay():
    grid = RadialGrid(2.0, 64)
    with pytest.raises(ValidationError, match="decayed"):
        gaussian_kernel("coupling", grid, amplitude=1.0, width=5.0)


def test_kernel_profile_must_match_its_grid(grid):
    """The length check happens when the kernel is built, not when it is transformed."""
    short = np.exp(-RadialGrid(grid.r_max, grid.n_points - 1).nodes ** 2)
    with pytest.raises(ValidationError, match="does not match"):
        InteractionKernel("pair", grid, short)


def test_transform_at_matches_grid_nodes(grid, momenta):
    kernel = gaussian_kernel("pair", grid, amplitude=1.0, width=1.0)
    sample = transform_profiles(kernel.profile, grid, momenta.nodes[100:103])[0]
    # dense sinc at explicit points against the chirp-z transform on the grid
    hat = grid_transforms(kernel.profile, grid, momenta)[0]
    assert np.allclose(sample, hat[100:103], rtol=1e-13, atol=0)


def gaussian_convolution_error(n_points):
    """Largest error of radial_convolution against the Gaussian closed form, relative to its peak."""
    grid = RadialGrid(24.0, n_points)
    s1, s2 = 1.0, 0.7
    f = np.exp(-grid.nodes**2 / (2 * s1**2))
    g = np.exp(-grid.nodes**2 / (2 * s2**2))
    s12 = np.hypot(s1, s2)
    exact = (2 * np.pi) ** 1.5 * (s1 * s2 / s12) ** 3 * np.exp(-grid.nodes**2 / (2 * s12**2))
    return np.max(np.abs(radial_convolution(f, g, grid) - exact)) / exact.max()


def test_radial_convolution_gaussian_closed_form():
    assert gaussian_convolution_error(2400) < 1e-9


def test_radial_convolution_is_fourth_order():
    """The error falls ~16x per doubling; an end condition that is wrong at the
    origin or the wall would cost the spline its h^4 there and the factor with it."""
    errors = [gaussian_convolution_error(n) for n in (600, 1200, 2400)]
    assert errors[0] / errors[1] >= 12.0
    assert errors[1] / errors[2] >= 12.0


def test_radial_convolution_commutes():
    grid = RadialGrid(16.0, 800)
    f = np.exp(-grid.nodes**2)
    g = grid.nodes**2 * np.exp(-grid.nodes**2 / 2.0)
    fg = radial_convolution(f, g, grid)
    gf = radial_convolution(g, f, grid)
    assert np.max(np.abs(fg - gf)) < 1e-10 * np.max(np.abs(fg))


def route_gap(profiles, grid, momenta):
    """Largest |chirp-z - dense sinc| of each row over that row's dense peak."""
    dense = transform_profiles(profiles, grid, momenta.nodes)
    fast = grid_transforms(profiles, grid, momenta)
    assert fast.shape == dense.shape
    return np.max(np.abs(fast - dense), axis=1) / np.max(np.abs(dense), axis=1)


def shipped_profiles(assets):
    """Coupling and pair kernels plus every mode product chi_k chi_k' (k <= k')."""
    basis = assets.basis
    rows, cols = np.triu_indices(basis.size)
    return np.vstack(
        [assets.coupling.profile, assets.pair.profile, basis.modes[rows] * basis.modes[cols]]
    )


@pytest.mark.parametrize("preset", ["default_assets", "sweep_assets"])
def test_grid_transforms_match_dense_on_shipped_grids(preset, request):
    assets = request.getfixturevalue(preset)
    profiles = shipped_profiles(assets)
    assert np.max(route_gap(profiles, assets.grid, assets.table.momenta)) <= ROUTE_AGREEMENT


def test_grid_transforms_match_dense_on_doubled_grid(default_assets):
    # the refined momentum grid of the row-sum stability check
    momenta = default_assets.table.momenta
    fine = MomentumGrid(momenta.rho_max, 2 * momenta.n_rho)
    profiles = shipped_profiles(default_assets)
    assert np.max(route_gap(profiles, default_assets.grid, fine)) <= ROUTE_AGREEMENT


@pytest.mark.parametrize("preset", ["default_assets", "sweep_assets"])
def test_stacked_rows_transform_as_single_rows(preset, request):
    """A row's transform does not depend on the rows stacked with it, bit for bit.

    The pairing table transforms both kernels with the mode products; the
    test oracles transform other row sets and must read the same values.
    The stacks hold one row, one full block, a block and one row over, and
    default.cfg's 23 rows (the canonical grid's 12 rows repeated).
    """
    assets = request.getfixturevalue(preset)
    grid, momenta = assets.grid, assets.table.momenta
    profiles = shipped_profiles(assets)
    alone = [grid_transforms(row, grid, momenta)[0].tobytes() for row in profiles]
    for count in (1, _ROW_BLOCK, _ROW_BLOCK + 1, 23):
        rows = np.arange(count) % len(profiles)
        stacked = grid_transforms(profiles[rows], grid, momenta)
        assert [hat.tobytes() for hat in stacked] == [alone[r] for r in rows], count


def test_grid_transforms_working_set_does_not_grow_with_rows(default_assets):
    """The traced peak beside the output stays flat from 23 to 46 rows and under 3 MB.

    Blocks of rows reuse one spectrum and one product buffer.  Transforming
    all rows at once traced 7.6 MB beside default.cfg's 23-row output and
    15.0 MB beside a 46-row one.
    """
    profiles = shipped_profiles(default_assets)
    momenta = default_assets.table.momenta
    assert momenta.n_rho == 8192
    grid_transforms(profiles[0], default_assets.grid, momenta)  # numpy caches the FFT plans
    beside = []
    for stacked in (profiles, np.vstack([profiles, profiles])):
        tracemalloc.start()
        try:
            out = grid_transforms(stacked, default_assets.grid, momenta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        beside.append(peak - out.nbytes)
    assert beside[1] <= beside[0] < 3e6


@settings(max_examples=60, deadline=None)
@given(
    n_points=st.integers(16, 512),
    n_rho=st.integers(16, 512),
    width=st.floats(0.25, 4.0),
    r_extent=st.floats(4.0, 16.0),
    rho_extent=st.floats(2.0, 16.0),
    coefficients=st.lists(st.floats(-1.0, 1.0), min_size=0, max_size=4),
)
def test_grid_transforms_match_dense_on_random_grids(
    n_points, n_rho, width, r_extent, rho_extent, coefficients
):
    # grids that resolve the profile (r_max >= 4 widths) and its transform
    # (rho_max >= 2 / width); the profile is (1 + sum_k c_k x^k) e^{-x^2/2}, x = r / width
    grid = RadialGrid(r_extent * width, n_points)
    momenta = MomentumGrid(rho_extent / width, n_rho)
    x = grid.nodes / width
    polynomial = 1.0 + sum(c * x ** (k + 1) for k, c in enumerate(coefficients))
    profile = polynomial * np.exp(-(x**2) / 2.0)
    assert np.max(route_gap(profile, grid, momenta)) <= ROUTE_AGREEMENT


def test_mismatched_profile_rejected(grid, momenta):
    short = np.ones(grid.n_points - 1)
    with pytest.raises(ValidationError, match="does not match"):
        grid_transforms(short, grid, momenta)
    with pytest.raises(ValidationError, match="does not match"):
        transform_profiles(short, grid, momenta.nodes[:3])
