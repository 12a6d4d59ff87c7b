import numpy as np
import pytest

from cascadelab.coeffs import (
    CoeffOptions,
    SpectralDensity,
    _branch_sum,
    assemble_limit_matrix,
    assemble_prelimit_tensor,
    cauchy_transform,
    cauchy_transform_limit,
    gamma_fgr,
    lambda_hartree,
    lambda_lamb_shift,
    lap_uniformity_probe,
    limit_matrix_from_tensor,
    resonant_mask,
    richardson_limit,
    spectral_density,
    two_mode_coefficients,
    _density_from_hats,
    _mode_pair_transforms,
    _pair_density,
)
from cascadelab.errors import ValidationError
from cascadelab.grids import MomentumGrid, RadialGrid
from cascadelab.kernels import gaussian_kernel, transform_profiles


@pytest.fixture(scope="module")
def flat_density():
    momenta = MomentumGrid(2.0, 4096)
    return SpectralDensity(momenta, np.ones(momenta.n_rho), zero_value=1.0)


# ---------------------------------------------------------------------------
# spectral densities
# ---------------------------------------------------------------------------


def test_gaussian_density_closed_form():
    grid = RadialGrid(12.0, 2000)
    momenta = MomentumGrid(8.0, 4096)
    fhat = fourier = np.asarray(
        transform_profiles(np.exp(-grid.nodes**2 / 2.0), grid, momenta.nodes)[0]
    )
    a = spectral_density(fhat, fhat, momenta)
    exact = 4.0 * np.pi * momenta.nodes**2 * np.exp(-momenta.nodes**2)
    assert np.max(np.abs(a.values - exact)) < 1e-12 * exact.max()
    assert np.all(a.values >= 0)


def test_density_plancherel():
    grid = RadialGrid(12.0, 2000)
    momenta = MomentumGrid(8.0, 4096)
    f = np.exp(-grid.nodes**2 / 2.0)
    g = grid.nodes**2 * np.exp(-grid.nodes**2 / 2.0)
    fhat = transform_profiles(f, grid, momenta.nodes)[0]
    ghat = transform_profiles(g, grid, momenta.nodes)[0]
    a = spectral_density(fhat, ghat, momenta)
    inner = 4.0 * np.pi * grid.integrate(f * g * grid.nodes**2)
    assert abs(a.integrate() - inner) / abs(inner) < 1e-6


def test_density_grid_mismatch():
    momenta = MomentumGrid(8.0, 64)
    with pytest.raises(ValidationError):
        spectral_density(np.ones(64), np.ones(32), momenta)


def test_density_interpolation_exact_at_nodes(gaussian_pair_density):
    a = gaussian_pair_density
    node = a.momenta.nodes[1000]
    assert a.at(float(node)) == pytest.approx(a.values[1000], rel=1e-14)
    # cubic interpolation of a smooth density is far below the grid scale
    lam = float(node) + 0.37 * a.momenta.spacing
    exact = 4.0 * np.pi * lam**2 * np.exp(-lam**2)
    assert abs(a.at(lam) - exact) / exact < 1e-10


# ---------------------------------------------------------------------------
# Cauchy transforms
# ---------------------------------------------------------------------------


def test_flat_density_closed_form_at_eps_one(flat_density):
    # for constant density the subtraction vanishes and the transform is
    # exactly the endpoint logarithm: log(1 + i) - log(-1 + i) = -i pi / 2
    value = cauchy_transform(flat_density, 1.0, 1.0)
    assert value == pytest.approx(-0.5j * np.pi, abs=1e-14)


def test_flat_density_small_eps_limit(flat_density):
    value = cauchy_transform(flat_density, 1.0, 1e-6)
    assert abs(value.real) < 1e-9  # symmetric interval kills the PV part
    assert value.imag + np.pi == pytest.approx(0.0, abs=1e-5)


def test_sokhotski_plemelj_rate(gaussian_pair_density):
    a = gaussian_pair_density
    lam = 1.0
    target = -np.pi * 4.0 * np.pi * lam**2 * np.exp(-lam**2)
    errors = {}
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        errors[eps] = abs(cauchy_transform(a, lam, eps).imag - target)
    # observed error sits under C * eps * log(1/eps) with C frozen at 10
    for eps, err in errors.items():
        assert err <= 10.0 * eps * np.log(1.0 / eps)
    assert errors[1e-4] < errors[1e-1]
    assert errors[1e-4] < 1e-3 * abs(target)


def test_cauchy_transform_limit_is_on_shell_value(gaussian_pair_density):
    a = gaussian_pair_density
    lam = 1.3
    value = cauchy_transform_limit(a, lam)
    assert value.imag == pytest.approx(-np.pi * a.at(lam), rel=1e-12)


def test_cauchy_transform_validation(gaussian_pair_density):
    a = gaussian_pair_density
    with pytest.raises(ValidationError):
        cauchy_transform(a, 1.0, 0.0)
    with pytest.raises(ValidationError):
        cauchy_transform(a, 1.0, -1e-3)
    with pytest.raises(ValidationError):
        cauchy_transform(a, 9.0, 1e-3)  # outside the grid
    with pytest.raises(ValidationError):
        cauchy_transform(a, 1e-6, 1e-3)  # inside but unresolvable fringe


def test_richardson_limit_exact_for_polynomial():
    eps = np.array([1e-2, 5e-3, 2.5e-3])
    samples = 3.5 + 2.0 * eps - 7.0 * eps**2
    assert richardson_limit(samples, eps) == pytest.approx(3.5, abs=1e-12)


# ---------------------------------------------------------------------------
# named coefficients
# ---------------------------------------------------------------------------


def test_gamma_vanishes_on_diagonal(default_assets):
    assert gamma_fgr(default_assets.basis, default_assets.coupling, 2, 2) == 0.0


def test_gamma_symmetric(default_assets):
    basis, w = default_assets.basis, default_assets.coupling
    assert gamma_fgr(basis, w, 1, 4) == gamma_fgr(basis, w, 4, 1)
    assert gamma_fgr(basis, w, 0, 3) > 0


def test_gamma_dual_route(default_assets):
    """Delta-pairing route vs the eps -> 0 resolvent route, all pairs."""
    basis, w = default_assets.basis, default_assets.coupling
    momenta = w.momenta
    ghat = w.transform * _mode_pair_transforms(basis, momenta)
    worst = 0.0
    for k in range(basis.size):
        for kp in range(k + 1, basis.size):
            delta_route = gamma_fgr(basis, w, k, kp)
            a = _density_from_hats(ghat[k, kp], ghat[k, kp], momenta)
            lam = abs(float(basis.energies[k] - basis.energies[kp]))
            resolvent_route = -cauchy_transform_limit(a, lam).imag
            worst = max(worst, abs(delta_route - resolvent_route) / max(delta_route, 1e-12))
    assert worst < 1e-6


def test_gamma_gap_beyond_grid(default_assets):
    basis = default_assets.basis
    narrow = MomentumGrid(0.05, 64)
    w = gaussian_kernel("coupling", basis.grid, narrow, amplitude=1.0, width=1.0)
    with pytest.raises(ValidationError):
        gamma_fgr(basis, w, 0, 5)


def test_lamb_shift_zero_gap_is_half_wave_moment(default_assets):
    # dE = 0 merges the branches into 2 * PV int a(rho)/rho drho, which is
    # an ordinary integral because the density vanishes like rho^2
    basis, w = default_assets.basis, default_assets.coupling
    a = _pair_density(basis, w, 0, 1, 2, 2)
    direct = 2.0 * float(
        np.dot(a.momenta.weights, np.asarray(a.values) / a.momenta.nodes)
    )
    value = lambda_lamb_shift(basis, w, 0, 1, 2, 2, mode="direct")
    assert value == pytest.approx(direct, rel=1e-6)


def test_lamb_shift_branches_cancel_imaginary_part(default_assets):
    basis, w = default_assets.basis, default_assets.coupling
    a = _pair_density(basis, w, 0, 1, 1, 1)
    assert _branch_sum(a, 0.0, 1e-3).imag == 0.0


def test_lamb_shift_extrapolation_vs_small_eps(default_assets):
    """Richardson ladder against a direct eps = 1e-4 evaluation.

    At zero gap the eps = 1e-4 value is itself within O(eps^2 log) of the
    limit, so the two routes must agree tightly.
    """
    basis, w = default_assets.basis, default_assets.coupling
    for quad in ((0, 1, 2, 2), (2, 3, 4, 4)):
        extrapolated = lambda_lamb_shift(basis, w, *quad, mode="extrapolate")
        a = _pair_density(basis, w, *quad)
        direct = _branch_sum(a, 0.0, 1e-4).real
        assert abs(extrapolated - direct) / abs(direct) < 1e-5


def test_lamb_shift_modes_consistent(default_assets):
    basis, w = default_assets.basis, default_assets.coupling
    extrapolated = lambda_lamb_shift(basis, w, 0, 1, 0, 1, mode="extrapolate")
    direct = lambda_lamb_shift(basis, w, 0, 1, 0, 1, mode="direct")
    assert abs(extrapolated - direct) / abs(direct) < 2e-4


def test_hartree_symmetries(natural_basis):
    grid = natural_basis.grid
    momenta = MomentumGrid(8.0, 2048)
    v = gaussian_kernel("pair", grid, momenta, amplitude=1.0, width=1.0)
    base = lambda_hartree(natural_basis, v, 0, 2, 1, 3)
    assert lambda_hartree(natural_basis, v, 2, 0, 1, 3) == pytest.approx(base, rel=1e-12)
    assert lambda_hartree(natural_basis, v, 0, 2, 3, 1) == pytest.approx(base, rel=1e-12)


def test_hartree_zero_kernel(natural_basis):
    grid = natural_basis.grid
    momenta = MomentumGrid(8.0, 2048)
    v = gaussian_kernel("pair", grid, momenta, amplitude=0.0, width=1.0)
    assert lambda_hartree(natural_basis, v, 0, 1, 0, 1) == 0.0


def test_hartree_narrow_kernel_approaches_overlap(natural_basis, default_assets):
    grid = natural_basis.grid
    r2 = grid.nodes**2
    overlap = 4.0 * np.pi * grid.integrate(
        natural_basis.modes[0] * natural_basis.modes[1] ** 2 * natural_basis.modes[2] * r2
    )

    def relerr(width):
        momenta = MomentumGrid(4.0 / width, 4096)
        amp = (2.0 * np.pi * width**2) ** -1.5  # unit-integral kernel
        v = gaussian_kernel("pair", grid, momenta, amplitude=amp, width=width)
        return abs(lambda_hartree(natural_basis, v, 0, 1, 1, 2) - overlap) / abs(overlap)

    # O(width^2) convergence on the natural-unit basis
    assert relerr(0.05) < relerr(0.2) / 4.0

    # on the default (soft) basis the 1% target at width 0.05 is comfortable
    soft = default_assets.basis
    soft_overlap = 4.0 * np.pi * soft.grid.integrate(
        soft.modes[0] * soft.modes[1] ** 2 * soft.modes[2] * soft.grid.nodes**2
    )
    momenta = MomentumGrid(80.0, 8192)
    amp = (2.0 * np.pi * 0.05**2) ** -1.5
    v = gaussian_kernel("pair", soft.grid, momenta, amplitude=amp, width=0.05)
    soft_value = lambda_hartree(soft, v, 0, 1, 1, 2)
    assert abs(soft_value - soft_overlap) / abs(soft_overlap) < 0.01


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_limit_matrix_structure(default_assets):
    coeffs = default_assets.coeffs
    defects = coeffs.symmetry_defects()
    assert defects["re_m_diagonal"] == 0.0
    assert defects["re_m_antisymmetry"] == 0.0
    assert defects["fgr_symmetry"] == 0.0
    assert defects["fgr_diagonal"] == 0.0
    assert defects["fgr_negativity"] == 0.0
    assert np.isfinite(defects["im_m_max"])
    # the stored component matrices reproduce the matrix exactly
    idx = np.arange(coeffs.size)
    sign = np.sign(idx[:, None] - idx[None, :]).astype(float)
    rebuilt = -1j * (coeffs.hartree - coeffs.lamb) - coeffs.fgr * sign
    assert np.array_equal(rebuilt, coeffs.limit_matrix)


def test_limit_matrix_fgr_entries_match_operation(default_assets):
    coeffs = default_assets.coeffs
    basis, w = default_assets.basis, default_assets.coupling
    assert coeffs.fgr[1, 3] == gamma_fgr(basis, w, 1, 3)


def test_assembly_symmetry_exploitation_consistent(sweep_assets):
    brute_options = CoeffOptions(exploit_symmetry=False)
    brute = assemble_limit_matrix(
        sweep_assets.basis, sweep_assets.coupling, sweep_assets.pair, brute_options
    )
    assert np.max(np.abs(brute.limit_matrix - sweep_assets.coeffs.limit_matrix)) < 1e-10


def test_pi_convention_flag(sweep_assets):
    with_pi = sweep_assets.coeffs
    bare = assemble_limit_matrix(
        sweep_assets.basis,
        sweep_assets.coupling,
        sweep_assets.pair,
        CoeffOptions(pi_convention=False),
    )
    ratio = with_pi.fgr[0, 1] / bare.fgr[0, 1]
    assert ratio == pytest.approx(np.pi, rel=1e-12)
    assert bare.fgr_pi_convention is False


def test_degenerate_dressing_is_imaginary(default_assets):
    coeffs = default_assets.coeffs
    without = assemble_limit_matrix(
        default_assets.basis,
        default_assets.coupling,
        default_assets.pair,
        CoeffOptions(include_degenerate=False),
    )
    difference = coeffs.limit_matrix - without.limit_matrix
    assert np.max(np.abs(difference.real)) == 0.0
    assert np.max(np.abs(np.diag(difference))) == 0.0
    assert np.max(np.abs(difference.imag)) > 0.0


def test_tensor_shape_and_diagonal_gaps(sweep_assets):
    tensor = assemble_prelimit_tensor(
        sweep_assets.basis, sweep_assets.coupling, sweep_assets.pair, eta=0.2,
        options=sweep_assets.coeff_options,
    )
    size = sweep_assets.basis.size
    assert tensor.tensor.shape == (size,) * 4
    assert tensor.tensor.size == size**4
    energies = sweep_assets.basis.energies
    assert np.array_equal(tensor.energies, energies - energies[0])
    gaps = tensor.energies[:, None] - tensor.energies[None, :]
    mismatch = gaps[:, :, None, None] - gaps[None, None, :, :]
    for k in range(size):
        for kp in range(size):
            assert mismatch[k, kp, k, kp] == 0.0
    # every quadruple the resonant mask keeps has an identically zero phase
    assert np.all(mismatch[resonant_mask(size) == 1.0] == 0.0)


def test_tensor_mode_cap():
    from cascadelab import Assets, SimulationConfig

    config = SimulationConfig.convergence()
    assets = Assets(config)
    options = CoeffOptions(tensor_mode_cap=3)
    with pytest.raises(ValidationError, match="tensor"):
        assemble_prelimit_tensor(
            assets.basis, assets.coupling, assets.pair, eta=0.1, options=options
        )


def test_tensor_diagonal_converges_to_limit(sweep_assets):
    """Diagonal quadruples approach the limit entries at rate eta^2 log(1/eta)."""
    basis, w, v = sweep_assets.basis, sweep_assets.coupling, sweep_assets.pair
    options = sweep_assets.coeff_options
    limit = sweep_assets.coeffs
    idx = np.arange(limit.size)
    sign = np.sign(idx[:, None] - idx[None, :]).astype(float)
    exchange_matrix = -1j * (limit.hartree_exchange - limit.lamb_exchange) - limit.fgr * sign

    previous = np.inf
    for eta in (0.4, 0.2, 0.1, 0.05):
        tensor = assemble_prelimit_tensor(basis, w, v, eta, options)
        diag = tensor.tensor[idx[:, None], idx[None, :], idx[:, None], idx[None, :]]
        distance = float(np.max(np.abs(diag - exchange_matrix)))
        assert distance <= 10.0 * eta**2 * np.log(1.0 / eta)
        assert distance < previous
        previous = distance


def test_resonant_restriction_and_collapse(sweep_assets):
    options = CoeffOptions(eps_policy="limit", tensor_restriction="resonant")
    tensor = assemble_prelimit_tensor(
        sweep_assets.basis, sweep_assets.coupling, sweep_assets.pair, eta=0.1,
        options=options,
    )
    # oscillatory entries are gone
    assert tensor.tensor[0, 1, 0, 2] == 0.0
    # collapsing the resonant entries at extrapolated eps recovers the
    # assembled limit matrix
    collapsed = limit_matrix_from_tensor(tensor)
    assert np.max(np.abs(collapsed - tensor.limit_matrix)) < 1e-10


def test_two_mode_synthetic_preset():
    coeffs = two_mode_coefficients(1.5)
    assert coeffs.limit_matrix[0, 1] == 1.5
    assert coeffs.limit_matrix[1, 0] == -1.5
    assert coeffs.limit_matrix[0, 0] == 0.0
    assert coeffs.symmetry_defects()["re_m_antisymmetry"] == 0.0
    with pytest.raises(ValidationError):
        two_mode_coefficients(0.0)


# ---------------------------------------------------------------------------
# uniformity probes
# ---------------------------------------------------------------------------


def test_lap_probe_gaussian_density(gaussian_pair_density):
    report = lap_uniformity_probe(
        gaussian_pair_density, (0.5, 2.0), (1.0, 1e-1, 1e-2, 1e-3, 1e-4)
    )
    assert report.growth_ratio < 10.0
    assert not report.flagged
    assert np.isfinite(report.holder_quotient)


def test_lap_probe_constant_density(flat_density):
    report = lap_uniformity_probe(flat_density, (0.9, 1.1), (1e-2, 1e-3))
    # symmetric interval: the PV part nearly cancels throughout the window
    values = [
        cauchy_transform(flat_density, lam, 1e-3).real for lam in np.linspace(0.9, 1.1, 9)
    ]
    assert np.max(np.abs(values)) < 0.25
    assert abs(cauchy_transform(flat_density, 1.0, 1e-3).real) < 1e-9
    assert report.holder_quotient == pytest.approx(0.0, abs=1e-12)


def test_lap_probe_empty_eps(gaussian_pair_density):
    report = lap_uniformity_probe(gaussian_pair_density, (0.5, 2.0), ())
    assert report.is_empty
    assert not report.flagged
