from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from cascadelab.checks import coefficient_checks
from cascadelab.coeffs import (
    DENSITY_PREFACTOR,
    TENSOR_MODE_CAP,
    SpectralDensity,
    assemble_prelimit_tensor,
    branch_sum,
    cauchy_transform,
    cauchy_transform_limit,
    gamma_fgr,
    lambda_hartree,
    lambda_lamb_shift,
    limit_matrix_from_tensor,
    mode_pair_transforms,
    spectral_density,
    two_mode_coefficients,
    _pair_density,
)
from cascadelab.errors import NumericalError, ValidationError
from cascadelab.grids import MomentumGrid, RadialGrid
from cascadelab.kernels import gaussian_kernel, transform_profiles
from cascadelab.spectrum import Potential, resonant_mask, solve_radial_eigenpairs


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


def test_flat_density_pv_cancels_across_window(flat_density):
    # symmetric interval: the PV part nearly cancels throughout the window
    values = [
        cauchy_transform(flat_density, lam, 1e-3).real for lam in np.linspace(0.9, 1.1, 9)
    ]
    assert np.max(np.abs(values)) < 0.25
    assert abs(cauchy_transform(flat_density, 1.0, 1e-3).real) < 1e-9


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


def test_branch_sum_matches_adaptive_quadrature(gaussian_pair_density):
    """Both branches against scipy quad of a(rho) [1/(rho - z) + 1/(rho + z)], z = mu + i eps.

    Negative and zero gaps send a branch through the exterior (pole at
    lam <= 0) route, positive gaps through the subtracted interior route.
    Measured worst relative error 2.2e-7; scaling the exterior route by
    1.01 reads 1.0e-2.

    At eps = 0 the principal values come from quad's weight="cauchy":
    S(mu, 0) = PV int a [1/(rho - |mu|) + 1/(rho + |mu|)] + i sign(mu) pi a(|mu|),
    and 2 int a / rho at mu = 0.  Measured 1.1e-8 to 2.0e-7 relative at
    nonzero gap; 2.7e-12 at zero gap, where the exterior route's end term
    removes the trapezoid's O(h^2) error (6.4e-7 without it).
    """
    a = gaussian_pair_density
    rho_max = a.momenta.rho_max

    def density(rho):
        return 4.0 * np.pi * rho**2 * np.exp(-(rho**2))

    def integral(f, **kwargs):
        return quad(f, 0.0, rho_max, limit=400, epsabs=0.0, epsrel=1e-12, **kwargs)[0]

    for mu in (0.0, 0.5, -0.5, 1.0, -1.0, 2.0):
        for eps in (1e-1, 1e-2):
            z = complex(mu, eps)

            def integrand(rho, part):
                return part(density(rho) * (1.0 / (rho - z) + 1.0 / (rho + z)))

            poles = [abs(mu)] if mu else None
            exact = complex(
                *(
                    quad(integrand, 0.0, rho_max, args=(part,), points=poles,
                         limit=400, epsabs=0.0, epsrel=1e-10)[0]
                    for part in (np.real, np.imag)
                )
            )
            assert abs(branch_sum(a, mu, eps) - exact) <= 1e-5 * abs(exact), (mu, eps)

    assert branch_sum(a, 0.0, 0.0) == pytest.approx(
        2.0 * integral(lambda rho: density(rho) / rho), rel=1e-10, abs=0.0
    )
    for mu in (0.5, -0.5, 1.0, -1.0, 2.0):
        lam = abs(mu)
        real = integral(density, weight="cauchy", wvar=lam) + integral(
            lambda rho: density(rho) / (rho + lam)
        )
        exact = complex(real, np.sign(mu) * np.pi * density(lam))
        assert abs(branch_sum(a, mu, 0.0) - exact) <= 1e-5 * abs(exact), mu


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
    ghat = w.transform * mode_pair_transforms(basis, momenta)
    worst = 0.0
    for k in range(basis.size):
        for kp in range(k + 1, basis.size):
            delta_route = gamma_fgr(basis, w, k, kp)
            a = spectral_density(ghat[k, kp], ghat[k, kp], momenta)
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
    value = lambda_lamb_shift(basis, w, 0, 1, 2, 2)
    assert value == pytest.approx(direct, rel=1e-6)


def test_lamb_shift_branches_cancel_imaginary_part(default_assets):
    basis, w = default_assets.basis, default_assets.coupling
    a = _pair_density(basis, w, 0, 1, 1, 1)
    assert branch_sum(a, 0.0, 1e-3).imag == 0.0


def test_lamb_shift_limit_matches_small_eps(default_assets):
    """At nonzero gap the eps = 0 route continues the finite-eps one.

    Within one grid eps = 1e-7 sits 1.3e-10 to 1.3e-9 (relative) from the
    limit on these cells.
    """
    basis, w = default_assets.basis, default_assets.coupling
    energies = basis.energies
    for quad in ((0, 1, 0, 1), (1, 3, 1, 3), (2, 5, 2, 5)):
        limit = lambda_lamb_shift(basis, w, *quad)
        a = _pair_density(basis, w, *quad)
        small = branch_sum(a, float(energies[quad[2]] - energies[quad[3]]), 1e-7).real
        assert abs(limit - small) / abs(limit) < 1e-8, quad


def test_lamb_shift_zero_gap_grid_doubling(default_assets):
    """Zero-gap Lamb shifts are grid-converged to O(h^4).

    The exterior route's end term takes the O(h^2) trapezoid error of
    a(rho)/rho off the cells whose density grows like rho^2 (the direct
    ones (k,k;j,j)); without it they move by 3.0e-5 absolute under doubling.
    Measured 2.5e-10 to 1.3e-9 relative.
    """
    basis, w = default_assets.basis, default_assets.coupling
    momenta = w.momenta
    fine = default_assets.kernel("coupling", MomentumGrid(momenta.rho_max, 2 * momenta.n_rho))
    for quad in ((0, 1, 2, 2), (2, 3, 4, 4), (0, 0, 1, 1), (2, 2, 4, 4)):
        coarse = lambda_lamb_shift(basis, w, *quad)
        refined = lambda_lamb_shift(basis, fine, *quad)
        assert abs(coarse - refined) / abs(refined) < 1e-8, quad


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
    """Entries (k,k') and (k',k) are assembled from their own cells and agree."""
    im_m = sweep_assets.coeffs.limit_matrix.imag
    assert np.max(np.abs(im_m - im_m.T)) < 1e-10


def test_degenerate_dressing_is_imaginary(default_assets):
    """The zero-gap cells (k,k;k',k') dress the generator with phases only."""
    coeffs = default_assets.coeffs
    dressing = -1j * (coeffs.hartree_direct - coeffs.lamb_direct)
    assert np.max(np.abs(dressing.real)) == 0.0
    assert np.max(np.abs(np.diag(dressing))) == 0.0
    assert np.max(np.abs(dressing.imag)) > 0.0


def test_tensor_shape_and_diagonal_gaps(sweep_assets):
    tensor = assemble_prelimit_tensor(
        sweep_assets.basis, sweep_assets.coupling, sweep_assets.pair, eta=0.2
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
    assert np.all(mismatch[resonant_mask(size)] == 0.0)


def test_tensor_matches_quadruple_formula(sweep_assets):
    """Every K^4 tensor entry against a plain loop over the quadruples."""
    basis, w, v = sweep_assets.basis, sweep_assets.coupling, sweep_assets.pair
    momenta = w.momenta
    phat = mode_pair_transforms(basis, momenta)
    ghat = w.transform * phat
    energies = basis.energies
    eta = 0.2
    for eps_policy in ("eta2", "limit"):
        tensor = assemble_prelimit_tensor(basis, w, v, eta, eps_policy).tensor
        worst = 0.0
        for k, kp, j, jp in np.ndindex(tensor.shape):
            a = spectral_density(ghat[k, kp], ghat[j, jp], momenta)
            mu = float(energies[j] - energies[jp])
            s = branch_sum(a, mu, 0.0 if eps_policy == "limit" else eta**2)
            har = momenta.integrate(
                DENSITY_PREFACTOR * momenta.nodes**2 * phat[k, kp] * v.transform * phat[j, jp]
            )
            expected = -1j * (har - s.real) - s.imag
            worst = max(worst, abs(tensor[k, kp, j, jp] - expected))
        assert worst < 1e-12


def test_tensor_mode_cap():
    grid = RadialGrid(12.0, 400)
    basis = solve_radial_eigenpairs(Potential.harmonic(grid), grid, TENSOR_MODE_CAP + 1)
    momenta = MomentumGrid(4.0 * float(basis.energies[-1] - basis.energies[0]), 256)
    w = gaussian_kernel("coupling", grid, momenta, 1.0, 1.0)
    v = gaussian_kernel("pair", grid, momenta, 1.0, 1.0)
    with pytest.raises(ValidationError, match="tensor"):
        assemble_prelimit_tensor(basis, w, v, eta=0.1)


def test_tensor_diagonal_converges_to_limit(sweep_assets):
    """Diagonal quadruples approach the limit entries at rate eta^2 log(1/eta)."""
    basis, w, v = sweep_assets.basis, sweep_assets.coupling, sweep_assets.pair
    limit = sweep_assets.coeffs
    idx = np.arange(limit.size)
    sign = np.sign(idx[:, None] - idx[None, :]).astype(float)
    exchange_matrix = -1j * (limit.hartree_exchange - limit.lamb_exchange) - limit.fgr * sign

    previous = np.inf
    for eta in (0.4, 0.2, 0.1, 0.05):
        tensor = assemble_prelimit_tensor(basis, w, v, eta)
        diag = tensor.tensor[idx[:, None], idx[None, :], idx[:, None], idx[None, :]]
        distance = float(np.max(np.abs(diag - exchange_matrix)))
        assert distance <= 10.0 * eta**2 * np.log(1.0 / eta)
        assert distance < previous
        previous = distance


def test_resonant_restriction_and_collapse(sweep_assets, default_assets):
    """The resonant tensor entries at eps = 0 collapse onto the limit matrix.

    The limit matrix takes its rates from gamma_fgr, the tensor from the
    on-shell part of its table.  The sweep preset's rates are ~0;
    default.cfg cascades (rates 0.12-1.91), measured at 1.2e-9 of max |M|.
    """
    for assets, bound in ((sweep_assets, 1e-11), (default_assets, 1e-8)):
        full = assemble_prelimit_tensor(
            assets.basis, assets.coupling, assets.pair, eta=0.1, eps_policy="limit"
        )
        tensor = replace(full, tensor=full.tensor * resonant_mask(full.size))
        # oscillatory entries are gone
        assert tensor.tensor[0, 1, 0, 2] == 0.0
        limit = assets.coeffs.limit_matrix
        collapsed = limit_matrix_from_tensor(tensor)
        assert np.max(np.abs(collapsed - limit)) <= bound * np.max(np.abs(limit))


def test_tensor_assembly_does_no_limit_work(sweep_assets, monkeypatch):
    """The tensor needs no golden-rule rate and no on-shell transform.

    Its cells all come from its pairing table; the limit generator's
    single-point rates are not part of it under either eps policy.
    """
    import cascadelab.coeffs as coeffs_module
    import cascadelab.kernels as kernels_module

    def forbidden(*args, **kwargs):
        raise AssertionError("limit-generator work inside the tensor assembly")

    monkeypatch.setattr(coeffs_module, "gamma_fgr", forbidden)
    monkeypatch.setattr(coeffs_module, "transform_profiles", forbidden)
    monkeypatch.setattr(kernels_module, "transform_profiles", forbidden)
    basis, w, v = sweep_assets.basis, sweep_assets.coupling, sweep_assets.pair
    for policy in ("eta2", "limit"):
        tensor = assemble_prelimit_tensor(basis, w, v, 0.1, policy)
        assert tensor.eta == 0.1
        assert tensor.tensor.shape == (basis.size,) * 4


def test_two_mode_synthetic_preset():
    coeffs = two_mode_coefficients(1.5)
    assert coeffs.limit_matrix[0, 1] == 1.5
    assert coeffs.limit_matrix[1, 0] == -1.5
    assert coeffs.limit_matrix[0, 0] == 0.0
    assert coeffs.symmetry_defects()["re_m_antisymmetry"] == 0.0
    for gamma in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValidationError, match="positive and finite"):
            two_mode_coefficients(gamma)


def test_non_finite_coefficients_rejected(sweep_assets):
    coeffs = two_mode_coefficients(1.0)
    bad = coeffs.limit_matrix.copy()
    bad[0, 1] = complex(np.nan, np.inf)
    with pytest.raises(NumericalError, match="non-finite"):
        replace(coeffs, limit_matrix=bad)
    with pytest.raises(NumericalError, match="non-finite"):
        replace(coeffs, fgr=np.full((2, 2), np.inf))
    tensor = assemble_prelimit_tensor(
        sweep_assets.basis, sweep_assets.coupling, sweep_assets.pair, eta=0.2
    )
    cells = tensor.tensor.copy()
    cells[0, 1, 0, 1] = np.nan
    with pytest.raises(NumericalError, match="non-finite"):
        replace(tensor, tensor=cells)


def test_unknown_eps_policy_rejected(sweep_assets):
    with pytest.raises(ValidationError, match="eps_policy"):
        assemble_prelimit_tensor(
            sweep_assets.basis, sweep_assets.coupling, sweep_assets.pair, 0.1, "limt"
        )


def test_sweep_preset_passes_coefficient_checks(sweep_assets):
    """convergence.cfg certifies its own coefficients, not only default.cfg.

    Its tightest record, row_sum_stability, reads 9.4e-9 against 1e-6; the
    three-point eps fit once put it at 2.8e-5.
    """
    failed = [r for r in coefficient_checks(sweep_assets) if not r["passed"]]
    assert failed == []
