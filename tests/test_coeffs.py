import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from cascadelab.checks import coefficient_checks
from cascadelab.config import SimulationConfig, parse_config
from cascadelab.coeffs import (
    DENSITY_PREFACTOR,
    TENSOR_MODE_CAP,
    SpectralDensity,
    _extended_grid,
    assemble_limit_matrix,
    assemble_prelimit_tensor,
    branch_sum,
    branch_weights,
    cauchy_transform,
    gamma_fgr,
    pairing_table,
    prelimit_eps,
    spectral_density,
    two_mode_coefficients,
)
from cascadelab.errors import NumericalError, ValidationError
from cascadelab.grids import MomentumGrid, RadialGrid
from cascadelab.kernels import gaussian_kernel, transform_profiles
from cascadelab.pipeline import Assets
from cascadelab.spectrum import Potential, resonant_mask, solve_radial_eigenpairs

from oracles import (
    _pair_density,
    density_at,
    lambda_hartree,
    lambda_lamb_shift,
    limit_matrix_from_tensor,
    pair_transforms,
    resonant_limit_cells,
)


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
    assert density_at(a, float(node)) == pytest.approx(a.values[1000], rel=1e-14)
    # cubic interpolation of a smooth density is far below the grid scale
    lam = float(node) + 0.37 * a.momenta.spacing
    exact = 4.0 * np.pi * lam**2 * np.exp(-lam**2)
    assert abs(density_at(a, lam) - exact) / exact < 1e-10


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
    value = cauchy_transform(a, lam, 0.0)
    assert value.imag == pytest.approx(-np.pi * density_at(a, lam), rel=1e-12)


def test_cauchy_transform_validation(gaussian_pair_density):
    a = gaussian_pair_density
    assert np.isfinite(cauchy_transform(a, 1.0, 0.0))  # the eps -> 0 limit
    for eps in (-1e-3, np.inf, np.nan):
        with pytest.raises(ValidationError, match="eps"):
            cauchy_transform(a, 1.0, eps)
    with pytest.raises(ValidationError):
        cauchy_transform(a, 9.0, 1e-3)  # outside the grid
    with pytest.raises(ValidationError):
        cauchy_transform(a, 1e-6, 1e-3)  # inside but unresolvable fringe


def test_negative_zero_eps_is_the_upper_edge(gaussian_pair_density):
    """eps = -0.0 gives the eps = +0.0 result bit for bit, on-shell sign included."""
    a = gaussian_pair_density
    for route in (
        lambda eps: cauchy_transform(a, 1.3, eps),
        lambda eps: branch_sum(a, 1.3, eps),
        lambda eps: next(branch_weights(a.momenta, [1.3], eps)),
    ):
        plus, minus = np.asarray(route(0.0)), np.asarray(route(-0.0))
        assert plus.tobytes() == minus.tobytes()
    assert cauchy_transform(a, 1.3, -0.0).imag < 0.0


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
    basis, w, table = default_assets.basis, default_assets.coupling, default_assets.table
    momenta = table.momenta
    ghat = table.ghat[table.index]
    worst = 0.0
    for k in range(basis.size):
        for kp in range(k + 1, basis.size):
            delta_route = gamma_fgr(basis, w, k, kp)
            a = spectral_density(ghat[k, kp], ghat[k, kp], momenta)
            lam = abs(float(basis.energies[k] - basis.energies[kp]))
            resolvent_route = -cauchy_transform(a, lam, 0.0).imag
            worst = max(worst, abs(delta_route - resolvent_route) / max(delta_route, 1e-12))
    assert worst < 1e-6


def test_gamma_gap_beyond_grid(default_assets):
    """A gap beyond the momentum grid fails where a grid is read: building the table.

    ``gamma_fgr`` reads none (its dense transform is exact at any rho), so it
    still gives that gap's rate.
    """
    basis, w, v = default_assets.basis, default_assets.coupling, default_assets.pair
    with pytest.raises(ValidationError, match="beyond the momentum cutoff"):
        pairing_table(basis, w, v, MomentumGrid(0.05, 64))
    assert gamma_fgr(basis, w, 0, 5) > 0.0


def test_lamb_shift_zero_gap_is_half_wave_moment(default_assets):
    # dE = 0 merges the branches into 2 * PV int a(rho)/rho drho, which is
    # an ordinary integral because the density vanishes like rho^2
    basis, w, momenta = default_assets.basis, default_assets.coupling, default_assets.table.momenta
    a = _pair_density(basis, w, momenta, 0, 1, 2, 2)
    direct = 2.0 * float(
        np.dot(a.momenta.weights, np.asarray(a.values) / a.momenta.nodes)
    )
    value = lambda_lamb_shift(basis, w, momenta, 0, 1, 2, 2)
    assert value == pytest.approx(direct, rel=1e-6)


def test_lamb_shift_branches_cancel_imaginary_part(default_assets):
    basis, w, momenta = default_assets.basis, default_assets.coupling, default_assets.table.momenta
    a = _pair_density(basis, w, momenta, 0, 1, 1, 1)
    assert branch_sum(a, 0.0, 1e-3).imag == 0.0


def test_lamb_shift_limit_matches_small_eps(default_assets):
    """At nonzero gap the eps = 0 route continues the finite-eps one.

    Within one grid eps = 1e-7 sits 1.3e-10 to 1.3e-9 (relative) from the
    limit on these cells.
    """
    basis, w, momenta = default_assets.basis, default_assets.coupling, default_assets.table.momenta
    energies = basis.energies
    for quad in ((0, 1, 0, 1), (1, 3, 1, 3), (2, 5, 2, 5)):
        limit = lambda_lamb_shift(basis, w, momenta, *quad)
        a = _pair_density(basis, w, momenta, *quad)
        small = branch_sum(a, float(energies[quad[2]] - energies[quad[3]]), 1e-7).real
        assert abs(limit - small) / abs(limit) < 1e-8, quad


def test_lamb_shift_zero_gap_grid_doubling(default_assets):
    """Zero-gap Lamb shifts are grid-converged to O(h^4).

    The exterior route's end term takes the O(h^2) trapezoid error of
    a(rho)/rho off the cells whose density grows like rho^2 (the direct
    ones (k,k;j,j)); without it they move by 3.0e-5 absolute under doubling.
    Measured 2.5e-10 to 1.3e-9 relative.
    """
    basis, w, momenta = default_assets.basis, default_assets.coupling, default_assets.table.momenta
    fine = MomentumGrid(momenta.rho_max, 2 * momenta.n_rho)
    for quad in ((0, 1, 2, 2), (2, 3, 4, 4), (0, 0, 1, 1), (2, 2, 4, 4)):
        coarse = lambda_lamb_shift(basis, w, momenta, *quad)
        refined = lambda_lamb_shift(basis, w, fine, *quad)
        assert abs(coarse - refined) / abs(refined) < 1e-8, quad


def test_hartree_symmetries(natural_basis):
    grid = natural_basis.grid
    momenta = MomentumGrid(8.0, 2048)
    v = gaussian_kernel("pair", grid, amplitude=1.0, width=1.0)
    base = lambda_hartree(natural_basis, v, momenta, 0, 2, 1, 3)
    assert lambda_hartree(natural_basis, v, momenta, 2, 0, 1, 3) == pytest.approx(base, rel=1e-12)
    assert lambda_hartree(natural_basis, v, momenta, 0, 2, 3, 1) == pytest.approx(base, rel=1e-12)


def test_hartree_zero_kernel(natural_basis):
    grid = natural_basis.grid
    momenta = MomentumGrid(8.0, 2048)
    v = gaussian_kernel("pair", grid, amplitude=0.0, width=1.0)
    assert lambda_hartree(natural_basis, v, momenta, 0, 1, 0, 1) == 0.0


def test_hartree_narrow_kernel_approaches_overlap(natural_basis, default_assets):
    grid = natural_basis.grid
    r2 = grid.nodes**2
    overlap = 4.0 * np.pi * grid.integrate(
        natural_basis.modes[0] * natural_basis.modes[1] ** 2 * natural_basis.modes[2] * r2
    )

    def relerr(width):
        momenta = MomentumGrid(4.0 / width, 4096)
        amp = (2.0 * np.pi * width**2) ** -1.5  # unit-integral kernel
        v = gaussian_kernel("pair", grid, amplitude=amp, width=width)
        return abs(lambda_hartree(natural_basis, v, momenta, 0, 1, 1, 2) - overlap) / abs(overlap)

    # O(width^2) convergence on the natural-unit basis
    assert relerr(0.05) < relerr(0.2) / 4.0

    # on the default (soft) basis the 1% target at width 0.05 is comfortable
    soft = default_assets.basis
    soft_overlap = 4.0 * np.pi * soft.grid.integrate(
        soft.modes[0] * soft.modes[1] ** 2 * soft.modes[2] * soft.grid.nodes**2
    )
    momenta = MomentumGrid(80.0, 8192)
    amp = (2.0 * np.pi * 0.05**2) ** -1.5
    v = gaussian_kernel("pair", soft.grid, amplitude=amp, width=0.05)
    soft_value = lambda_hartree(soft, v, momenta, 0, 1, 1, 2)
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
    # entry by entry, the upper mode of each pair loses mass to the lower one at its rate
    m = coeffs.limit_matrix
    for k in range(coeffs.size):
        assert m[k, k].real == 0.0
        for kp in range(k):
            assert m[k, kp].real == -coeffs.fgr[k, kp] < 0.0
            assert m[kp, k].real == coeffs.fgr[k, kp]


@pytest.mark.parametrize("name, calls", [("default_assets", 16), ("sweep_assets", 7)])
def test_assembly_builds_one_weight_vector_per_distinct_gap(request, monkeypatch, name, calls):
    """Each assembly builds K(K-1)/2 + 1 branch weight vectors, not K^2, on one extended grid.

    One per gap E_j - E_j' with j < j', and one W(0) shared by the K
    zero-gap cells; the cells with j > j' are the conjugates of their
    mirrors and need no weights of their own.
    """
    import cascadelab.coeffs as coeffs_module

    assets = request.getfixturevalue(name)
    basis, table = assets.basis, assets.table
    assert basis.size * (basis.size - 1) // 2 + 1 == calls
    gaps, grids = [], []

    def counted(momenta, mus, eps):
        for mu, weights in zip(mus, branch_weights(momenta, mus, eps), strict=True):
            gaps.append(mu)
            yield weights

    def extended(momenta):
        grids.append(momenta)
        return _extended_grid(momenta)

    monkeypatch.setattr(coeffs_module, "branch_weights", counted)
    monkeypatch.setattr(coeffs_module, "_extended_grid", extended)
    assemble_limit_matrix(table)
    assert len(gaps) == calls
    assert sorted(set(gaps)) == sorted(gaps)  # no gap is weighted twice
    assert grids == [table.momenta]
    gaps.clear()
    grids.clear()
    assemble_prelimit_tensor(table, 0.1)
    assert len(gaps) == calls
    assert grids == [table.momenta]


@pytest.fixture
def transform_calls(monkeypatch):
    """The profile counts of every ``grid_transforms`` call, wherever the package binds it."""
    import cascadelab.kernels as kernels_module

    original = kernels_module.grid_transforms
    calls = []

    def counted(profiles, grid, momenta):
        calls.append(len(np.atleast_2d(profiles)))
        return original(profiles, grid, momenta)

    for name, module in list(sys.modules.items()):
        if name.startswith("cascadelab") and getattr(module, "grid_transforms", None) is original:
            monkeypatch.setattr(module, "grid_transforms", counted)
    return calls


def test_kernels_transform_nothing_and_each_assembly_makes_one_pass(sweep_assets, transform_calls):
    """Building a kernel computes nothing.  The pairing table transforms the
    coupling profile, the pair profile and the K(K+1)/2 mode products in one
    pass, and the assemblies that read it transform nothing."""
    basis, grid, momenta = sweep_assets.basis, sweep_assets.grid, sweep_assets.table.momenta
    transform_calls.clear()  # reading the session's table may have built it
    coupling = gaussian_kernel("coupling", grid, 1.0, 1.0)
    pair = gaussian_kernel("pair", grid, 1.0, 1.0)
    assert transform_calls == []
    table = pairing_table(basis, coupling, pair, momenta)
    assert transform_calls == [2 + basis.size * (basis.size + 1) // 2]
    for eta in (0.2, 0.1):
        assemble_prelimit_tensor(table, eta)
    assemble_limit_matrix(table)
    assert transform_calls == [2 + basis.size * (basis.size + 1) // 2]
    transform_calls.clear()
    Assets(SimulationConfig.convergence()).coeffs
    assert transform_calls == [2 + basis.size * (basis.size + 1) // 2]


def _table_rows(config: SimulationConfig) -> int:
    """Rows of the configured pairing table's transform pass: both kernels and K(K+1)/2 products."""
    modes = config.trap.modes
    return 2 + modes * (modes + 1) // 2


@pytest.mark.parametrize(
    "command, name, tables",
    [
        pytest.param("coeffs", "default", ["default"], id="coeffs"),
        pytest.param("evolve", "default", ["default"], id="evolve"),
        pytest.param("converge", "convergence", ["convergence"], id="converge"),
        # two canonical runs, then the configured table and its 2 n_rho refinement
        pytest.param(
            "check", "default", ["convergence", "convergence", "default", "default"], id="check"
        ),
    ],
)
@pytest.mark.parametrize("cpus", [2, 1], ids=["pool", "in_process"])
def test_each_command_builds_its_tables_once(
    tmp_path, transform_calls, usable_cpus, cpus, command, name, tables
):
    """Transform passes per command, counted through ``cli.main``.

    Every pass builds a pairing table; the limit matrix and every eta's
    tensor read one.  With the pool on, the count is this process's; on one
    CPU the per-eta solves run here too and add none, so workers, which run
    the same per-eta function, make none either.
    """
    from cascadelab.cli import main

    usable_cpus(cpus)
    configs = Path(__file__).resolve().parents[1] / "configs"
    args = [command, "--config", str(configs / f"{name}.cfg"), "--out", str(tmp_path / "o")]
    assert main(args) == 0
    expected = [_table_rows(parse_config(str(configs / f"{t}.cfg"))) for t in tables]
    assert transform_calls == expected


def test_limit_matrix_fgr_entries_match_operation(default_assets):
    """Every assembled rate is the scalar eps = 0 resolvent route's on-shell part."""
    coeffs, table = default_assets.coeffs, default_assets.table
    basis = table.basis
    ghat = table.ghat[table.index]
    for k in range(basis.size):
        for kp in range(k + 1, basis.size):
            a = spectral_density(ghat[k, kp], ghat[k, kp], table.momenta)
            lam = abs(float(basis.energies[k] - basis.energies[kp]))
            resolvent_route = -cauchy_transform(a, lam, 0.0).imag
            assert abs(coeffs.fgr[k, kp] - resolvent_route) <= 1e-12 * resolvent_route, (k, kp)


def test_assembly_symmetry_exploitation_consistent(sweep_assets):
    """Im M is symmetric to rounding.

    The (k',k) exchange cell is the exact conjugate of (k,k'), so the gap
    measures the direct cells (k,k;k',k') against (k',k';k,k) and the
    mean-field table, not the exchange cells.
    """
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
    tensor = assemble_prelimit_tensor(sweep_assets.table, eta=0.2)
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
    basis, momenta = sweep_assets.basis, sweep_assets.table.momenta
    what, vhat, phat = pair_transforms(basis, momenta, sweep_assets.coupling, sweep_assets.pair)
    ghat = what * phat
    energies = basis.energies
    eta = 0.2
    tensor = assemble_prelimit_tensor(sweep_assets.table, eta).tensor
    worst = 0.0
    for k, kp, j, jp in np.ndindex(tensor.shape):
        a = spectral_density(ghat[k, kp], ghat[j, jp], momenta)
        mu = float(energies[j] - energies[jp])
        s = branch_sum(a, mu, eta**2)
        har = momenta.integrate(
            DENSITY_PREFACTOR * momenta.nodes**2 * phat[k, kp] * vhat * phat[j, jp]
        )
        expected = -1j * (har - s.real) - s.imag
        worst = max(worst, abs(tensor[k, kp, j, jp] - expected))
    assert worst < 1e-12


def test_tensor_mode_cap():
    grid = RadialGrid(12.0, 400)
    basis = solve_radial_eigenpairs(Potential.harmonic(grid), TENSOR_MODE_CAP + 1)
    momenta = MomentumGrid(4.0 * float(basis.energies[-1] - basis.energies[0]), 256)
    w = gaussian_kernel("coupling", grid, 1.0, 1.0)
    v = gaussian_kernel("pair", grid, 1.0, 1.0)
    table = pairing_table(basis, w, v, momenta)
    with pytest.raises(ValidationError, match="tensor"):
        assemble_prelimit_tensor(table, eta=0.1)


def test_prelimit_eps_is_eta_squared():
    """eps = eta^2 bit for bit wherever eta^2 is a positive finite float, a subnormal one
    included; an eta whose square underflows to zero or overflows is rejected."""
    for eta in (0.2, 0.1, 0.05, 1e-160):
        assert prelimit_eps(eta) == eta**2
    for eta in (0.0, -0.1, 1e-200, 1e155):
        with pytest.raises(ValidationError, match=r"eta\^2 positive and finite"):
            prelimit_eps(eta)


def test_assembly_rejects_kernels_on_different_grids(sweep_assets):
    """The kernels and the basis share one radial grid; the table owns the momentum grid."""
    basis, w, v = sweep_assets.basis, sweep_assets.coupling, sweep_assets.pair
    momenta, config = sweep_assets.table.momenta, sweep_assets.config
    coarse = RadialGrid(basis.grid.r_max, basis.grid.n_points // 2)
    shifted = [(config.kernel("coupling", coarse), v), (w, config.kernel("pair", coarse))]
    for coupling, pair in shifted:
        with pytest.raises(ValidationError, match="different grids"):
            pairing_table(basis, coupling, pair, momenta)
    # equal grids built apart are the same grid
    twin = config.kernel("pair", RadialGrid(basis.grid.r_max, basis.grid.n_points))
    table = pairing_table(basis, w, twin, MomentumGrid(momenta.rho_max, momenta.n_rho))
    assert np.array_equal(
        assemble_limit_matrix(table).limit_matrix, sweep_assets.coeffs.limit_matrix
    )


def test_tensor_diagonal_converges_to_limit(sweep_assets):
    """Diagonal quadruples approach the limit entries at rate eta^2 log(1/eta)."""
    limit = sweep_assets.coeffs
    idx = np.arange(limit.size)
    sign = np.sign(idx[:, None] - idx[None, :]).astype(float)
    exchange_matrix = -1j * (limit.hartree_exchange - limit.lamb_exchange) - limit.fgr * sign

    previous = np.inf
    for eta in (0.4, 0.2, 0.1, 0.05):
        tensor = assemble_prelimit_tensor(sweep_assets.table, eta)
        diag = tensor.tensor[idx[:, None], idx[None, :], idx[:, None], idx[None, :]]
        distance = float(np.max(np.abs(diag - exchange_matrix)))
        assert distance <= 10.0 * eta**2 * np.log(1.0 / eta)
        assert distance < previous
        previous = distance


def test_resonant_restriction_and_collapse(sweep_assets, default_assets):
    """The resonant tensor cells at eps = 0 collapse onto the limit matrix.

    The cells come one quadruple at a time from the scalar branch sum and
    Hartree quadrature, not from a pairing table, yet they take the same
    on-shell rates, so they agree to rounding.  The sweep preset's rates
    are ~0; default.cfg cascades (rates 0.12-1.91), measured at 4e-16 of
    max |M|.
    """
    for assets, bound in ((sweep_assets, 1e-11), (default_assets, 1e-12)):
        momenta = assets.table.momenta
        cells = resonant_limit_cells(assets.basis, assets.coupling, assets.pair, momenta)
        # oscillatory entries are absent
        assert cells[0, 1, 0, 2] == 0.0
        limit = assets.coeffs.limit_matrix
        collapsed = limit_matrix_from_tensor(cells)
        assert np.max(np.abs(collapsed - limit)) <= bound * np.max(np.abs(limit))


def test_tensor_assembly_does_no_limit_work(sweep_assets, tmp_path, monkeypatch):
    """Production runs no oracle code.

    Every cell, the golden-rule rates of the limit matrix included, comes
    from the pairing table on the chirp-z transforms.  The single-point
    on-shell route (``gamma_fgr`` and the dense sinc quadrature), the
    real-space convolution and the scalar density and Cauchy routes serve
    ``check`` and the tests only: both assemblies, and ``coeffs``, ``evolve``
    and ``converge`` on the shipped configs, run with each of them stubbed out
    wherever the package binds it.
    """
    import cascadelab.checks as checks_module
    import cascadelab.coeffs as coeffs_module
    import cascadelab.kernels as kernels_module
    from cascadelab.cli import main

    def forbidden(*args, **kwargs):
        raise AssertionError("oracle work in a production run")

    oracles = (
        "gamma_fgr",
        "transform_profiles",
        "radial_convolution",
        "branch_sum",
        "cauchy_transform",
        "spectral_density",
    )
    for module in (coeffs_module, kernels_module, checks_module):
        for name in oracles:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    basis, w, v = sweep_assets.basis, sweep_assets.coupling, sweep_assets.pair
    table = pairing_table(basis, w, v, sweep_assets.table.momenta)
    tensor = assemble_prelimit_tensor(table, 0.1)
    assert tensor.eta == 0.1
    assert tensor.tensor.shape == (basis.size,) * 4
    limit = coeffs_module.assemble_limit_matrix(table)
    assert limit.fgr.shape == (basis.size, basis.size)

    configs = Path(__file__).resolve().parents[1] / "configs"
    for command, name in (("coeffs", "default"), ("evolve", "default"), ("converge", "convergence")):
        out = tmp_path / command
        assert main([command, "--config", str(configs / f"{name}.cfg"), "--out", str(out)]) == 0


def test_two_mode_synthetic_preset():
    coeffs = two_mode_coefficients()
    assert coeffs.limit_matrix[0, 1] == 1.0
    assert coeffs.limit_matrix[1, 0] == -1.0
    assert coeffs.limit_matrix[0, 0] == 0.0
    assert coeffs.symmetry_defects()["re_m_antisymmetry"] == 0.0


def test_non_finite_coefficients_rejected(sweep_assets):
    coeffs = two_mode_coefficients()
    assert [f.name for f in fields(coeffs)] == [
        "fgr",
        "hartree_exchange",
        "hartree_direct",
        "lamb_exchange",
        "lamb_direct",
    ]
    for part in fields(coeffs):
        for value in (np.nan, np.inf):
            bad = np.zeros((2, 2))
            bad[0, 1] = value
            with pytest.raises(NumericalError, match="non-finite"):
                replace(coeffs, **{part.name: bad})
    tensor = assemble_prelimit_tensor(sweep_assets.table, eta=0.2)
    cells = tensor.tensor.copy()
    cells[0, 1, 0, 1] = np.nan
    with pytest.raises(NumericalError, match="non-finite"):
        replace(tensor, tensor=cells)


def test_sweep_preset_passes_coefficient_checks(sweep_assets):
    """convergence.cfg certifies its own coefficients, not only default.cfg.

    Its tightest record, row_sum_stability, reads 9.4e-9 against 1e-6; the
    three-point eps fit once put it at 2.8e-5.
    """
    failed = [r for r in coefficient_checks(sweep_assets) if not r["passed"]]
    assert failed == []


def test_zero_coupling_coefficient_checks_are_finite_and_quiet():
    """default.cfg with no photon coupling: every record is a finite number.

    Its Lamb shifts and both Plancherel sides vanish, so the relative
    records fall back to an absolute floor of 1e-12, as dual_route_fgr
    does, rather than dividing by zero.
    """
    config = parse_config(str(Path(__file__).resolve().parents[1] / "configs" / "default.cfg"))
    config.kernels.coupling_amplitude = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = coefficient_checks(Assets(config))
    measured = {r["name"]: r["measured"] for r in records}
    assert all(np.isfinite(value) for value in measured.values()), measured
    assert measured["plancherel"] == 0.0
    assert measured["lamb_dual_route"] == 0.0
