import itertools
from dataclasses import fields

import numpy as np
import pytest

import cascadelab.spectrum as spectrum
from cascadelab.errors import ValidationError
from cascadelab.grids import RadialGrid
from cascadelab.spectrum import (
    GAP_TOL,
    Potential,
    check_gap_independence,
    mode_product,
    solve_radial_eigenpairs,
)

HARMONIC_LEVELS = 4.0 * np.arange(6) + 3.0  # s-wave levels of -Lap + r^2


def test_harmonic_oracle_small(harmonic_basis):
    # V = r^2, r_max = 12, n = 2000: lowest three levels are 3, 7, 11
    rel = np.abs(harmonic_basis.energies[:3] - HARMONIC_LEVELS[:3]) / HARMONIC_LEVELS[:3]
    assert np.max(rel) < 1e-6


def test_harmonic_oracle_six_modes(harmonic_basis):
    rel = np.abs(harmonic_basis.energies - HARMONIC_LEVELS) / HARMONIC_LEVELS
    assert np.max(rel) < 1e-6


def test_anharmonic_energies_stable_under_doubling():
    grid = RadialGrid(12.0, 1200)
    basis = solve_radial_eigenpairs(Potential.anharmonic(grid, beta=0.2), 6)
    fine_grid = RadialGrid(12.0, 2400)
    fine = solve_radial_eigenpairs(Potential.anharmonic(fine_grid, beta=0.2), 6)
    assert np.all(np.diff(basis.energies) > 0)
    assert np.max(np.abs(basis.energies - fine.energies) / fine.energies) < 1e-6


def test_eigensolve_runs_on_the_potential_grid():
    """The solve reads its grid off the potential, which no second argument can contradict.

    With a same-sized grid of r_max = 16 passed next to this potential, the
    eigensolver once returned E_0 = 2.249 for this trap instead of 3.539.
    """
    grid = RadialGrid(12.0, 1600)
    basis = solve_radial_eigenpairs(Potential.anharmonic(grid, beta=0.2), 4)
    assert basis.grid is grid
    assert basis.energies[0] == pytest.approx(3.539, abs=1e-3)


def test_tabulated_trap_solves_like_the_analytic_one():
    """A table of the anharmonic trap's values gives the same basis, bit for bit.

    Both Richardson 2h solves read the fine values at the odd-indexed nodes.
    A potential holds only its grid and samples, whichever constructor made it.
    """
    grid = RadialGrid(12.0, 1200)
    analytic = Potential.anharmonic(grid, beta=0.2, scale=1.3)
    table = Potential(grid, analytic.values.copy())
    assert [f.name for f in fields(table)] == ["grid", "values"]
    a = solve_radial_eigenpairs(analytic, 6)
    b = solve_radial_eigenpairs(table, 6)
    assert np.array_equal(a.energies, b.energies)
    assert np.array_equal(a.modes, b.modes)


def test_mode_count_dimension_error():
    grid = RadialGrid(12.0, 64)
    pot = Potential.harmonic(grid)
    with pytest.raises(ValidationError):
        solve_radial_eigenpairs(pot, 64)


def test_odd_grid_rejected_before_any_eigensolve(monkeypatch):
    """The Richardson 2h grid must nest, so an odd n_points fails before the fine solve."""

    def forbidden(*args, **kwargs):
        raise AssertionError("eigensolve on an odd grid")

    monkeypatch.setattr(spectrum, "_tridiagonal_eigenpairs", forbidden)
    grid = RadialGrid(12.0, 401)
    with pytest.raises(ValidationError, match="even"):
        solve_radial_eigenpairs(Potential.harmonic(grid), 3)


def test_undecayed_modes_rejected():
    # a trap this shallow cannot hold six bound modes inside r <= 12
    grid = RadialGrid(12.0, 600)
    pot = Potential.anharmonic(grid, beta=0.0, scale=40.0)
    with pytest.raises(ValidationError, match="decayed"):
        solve_radial_eigenpairs(pot, 6)


def test_potential_validation():
    grid = RadialGrid(12.0, 64)
    with pytest.raises(ValidationError):
        Potential.anharmonic(grid, beta=-0.1)
    with pytest.raises(ValidationError):
        Potential(grid, -grid.nodes)  # decreasing towards the wall
    with pytest.raises(ValidationError):
        Potential(grid, np.ones(12))  # wrong length


def test_orthonormality(harmonic_basis):
    assert harmonic_basis.orthonormality_defect() < 1e-8


def test_sign_convention(harmonic_basis):
    for k in range(harmonic_basis.size):
        chi = harmonic_basis.modes[k]
        first = chi[np.argmax(np.abs(chi) > 1e-12 * np.max(np.abs(chi)))]
        assert first > 0


def test_equally_spaced_spectrum_collides(harmonic_basis):
    report = check_gap_independence(harmonic_basis)
    assert (0, 1, 1, 2) in report.collisions
    assert not report.is_generic


def test_anharmonic_gaps_generic_brute_force(natural_basis):
    report = check_gap_independence(natural_basis)
    assert report.collisions == []
    # independent brute-force enumeration of all K^4 quadruples
    energies = natural_basis.energies
    smallest = np.inf
    for k, kp, j, jp in itertools.product(range(6), repeat=4):
        if (k == j and kp == jp) or (k == kp and j == jp):
            continue
        gap = abs((energies[k] - energies[kp]) - (energies[j] - energies[jp]))
        smallest = min(smallest, gap)
        assert gap >= GAP_TOL
    assert report.min_offdiagonal_gap == pytest.approx(smallest, rel=1e-12)


def test_single_mode_report_is_vacuous():
    grid = RadialGrid(12.0, 512)
    basis = solve_radial_eigenpairs(Potential.harmonic(grid), 1)
    report = check_gap_independence(basis)
    assert report.collisions == []
    assert report.min_offdiagonal_gap == np.inf


def test_mode_product_orthonormality(harmonic_basis):
    grid = harmonic_basis.grid
    diag = mode_product(harmonic_basis, 0, 0)
    cross = mode_product(harmonic_basis, 0, 1)
    r2 = grid.nodes**2
    assert 4 * np.pi * grid.integrate(diag * r2) == pytest.approx(1.0, abs=1e-10)
    assert 4 * np.pi * grid.integrate(cross * r2) == pytest.approx(0.0, abs=1e-10)


def test_mode_product_symmetric(harmonic_basis):
    assert np.array_equal(
        mode_product(harmonic_basis, 1, 3), mode_product(harmonic_basis, 3, 1)
    )
    with pytest.raises(ValidationError):
        mode_product(harmonic_basis, 0, 17)
