import numpy as np
import pytest

from cascadelab.config import SimulationConfig
from cascadelab.errors import ValidationError
from cascadelab.grids import COVER_FACTOR, MomentumGrid, RadialGrid


def test_radial_grid_nodes():
    grid = RadialGrid(12.0, 24)
    assert grid.nodes[0] > 0
    assert grid.nodes[-1] == 12.0
    assert np.all(np.diff(grid.nodes) > 0)
    assert grid.spacing == pytest.approx(0.5)


def test_radial_grid_minimum_size():
    with pytest.raises(ValidationError):
        RadialGrid(10.0, 8)
    with pytest.raises(ValidationError):
        RadialGrid(-1.0, 64)


def test_trapezoid_integration_exact_for_linear():
    # int_0^1 r dr = 1/2, exact for the trapezoid rule on a linear integrand
    grid = RadialGrid(1.0, 64)
    assert grid.integrate(grid.nodes) == pytest.approx(0.5, abs=1e-15)


def test_coarsened_grid_is_nested():
    grid = RadialGrid(8.0, 64)
    coarse = grid.coarsened()
    assert coarse.n_points == 32
    assert np.allclose(coarse.nodes, grid.nodes[1::2])
    with pytest.raises(ValidationError):
        RadialGrid(8.0, 63).coarsened()


def test_grids_compare_and_hash_by_value():
    """Grids built apart with equal parameters are equal; the nodes take no part."""
    assert RadialGrid(12.0, 64) == RadialGrid(12.0, 64)
    assert hash(RadialGrid(12.0, 64)) == hash(RadialGrid(12.0, 64))
    assert RadialGrid(12.0, 64) != RadialGrid(12.0, 32)
    assert RadialGrid(12.0, 64) != RadialGrid(8.0, 64)
    assert MomentumGrid(10.0, 64) == MomentumGrid(10.0, 64)
    assert hash(MomentumGrid(10.0, 64)) == hash(MomentumGrid(10.0, 64))
    assert MomentumGrid(10.0, 64) != MomentumGrid(15.0, 64)


def test_momentum_cutoff_guard():
    momenta = MomentumGrid(10.0, 64)
    momenta.require_covers(2.0)
    with pytest.raises(ValidationError):
        momenta.require_covers(11.0)  # beyond the grid entirely
    with pytest.raises(ValidationError):
        momenta.require_covers(3.0)  # inside, but without the safety factor
    momenta.require_covers(10.0 / COVER_FACTOR)  # exactly at the factor


@pytest.mark.parametrize("gap", [0.0, 0.3, 2.5, 40.0])
def test_auto_cutoff_covers_the_largest_gap(gap):
    """The config's ``auto`` cutoff passes the guard that the coefficients apply."""
    MomentumGrid(SimulationConfig.default().rho_max_value(gap), 64).require_covers(gap)
