"""Property tests of the cascade right-hand sides, the branch-sum weights and the generator.

The einsum over index quadruples with the explicit phase
e^{i t dE / eta^2} is kept here as the oracle of the factored prelimit
right-hand side; the scalar ``branch_sum`` is the oracle of the weight
vectors the assembly pairs with every density, and of the golden-rule
rates it reads off them on random traps.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadelab.coeffs import (
    assemble_limit_matrix,
    assemble_prelimit_tensor,
    branch_sum,
    branch_weights,
    pairing_table,
    spectral_density,
)
from cascadelab.dynamics import SolverOptions, integrate_limit
from cascadelab.errors import ValidationError
from cascadelab.grids import MomentumGrid, RadialGrid
from cascadelab.kernels import gaussian_kernel
from cascadelab.spectrum import Potential, solve_radial_eigenpairs

from oracles import complex_branch_weights, rhs_limit, rhs_prelimit

ETA = 0.1

amplitude = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
angle = st.floats(min_value=0.0, max_value=2.0 * np.pi, allow_nan=False)


def states(size):
    parts = st.lists(amplitude, min_size=2 * size, max_size=2 * size)
    return parts.map(lambda xs: np.array(xs[:size]) + 1j * np.array(xs[size:]))


@pytest.fixture(scope="module")
def prelimit_tensor(sweep_assets):
    return assemble_prelimit_tensor(sweep_assets.table, eta=ETA)


def einsum_prelimit(t, state, tensor, eta):
    """sum_{bcd} tensor[a,b,c,d] e^{i t dE/eta^2} F_c conj(F_d) F_b, term by term."""
    gaps = tensor.energies[:, None] - tensor.energies[None, :]
    mismatch = gaps[:, :, None, None] - gaps[None, None, :, :]
    weighted = tensor.tensor * np.exp((1j * t / eta**2) * mismatch)
    return np.einsum("abcd,c,d,b->a", weighted, state, np.conj(state), state)


def cubic_scale(coefficients, state):
    """Size of a cubic form without cancellation: max|coefficient| * |F|^3."""
    return np.max(np.abs(coefficients)) * np.sum(np.abs(state)) ** 3


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_limit_rhs_conserves_mass(default_assets, data):
    coeffs = default_assets.coeffs
    state = data.draw(states(coeffs.size))
    derivative = rhs_limit(state, coeffs)
    scale = cubic_scale(coeffs.limit_matrix, state) * np.sum(np.abs(state))
    assert abs(np.real(np.vdot(state, derivative))) <= 1e-14 * scale


@settings(max_examples=200, deadline=None)
@given(data=st.data(), t=st.floats(min_value=0.0, max_value=1.0))
def test_factored_prelimit_matches_einsum(prelimit_tensor, data, t):
    state = data.draw(states(prelimit_tensor.size))
    factored = rhs_prelimit(t, state, prelimit_tensor)
    oracle = einsum_prelimit(t, state, prelimit_tensor, ETA)
    scale = cubic_scale(prelimit_tensor.tensor, state)
    assert np.max(np.abs(factored - oracle), initial=0.0) <= 1e-12 * scale


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_limit_rhs_phase_equivariance(default_assets, data):
    coeffs = default_assets.coeffs
    state = data.draw(states(coeffs.size))
    theta = np.array(data.draw(st.lists(angle, min_size=coeffs.size, max_size=coeffs.size)))
    phases = np.exp(1j * theta)
    rotated = rhs_limit(phases * state, coeffs)
    plain = rhs_limit(state, coeffs)
    scale = cubic_scale(coeffs.limit_matrix, state)
    assert np.max(np.abs(rotated - phases * plain), initial=0.0) <= 1e-14 * scale


@settings(max_examples=100, deadline=None)
@given(data=st.data(), t=st.floats(min_value=0.0, max_value=1.0), phi=angle)
def test_prelimit_rhs_global_phase_equivariance(prelimit_tensor, data, t, phi):
    # off-resonant quadruples mix per-mode phases; one shared phase commutes
    state = data.draw(states(prelimit_tensor.size))
    phase = np.exp(1j * phi)
    rotated = rhs_prelimit(t, phase * state, prelimit_tensor)
    plain = rhs_prelimit(t, state, prelimit_tensor)
    scale = cubic_scale(prelimit_tensor.tensor, state)
    assert np.max(np.abs(rotated - phase * plain), initial=0.0) <= 1e-13 * scale


#: Forming r e^{i theta} and taking its modulus rounds a few times; the
#: moduli the solver returns are themselves independent of the phases.
MODULUS_ULPS = 16


@settings(max_examples=25, deadline=None)
@given(
    data=st.data(),
    scale=st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
)
def test_limit_steps_and_moduli_ignore_phases(default_assets, data, scale):
    # the solver sees only Re M: neither Im M nor the initial phases may
    # move its steps or the occupations it returns
    coeffs = default_assets.coeffs
    size = coeffs.size
    weights = np.array(
        data.draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=size, max_size=size))
    )
    if not np.sum(weights) > 0.0:
        weights[0] = 1.0
    theta = np.array(data.draw(st.lists(angle, min_size=size, max_size=size)))
    state = np.sqrt(weights / np.sum(weights)) * np.exp(1j * theta)
    matrix = coeffs.limit_matrix
    rescaled = matrix.real + 1j * scale * matrix.imag
    options = SolverOptions(1.0, rtol=1e-11, atol=1e-14, n_samples=17)
    plain = integrate_limit(matrix, np.abs(state), options)
    turned = integrate_limit(rescaled, state, options)
    assert turned.meta["nfev"] == plain.meta["nfev"]
    expected, found = np.abs(plain.states), np.abs(turned.states)
    assert np.all(np.abs(found - expected) <= MODULUS_ULPS * np.finfo(float).eps * expected)


#: Pole offsets from a node, in spacings, all inside the window where the
#: eps = 0 routes swap the cancelling remainder for a difference quotient.
NODE_OFFSETS = (0.0, 1e-10, 1e-7, 1e-5)


def gaps(momenta):
    """Gaps of either sign whose poles the Cauchy routes resolve, and zero.

    Some gaps sit on a grid node plus one of NODE_OFFSETS spacings.
    """
    h = momenta.spacing
    usable = st.floats(min_value=2.0 * h, max_value=momenta.rho_max - 2.0 * h)
    near_node = st.tuples(
        st.integers(min_value=2, max_value=momenta.n_rho - 3), st.sampled_from(NODE_OFFSETS)
    ).map(lambda p: (p[0] + p[1]) * h)
    magnitude = st.one_of(usable, near_node)
    signed = st.tuples(magnitude, st.sampled_from((-1.0, 1.0))).map(lambda p: p[0] * p[1])
    return st.one_of(st.just(0.0), signed)


def fringe_gaps(momenta):
    """Gaps of either sign with a pole closer than two spacings to an end."""
    h = momenta.spacing
    near_origin = st.floats(min_value=0.0, max_value=2.0 * h, exclude_min=True, exclude_max=True)
    near_cutoff = st.floats(
        min_value=momenta.rho_max - 2.0 * h, max_value=momenta.rho_max, exclude_min=True
    )
    magnitude = st.one_of(near_origin, near_cutoff)
    return st.tuples(magnitude, st.sampled_from((-1.0, 1.0))).map(lambda p: p[0] * p[1])


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    eps=st.one_of(st.just(0.0), st.floats(min_value=2.5e-3, max_value=1e-1)),
)
def test_branch_weights_match_scalar_branch_sum(gaussian_pair_density, data, eps):
    a = gaussian_pair_density
    mu = data.draw(gaps(a.momenta))
    exact = branch_sum(a, mu, eps)
    (weights,) = branch_weights(a.momenta, [mu], eps)
    assert abs(weights @ a.values - exact) <= 1e-12 * abs(exact)


@pytest.mark.parametrize("offset", NODE_OFFSETS)
@pytest.mark.parametrize("sign", (1.0, -1.0))
def test_branch_weights_match_scalar_branch_sum_at_node_poles(
    gaussian_pair_density, offset, sign
):
    """eps = 0 with the pole on a node or just off it, where the remainder cancels."""
    a = gaussian_pair_density
    for node in (2, 700, a.momenta.n_rho - 3):
        mu = sign * (node + offset) * a.momenta.spacing
        exact = branch_sum(a, mu, 0.0)
        (weights,) = branch_weights(a.momenta, [mu], 0.0)
        assert abs(weights @ a.values - exact) <= 1e-12 * abs(exact)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    rho_max=st.floats(min_value=1.0, max_value=40.0),
    n_rho=st.integers(min_value=16, max_value=4096),
    eps=st.one_of(st.just(0.0), st.floats(min_value=2.5e-3, max_value=1e-1)),
)
def test_branch_weights_equal_the_complex_quotient_form(data, rho_max, n_rho, eps):
    """At eps = 0 the weights divide in real arithmetic and equal the complex form value for value.

    Random grids, gaps of both signs (on a node, just off one, anywhere
    resolvable) and mu = 0.  Only the sign of a zero imaginary part may
    differ, and W(0) comes back real.  At eps > 0 both forms are complex and
    agree bit for bit.
    """
    momenta = MomentumGrid(rho_max, n_rho)
    mus = data.draw(st.lists(gaps(momenta), min_size=1, max_size=4))
    for mu, weights in zip(mus, branch_weights(momenta, mus, eps), strict=True):
        oracle = complex_branch_weights(momenta, mu, eps)
        if eps == 0.0:
            assert np.array_equal(weights, oracle)
            assert np.iscomplexobj(weights) == (mu != 0.0)
        else:
            assert weights.tobytes() == oracle.tobytes()


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_branch_weights_reject_fringe_gaps(gaussian_pair_density, data):
    a = gaussian_pair_density
    mu = data.draw(fringe_gaps(a.momenta))
    with pytest.raises(ValidationError):
        list(branch_weights(a.momenta, [mu], 1e-2))
    with pytest.raises(ValidationError):
        branch_sum(a, mu, 1e-2)


#: The structural defects of the limit generator that hold exactly by construction.
EXACT_DEFECTS = (
    "fgr_symmetry",
    "fgr_negativity",
    "fgr_diagonal",
    "re_m_antisymmetry",
    "re_m_diagonal",
)

widths = st.floats(min_value=0.3, max_value=1.5)


@settings(max_examples=100, deadline=None)
@given(
    size=st.integers(min_value=2, max_value=6),
    beta=st.floats(min_value=0.0, max_value=1.0),
    scale=st.floats(min_value=1.0, max_value=4.0),
    coupling=st.tuples(st.floats(min_value=0.1, max_value=5.0), widths),
    pair=st.tuples(st.floats(min_value=-2.0, max_value=2.0), widths),
)
def test_generator_structure_on_random_traps(size, beta, scale, coupling, pair):
    """Rates symmetric, non-negative and zero on the diagonal, Re M antisymmetric: exactly.

    Each rate is the on-shell part of the scalar eps = 0 branch sum of
    its pair's density, for either order of the pair.
    """
    grid = RadialGrid(10.0 * max(scale, 1.2), 400)
    basis = solve_radial_eigenpairs(Potential.anharmonic(grid, beta, scale), size)
    energies = basis.energies
    momenta = MomentumGrid(4.0 * float(energies[-1] - energies[0]) + 8.0, 1024)
    w = gaussian_kernel("coupling", grid, *coupling)
    v = gaussian_kernel("pair", grid, *pair)
    table = pairing_table(basis, w, v, momenta)
    coeffs = assemble_limit_matrix(table)

    defects = coeffs.symmetry_defects()
    assert {name: defects[name] for name in EXACT_DEFECTS} == dict.fromkeys(EXACT_DEFECTS, 0.0)
    ghat = table.ghat[table.index]
    for k, kp in np.ndindex(size, size):
        a = spectral_density(ghat[k, kp], ghat[k, kp], momenta)
        expected = abs(branch_sum(a, float(energies[k] - energies[kp]), 0.0).imag)
        assert abs(coeffs.fgr[k, kp] - expected) <= 1e-12 * expected, (k, kp)
