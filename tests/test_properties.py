"""Property tests of the cascade right-hand sides and the branch-sum weights.

The einsum over index quadruples with the explicit phase
e^{i t dE / eta^2} is kept here as the oracle of the factored prelimit
right-hand side; the scalar ``branch_sum`` is the oracle of the weight
vectors the assembly pairs with every density.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadelab.coeffs import (
    assemble_prelimit_tensor,
    branch_sum,
    branch_weights,
)
from cascadelab.dynamics import rhs_limit, rhs_prelimit
from cascadelab.errors import ValidationError

ETA = 0.1

amplitude = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
angle = st.floats(min_value=0.0, max_value=2.0 * np.pi, allow_nan=False)


def states(size):
    parts = st.lists(amplitude, min_size=2 * size, max_size=2 * size)
    return parts.map(lambda xs: np.array(xs[:size]) + 1j * np.array(xs[size:]))


@pytest.fixture(scope="module")
def prelimit_tensor(sweep_assets):
    return assemble_prelimit_tensor(
        sweep_assets.basis, sweep_assets.coupling, sweep_assets.pair, eta=ETA,
    )


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
    assert abs(branch_weights(a.momenta, mu, eps) @ a.values - exact) <= 1e-12 * abs(exact)


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
        assert abs(branch_weights(a.momenta, mu, 0.0) @ a.values - exact) <= 1e-12 * abs(exact)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_branch_weights_reject_fringe_gaps(gaussian_pair_density, data):
    a = gaussian_pair_density
    mu = data.draw(fringe_gaps(a.momenta))
    with pytest.raises(ValidationError):
        branch_weights(a.momenta, mu, 1e-2)
    with pytest.raises(ValidationError):
        branch_sum(a, mu, 1e-2)
