"""Property tests of the cascade right-hand sides.

The einsum over index quadruples with the explicit phase
e^{i t dE / eta^2} is kept here as the oracle of the factored prelimit
right-hand side.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadelab.coeffs import assemble_prelimit_tensor
from cascadelab.dynamics import rhs_limit, rhs_prelimit

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
        options=sweep_assets.coeff_options,
    )


def einsum_prelimit(t, state, coeffs, eta):
    """sum_{bcd} tensor[a,b,c,d] e^{i t dE/eta^2} F_c conj(F_d) F_b, term by term."""
    gaps = coeffs.energies[:, None] - coeffs.energies[None, :]
    mismatch = gaps[:, :, None, None] - gaps[None, None, :, :]
    weighted = coeffs.tensor * np.exp((1j * t / eta**2) * mismatch)
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
    factored = rhs_prelimit(t, state, prelimit_tensor, ETA)
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
    rotated = rhs_prelimit(t, phase * state, prelimit_tensor, ETA)
    plain = rhs_prelimit(t, state, prelimit_tensor, ETA)
    scale = cubic_scale(prelimit_tensor.tensor, state)
    assert np.max(np.abs(rotated - phase * plain), initial=0.0) <= 1e-13 * scale
