from dataclasses import replace

import numpy as np
import pytest

from cascadelab.coeffs import (
    PrelimitTensor,
    assemble_prelimit_tensor,
    limit_matrix_from_tensor,
    two_mode_coefficients,
)
from cascadelab.dynamics import (
    SolverOptions,
    diagnostics,
    integrate,
    integrate_limit,
    integrate_prelimit,
    logistic_bound,
    rhs_limit,
    rhs_prelimit,
)
from cascadelab.errors import NumericalError, ValidationError
from cascadelab.spectrum import resonant_mask

EXACT_LOGISTIC_AT_ONE = 1.0 / (1.0 + np.exp(-2.0))  # = 0.8807970779778823


def unit_state(occupations):
    state = np.sqrt(np.asarray(occupations, dtype=complex))
    return state / np.linalg.norm(state)


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------


def test_ground_only_occupation_is_stationary(default_assets):
    coeffs = default_assets.coeffs
    state = np.zeros(coeffs.size, dtype=complex)
    state[0] = 1.0
    derivative = rhs_limit(state, coeffs)
    # d|F_0|^2/dT = 2 Re(conj(F_0) dF_0) vanishes: the diagonal entry is
    # purely imaginary (pure phase rotation)
    assert 2.0 * np.real(np.conj(state[0]) * derivative[0]) == pytest.approx(0.0, abs=1e-15)


def test_mass_derivative_vanishes_for_random_states(default_assets):
    coeffs = default_assets.coeffs
    rng = np.random.default_rng(7)
    for _ in range(5):
        state = rng.normal(size=coeffs.size) + 1j * rng.normal(size=coeffs.size)
        derivative = rhs_limit(state, coeffs)
        assert abs(np.real(np.vdot(state, derivative))) < 1e-12 * np.linalg.norm(state) ** 4


def test_two_mode_rhs_matches_logistic_slope():
    coeffs = two_mode_coefficients(1.0)
    x = 0.37
    state = unit_state([x, 1.0 - x])
    derivative = rhs_limit(state, coeffs)
    slope = 2.0 * np.real(np.conj(state[0]) * derivative[0])
    # logistic closed form: dx/dT = 2 gamma x (1 - x)
    assert slope == pytest.approx(2.0 * x * (1.0 - x), rel=1e-12)
    # finite-difference cross-check on the closed-form curve
    h = 1e-6
    fd = (logistic_bound(x, 1.0, h) - logistic_bound(x, 1.0, -h)) / (2.0 * h)
    assert slope == pytest.approx(fd, rel=1e-8)


def test_prelimit_phases_at_time_zero(sweep_assets):
    tensor = assemble_prelimit_tensor(
        sweep_assets.basis, sweep_assets.coupling, sweep_assets.pair, eta=0.2,
        options=sweep_assets.coeff_options,
    )
    # both routes sum at most n = K^3 products, so each is within
    # gamma_n * sum_bcd |T_abcd||F_b||F_c||F_d| of the exact value
    terms = tensor.size**3
    unit = np.finfo(float).eps / 2.0
    gamma = terms * unit / (1.0 - terms * unit)
    magnitude = np.abs(tensor.tensor)
    rng = np.random.default_rng(11)
    for _ in range(200):
        state = rng.normal(size=tensor.size) + 1j * rng.normal(size=tensor.size)
        value = rhs_prelimit(0.0, state, tensor)
        plain = np.einsum(
            "abcd,c,d,b->a", tensor.tensor, state, np.conj(state), state
        )
        modulus = np.abs(state)
        bound = 2.0 * gamma * np.einsum("abcd,b,c,d->a", magnitude, modulus, modulus, modulus)
        assert np.all(np.abs(value - plain) <= bound)


def test_prelimit_resonant_restriction_equals_matrix_rhs(sweep_assets):
    full = assemble_prelimit_tensor(
        sweep_assets.basis, sweep_assets.coupling, sweep_assets.pair, eta=0.1,
        options=sweep_assets.coeff_options,
    )
    tensor = replace(full, tensor=full.tensor * resonant_mask(full.size))
    matrix = limit_matrix_from_tensor(tensor)
    rng = np.random.default_rng(13)
    state = rng.normal(size=tensor.size) + 1j * rng.normal(size=tensor.size)
    restricted = rhs_prelimit(0.83, state, tensor)
    collapsed = (matrix @ np.abs(state) ** 2) * state
    assert np.allclose(restricted, collapsed, rtol=1e-13, atol=1e-13)


def test_prelimit_rejects_bad_input(sweep_assets):
    tensor = assemble_prelimit_tensor(
        sweep_assets.basis, sweep_assets.coupling, sweep_assets.pair, eta=0.2,
        options=sweep_assets.coeff_options,
    )
    state = sweep_assets.config.initial_state()
    short = state[:-1]
    with pytest.raises(ValidationError):
        rhs_prelimit(0.0, short, tensor)
    with pytest.raises(ValidationError):
        integrate_prelimit(tensor, short, 1.0)
    broken = state.copy()
    broken[1] = np.nan
    with pytest.raises(ValidationError):
        integrate_prelimit(tensor, broken, 1.0)
    for t_end in (0.0, -1.0):
        with pytest.raises(ValidationError):
            integrate_prelimit(tensor, state, t_end)
    with pytest.raises(ValidationError):
        replace(tensor, eta=0.0)
    with pytest.raises(ValidationError):
        PrelimitTensor(0.2, tensor.tensor, tensor.energies[:-1])


def test_prelimit_rejects_non_finite_input(sweep_assets):
    tensor = assemble_prelimit_tensor(
        sweep_assets.basis, sweep_assets.coupling, sweep_assets.pair, eta=0.2,
        options=sweep_assets.coeff_options,
    )
    state = sweep_assets.config.initial_state()
    for t_end in (np.inf, np.nan):
        with pytest.raises(ValidationError, match="finite"):
            integrate_prelimit(tensor, state, t_end)
        with pytest.raises(ValidationError, match="finite"):
            integrate_limit(sweep_assets.coeffs, state, t_end)
    for eta in (np.inf, np.nan):
        with pytest.raises(ValidationError, match="finite"):
            replace(tensor, eta=eta)
        with pytest.raises(ValidationError, match="finite"):
            assemble_prelimit_tensor(
                sweep_assets.basis, sweep_assets.coupling, sweep_assets.pair, eta
            )


# ---------------------------------------------------------------------------
# integrator
# ---------------------------------------------------------------------------


def test_zero_rhs_constant_trajectory():
    state = np.array([0.3 + 0.1j, -0.2j, 0.5])
    traj = integrate(lambda t, y: np.zeros_like(y), state, 2.0, SolverOptions(n_samples=17))
    assert np.allclose(traj.states, state[None, :], rtol=0, atol=1e-14)


def test_two_mode_logistic_exactness():
    coeffs = two_mode_coefficients(1.0)
    state = unit_state([0.5, 0.5])
    options = SolverOptions(rtol=1e-11, atol=1e-14, n_samples=201)
    traj = integrate_limit(coeffs, state, 1.0, options)
    occupation = np.abs(traj.states[:, 0]) ** 2
    assert abs(occupation[-1] - EXACT_LOGISTIC_AT_ONE) < 1e-8
    curve = logistic_bound(0.5, 1.0, traj.times)
    assert np.max(np.abs(occupation - curve)) < 1e-8
    # the excited mode follows the complementary logistic
    assert np.max(np.abs(np.abs(traj.states[:, 1]) ** 2 - (1.0 - curve))) < 1e-8


def test_tolerance_halving_self_consistency():
    coeffs = two_mode_coefficients(1.0)
    state = unit_state([0.3, 0.7])
    rtol = 1e-8
    coarse = integrate_limit(coeffs, state, 1.0, SolverOptions(rtol=rtol, atol=1e-12))
    fine = integrate_limit(coeffs, state, 1.0, SolverOptions(rtol=rtol / 2.0, atol=1e-12))
    assert np.max(np.abs(coarse.states[-1] - fine.states[-1])) < 10.0 * rtol


def test_integrator_rejects_bad_input():
    with pytest.raises(ValidationError):
        integrate(lambda t, y: y, np.array([np.nan + 0j]), 1.0)
    with pytest.raises(ValidationError):
        integrate(lambda t, y: y, np.array([1.0 + 0j]), -1.0)


def test_limit_integrator_rejects_bad_input(default_assets):
    coeffs = default_assets.coeffs
    with pytest.raises(ValidationError):
        integrate_limit(coeffs, np.ones(coeffs.size + 1, dtype=complex), 1.0)
    state = np.ones(coeffs.size, dtype=complex)
    state[2] = np.inf
    with pytest.raises(ValidationError):
        integrate_limit(coeffs, state, 1.0)
    with pytest.raises(ValidationError):
        integrate_limit(coeffs, np.ones(coeffs.size, dtype=complex), 0.0)


def test_modulus_phase_flow_matches_complex_rk45(default_assets):
    """The complex-amplitude RK45 route is the oracle of the limit integrator."""
    coeffs = default_assets.coeffs
    state = default_assets.config.initial_state()
    options = default_assets.solver_options
    flow = integrate_limit(coeffs, state, 50.0, options)
    oracle = integrate(lambda _t, y: rhs_limit(y, coeffs), state, 50.0, options)
    assert np.array_equal(flow.times, oracle.times)
    assert np.max(np.abs(flow.states - oracle.states)) < 1e-6
    assert flow.meta["system"] == "limit"
    assert flow.meta["nfev"] < oracle.meta["nfev"]


def test_zero_amplitudes_stay_zero(default_assets):
    coeffs = default_assets.coeffs
    state = np.zeros(coeffs.size, dtype=complex)
    state[:3] = np.array([0.6, 0.6j, -0.2 + 0.5j])
    traj = integrate_limit(coeffs, state, 20.0, SolverOptions(n_samples=41))
    assert np.all(traj.states[:, 3:] == 0.0)


def test_non_finite_rhs_aborts():
    def blow_up(t, y):
        return y / (0.5 - t)

    with pytest.raises(NumericalError):
        integrate(blow_up, np.array([1.0 + 0j]), 1.0)


def test_prelimit_mass_drift_decreases_with_eta(sweep_assets):
    basis, w, v = sweep_assets.basis, sweep_assets.coupling, sweep_assets.pair
    state = sweep_assets.config.initial_state()
    drifts = {}
    for eta in (0.1, 0.05):
        tensor = assemble_prelimit_tensor(basis, w, v, eta, sweep_assets.coeff_options)
        traj = integrate_prelimit(tensor, state, 1.0, SolverOptions())
        drifts[eta] = np.max(np.abs(traj.masses() - 1.0))
    # the oscillatory system conserves mass up to integrator error, which
    # shrinks with the phase-resolving step cap; the cap keeps a 2x margin
    assert drifts[0.1] > 2 * drifts[0.05]
    assert drifts[0.1] < 1e-9


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def default_run(default_assets):
    config = default_assets.config
    state = config.initial_state()
    options = SolverOptions(rtol=1e-11, atol=1e-14, n_samples=401)
    traj = integrate_limit(default_assets.coeffs, state, 50.0, options)
    return traj, diagnostics(traj, default_assets.energies, default_assets.coeffs)


def test_mass_conserved_along_limit_flow(default_run):
    _, series = default_run
    assert series.mass_drift() < 100.0 * 1e-11 * 50.0


def test_energy_monotone(default_run):
    _, series = default_run
    assert series.max_energy_increase() <= 100.0 * 1e-11


def test_tails_monotone(default_run):
    _, series = default_run
    assert series.max_tail_increase() <= 100.0 * 1e-11
    # tail masses are positive, decreasing in the cut index
    assert np.all(np.diff(series.tail_masses[:, 0]) <= 1e-15)


def test_logistic_trace_dominated(default_run):
    _, series = default_run
    assert series.logistic is not None
    assert series.gamma_tilde > 0
    assert np.min(series.ground_occupation - series.logistic) >= -100.0 * 1e-11


def test_phase_equivariance(default_assets):
    coeffs = default_assets.coeffs
    state = default_assets.config.initial_state()
    rng = np.random.default_rng(23)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, coeffs.size))
    options = SolverOptions(rtol=1e-10, atol=1e-13, n_samples=51)
    plain = integrate_limit(coeffs, state, 5.0, options)
    rotated = integrate_limit(coeffs, phases * state, 5.0, options)
    assert np.max(np.abs(rotated.states - phases[None, :] * plain.states)) < 1e-7


def test_diagnostics_flags():
    coeffs = two_mode_coefficients(1.0)
    # zero ground occupation: the bound does not apply
    traj = integrate_limit(coeffs, np.array([0.0, 1.0 + 0j]), 1.0, SolverOptions(n_samples=33))
    series = diagnostics(traj, np.array([0.0, 1.0]), coeffs)
    assert series.logistic is None
    assert "zero initial ground occupation" in series.flags["logistic_skipped"]
    # non-unit mass: skipped as well
    traj = integrate_limit(coeffs, np.array([1.0, 1.0 + 0j]), 1.0, SolverOptions(n_samples=33))
    series = diagnostics(traj, np.array([0.0, 1.0]), coeffs)
    assert series.logistic is None
    assert "unit mass" in series.flags["logistic_skipped"]


def test_bec_formation_threshold(default_assets):
    config = default_assets.config
    state = config.initial_state()
    options = SolverOptions(rtol=1e-10, atol=1e-13, n_samples=401)
    traj = integrate_limit(default_assets.coeffs, state, 200.0, options)
    excited = np.sum(np.abs(traj.states[:, 1:]) ** 2, axis=1)
    assert np.any(excited < 1e-3)


# ---------------------------------------------------------------------------
# logistic bound
# ---------------------------------------------------------------------------


def test_logistic_bound_values():
    assert logistic_bound(1.0, 2.0, 13.0) == 1.0
    assert logistic_bound(0.3, 1.7, 0.0) == pytest.approx(0.3, rel=1e-14)
    assert logistic_bound(0.5, 1.0, 1.0) == pytest.approx(EXACT_LOGISTIC_AT_ONE, rel=1e-14)


def test_logistic_bound_domain():
    with pytest.raises(ValidationError):
        logistic_bound(0.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        logistic_bound(1.2, 1.0, 1.0)
    with pytest.raises(ValidationError):
        logistic_bound(0.5, 0.0, 1.0)
