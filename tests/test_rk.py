"""The in-package DOP853 against its oracle, ``scipy.integrate.solve_ivp``.

``rk.dop853`` runs scipy's DOP853 under ``solve_ivp`` with ``t_eval`` step
for step, so its samples and evaluation counts must equal scipy's bit for
bit, with and without a step cap, on both shipped systems.  ``dop853``
takes its RHS in stage form, with the phases of each stage time read from
a table built once per step attempt; ``plain`` turns such an RHS into
scipy's fun(t, y), which takes its phases at t on every call, so scipy
runs unchanged.  The prelimit system is also held to the plain
``oracles.rhs_prelimit``, the RHS as written before the stage form.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import DOP853, solve_ivp

from cascadelab.coeffs import PrelimitTensor, assemble_prelimit_tensor
from cascadelab.dynamics import (
    SolverOptions,
    _modulus_occupation_rhs,
    _prelimit_rhs,
    integrate_limit,
    integrate_prelimit,
)
from cascadelab.errors import NumericalError
from cascadelab.rk import dop853

from oracles import rhs_prelimit


#: The phase rates of a system that does not depend on t.
NO_RATES = np.empty(0)


def plain(rhs, rates):
    """The stage-form ``rhs`` of ``dop853`` as scipy's fun(t, y), phases taken at t."""

    def fun(t, y):
        v = np.exp((1j * t) * rates)
        out = np.empty_like(y)
        rhs(v, v.conj(), y, out)
        return out

    return fun


def assert_matches_oracle(rhs, rates, y0, t_end, t_eval, rtol, atol, max_step=np.inf):
    samples, nfev = dop853(rhs, rates, y0, t_end, t_eval, rtol, atol, max_step)
    # scipy's error norm reads 0 / 0 = nan, with numpy's warning, when 0.01 * err3^2
    # underflows; the step is then rejected, as in rk.dop853
    with np.errstate(invalid="ignore"):
        oracle = solve_ivp(
            plain(rhs, rates),
            (0.0, t_end),
            y0,
            method="DOP853",
            rtol=rtol,
            atol=atol,
            t_eval=t_eval,
            max_step=max_step,
        )
    assert oracle.success
    assert np.array_equal(samples, oracle.y.T)
    assert nfev == oracle.nfev
    return nfev


def limit_problem(assets, state):
    """The (r, N) system of the limit cascade and its initial value."""
    y0 = np.concatenate([np.abs(state), np.zeros(assets.coeffs.size)])
    return _modulus_occupation_rhs(assets.coeffs.limit_matrix), y0


@pytest.mark.parametrize("max_step", [np.inf, 0.5])
def test_limit_system_matches_solve_ivp(default_assets, max_step):
    options = default_assets.solver_options
    t_end = options.t_end
    rhs, y0 = limit_problem(default_assets, default_assets.config.initial_state())
    t_eval = np.linspace(0.0, t_end, options.n_samples)
    nfev = assert_matches_oracle(
        rhs, NO_RATES, y0, t_end, t_eval, options.rtol, options.atol, max_step
    )
    if max_step == np.inf:
        state = default_assets.config.initial_state()
        traj = integrate_limit(default_assets.coeffs.limit_matrix, state, options)
        assert traj.meta["nfev"] == nfev == 1274


def test_prelimit_system_matches_solve_ivp_at_canonical_etas(sweep_assets):
    """The shipped step-capped solve, and an uncapped one, at each eta of the sweep."""
    setup = sweep_assets.sweep
    options = setup.solver
    t_eval = np.linspace(0.0, options.t_end, options.n_samples)
    for eta in setup.etas:
        tensor = assemble_prelimit_tensor(setup.table, eta)
        rhs = lambda t, y, tensor=tensor: rhs_prelimit(t, y, tensor)
        traj = integrate_prelimit(tensor, setup.initial_state, options)
        assert np.array_equal(traj.times, t_eval)
        oracle = solve_ivp(
            rhs,
            (0.0, options.t_end),
            setup.initial_state,
            method="DOP853",
            rtol=options.rtol,
            atol=options.atol,
            t_eval=t_eval,
            max_step=traj.meta["max_step"],
        )
        assert np.array_equal(traj.states, oracle.y.T)
        assert traj.meta["nfev"] == oracle.nfev
        assert_matches_oracle(
            *_prelimit_rhs(tensor),
            setup.initial_state,
            options.t_end,
            t_eval,
            options.rtol,
            options.atol,
        )


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    rtol=st.floats(min_value=1e-11, max_value=1e-6),
    t_end=st.floats(min_value=0.1, max_value=20.0),
)
def test_random_unit_mass_data_matches_solve_ivp(default_assets, data, rtol, t_end):
    size = default_assets.coeffs.size
    parts = st.floats(min_value=-1.0, max_value=1.0)
    real = np.array(data.draw(st.lists(parts, min_size=size, max_size=size)))
    imag = np.array(data.draw(st.lists(parts, min_size=size, max_size=size)))
    state = real + 1j * imag
    if np.linalg.norm(state) < 1e-3:
        state[0] = 1.0
    state = state / np.linalg.norm(state)
    # sample times: no end, the start or both ends, and interior points in any spacing
    interior = data.draw(
        st.lists(st.floats(min_value=0.0, max_value=t_end), min_size=0, max_size=20, unique=True)
    )
    t_eval = np.unique(np.concatenate([interior, [0.0, t_end][: data.draw(st.integers(0, 2))]]))
    if len(t_eval) == 0:
        t_eval = np.array([t_end])
    rhs, y0 = limit_problem(default_assets, state)
    assert_matches_oracle(rhs, NO_RATES, y0, t_end, t_eval, rtol, rtol * 1e-3)


@pytest.mark.parametrize(
    "damping, amplitude, max_step",
    [(198.0, 1.0, 0.01171875), (145.0, 1.401298464324817e-45, 0.03125)],
)
def test_error_norm_underflow_rejects_the_step_like_scipy(damping, amplitude, max_step):
    """y' = -damping y decays until 0.01 * err3^2 underflows to 0 with err5^2 = 0.

    scipy's norm is then 0 / 0 = nan and rejects the step; rk.dop853 does the
    same, where it used to divide by zero.
    """

    def rhs(_v, _v_conj, y, out):
        np.multiply(y, -damping, out=out)

    rtol = 8.097695797963075e-07
    y0 = np.array([1j * amplitude])
    assert_matches_oracle(rhs, NO_RATES, y0, 2.0, np.array([0.0]), rtol, rtol * 1e-3, max_step)


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    size=st.integers(min_value=1, max_value=6),
    rtol=st.floats(min_value=1e-10, max_value=1e-6),
    damping=st.floats(min_value=10.0, max_value=300.0),
    t_end=st.floats(min_value=0.1, max_value=2.0),
    capped=st.booleans(),
)
def test_random_complex_linear_systems_match_solve_ivp(
    data, size, rtol, damping, t_end, capped
):
    """y' = A y with random complex A: the complex dtype off the shipped systems.

    The first mode decays at a rate ``damping``, stiff enough for DOP853
    that most draws reject steps, so the post-rejection path runs too.
    """
    parts = st.floats(min_value=-1.0, max_value=1.0)

    def draw_complex(n):
        real = data.draw(st.lists(parts, min_size=n, max_size=n))
        imag = data.draw(st.lists(parts, min_size=n, max_size=n))
        return np.array(real) + 1j * np.array(imag)

    matrix = draw_complex(size * size).reshape(size, size)
    matrix[0, 0] -= damping
    y0 = draw_complex(size)
    times = data.draw(
        st.lists(st.floats(min_value=0.0, max_value=t_end), min_size=1, max_size=20, unique=True)
    )
    max_step = data.draw(st.floats(min_value=1e-2, max_value=t_end)) if capped else np.inf

    def rhs(_v, _v_conj, y, out):
        np.matmul(matrix, y, out=out)

    assert_matches_oracle(rhs, NO_RATES, y0, t_end, np.sort(times), rtol, rtol * 1e-3, max_step)


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    size=st.integers(min_value=1, max_value=5),
    eta=st.floats(min_value=0.05, max_value=0.5),
    t_end=st.floats(min_value=0.05, max_value=0.25),
    capped=st.booleans(),
)
def test_random_prelimit_systems_match_solve_ivp(data, size, eta, t_end, capped):
    """Random prelimit systems: phases from the per-attempt table against phases taken per call.

    Tensors are random and complex, energies random with degenerate levels
    drawn often.  A capped draw runs ``integrate_prelimit``, capped at its
    fraction of the fastest phase period (no cap when every phase is
    degenerate) and sampled at as many evenly spaced times as were drawn (at least two);
    an uncapped one runs ``dop853`` on the same RHS at the drawn times.
    Both must equal ``solve_ivp`` on the plain ``rhs_prelimit``.
    """
    parts = st.floats(min_value=-1.0, max_value=1.0)

    def draw_complex(n):
        real = data.draw(st.lists(parts, min_size=n, max_size=n))
        imag = data.draw(st.lists(parts, min_size=n, max_size=n))
        return np.array(real) + 1j * np.array(imag)

    levels = st.one_of(st.floats(min_value=0.0, max_value=3.0), st.sampled_from([0.0, 1.0]))
    energies = np.array(data.draw(st.lists(levels, min_size=size, max_size=size)))
    # |F| = 1 and entries below 2^(1/2) / K^2 keep the cubic RHS below 2^(1/2)
    # in norm, so no solution blows up before T = 0.25
    values = draw_complex(size**4).reshape((size,) * 4) / size**2
    tensor = PrelimitTensor(eta=eta, tensor=values, energies=energies)
    state = draw_complex(size)
    if np.linalg.norm(state) < 1e-3:
        state[0] = 1.0
    state = state / np.linalg.norm(state)
    instants = st.floats(min_value=0.0, max_value=t_end)
    times = np.sort(data.draw(st.lists(instants, min_size=1, max_size=20, unique=True)))
    options = SolverOptions(t_end, n_samples=max(len(times), 2))
    if capped:
        traj = integrate_prelimit(tensor, state, options)
        times, samples, nfev = traj.times, traj.states, traj.meta["nfev"]
        max_step = traj.meta["max_step"] or np.inf
    else:
        rhs, rates = _prelimit_rhs(tensor)
        samples, nfev = dop853(rhs, rates, state, t_end, times, options.rtol, options.atol)
        max_step = np.inf
    oracle = solve_ivp(
        lambda t, y: rhs_prelimit(t, y, tensor),
        (0.0, t_end),
        state,
        method="DOP853",
        rtol=options.rtol,
        atol=options.atol,
        t_eval=times,
        max_step=max_step,
    )
    assert oracle.success
    assert np.array_equal(samples, oracle.y.T)
    assert nfev == oracle.nfev


def test_blow_up_raises_numerical_error_where_scipy_fails():
    """r' = r^3 from r = 1 blows up at T = 1/2; the step dies at scipy's t."""

    def rhs(_v, _v_conj, y, out):
        np.power(y, 3, out=out)

    oracle = DOP853(plain(rhs, NO_RATES), 0.0, np.array([1.0]), 1.0, rtol=1e-9, atol=1e-12)
    while oracle.status == "running":
        oracle.step()
    assert oracle.status == "failed"
    failed_at = re.escape(f"integration failed at t = {float(oracle.t)!r}:")
    with pytest.raises(NumericalError, match=failed_at):
        dop853(rhs, NO_RATES, np.array([1.0]), 1.0, np.linspace(0.0, 1.0, 11), 1e-9, 1e-12)
