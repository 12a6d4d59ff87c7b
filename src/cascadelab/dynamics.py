"""Time integration of the cascade systems and theorem-level diagnostics.

The limit system is the autonomous diagonal cascade

    dF_k/dT = sum_k' M[k,k'] |F_k'|^2 F_k,

whose structure conserves the l2 mass exactly (the real part of M is
antisymmetric) and pushes occupation monotonically toward the lowest
mode.  With F = r e^{i theta} it splits into

    r' = r * (Re M r^2),    theta' = Im M r^2.

The phase equation does not involve theta, so it is solved exactly once
the time-integrated occupation N(T), N' = r^2, is known:
theta(T) = theta(0) + Im M N(T).  The solver runs the real system
y = (r, N) of size 2K, one K x K product per evaluation, and the phases
are read out afterwards with one product over all samples.  Im M, which
carries fast phase rotations but never moves occupations, never enters
the solver, so the step sequence depends only on Re M.  The mass sum r^2
stays a quadratic invariant that Runge-Kutta does not preserve exactly,
and modes with zero amplitude stay exactly zero.

The prelimit system runs over all index quadruples with explicit
oscillatory phases e^{i T dE / eta^2}; its remainder terms (the freely
dispersing part of the initial field data) are dropped, which is the one
modeling deviation of this package: those terms vanish in the
weak-coupling limit but would require the full field propagator to
evaluate at finite eta.  The quadruple phase factors into one phase per
mode, e^{iT(g_ab - g_cd)/eta^2} = v_a conj(v_b) conj(v_c) v_d with
v = e^{i T E / eta^2}, so one evaluation costs a K^2 x K^2 product
instead of K^4.  Both right-hand sides are written in ``rk.dop853``'s
stage form: the integrator takes the K exponentials of v once per step
attempt, for all sixteen stage times, and each evaluation writes into its
stage row; a prelimit evaluation is six numpy calls into buffers made once
per solve.

Both systems run on one adaptive embedded Runge-Kutta pair, METHOD, the
Dormand-Prince 8(5,3) pair, stepped by ``rk.dop853`` in this package.  It
runs the algorithm of scipy's ``solve_ivp(method="DOP853")`` at the same
sample times on the same arrays, so samples and RHS counts are
bit-identical to scipy's; tests/test_rk.py keeps solve_ivp as its oracle
on both systems.
Importing the package thus loads no scipy.integrate.  On default.cfg over
T = 50 at rtol 1e-11 the limit cascade takes 1,274 RHS evaluations in
(r, N) form, against 3,770 for the 4(5) pair (RK45) and 1,283 for DOP853,
both in (r, theta) form; its largest distance to a DOP853 reference at
rtol 1e-13 is 3.4e-11 (RK45: 1.4e-10).  Conserved quantities are
monitored, never enforced, so their drift doubles as a quality statistic.
Prelimit steps are capped at PRELIMIT_STEP_CAP = 0.9 of the fastest phase
period, the fraction with the fewest RHS evaluations that keeps a 2x
margin under every bound placed on the canonical eta sweep (see the
constant).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coeffs import CoefficientSet, PrelimitTensor
from .errors import NumericalError, ValidationError
from .rk import MIN_RTOL, dop853
from .spectrum import gap_differences

#: Below this rate the ground-row transition is treated as numerically
#: vanishing and rate-based diagnostics are skipped rather than reported.
MIN_GROUND_RATE = 1e-14

#: A solve at tolerance rtol may move an invariant by this many rtol (the
#: mass drift by this many rtol per unit time; see ``invariant_verdicts``).
BUDGET_PER_RTOL = 100.0

#: Prelimit steps are capped at this fraction of the fastest phase period
#: 2 pi eta^2 / max|dE|, with METHOD, the Dormand-Prince 8(5,3) pair,
#: which suits this smooth oscillatory system at rtol 1e-9 (Hairer,
#: Norsett & Wanner, Solving ODEs I, 2nd ed., 1993, sec. II.10).  The
#: fraction is the one with the fewest RHS evaluations on the ladder
#: {0.5, 0.6, 0.75, 0.9, 1, 1.25, 1.5, inf} among those that keep a 2x
#: margin under every bound placed on the canonical sweep (convergence
#: preset, eta = 0.2, 0.1, 0.05, T = 1, rtol 1e-9, atol 1e-12): integrator
#: error at most 1e-3 of each eta's sup distance, sweep mass drift below
#: 1e-9, and a mass drift that falls from eta = 0.1 to 0.05.  Error is the
#: sup over samples of the l2 distance to DOP853 at rtol 1e-13, atol 1e-16,
#: divided by that eta's sup distance.  DOP853's cost does not grow steadily
#: with the fraction, so the largest passing fraction (inf) would cost more:
#:
#:     method  fraction  RHS evals (3 eta)  max error  max drift  drift(0.1)/drift(0.05)
#:     RK45    0.25           77,964         1.1e-7     3.3e-10          8.96
#:     DOP853  0.5            80,286         3.6e-9     1.3e-11          5.22
#:     DOP853  0.6            67,302         1.5e-8     6.8e-11          5.06
#:     DOP853  0.75           54,672         1.1e-7     1.3e-10          4.44
#:     DOP853  0.9            48,339         6.8e-7     2.3e-10          3.98
#:     DOP853  1.0            47,706         6.6e-6     2.3e-10          1.88
#:     DOP853  1.25           50,409         1.0e-5     1.7e-10          1.31
#:     DOP853  1.5            50,925         9.8e-6     2.5e-10          2.48
#:     DOP853  inf            50,889         1.3e-5     2.6e-10          2.59
#:
#: The RK45 row is the previous method at its own budgeted cap.  Off the
#: ladder, 0.8, 0.85 and 0.95 take 51,828, 49,758 and 47,643 evaluations at
#: drift ratios 3.87, 3.11 and 2.76: the ratio swings between neighbouring
#: fractions, and 0.95, 1.4% cheaper than 0.9, sits next to the failing 1.0.
PRELIMIT_STEP_CAP = 0.9

#: The one Runge-Kutta pair of both systems (run by ``rk.dop853``).
METHOD = "DOP853"


@dataclass(frozen=True)
class SolverOptions:
    """The horizon and tolerances of a solve, and where it samples: n_samples evenly
    spaced times on [0, t_end].

    t_end is positive and finite; rtol finite and at least MIN_RTOL, the floor of
    ``rk.dop853``; atol positive and finite; n_samples at least 2.
    """

    t_end: float
    rtol: float = 1e-9
    atol: float = 1e-12
    n_samples: int = 256

    def __post_init__(self):
        t_end, rtol, atol = self.t_end, self.rtol, self.atol
        if not 0 < t_end < np.inf:
            raise ValidationError(f"t_end must be positive and finite, got {t_end}")
        if not MIN_RTOL <= rtol < np.inf:
            raise ValidationError(f"rtol must be finite and at least {MIN_RTOL:.3g}, got {rtol}")
        if not 0 < atol < np.inf:
            raise ValidationError(f"atol must be positive and finite, got {atol}")
        if self.n_samples < 2:  # a solve sampled only at T = 0 never reaches t_end
            raise ValidationError(f"n_samples must be at least 2, got {self.n_samples}")


@dataclass(frozen=True)
class Trajectory:
    """Samples of one solve; ``meta`` holds its ``nfev`` and ``max_step`` (see ``_solve``)."""

    times: np.ndarray
    states: np.ndarray  # shape (n_samples, K), complex
    meta: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return self.states.shape[1]

    def masses(self) -> np.ndarray:
        return np.sum(np.abs(self.states) ** 2, axis=1)


@dataclass(frozen=True)
class DiagnosticsSeries:
    """Diagnostics of a trajectory, one entry per sample at its ``times``."""

    mass: np.ndarray
    energy: np.ndarray
    ground_occupation: np.ndarray
    tail_masses: np.ndarray  # shape (K - 1, n): tail_masses[j - 1] = m_j = sum_{k>=j} |F_k|^2
    logistic: np.ndarray | None
    gamma_tilde: float | None
    flags: dict = field(default_factory=dict)

    def mass_drift(self) -> float:
        return float(np.max(np.abs(self.mass - self.mass[0])))

    def logistic_margin(self) -> float | None:
        """Least ground occupation above the logistic bound; None where the bound does not apply."""
        if self.logistic is None:
            return None
        return float(np.min(self.ground_occupation - self.logistic))

    def max_energy_increase(self) -> float:
        return float(max(0.0, np.max(np.diff(self.energy), initial=-np.inf)))

    def max_tail_increase(self) -> float:
        diffs = np.diff(self.tail_masses, axis=1)
        return float(max(0.0, np.max(diffs, initial=-np.inf)))


def _require_state(state: np.ndarray, size: int) -> np.ndarray:
    state = np.asarray(state, dtype=complex)
    if state.shape != (size,):
        raise ValidationError(
            f"state has {state.shape} entries, coefficients expect {size}"
        )
    return state


def _modulus_occupation_rhs(matrix: np.ndarray):
    """(r, N) -> (r * (Re M r^2), r^2) for the generator M, one K x K product per call.

    In ``rk.dop853``'s stage form with no phase rates: the phase rows are
    empty and ignored.
    """
    size = len(matrix)
    real = np.ascontiguousarray(matrix.real)

    def rhs(_v, _v_conj, y, out):
        r, head, occupation = y[:size], out[:size], out[size:]
        np.multiply(r, r, out=occupation)
        np.multiply(r, real.dot(occupation, out=head), out=head)

    return rhs


def _prelimit_rhs(tensor: PrelimitTensor):
    """The prelimit right-hand side in ``rk.dop853``'s stage form, and its phase rates.

    With v = e^{i t E / eta^2} and G = conj(v) F, the sum over (b, c, d)
    of tensor[a,b,c,d] e^{i t dE / eta^2} F_c conj(F_d) F_b equals
    v_a (S G)_a with S[a,b] = sum_{c,d} tensor[a,b,c,d] G_c conj(G_d).
    The RHS receives v and conj(v), so a call is six numpy calls into
    buffers made once: no exponential and no allocation.
    """
    size = tensor.size
    flat = tensor.tensor.reshape(size * size, size * size)
    rates = tensor.energies / tensor.eta**2
    g = np.empty(size, dtype=complex)
    g_conj = np.empty_like(g)
    pairs = np.empty((size, size), dtype=complex)
    s = np.empty_like(pairs)
    g_column, pairs_flat, s_flat = g[:, None], pairs.reshape(-1), s.reshape(-1)
    # S G gets its own buffer: numpy's in-place complex multiply of length
    # one rounds differently from the out-of-place one
    sg = np.empty_like(g)

    def rhs(v, v_conj, y, out):
        np.multiply(v_conj, y, out=g)
        np.multiply(g_column, np.conjugate(g, out=g_conj), out=pairs)
        flat.dot(pairs_flat, out=s_flat)
        np.multiply(v, s.dot(g, out=sg), out=out)

    return rhs, rates


def fastest_phase(tensor: PrelimitTensor) -> float:
    """Largest |dE| among quadruples that actually contribute.

    This is the fastest prelimit phase rate times eta^2, with
    dE = (E_a - E_b) - (E_c - E_d).  A quadruple with a zero coefficient
    cannot force the step cap: the tests build masked tensors (see
    ``test_tiny_eta_resonant_tensor_reproduces_limit``) whose zeroed
    quadruples must not set it.
    """
    active = tensor.tensor != 0.0
    if not np.any(active):
        return 0.0
    return float(np.max(np.abs(gap_differences(tensor.energies)[active])))


def _solve(rhs, rates: np.ndarray, y0: np.ndarray, options: SolverOptions, max_step=np.inf):
    """One adaptive solve by METHOD; returns (sample times, samples (n, dim), meta).

    ``rhs`` and ``rates`` are in ``rk.dop853``'s stage form; the samples
    sit where ``options`` say.  ``meta`` holds what the solve produced:
    its RHS evaluations ``nfev`` and the step cap ``max_step`` it ran
    under (None when uncapped); the inputs stay with the caller.

    Raises on bad input, solver breakdown or non-finite output instead of
    returning partial data; the horizon and tolerances are ``SolverOptions``' to check.
    """
    if not np.all(np.isfinite(y0)):
        raise ValidationError("initial state contains non-finite entries")
    t_end = float(options.t_end)
    times = np.linspace(0.0, t_end, options.n_samples)

    samples, nfev = dop853(rhs, rates, y0, t_end, times, options.rtol, options.atol, max_step)
    finite = np.all(np.isfinite(samples), axis=1)
    if not np.all(finite):
        bad = times[np.argmin(finite)]
        raise NumericalError(f"integration failed at t = {bad}: non-finite amplitudes")

    meta = {"max_step": None if np.isinf(max_step) else max_step, "nfev": nfev}
    return times, samples, meta


def integrate_limit(
    matrix: np.ndarray, initial_state: np.ndarray, options: SolverOptions
) -> Trajectory:
    """Integrate dF_k/dT = sum_k' M[k,k'] |F_k'|^2 F_k for the K x K generator ``matrix``.

    The generator is ``CoefficientSet.limit_matrix`` in production.  The
    real system y = (r, N) of size 2K runs by METHOD, sampled where
    ``options`` say; the returned states are r e^{i theta} with
    theta = theta(0) + Im M N, exact because theta' = Im M r^2 does not
    involve theta.  N starts at zero and Im M never enters the solver, so
    it takes the same steps, and returns the same moduli, for every choice
    of initial phases and of Im M.
    """
    size = len(matrix)
    state = _require_state(initial_state, size)
    y0 = np.concatenate([np.abs(state), np.zeros(size)])
    times, samples, meta = _solve(_modulus_occupation_rhs(matrix), np.empty(0), y0, options)
    phases = np.angle(state) + samples[:, size:] @ matrix.imag.T
    states = samples[:, :size] * np.exp(1j * phases)
    return Trajectory(times=times, states=np.ascontiguousarray(states), meta=meta)


def integrate_prelimit(
    tensor: PrelimitTensor, initial_state: np.ndarray, options: SolverOptions
) -> Trajectory:
    """Integrate the prelimit system by METHOD, sampled where ``options`` say.

    Steps are capped at PRELIMIT_STEP_CAP of the fastest phase period.
    """
    rate = fastest_phase(tensor) / tensor.eta**2
    cap = PRELIMIT_STEP_CAP * 2.0 * np.pi / rate if rate > 0 else np.inf
    state = _require_state(initial_state, tensor.size)
    rhs, rates = _prelimit_rhs(tensor)
    times, samples, meta = _solve(rhs, rates, state, options, cap)
    return Trajectory(times=times, states=np.ascontiguousarray(samples), meta=meta)


def logistic_bound(f0_ground_mass: float, gamma_tilde: float, t) -> float | np.ndarray:
    """Lower bound for the ground occupation of unit-mass data.

    1 / (1 + (1 - x0)/x0 * exp(-2 gamma t)) with x0 the initial ground
    occupation; valid for data supported on finitely many modes with
    gamma the smallest ground-row rate among them.
    """
    x0 = float(f0_ground_mass)
    if not 0.0 < x0 <= 1.0:
        raise ValidationError(f"initial ground occupation must be in (0, 1], got {x0}")
    if gamma_tilde <= 0:
        raise ValidationError(f"rate must be positive, got {gamma_tilde}")
    t = np.asarray(t, dtype=float)
    out = 1.0 / (1.0 + (1.0 - x0) / x0 * np.exp(-2.0 * gamma_tilde * t))
    return float(out) if out.ndim == 0 else out


def invariant_verdicts(
    series: DiagnosticsSeries, options: SolverOptions
) -> dict[str, tuple[float, float]]:
    """Measured defect and budget of the mass, energy and tail invariants of a run.

    The largest energy and tail increases may reach BUDGET_PER_RTOL * rtol;
    the mass drift, which accumulates over the run, that times t_end.
    """
    budget = BUDGET_PER_RTOL * options.rtol
    return {
        "mass_conservation": (series.mass_drift(), budget * options.t_end),
        "energy_monotonicity": (series.max_energy_increase(), budget),
        "tail_monotonicity": (series.max_tail_increase(), budget),
    }


def diagnostics(
    traj: Trajectory,
    energies: np.ndarray,
    coeffs: CoefficientSet,
) -> DiagnosticsSeries:
    """Mass, energy, ground occupation, tail masses, and the logistic trace.

    The logistic lower bound is attached only when it applies: unit-mass
    data with nonzero ground occupation and strictly positive ground-row
    rates over the occupied modes.  Otherwise the series records why it
    was skipped instead of dividing by zero.
    """
    energies = np.asarray(energies, dtype=float)
    occ = np.abs(traj.states) ** 2  # (n, K)
    size = occ.shape[1]
    if len(energies) != size:
        raise ValidationError("energy vector does not match the trajectory size")

    mass = np.sum(occ, axis=1)
    energy = occ @ energies
    ground = occ[:, 0]
    # m_j = sum_{k >= j} |F_k|^2 for j = 1 .. K-1; m_1 is the excited mass
    tails = np.cumsum(occ[:, :0:-1], axis=1)[:, ::-1].T

    flags: dict = {}
    logistic = None
    gamma_tilde = None
    occ0 = occ[0]
    support = np.flatnonzero(occ0 > 1e-14 * max(mass[0], 1.0))
    if ground[0] <= 0.0:
        flags["logistic_skipped"] = "zero initial ground occupation"
    elif abs(mass[0] - 1.0) > 1e-9:
        flags["logistic_skipped"] = "initial data not unit mass"
    elif len(support) == 1 and support[0] == 0:
        logistic = np.ones_like(traj.times)
        flags["logistic_note"] = "ground-only data; bound is identically 1"
    else:
        top = int(support[-1])
        rates = coeffs.fgr[0, 1 : top + 1]
        if np.min(rates) < MIN_GROUND_RATE:
            flags["logistic_skipped"] = (
                f"ground-row rate below {MIN_GROUND_RATE:g} for some occupied mode"
            )
        else:
            gamma_tilde = float(np.min(rates))
            logistic = logistic_bound(float(ground[0]), gamma_tilde, traj.times)

    return DiagnosticsSeries(
        mass=mass,
        energy=energy,
        ground_occupation=ground,
        tail_masses=tails,
        logistic=logistic,
        gamma_tilde=gamma_tilde,
        flags=flags,
    )
