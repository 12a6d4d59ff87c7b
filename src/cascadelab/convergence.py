"""Weak-coupling sweep: distance between prelimit and limit trajectories.

For a decreasing list of coupling parameters eta the prelimit system is
integrated with its tensor evaluated at eps = eta^2 and compared against
the limit cascade started from the same initial data.  The theorem under
test claims strong convergence on [0, T0] but no rate, so the report
asserts monotone decrease of the sup distance, nothing more.

The prelimit solves are independent of each other, so they run on forked
worker processes, min(number of eta, usable CPUs) of them, smallest eta
(the costliest solve, ~ eta^-2) first, while this process integrates the
limit trajectory.  Forked workers start from this process's imported
modules instead of importing them again.  With one usable CPU, or where
the "fork" start method is missing, the same per-eta function runs here
instead.  Each solve is deterministic and the results are collected in
input order, so the report does not depend on which route ran it.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .coeffs import CoeffOptions, assemble_limit_matrix, assemble_prelimit_tensor
from .dynamics import SolverOptions, Trajectory, integrate_limit, integrate_prelimit
from .errors import NumericalError, ValidationError
from .kernels import InteractionKernel
from .spectrum import EigenBasis

#: Fewest sample times on which a sup distance is measured.
MIN_SWEEP_SAMPLES = 200

#: A sweep is monotone within noise when each sup distance is at most this
#: factor times the one before it.
NOISE_FACTOR = 1.2


@dataclass(frozen=True)
class ConvergenceReport:
    etas: tuple
    sup_distances: tuple
    terminal_distances: tuple
    mass_drifts: tuple
    initial_distance: float
    monotone_within_noise: bool
    strictly_decreasing: bool
    meta: dict = field(default_factory=dict)

    @property
    def is_empty(self) -> bool:
        return len(self.etas) == 0

    def to_rows(self):
        return list(zip(self.etas, self.sup_distances, self.terminal_distances, self.mass_drifts))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_pool(jobs: int) -> ProcessPoolExecutor | None:
    """A fork pool of min(jobs, usable CPUs) workers, or None when that is one."""
    workers = min(jobs, _usable_cpus())
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return None
    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))


def _prelimit_run(
    basis: EigenBasis,
    coupling: InteractionKernel,
    pair: InteractionKernel,
    initial_state: np.ndarray,
    t_final: float,
    solver: SolverOptions,
    coeff_options: CoeffOptions,
    t_eval: np.ndarray,
    eta: float,
) -> Trajectory:
    """One eta of the sweep: assemble its tensor and integrate the prelimit system."""
    tensor = assemble_prelimit_tensor(basis, coupling, pair, eta, coeff_options)
    return integrate_prelimit(tensor, initial_state, t_final, solver, t_eval)


def eta_sweep(
    basis: EigenBasis,
    coupling: InteractionKernel,
    pair: InteractionKernel,
    initial_state: np.ndarray,
    t_final: float,
    etas,
    solver: SolverOptions = SolverOptions(),
    coeff_options: CoeffOptions = CoeffOptions(),
    n_samples: int = 256,
) -> ConvergenceReport:
    """Run the sweep and measure sup_T l2 distances on a common sample grid.

    The limit trajectory is integrated once; each prelimit run shares its
    initial data and sample times.  A worker that dies surfaces as a
    NumericalError; errors raised in a worker keep their class and message.
    """
    etas = tuple(float(e) for e in etas)
    if len(etas) == 0:
        return ConvergenceReport((), (), (), (), 0.0, True, True)
    if not all(0 < e < np.inf for e in etas):
        raise ValidationError(f"eta values must be positive and finite, got {etas}")
    if any(b >= a for a, b in zip(etas, etas[1:])):
        raise ValidationError(f"eta values must be strictly decreasing, got {etas}")
    if not 0 < t_final < np.inf:
        raise ValidationError(f"t_final must be positive and finite, got {t_final}")

    n_samples = int(n_samples)
    if n_samples < MIN_SWEEP_SAMPLES:
        raise ValidationError(
            f"sweep needs at least {MIN_SWEEP_SAMPLES} samples, got {n_samples}"
        )
    t_eval = np.linspace(0.0, float(t_final), n_samples)
    initial_state = np.asarray(initial_state, dtype=complex)

    run = partial(
        _prelimit_run, basis, coupling, pair, initial_state, t_final, solver,
        coeff_options, t_eval,
    )
    pool = _worker_pool(len(etas))
    try:
        # smallest eta first: it costs most and sets the makespan
        runs = (map if pool is None else pool.map)(run, etas[::-1])
        limit_coeffs = assemble_limit_matrix(basis, coupling, pair, coeff_options)
        limit_traj = integrate_limit(limit_coeffs, initial_state, t_final, solver, t_eval)
        trajs = list(runs)[::-1]
    except BrokenProcessPool as exc:
        raise NumericalError(f"a prelimit worker process died: {exc}") from exc
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    mass0 = float(np.sum(np.abs(initial_state) ** 2))

    def measure(traj: Trajectory):
        distances = np.linalg.norm(traj.states - limit_traj.states, axis=1)
        sup = float(np.max(distances))
        terminal = float(distances[-1])
        drift = float(np.max(np.abs(traj.masses() - mass0)))
        return sup, terminal, drift, float(distances[0]), traj.meta

    results = [measure(traj) for traj in trajs]

    sups = tuple(r[0] for r in results)
    terminals = tuple(r[1] for r in results)
    drifts = tuple(r[2] for r in results)
    initial_distance = max(r[3] for r in results)

    monotone = all(b <= NOISE_FACTOR * a for a, b in zip(sups, sups[1:]))
    strict = all(b < a for a, b in zip(sups, sups[1:]))
    meta = {
        "t_final": float(t_final),
        "n_samples": n_samples,
        "rtol": solver.rtol,
        "atol": solver.atol,
        "eps_policy": coeff_options.eps_policy,
        "modes": basis.size,
        # the prelimit integrator, and what each eta cost under it: RHS
        # evaluations and the step cap it ran under
        "prelimit_method": results[0][4]["method"],
        "prelimit_nfev": [r[4]["nfev"] for r in results],
        "prelimit_max_step": [r[4]["max_step"] for r in results],
    }
    return ConvergenceReport(
        etas, sups, terminals, drifts, initial_distance, monotone, strict, meta
    )
