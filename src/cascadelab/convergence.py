"""Weak-coupling sweep: distance between prelimit and limit trajectories.

For a decreasing list of coupling parameters eta the prelimit system is
integrated with its tensor evaluated at eps = eta^2 and compared against
the limit cascade started from the same initial data.  The theorem under
test claims strong convergence on [0, T0] but no rate, so the report
asserts monotone decrease of the sup distance, nothing more.

The prelimit solves are independent of each other, so ``sweep_runs``
starts them on forked worker processes, min(number of solves, usable
CPUs) of them, smallest eta (the costliest solve, ~ eta^-2) first, and
yields one finisher per sweep.  The caller works in this process while
they run; each finisher then integrates its sweep's limit trajectory and
collects its solves.  Several sweeps share one pool: ``check`` starts both
runs of the canonical sweep before its other blocks.  ``eta_sweep`` is the
one-sweep case.  Forked workers start from this process's imported
modules instead of importing them again.  With one usable CPU, or where
the "fork" start method is missing, each finisher runs the same per-eta
function here instead.  Each solve is deterministic and the results are
collected in input order, so the report does not depend on which route
ran it.
"""

from __future__ import annotations

import multiprocessing
import os
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .coeffs import EPS_POLICIES, assemble_limit_matrix, assemble_prelimit_tensor
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


@dataclass(frozen=True)
class SweepSetup:
    """The inputs of one eta sweep, validated on construction.

    Raises ValidationError for an unknown eps_policy, for eta values that
    are not positive, finite and strictly decreasing, for a non-finite or
    non-positive t_final and for fewer than MIN_SWEEP_SAMPLES samples.  An
    empty eta list is a valid sweep with nothing to run.
    """

    basis: EigenBasis
    coupling: InteractionKernel
    pair: InteractionKernel
    initial_state: np.ndarray
    t_final: float
    etas: tuple
    solver: SolverOptions
    eps_policy: str
    n_samples: int

    def __post_init__(self):
        if self.eps_policy not in EPS_POLICIES:
            raise ValidationError(f"unknown eps_policy {self.eps_policy!r}")
        etas = tuple(float(e) for e in self.etas)
        object.__setattr__(self, "etas", etas)
        object.__setattr__(self, "initial_state", np.asarray(self.initial_state, dtype=complex))
        object.__setattr__(self, "n_samples", int(self.n_samples))
        if len(etas) == 0:
            return
        if not all(0 < e < np.inf for e in etas):
            raise ValidationError(f"eta values must be positive and finite, got {etas}")
        if any(b >= a for a, b in zip(etas, etas[1:])):
            raise ValidationError(f"eta values must be strictly decreasing, got {etas}")
        if not 0 < self.t_final < np.inf:
            raise ValidationError(f"t_final must be positive and finite, got {self.t_final}")
        if self.n_samples < MIN_SWEEP_SAMPLES:
            raise ValidationError(
                f"sweep needs at least {MIN_SWEEP_SAMPLES} samples, got {self.n_samples}"
            )

    @property
    def t_eval(self) -> np.ndarray:
        return np.linspace(0.0, float(self.t_final), self.n_samples)

    def prelimit_run(self, eta: float) -> Trajectory:
        """One eta of the sweep: assemble its tensor and integrate the prelimit system."""
        tensor = assemble_prelimit_tensor(
            self.basis, self.coupling, self.pair, eta, self.eps_policy
        )
        return integrate_prelimit(
            tensor, self.initial_state, self.t_final, self.solver, self.t_eval
        )


@contextmanager
def sweep_runs(setups: Iterable[SweepSetup]) -> Iterator[list[Callable[[], ConvergenceReport]]]:
    """Start every prelimit solve of the given sweeps; yield one finisher per sweep.

    All solves go to one pool of min(number of solves, usable CPUs) forked
    workers, smallest eta first across the sweeps, and run while the
    caller works in the with block.  Calling a sweep's finisher integrates
    its limit trajectory here, collects its solves and returns its report;
    on the in-process route the finisher runs the solves itself.  Leaving
    the block cancels the solves not yet started and waits for the running
    ones, so no worker outlives it.  A worker that dies surfaces as a
    NumericalError; errors raised in a worker keep their class and message.
    """
    setups = list(setups)
    solves = [[partial(setup.prelimit_run, eta) for eta in setup.etas] for setup in setups]
    pool = _worker_pool(sum(map(len, solves)))
    try:
        if pool is not None:
            # smallest eta first across the sweeps: it costs most and sets the makespan
            order = sorted(
                (eta, n, i) for n, setup in enumerate(setups) for i, eta in enumerate(setup.etas)
            )
            for _, n, i in order:
                solves[n][i] = pool.submit(solves[n][i]).result
        yield [partial(_finish, setup, runs) for setup, runs in zip(setups, solves)]
    except BrokenProcessPool as exc:
        raise NumericalError(f"a prelimit worker process died: {exc}") from exc
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def eta_sweep(
    basis: EigenBasis,
    coupling: InteractionKernel,
    pair: InteractionKernel,
    initial_state: np.ndarray,
    t_final: float,
    etas,
    solver: SolverOptions = SolverOptions(),
    eps_policy: str = "eta2",
    n_samples: int = 256,
) -> ConvergenceReport:
    """Run the sweep and measure sup_T l2 distances on a common sample grid.

    The limit trajectory is integrated once; each prelimit run shares its
    initial data and sample times.  A worker that dies surfaces as a
    NumericalError; errors raised in a worker keep their class and message.
    """
    setup = SweepSetup(
        basis, coupling, pair, initial_state, t_final, etas, solver, eps_policy, n_samples
    )
    with sweep_runs([setup]) as (finish,):
        return finish()


def _finish(setup: SweepSetup, solves: list[Callable[[], Trajectory]]) -> ConvergenceReport:
    """Integrate the limit trajectory, collect the prelimit runs and measure them."""
    etas, initial_state, solver = setup.etas, setup.initial_state, setup.solver
    if len(etas) == 0:
        return ConvergenceReport((), (), (), (), 0.0, True, True)
    limit_coeffs = assemble_limit_matrix(setup.basis, setup.coupling, setup.pair)
    limit_traj = integrate_limit(limit_coeffs, initial_state, setup.t_final, solver, setup.t_eval)
    # smallest eta first, as dispatched: its error is the one reported
    trajs = [solve() for solve in solves[::-1]][::-1]
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
        "t_final": float(setup.t_final),
        "n_samples": setup.n_samples,
        "rtol": solver.rtol,
        "atol": solver.atol,
        "eps_policy": setup.eps_policy,
        "modes": setup.basis.size,
        # the prelimit integrator, and what each eta cost under it: RHS
        # evaluations and the step cap it ran under
        "prelimit_method": results[0][4]["method"],
        "prelimit_nfev": [r[4]["nfev"] for r in results],
        "prelimit_max_step": [r[4]["max_step"] for r in results],
    }
    return ConvergenceReport(
        etas, sups, terminals, drifts, initial_distance, monotone, strict, meta
    )
