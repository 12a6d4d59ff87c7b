"""Weak-coupling sweep: distance between prelimit and limit trajectories.

For a decreasing list of coupling parameters eta the prelimit system is
integrated with its tensor evaluated at eps = eta^2 and compared against
the limit cascade started from the same initial data.  The theorem under
test claims strong convergence on [0, T0] but no rate, so the report
asserts monotone decrease of the sup distance, nothing more.

A sweep reads one pairing table (``coeffs.PairingTable``), built before
the sweep starts: each eta's tensor is that table's branch sums at
eps = eta^2, and the limit matrix is the same table read at eps = 0.
The prelimit solves are independent of each other, so ``sweep_runs``
starts them on forked worker processes, min(number of solves, usable
CPUs) of them, smallest eta (the costliest solve, ~ eta^-2) first, and
yields one finisher per sweep.  Each worker receives the table with its
setup and runs only the tensor's branch sums and the solve.  The caller
works in this process while they run; each finisher then integrates its
sweep's limit trajectory and collects its solves.  Several sweeps share
one pool: ``check`` starts both runs of the canonical sweep before its
other blocks.  ``eta_sweep(setup)`` is the one-sweep case;
``pipeline.Assets.sweep`` builds the ``SweepSetup`` of a configuration.
Forked workers start from this process's imported modules instead of
importing them again.  With one usable CPU, or where the "fork" start
method is missing, each finisher runs the same per-eta function here
instead.  Each solve is deterministic and the results are collected in
input order, so the report does not depend on which route ran it.

While the pool exists, numpy's OpenBLAS runs at one thread, here and in
the workers, and the count from before is restored after the pool shuts
down: an idle OpenBLAS helper thread busy-spins for about 140 ms after
each threaded call, which takes CPU from the workers while the caller
computes.  The count drops before the first submit forks the workers,
because OpenBLAS shuts its thread pool down at a fork and a count set
afterwards rebuilds it, with a new spinning helper.  Without numpy's
bundled OpenBLAS nothing is set.
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

from .coeffs import (
    PairingTable,
    assemble_limit_matrix,
    assemble_prelimit_tensor,
    require_tensor_modes,
)
from .dynamics import SolverOptions, Trajectory, integrate_limit, integrate_prelimit
from .errors import NumericalError, ValidationError

#: Fewest sample times on which a sup distance is measured.
MIN_SWEEP_SAMPLES = 200


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-eta distances of one sweep; its verdict reads ``sup_distances``.

    ``meta`` holds only what the solves produced, per eta: ``prelimit_nfev``
    and ``prelimit_max_step``.  The settings they ran under stay with the
    ``SweepSetup``.
    """

    etas: tuple
    sup_distances: tuple
    terminal_distances: tuple
    mass_drifts: tuple
    initial_distance: float
    meta: dict = field(default_factory=dict)

    @property
    def strictly_decreasing(self) -> bool:
        """Each sup distance is below the one before it."""
        sups = self.sup_distances
        return all(b < a for a, b in zip(sups, sups[1:]))


def validate_sweep(etas: tuple, samples: int):
    """The sweep rules, for a config's [sweep] section and a SweepSetup alike.

    Raises ValidationError for eta values that are not positive, finite
    and strictly decreasing, and for fewer than MIN_SWEEP_SAMPLES samples.
    The horizon is ``SolverOptions``' to check.
    """
    if not all(0 < e < np.inf for e in etas):
        raise ValidationError(f"sweep etas must be positive and finite, got {etas}")
    if any(b >= a for a, b in zip(etas, etas[1:])):
        raise ValidationError(f"sweep etas must be strictly decreasing, got {etas}")
    if samples < MIN_SWEEP_SAMPLES:
        raise ValidationError(f"sweep samples must be at least {MIN_SWEEP_SAMPLES}, got {samples}")


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _set_blas_threads(count: int) -> int | None:
    """Set the thread count of numpy's bundled OpenBLAS; return the one before.

    Goes through OpenBLAS's runtime API as numpy's scipy-openblas64 exports
    it, loaded with numpy's own ctypes helpers.  Returns None, and sets
    nothing, where numpy bundles no such library (MKL, Accelerate, a system
    BLAS).
    """
    libs = os.path.dirname(np.__file__) + ".libs"
    names = os.listdir(libs) if os.path.isdir(libs) else []
    c_int = np.ctypeslib.as_ctypes_type(np.intc)
    for name in sorted(name for name in names if "openblas" in name):
        try:
            lib = np.ctypeslib.load_library(name, libs)
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], c_int
        put.argtypes, put.restype = [c_int], None
        previous = get()
        put(count)
        return previous
    return None


def _worker_pool(jobs: int) -> ProcessPoolExecutor | None:
    """A fork pool of min(jobs, usable CPUs) workers, or None when that is one."""
    workers = min(jobs, _usable_cpus())
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return None
    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))


@dataclass(frozen=True)
class SweepSetup:
    """The inputs of one eta sweep, validated on construction by ``validate_sweep``
    and, when it has an eta, by the tensor's mode cap (``require_tensor_modes``).

    Each eta's tensor is ``table`` read at eps = eta^2, and the limit
    matrix is ``table`` read at eps = 0.  ``solver`` sets the horizon
    T0 = ``solver.t_end``, the tolerances and the ``n_samples`` evenly
    spaced sample times on [0, T0] of every solve, on which each sup
    distance is measured.  An empty eta list is a valid sweep with
    nothing to run.
    """

    table: PairingTable
    initial_state: np.ndarray
    etas: tuple
    solver: SolverOptions

    def __post_init__(self):
        object.__setattr__(self, "etas", tuple(float(e) for e in self.etas))
        object.__setattr__(self, "initial_state", np.asarray(self.initial_state, dtype=complex))
        validate_sweep(self.etas, self.solver.n_samples)
        if self.etas:  # each eta assembles a tensor; reject one too large before any worker starts
            require_tensor_modes(self.table.basis.size)

    def prelimit_run(self, eta: float) -> Trajectory:
        """One eta of the sweep: read its tensor off the table and integrate the prelimit system."""
        tensor = assemble_prelimit_tensor(self.table, eta)
        return integrate_prelimit(tensor, self.initial_state, self.solver)


@contextmanager
def sweep_runs(setups: Iterable[SweepSetup]) -> Iterator[list[Callable[[], ConvergenceReport]]]:
    """Start every prelimit solve of the given sweeps; yield one finisher per sweep.

    All solves go to one pool of min(number of solves, usable CPUs) forked
    workers, smallest eta first across the sweeps, and run while the
    caller works in the with block.  Calling a sweep's finisher integrates
    its limit trajectory here, collects its solves and returns its report;
    on the in-process route the finisher runs the solves itself.  Leaving
    the block cancels the solves not yet started; the running ones are
    waited for when it is left normally and stopped, by terminating the
    workers, when it is left by an exception.  No worker outlives it.  A
    worker that dies surfaces as a NumericalError; errors raised in a
    worker keep their class and message.
    """
    setups = list(setups)
    solves = [[partial(setup.prelimit_run, eta) for eta in setup.etas] for setup in setups]
    children = set(multiprocessing.active_children())
    pool = _worker_pool(sum(map(len, solves)))
    workers = set()
    blas_threads = None
    try:
        if pool is not None:
            # before the first submit forks the workers, so that they inherit it
            blas_threads = _set_blas_threads(1)
            # smallest eta first across the sweeps: it costs most and sets the makespan
            order = sorted(
                (eta, n, i) for n, setup in enumerate(setups) for i, eta in enumerate(setup.etas)
            )
            for _, n, i in order:
                solves[n][i] = pool.submit(solves[n][i]).result
            # a fork pool starts all its workers on the first submit
            workers = set(multiprocessing.active_children()) - children
        yield [partial(_finish, setup, runs) for setup, runs in zip(setups, solves)]
    except BaseException as exc:
        for worker in workers:
            worker.terminate()
        if isinstance(exc, BrokenProcessPool):
            raise NumericalError(f"a prelimit worker process died: {exc}") from exc
        raise
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        if blas_threads is not None:
            _set_blas_threads(blas_threads)


def eta_sweep(setup: SweepSetup) -> ConvergenceReport:
    """Run one sweep and measure sup_T l2 distances on a common sample grid.

    The limit trajectory is integrated once; each prelimit run shares its
    initial data and sample times.  A worker that dies surfaces as a
    NumericalError; errors raised in a worker keep their class and message.
    """
    with sweep_runs([setup]) as (finish,):
        return finish()


def _finish(setup: SweepSetup, solves: list[Callable[[], Trajectory]]) -> ConvergenceReport:
    """Integrate the limit trajectory, collect the prelimit runs and measure them."""
    etas, initial_state, solver = setup.etas, setup.initial_state, setup.solver
    if len(etas) == 0:
        return ConvergenceReport((), (), (), (), 0.0)
    limit_coeffs = assemble_limit_matrix(setup.table)
    limit_traj = integrate_limit(limit_coeffs.limit_matrix, initial_state, solver)
    # smallest eta first, as dispatched: its error is the one reported
    trajs = [solve() for solve in solves[::-1]][::-1]
    mass0 = float(np.sum(np.abs(initial_state) ** 2))

    def measure(traj: Trajectory):
        distances = np.linalg.norm(traj.states - limit_traj.states, axis=1)
        sup = float(np.max(distances))
        terminal = float(distances[-1])
        drift = float(np.max(np.abs(traj.masses() - mass0)))
        return sup, terminal, drift, float(distances[0]), traj.meta

    sups, terminals, drifts, starts, metas = zip(*map(measure, trajs))
    # what each eta cost: RHS evaluations and the step cap it ran under
    meta = {
        "prelimit_nfev": [m["nfev"] for m in metas],
        "prelimit_max_step": [m["max_step"] for m in metas],
    }
    return ConvergenceReport(etas, sups, terminals, drifts, max(starts), meta)
