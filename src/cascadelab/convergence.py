"""Weak-coupling sweep: distance between prelimit and limit trajectories.

For a decreasing list of coupling parameters eta the prelimit system is
integrated with its tensor evaluated at eps = eta^2 and compared against
the limit cascade started from the same initial data.  The theorem under
test claims strong convergence on [0, T0] but no rate, so the report
asserts monotone decrease of the sup distance, nothing more.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .coeffs import (
    CoeffOptions,
    assemble_limit_matrix,
    assemble_prelimit_tensor,
    limit_matrix_from_tensor,
)
from .dynamics import SolverOptions, integrate_limit, integrate_prelimit
from .errors import ValidationError
from .kernels import InteractionKernel
from .spectrum import EigenBasis

#: Fewest sample times on which a sup distance is measured.
MIN_SWEEP_SAMPLES = 200


@dataclass(frozen=True)
class ConvergenceReport:
    etas: tuple
    sup_distances: tuple
    terminal_distances: tuple
    mass_drifts: tuple
    initial_distance: float
    monotone_within_noise: bool
    strictly_decreasing: bool
    noise_factor: float
    meta: dict = field(default_factory=dict)

    @property
    def is_empty(self) -> bool:
        return len(self.etas) == 0

    def to_rows(self):
        return list(zip(self.etas, self.sup_distances, self.terminal_distances, self.mass_drifts))


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
    noise_factor: float = 1.2,
    threads: int = 1,
) -> ConvergenceReport:
    """Run the sweep and measure sup_T l2 distances on a common sample grid.

    The limit trajectory is integrated once; each prelimit run shares its
    initial data and sample times.  Per-eta runs are independent and may
    execute on a thread pool; the report is always assembled in list
    order, so results are reproducible bit for bit.
    """
    etas = tuple(float(e) for e in etas)
    if len(etas) == 0:
        return ConvergenceReport((), (), (), (), 0.0, True, True, noise_factor)
    if any(e <= 0 for e in etas):
        raise ValidationError("all eta values must be positive")
    if any(b >= a for a, b in zip(etas, etas[1:])):
        raise ValidationError(f"eta values must be strictly decreasing, got {etas}")

    n_samples = int(n_samples)
    if n_samples < MIN_SWEEP_SAMPLES:
        raise ValidationError(
            f"sweep needs at least {MIN_SWEEP_SAMPLES} samples, got {n_samples}"
        )
    t_eval = np.linspace(0.0, float(t_final), n_samples)
    initial_state = np.asarray(initial_state, dtype=complex)

    restricted = coeff_options.tensor_restriction == "resonant"
    if not restricted:
        limit_coeffs = assemble_limit_matrix(basis, coupling, pair, coeff_options)
        limit_traj = integrate_limit(limit_coeffs, initial_state, t_final, solver, t_eval)
    mass0 = float(np.sum(np.abs(initial_state) ** 2))

    def run_one(eta: float):
        tensor = assemble_prelimit_tensor(basis, coupling, pair, eta, coeff_options)
        traj = integrate_prelimit(tensor, initial_state, t_final, solver, t_eval)
        if restricted:
            # algebraic-identity mode: a resonant-only tensor has constant
            # phases, so its flow must match the generator collapsed from
            # the same tensor entries up to integrator noise
            collapsed = replace(tensor, limit_matrix=limit_matrix_from_tensor(tensor))
            reference = integrate_limit(collapsed, initial_state, t_final, solver, t_eval)
        else:
            reference = limit_traj
        distances = np.linalg.norm(traj.states - reference.states, axis=1)
        sup = float(np.max(distances))
        terminal = float(distances[-1])
        drift = float(np.max(np.abs(traj.masses() - mass0)))
        return sup, terminal, drift, float(distances[0])

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_one, etas))
    else:
        results = [run_one(e) for e in etas]

    sups = tuple(r[0] for r in results)
    terminals = tuple(r[1] for r in results)
    drifts = tuple(r[2] for r in results)
    initial_distance = max(r[3] for r in results)

    monotone = all(b <= noise_factor * a for a, b in zip(sups, sups[1:]))
    strict = all(b < a for a, b in zip(sups, sups[1:]))
    meta = {
        "t_final": float(t_final),
        "n_samples": n_samples,
        "rtol": solver.rtol,
        "atol": solver.atol,
        "eps_policy": coeff_options.eps_policy,
        "modes": basis.size,
    }
    return ConvergenceReport(
        etas, sups, terminals, drifts, initial_distance, monotone, strict, noise_factor, meta
    )
