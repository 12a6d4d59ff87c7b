import pytest

from cascadelab.coeffs import CoeffOptions
from cascadelab.convergence import eta_sweep
from cascadelab.dynamics import SolverOptions
from cascadelab.errors import ValidationError


def test_sweep_distances_strictly_decreasing(sweep_report):
    report, _ = sweep_report
    assert report.etas == (0.2, 0.1, 0.05)
    assert report.strictly_decreasing
    assert report.monotone_within_noise
    assert all(d > 0 for d in report.sup_distances)


def test_sweep_error_halves_at_least(sweep_report):
    report, _ = sweep_report
    assert report.sup_distances[-1] * 2.0 <= report.sup_distances[0]


def test_sweep_initial_distance_zero(sweep_report):
    report, _ = sweep_report
    assert report.initial_distance == 0.0


def test_sweep_mass_drift_small(sweep_report):
    report, _ = sweep_report
    assert max(report.mass_drifts) < 1e-9


def test_tiny_eta_resonant_tensor_reproduces_limit(sweep_assets):
    """A resonant-only tensor at nearly-zero eta is the limit system itself."""
    options = CoeffOptions(tensor_restriction="resonant")
    solver = SolverOptions(rtol=1e-9, atol=1e-12)
    report = eta_sweep(
        sweep_assets.basis,
        sweep_assets.coupling,
        sweep_assets.pair,
        sweep_assets.config.initial_state(),
        1.0,
        [1e-3],
        solver=solver,
        coeff_options=options,
        n_samples=200,
    )
    assert report.sup_distances[0] < 10.0 * solver.rtol


def test_empty_eta_list(sweep_assets):
    report = eta_sweep(
        sweep_assets.basis,
        sweep_assets.coupling,
        sweep_assets.pair,
        sweep_assets.config.initial_state(),
        1.0,
        [],
    )
    assert report.is_empty
    assert report.to_rows() == []


def test_eta_list_must_decrease(sweep_assets):
    state = sweep_assets.config.initial_state()
    with pytest.raises(ValidationError):
        eta_sweep(
            sweep_assets.basis, sweep_assets.coupling, sweep_assets.pair,
            state, 1.0, [0.1, 0.2],
        )
    with pytest.raises(ValidationError):
        eta_sweep(
            sweep_assets.basis, sweep_assets.coupling, sweep_assets.pair,
            state, 1.0, [0.2, -0.1],
        )


def test_small_sample_count_rejected(sweep_assets):
    with pytest.raises(ValidationError, match="samples"):
        eta_sweep(
            sweep_assets.basis, sweep_assets.coupling, sweep_assets.pair,
            sweep_assets.config.initial_state(), 1.0, [0.2], n_samples=5,
        )


def test_sweep_reproducible_bit_for_bit(sweep_assets):
    def run():
        return eta_sweep(
            sweep_assets.basis,
            sweep_assets.coupling,
            sweep_assets.pair,
            sweep_assets.config.initial_state(),
            0.5,
            [0.2],
            solver=SolverOptions(rtol=1e-9, atol=1e-12),
            n_samples=200,
        )

    first, second = run(), run()
    assert first.sup_distances == second.sup_distances
    assert first.terminal_distances == second.terminal_distances
    assert first.mass_drifts == second.mass_drifts


def test_threaded_sweep_matches_sequential(sweep_assets):
    kwargs = dict(
        solver=SolverOptions(rtol=1e-9, atol=1e-12),
        coeff_options=sweep_assets.coeff_options,
        n_samples=200,
    )
    state = sweep_assets.config.initial_state()
    sequential = eta_sweep(
        sweep_assets.basis, sweep_assets.coupling, sweep_assets.pair,
        state, 0.5, [0.3, 0.15], threads=1, **kwargs,
    )
    threaded = eta_sweep(
        sweep_assets.basis, sweep_assets.coupling, sweep_assets.pair,
        state, 0.5, [0.3, 0.15], threads=2, **kwargs,
    )
    assert sequential.sup_distances == threaded.sup_distances
