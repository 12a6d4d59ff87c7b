import json
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from cascadelab.cli import main
from cascadelab.config import (
    SimulationConfig,
    config_hash,
    emit_config,
    parse_config,
)
from cascadelab.errors import ConfigError, ValidationError


def write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_minimal_file_applies_defaults(tmp_path):
    config = parse_config(write(tmp_path, "[trap]\nmodes = 4\n"))
    assert config.trap.modes == 4
    assert config.trap.beta == 0.2  # defaulted
    assert config.momentum.n_rho == 8192  # defaulted
    echoed = emit_config(config)
    assert "modes = 4" in echoed
    assert "n_rho = 8192" in echoed  # defaults are echoed for provenance


def test_missing_file():
    with pytest.raises(ConfigError):
        parse_config("/nonexistent/path.cfg")


def test_unknown_key_is_hard_error(tmp_path):
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(write(tmp_path, "[trap]\nmodez = 4\n"))
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config(write(tmp_path, "[trapp]\nmodes = 4\n"))


def test_type_mismatch(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, "[trap]\nn_points = many\n"))
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, "[dynamics]\nnormalize = maybe\n"))


def test_invalid_values_rejected(tmp_path):
    with pytest.raises(ValidationError):
        parse_config(write(tmp_path, "[trap]\nn_points = -100\n"))
    with pytest.raises(ValidationError):
        parse_config(write(tmp_path, "[dynamics]\nrtol = 0\n"))
    with pytest.raises(ValidationError):
        parse_config(write(tmp_path, "[sweep]\netas = 0.1, 0.2\n"))


def test_rtol_below_solver_floor_rejected(tmp_path):
    """The solver would raise it to 2.2e-14 while the outputs record the configured value."""
    with pytest.raises(ValidationError, match="dynamics rtol"):
        parse_config(write(tmp_path, "[dynamics]\nrtol = 1e-15\n"))
    assert parse_config(write(tmp_path, "[dynamics]\nrtol = 1e-13\n")).dynamics.rtol == 1e-13


def test_small_sweep_sample_count_rejected(tmp_path):
    with pytest.raises(ValidationError, match="sweep samples"):
        parse_config(write(tmp_path, "[sweep]\nsamples = 5\n"))
    assert parse_config(write(tmp_path, "[sweep]\nsamples = 200\n")).sweep.samples == 200


@pytest.mark.parametrize(
    "line, setup_fields, message",
    [
        pytest.param("etas = 0.2, 0.0", {"etas": (0.2, 0.0)}, "positive and finite", id="eta-zero"),
        pytest.param("etas = -0.1", {"etas": (-0.1,)}, "positive and finite", id="eta-negative"),
        pytest.param("etas = inf, 0.2", {"etas": (np.inf, 0.2)}, "and finite", id="eta-inf"),
        pytest.param("etas = 0.1, 0.2", {"etas": (0.1, 0.2)}, "strictly decreasing", id="eta-up"),
        pytest.param("etas = 0.2, 0.2", {"etas": (0.2, 0.2)}, "strictly decreasing", id="eta-flat"),
        pytest.param("t_final = 0", {"t_final": 0.0}, "t_final must be positive", id="t-zero"),
        pytest.param("t_final = inf", {"t_final": np.inf}, "t_final must be positive", id="t-inf"),
        pytest.param(
            "samples = 199", {"n_samples": 199}, "sweep samples must be at least 200, got 199",
            id="samples",
        ),
    ],
)
def test_config_and_sweep_setup_share_the_sweep_rules(
    tmp_path, sweep_assets, line, setup_fields, message
):
    """A [sweep] section and a SweepSetup fail the same rule with the same error.

    Both start from the same sweep (etas 0.2, 0.1, 0.05, t_final 1, 256
    samples) and change the one input named.
    """
    with pytest.raises(ValidationError, match=message) as from_config:
        parse_config(write(tmp_path, f"[sweep]\n{line}\n"))
    setup = sweep_assets.sweep
    solver = replace(setup.solver, n_samples=setup_fields.pop("n_samples", setup.solver.n_samples))
    with pytest.raises(ValidationError) as from_setup:
        replace(setup, solver=solver, **setup_fields)
    assert type(from_setup.value) is type(from_config.value)
    assert str(from_setup.value) == str(from_config.value)


@pytest.mark.parametrize(
    "name, preset",
    [
        pytest.param("default.cfg", SimulationConfig.default, id="default"),
        pytest.param("convergence.cfg", SimulationConfig.convergence, id="convergence"),
    ],
)
def test_shipped_config_equals_its_preset(name, preset):
    """Each shipped config is its preset in every section but [output]."""
    path = Path(__file__).resolve().parents[1] / "configs" / name
    shipped, expected = asdict(parse_config(str(path))), asdict(preset())
    del shipped["output"], expected["output"]
    assert shipped == expected


def test_round_trip(tmp_path):
    original = parse_config(
        write(tmp_path, "[trap]\nmodes = 3\nscale = 2.5\n[dynamics]\ninitial = uniform(3)\n")
    )
    emitted = emit_config(original)
    reparsed = parse_config(write(tmp_path, emitted))
    assert emit_config(reparsed) == emitted
    assert config_hash(reparsed) == config_hash(original)


def test_initial_state_presets():
    config = SimulationConfig.default()
    config.dynamics.initial = "ground-only"
    state = config.initial_state()
    assert state[0] == 1.0 and np.all(state[1:] == 0)

    config.dynamics.initial = "two-mode(0.25)"
    state = config.initial_state()
    assert abs(state[0]) ** 2 == pytest.approx(0.25)
    assert abs(state[1]) ** 2 == pytest.approx(0.75)

    config.dynamics.initial = "uniform(4)"
    state = config.initial_state()
    assert np.allclose(np.abs(state[:4]) ** 2, 0.25)
    assert np.all(state[4:] == 0)

    config.dynamics.initial = "geometric(0.5)"
    state = config.initial_state()
    assert np.linalg.norm(state) == pytest.approx(1.0)
    assert abs(state[1] / state[0]) == pytest.approx(0.5)


def test_initial_state_explicit_list():
    config = SimulationConfig.default()
    config.dynamics.initial = "1, 0.5+0.5j, 0, 0, 0, 0"
    config.dynamics.normalize = False
    state = config.initial_state()
    assert state[1] == 0.5 + 0.5j
    config.dynamics.normalize = True
    assert np.linalg.norm(config.initial_state()) == pytest.approx(1.0)


def test_initial_state_errors():
    config = SimulationConfig.default()
    config.dynamics.initial = "uniform(9)"  # more modes than the trap carries
    with pytest.raises(ValidationError):
        config.initial_state()
    config.dynamics.initial = "what(1)"
    with pytest.raises(ConfigError):
        config.initial_state()


def test_coefficient_preset_parse():
    config = SimulationConfig.default()
    assert config.coefficient_preset() is None
    config.dynamics.coefficient_preset = "two-mode(1.5)"
    assert config.coefficient_preset() == 1.5
    config.dynamics.coefficient_preset = "three-mode(1)"
    with pytest.raises(ConfigError):
        config.coefficient_preset()


def test_rho_max_policy():
    config = SimulationConfig.default()
    assert config.rho_max_value(1.0) == pytest.approx(12.0)
    config.momentum.rho_max = "25.0"
    assert config.rho_max_value(1.0) == 25.0


@pytest.mark.parametrize(
    "text, named",
    [
        pytest.param("[conventions]\nfgr_pi_factor = true\n", "[conventions]", id="fgr_pi_factor"),
        pytest.param(
            "[conventions]\ninclude_degenerate = true\n", "[conventions]", id="include_degenerate"
        ),
        pytest.param("[conventions]\neps_policy = limit\n", "[conventions]", id="eps_policy"),
        pytest.param("[conventions]\ngap_tol = 1e-8\n", "[conventions]", id="gap_tol"),
        pytest.param("[trap]\nkind = harmonic\n", "'kind'", id="kind"),
    ],
)
def test_removed_convention_key_exits_2(tmp_path, capsys, text, named):
    """Fixed conventions and derived inputs are no keys; setting one is a config error.

    The message names the unknown section, or the unknown key of a known one.
    """
    path = write(tmp_path, text)
    assert main(["spectrum", "--config", path, "--out", str(tmp_path / "o")]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "config"
    assert named in record["message"]
