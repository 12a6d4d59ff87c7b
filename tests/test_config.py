import numpy as np
import pytest

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
        parse_config(write(tmp_path, "[conventions]\nfgr_pi_factor = maybe\n"))


def test_invalid_values_rejected(tmp_path):
    with pytest.raises(ValidationError):
        parse_config(write(tmp_path, "[trap]\nn_points = -100\n"))
    with pytest.raises(ValidationError):
        parse_config(write(tmp_path, "[dynamics]\nrtol = 0\n"))
    with pytest.raises(ValidationError):
        parse_config(write(tmp_path, "[sweep]\netas = 0.1, 0.2\n"))


def test_small_sweep_sample_count_rejected(tmp_path):
    with pytest.raises(ValidationError, match="sweep samples"):
        parse_config(write(tmp_path, "[sweep]\nsamples = 5\n"))
    assert parse_config(write(tmp_path, "[sweep]\nsamples = 200\n")).sweep.samples == 200


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
