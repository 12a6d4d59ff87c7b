import json
import re
import sys
import warnings
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from cascadelab.cli import main
from cascadelab.config import (
    _SECTIONS,
    SimulationConfig,
    config_hash,
    emit_config,
    parse_config,
)
from cascadelab.dynamics import SolverOptions
from cascadelab.errors import ConfigError, ValidationError
from cascadelab.grids import MomentumGrid, RadialGrid
from cascadelab.kernels import gaussian_kernel
from cascadelab.spectrum import Potential, solve_radial_eigenpairs

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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
    """A value that does not parse as its field's type names the field, not an unknown key."""
    for section, key, raw in [
        ("trap", "n_points", "many"),
        ("dynamics", "rtol", "tiny"),
        ("sweep", "samples", "2.5"),
    ]:
        with pytest.raises(ConfigError, match=re.escape(f"[{section}] {key}: ")):
            parse_config(write(tmp_path, f"[{section}]\n{key} = {raw}\n"))


def test_every_field_is_int_float_or_str():
    """The parser reads a value as its field default's type, and bool("false") is True.

    So a bool field would read every value as true; it needs its own parse first.
    """
    for section, kind in _SECTIONS.items():
        for f in fields(kind):
            assert type(getattr(kind(), f.name)) in (int, float, str), (section, f.name)


def test_invalid_values_rejected(tmp_path):
    with pytest.raises(ValidationError):
        parse_config(write(tmp_path, "[trap]\nn_points = -100\n"))
    with pytest.raises(ValidationError):
        parse_config(write(tmp_path, "[dynamics]\nrtol = 0\n"))
    with pytest.raises(ValidationError):
        parse_config(write(tmp_path, "[sweep]\netas = 0.1, 0.2\n"))


def test_rtol_below_solver_floor_rejected(tmp_path):
    """The solver would raise it to 2.2e-14 while the outputs record the configured value."""
    with pytest.raises(ValidationError, match="rtol must be finite and at least 2.22e-14"):
        parse_config(write(tmp_path, "[dynamics]\nrtol = 1e-15\n"))
    assert parse_config(write(tmp_path, "[dynamics]\nrtol = 1e-13\n")).dynamics.rtol == 1e-13


def test_small_sweep_sample_count_rejected(tmp_path):
    with pytest.raises(ValidationError, match="sweep samples"):
        parse_config(write(tmp_path, "[sweep]\nsamples = 5\n"))
    assert parse_config(write(tmp_path, "[sweep]\nsamples = 200\n")).sweep.samples == 200


def sweep_with(**fields):
    """The owner of a sweep rule: the canonical SweepSetup with ``fields`` changed."""

    def build(assets):
        setup, changes = assets.sweep, dict(fields)
        solver = replace(setup.solver, n_samples=changes.pop("n_samples", setup.solver.n_samples))
        return replace(setup, solver=solver, **changes)

    return build


def default_grid():
    """The radial grid of the [trap] defaults."""
    return RadialGrid(36.0, 2400)


@pytest.mark.parametrize(
    "text, owner, message",
    [
        pytest.param(
            "[sweep]\netas = 0.2, 0.0", sweep_with(etas=(0.2, 0.0)), "positive and finite",
            id="eta-zero",
        ),
        pytest.param(
            "[sweep]\netas = -0.1", sweep_with(etas=(-0.1,)), "positive and finite",
            id="eta-negative",
        ),
        pytest.param(
            "[sweep]\netas = inf, 0.2", sweep_with(etas=(np.inf, 0.2)), "and finite", id="eta-inf"
        ),
        pytest.param(
            "[sweep]\netas = 0.1, 0.2", sweep_with(etas=(0.1, 0.2)), "strictly decreasing",
            id="eta-up",
        ),
        pytest.param(
            "[sweep]\netas = 0.2, 0.2", sweep_with(etas=(0.2, 0.2)), "strictly decreasing",
            id="eta-flat",
        ),
        pytest.param(
            "[sweep]\nsamples = 199", sweep_with(n_samples=199),
            "sweep samples must be at least 200, got 199", id="samples",
        ),
        pytest.param(
            "[trap]\nn_points = 8", lambda _: RadialGrid(36.0, 8), "n_points must be at least 16",
            id="n_points-few",
        ),
        pytest.param(
            "[trap]\nn_points = 2401", lambda _: RadialGrid(36.0, 2401).coarsened(),
            "n_points must be even", id="n_points-odd",
        ),
        pytest.param(
            "[trap]\nr_max = inf", lambda _: RadialGrid(np.inf, 2400),
            "r_max must be positive and finite", id="r_max",
        ),
        pytest.param(
            "[trap]\nbeta = -1", lambda _: Potential.anharmonic(default_grid(), -1.0, 6.0),
            "beta must be non-negative and finite", id="beta",
        ),
        pytest.param(
            "[trap]\nscale = inf", lambda _: Potential.anharmonic(default_grid(), 0.2, np.inf),
            "scale must be positive and finite", id="scale",
        ),
        pytest.param(
            "[momentum]\nrho_max = -1", lambda _: MomentumGrid(-1.0, 8192),
            "rho_max must be positive and finite", id="rho_max",
        ),
        pytest.param(
            "[momentum]\nn_rho = 8", lambda _: MomentumGrid(8.0, 8), "n_rho must be at least 16",
            id="n_rho",
        ),
        pytest.param(
            "[dynamics]\nt_end = 0", lambda _: SolverOptions(0.0, 1e-11, 1e-14, 501),
            "t_end must be positive and finite, got 0.0", id="t_end-zero",
        ),
        pytest.param(
            "[dynamics]\nt_end = inf", lambda _: SolverOptions(np.inf, 1e-11, 1e-14, 501),
            "t_end must be positive and finite, got inf", id="t_end-inf",
        ),
        pytest.param(
            "[dynamics]\nrtol = 1e-15", lambda _: SolverOptions(50.0, 1e-15, 1e-14, 501),
            "rtol must be finite and at least", id="rtol",
        ),
        pytest.param(
            "[dynamics]\natol = 0", lambda _: SolverOptions(50.0, 1e-11, 0.0, 501),
            "atol must be positive and finite", id="atol",
        ),
        pytest.param(
            "[dynamics]\nsamples = 1", lambda _: SolverOptions(50.0, 1e-11, 1e-14, 1),
            "n_samples must be at least 2, got 1", id="dynamics-samples",
        ),
        pytest.param(
            "[sweep]\nt_final = 0", lambda _: SolverOptions(0.0, 1e-11, 1e-14, 256),
            "t_end must be positive and finite, got 0.0", id="t-zero",
        ),
        pytest.param(
            "[sweep]\nt_final = inf", lambda _: SolverOptions(np.inf, 1e-11, 1e-14, 256),
            "t_end must be positive and finite, got inf", id="t-inf",
        ),
        pytest.param(
            "[trap]\nmodes = 600",
            lambda _: solve_radial_eigenpairs(Potential.anharmonic(default_grid(), 0.2, 6.0), 600),
            "mode count 600 too large", id="modes",
        ),
        pytest.param(
            "[kernels]\ncoupling_amplitude = nan",
            lambda assets: gaussian_kernel("coupling", assets.grid, np.nan, 1.0),
            "coupling kernel amplitude must be finite", id="amplitude",
        ),
        pytest.param(
            "[kernels]\ncoupling_width = 100",
            lambda assets: gaussian_kernel("coupling", default_grid(), 3.0, 100.0),
            "coupling kernel profile has not decayed at r_max", id="width-undecayed",
        ),
    ],
)
def test_config_and_sweep_setup_share_the_sweep_rules(
    tmp_path, sweep_assets, text, owner, message
):
    """A config and the type that owns a rule fail it with the same error.

    The config changes the one input named from the defaults; the owner is
    built from the same values: a SweepSetup from the canonical sweep (etas
    0.2, 0.1, 0.05, 256 samples), a grid or trap from the [trap] or
    [momentum] defaults, solver options from the [dynamics] defaults (t_end
    50, 501 samples) or for the sweep's solve ([sweep] t_final and
    samples), an eigensolve asking for the modes, a kernel on the sweep's
    radial grid.
    """
    with pytest.raises(ValidationError, match=message) as from_config:
        parse_config(write(tmp_path, f"{text}\n"))
    with pytest.raises(ValidationError) as from_owner:
        owner(sweep_assets)
    assert type(from_owner.value) is type(from_config.value)
    assert str(from_owner.value) == str(from_config.value)


SHIPPED = sorted(path.name for path in CONFIGS.glob("*.cfg"))


@pytest.mark.parametrize("name", SHIPPED)
def test_parse_runs_no_eigensolve_or_transform(monkeypatch, name):
    """Parsing asks the grids, trap and solver options, never a spectrum or a transform.

    Every module of the package that binds one of the expensive routines
    gets a stub that raises, so import plus parse stays a setup cost.
    """

    def refuse(*args, **kwargs):
        raise AssertionError("parse_config ran an eigensolve or a transform")

    expensive = ("solve_radial_eigenpairs", "grid_transforms", "transform_profiles")
    stubbed = set()
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("cascadelab."):
            for attr in expensive:
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
                    stubbed.add(attr)
    assert stubbed == set(expensive)
    parse_config(str(CONFIGS / name))


PRESETS = {"default.cfg": SimulationConfig.default, "convergence.cfg": SimulationConfig.convergence}


@pytest.mark.parametrize(
    "name, preset",
    [pytest.param(name, preset, id=name.removesuffix(".cfg")) for name, preset in PRESETS.items()],
)
def test_shipped_config_equals_its_preset(name, preset):
    """Each shipped config is its preset in every section but [output].

    The map covers exactly the files in ``configs/``, so a config added
    without a preset, or a preset whose file is gone, fails here.
    """
    assert sorted(PRESETS) == SHIPPED
    path = CONFIGS / name
    shipped, expected = asdict(parse_config(str(path))), asdict(preset())
    del shipped["output"], expected["output"]
    assert shipped == expected


def test_round_trip(tmp_path):
    original = parse_config(
        write(tmp_path, "[trap]\nmodes = 3\nscale = 2.5\n[dynamics]\ninitial = uniform\n")
    )
    emitted = emit_config(original)
    reparsed = parse_config(write(tmp_path, emitted))
    assert emit_config(reparsed) == emitted
    assert config_hash(reparsed) == config_hash(original)


def test_initial_state_presets():
    config = SimulationConfig.default()
    config.dynamics.initial = "uniform"
    state = config.initial_state()
    assert state.dtype == complex
    assert np.allclose(np.abs(state) ** 2, 1.0 / 6.0)

    config.dynamics.initial = "geometric(0.5)"
    state = config.initial_state()
    assert np.linalg.norm(state) == pytest.approx(1.0)
    assert abs(state[1] / state[0]) == pytest.approx(0.5)


@pytest.mark.parametrize(
    "text, occupations",
    [
        pytest.param("1", [1.0], id="ground"),
        pytest.param("0.5, 0.8660254037844386", [0.25, 0.75], id="two-mode"),
        pytest.param("1, 1, 1, 1", [0.25] * 4, id="uniform-4"),
    ],
)
def test_initial_state_lists_of_the_dropped_presets(text, occupations):
    """A list on the first modes keeps its occupations at unit mass and leaves the rest empty."""
    config = SimulationConfig.default()
    config.dynamics.initial = text
    state = config.initial_state()
    count = len(occupations)
    assert np.abs(state[:count]) ** 2 == pytest.approx(occupations)
    assert np.all(state[count:] == 0)


@pytest.mark.parametrize(
    "text, same_as",
    [
        pytest.param("1e200, 1", "1, 1e-200", id="huge"),
        pytest.param("1e-200, 1e-200", "1, 1", id="tiny"),
        pytest.param("1e-320", "1", id="subnormal"),
        pytest.param("1e308+1e308j, -0.0", "1+1j, -0.0", id="huge-complex"),
    ],
)
def test_initial_state_of_extreme_magnitude(text, same_as):
    """Amplitudes far from 1 keep their direction: only their ratios matter.

    The squared norm once overflowed, so ``1e200, 1`` became the zero vector
    with a numpy warning, or underflowed, so ``1e-200, 1e-200`` and
    ``1e-320`` failed as "zero mass".
    """
    config = SimulationConfig.default()
    config.dynamics.initial = text
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = config.initial_state()
    config.dynamics.initial = same_as
    expected = config.initial_state()
    assert np.max(np.abs(state - expected)) <= 1e-15
    assert np.sum(np.abs(state) ** 2) == pytest.approx(1.0, abs=1e-15)
    assert np.array_equal(np.signbit(state.real), np.signbit(expected.real))


def test_initial_state_explicit_list():
    """Explicit amplitudes come back at unit mass with their ratios kept."""
    config = SimulationConfig.default()
    config.dynamics.initial = "1, 0.5+0.5j, 0, 0, 2j"
    state = config.initial_state()
    assert state.shape == (6,)
    assert np.linalg.norm(state) == pytest.approx(1.0)
    assert state[1] / state[0] == pytest.approx(0.5 + 0.5j)
    assert state[4] / state[0] == pytest.approx(2j)
    assert np.all(state[[2, 3, 5]] == 0)


def test_initial_state_errors():
    config = SimulationConfig.default()
    config.dynamics.initial = ", ".join(["1"] * 9)  # more modes than the trap carries
    with pytest.raises(ValidationError):
        config.initial_state()
    config.dynamics.initial = "what(1)"
    with pytest.raises(ConfigError):
        config.initial_state()


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
