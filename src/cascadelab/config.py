"""Configuration parsing, validation, and canonical re-emission.

Config files are flat sectioned key-value text (INI syntax).  Unknown
sections or keys are hard errors; every defaulted field is echoed back
into the canonical emission, which is what gets hashed into output
provenance.  Two built-in presets cover the standard runs: the cascade
default (length-rescaled anharmonic trap, six modes) and the convergence
sweep (natural-unit anharmonic trap, four modes).

A config holds only the inputs a run varies.  The trap is the anharmonic
r^2 + beta r^4 of length ``scale`` (harmonic at beta = 0), or the table
in ``file`` when that is set, and then beta and scale may not be.  What
the paper fixes is no key: the prelimit tensor is evaluated at
eps = eta^2, spectral genericity is judged at ``spectrum.GAP_TOL``, the
initial amplitudes are scaled to unit mass (the cascade is cubic, so a run
of mass m is the unit-mass run at time m t), and condensate formation is
certified against ``checks.BEC_HORIZON`` and ``checks.BEC_THRESHOLD``.
``[dynamics] initial`` is ``uniform``, ``geometric(q)`` or an explicit
complex list; ``SimulationConfig.initial_state`` does the one unit-mass
division.
The coefficients always come from the trap: the synthetic two-mode
logistic that pins the integrator is ``check``'s ``two_mode_exactness``
record, not a config input.
"""

from __future__ import annotations

import configparser
import hashlib
import os
import re
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .convergence import validate_sweep
from .dynamics import SolverOptions
from .errors import ConfigError, ValidationError
from .grids import COVER_FACTOR, MomentumGrid, RadialGrid
from .kernels import InteractionKernel, gaussian_kernel
from .spectrum import Potential, validate_mode_count


@dataclass
class TrapConfig:
    beta: float = 0.2
    scale: float = 6.0
    r_max: float = 36.0
    n_points: int = 2400
    modes: int = 6
    file: str = ""  # non-empty: the tabulated trap; beta and scale may then not be set


@dataclass
class KernelConfig:
    coupling_amplitude: float = 3.0
    coupling_width: float = 1.0
    pair_amplitude: float = 1.0
    pair_width: float = 1.0


@dataclass
class MomentumConfig:
    rho_max: str = "auto"  # "auto" = COVER_FACTOR * largest gap + 8, or a number
    n_rho: int = 8192


@dataclass
class DynamicsConfig:
    initial: str = "uniform"
    t_end: float = 50.0
    rtol: float = 1e-11
    atol: float = 1e-14
    samples: int = 501


@dataclass
class SweepConfig:
    etas: str = "0.2, 0.1, 0.05"
    t_final: float = 1.0
    samples: int = 256


@dataclass
class OutputConfig:
    directory: str = "runs/out"


@dataclass
class SimulationConfig:
    """One field per config section, named as the section, in the order ``emit_config`` writes."""

    trap: TrapConfig = field(default_factory=TrapConfig)
    kernels: KernelConfig = field(default_factory=KernelConfig)
    momentum: MomentumConfig = field(default_factory=MomentumConfig)
    dynamics: DynamicsConfig = field(default_factory=DynamicsConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    # ------------------------------------------------------------------
    # presets
    # ------------------------------------------------------------------

    @staticmethod
    def default() -> "SimulationConfig":
        """Cascade default: soft anharmonic trap, six modes.

        The trap is the natural-unit r^2 + 0.2 r^4 rescaled by length 6 so
        that every pairwise transition frequency stays inside the
        momentum band carried by the mode overlaps; with a stiff
        natural-unit trap, rates between distant modes are exponentially
        below resolvable scales.
        """
        return SimulationConfig()

    @staticmethod
    def convergence() -> "SimulationConfig":
        """Sweep preset: natural-unit anharmonic trap, four modes."""
        cfg = SimulationConfig()
        cfg.trap = TrapConfig(scale=1.0, r_max=12.0, n_points=1600, modes=4)
        cfg.kernels = KernelConfig(coupling_amplitude=1.0)
        cfg.dynamics = DynamicsConfig(
            initial="geometric(0.7)", t_end=1.0, rtol=1e-9, atol=1e-12, samples=256
        )
        return cfg

    # ------------------------------------------------------------------
    # derived values
    # ------------------------------------------------------------------

    def eta_values(self) -> tuple[float, ...]:
        parts = [p.strip() for p in self.sweep.etas.split(",") if p.strip()]
        try:
            return tuple(float(p) for p in parts)
        except ValueError as exc:
            raise ConfigError(f"cannot parse sweep etas {self.sweep.etas!r}: {exc}")

    def rho_max_value(self, max_gap: float) -> float:
        """The rho_max given, or the ``auto`` cutoff for a largest gap ``max_gap``."""
        text = self.momentum.rho_max
        if text == "auto":
            return COVER_FACTOR * max_gap + 8.0
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"momentum rho_max must be 'auto' or a number, got {text!r}")

    def initial_state(self) -> np.ndarray:
        """The finite [dynamics] amplitudes, scaled to unit mass."""
        text = self.dynamics.initial
        state = _parse_initial(text, self.trap.modes)
        if not np.all(np.isfinite(state)):
            raise ValidationError(f"dynamics initial amplitudes must be finite, got {text!r}")
        # bring the largest real or imaginary part into [1/2, 1) by a power of two, which
        # is exact part by part, so the squared norm neither overflows nor underflows
        parts = state.view(float)
        state = np.ldexp(parts, -np.frexp(np.max(np.abs(parts)))[1]).view(state.dtype)
        norm = np.linalg.norm(state)
        if norm == 0:
            raise ValidationError("initial state has zero mass, cannot normalize")
        # a real preset is divided as real numbers, then cast
        return np.asarray(state / norm, dtype=complex)

    def potential(self, grid: RadialGrid) -> Potential:
        """The configured trap on ``grid``: the ``trap.file`` table if set, else the anharmonic one.

        Config validation builds it on the configured grid, so an unusable table fails at parse.
        """
        t = self.trap
        if t.file:
            return Potential(grid, _read_tabulated(t.file, grid))
        return Potential.anharmonic(grid, beta=t.beta, scale=t.scale)

    def kernel(self, role: str, grid: RadialGrid) -> InteractionKernel:
        """The configured ``coupling`` or ``pair`` Gaussian kernel; building it computes nothing."""
        k = self.kernels
        amplitude, width = getattr(k, f"{role}_amplitude"), getattr(k, f"{role}_width")
        return gaussian_kernel(role, grid, amplitude, width)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def validate(self) -> "SimulationConfig":
        """Check every input by building the value that owns its rule; none is restated.

        The kernels and both solves' ``SolverOptions`` are built too; a trap table is
        read, nothing is solved or transformed.
        """
        t, d, sweep = self.trap, self.dynamics, self.sweep
        grid = RadialGrid(t.r_max, t.n_points)
        grid.coarsened()
        self.potential(grid)
        validate_mode_count(t.modes, grid)
        MomentumGrid(self.rho_max_value(0.0), self.momentum.n_rho)
        for role in ("coupling", "pair"):
            self.kernel(role, grid)
        SolverOptions(d.t_end, d.rtol, d.atol, d.samples)
        self.initial_state()
        # before the sweep's SolverOptions, whose own floor of 2 samples is the lower one
        validate_sweep(self.eta_values(), sweep.samples)
        SolverOptions(sweep.t_final, d.rtol, d.atol, sweep.samples)
        return self


def _preset_number(text: str, number: str) -> float:
    """The number inside the [dynamics] initial preset ``text``."""
    try:
        return float(number)
    except ValueError:
        raise ConfigError(f"[dynamics] initial: cannot parse {number!r} in {text!r} as a number")


def _parse_initial(text: str, modes: int) -> np.ndarray:
    """Raw amplitudes of ``uniform``, ``geometric(q)`` or an explicit complex list.

    ``uniform`` and ``geometric(q)`` give real vectors over all ``modes``;
    ``initial_state`` scales them to unit mass.
    """
    text = text.strip()
    low = text.lower()
    if low == "uniform":
        return np.ones(modes)
    m = re.fullmatch(r"geometric\(([^)]+)\)", low)
    if m:
        q = _preset_number(text, m.group(1))
        if not 0.0 < q < 1.0:
            raise ValidationError(f"geometric ratio must be in (0,1), got {q}")
        return q ** np.arange(modes, dtype=float)
    try:
        values = [complex(p.strip().replace(" ", "")) for p in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"cannot parse initial state {text!r}: {exc}")
    if len(values) > modes:
        raise ValidationError("initial state has more entries than trap modes")
    state = np.zeros(modes, dtype=complex)
    state[: len(values)] = values
    return state


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------


def _read_tabulated(path: str, grid: RadialGrid) -> np.ndarray:
    """V(r) of a two-column CSV table whose radii are the grid's nodes.

    A file that cannot be read or parsed (a non-numeric entry, rows of
    unequal length) is a ConfigError; a table with no rows, of another
    width, or on other radii, a ValidationError.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # numpy's on no rows, reported below
            data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read trap file {path}: {exc}")
    if data.size == 0:
        raise ValidationError(f"trap file {path} holds no rows")
    if data.shape[1] != 2:
        raise ValidationError("trap file must have two columns: r, V(r)")
    r, v = data[:, 0], data[:, 1]
    if len(r) != grid.n_points or not np.allclose(r, grid.nodes, rtol=0, atol=1e-12):
        raise ValidationError("trap file radii do not match the configured grid")
    return v


def _coerce(raw: str, template_value, section: str, key: str):
    """``raw`` as the type of the field's default: every field is an int, float or str."""
    try:
        return type(template_value)(raw.strip())
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}")


def parse_config(path: str) -> SimulationConfig:
    """Parse and validate a configuration file.

    Unknown sections and keys are hard errors so that typos cannot
    silently fall back to defaults; missing keys take their defaults and
    are echoed into the canonical emission.
    """
    if not os.path.isfile(path):
        raise ConfigError(f"configuration file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}")

    config = SimulationConfig()
    sections = {f.name for f in fields(config)}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"unknown section [{section}]")
        target = getattr(config, section)
        known = {f.name: getattr(target, f.name) for f in fields(target)}
        for key, raw in parser.items(section):
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            setattr(target, key, _coerce(raw, known[key], section, key))
    if config.trap.file:
        # the table alone is the trap: these would change the hash and nothing else
        ignored = [key for key in ("beta", "scale") if parser.has_option("trap", key)]
        if ignored:
            raise ConfigError(
                f"[trap] {' and '.join(ignored)} cannot be set with a trap file, "
                "which they do not enter"
            )
    return config.validate()


def emit_config(config: SimulationConfig) -> str:
    """Canonical text form with every field present, in fixed order."""
    lines = []
    for section in fields(config):
        target = getattr(config, section.name)
        lines.append(f"[{section.name}]")
        for f in fields(target):
            lines.append(f"{f.name} = {getattr(target, f.name)}")
        lines.append("")
    return "\n".join(lines)


def config_hash(config: SimulationConfig) -> str:
    return hashlib.sha256(emit_config(config).encode("utf-8")).hexdigest()
