"""Configuration parsing, validation, and canonical re-emission.

Config files are flat sectioned key-value text (INI syntax).  Unknown
sections or keys are hard errors; every defaulted field is echoed back
into the canonical emission, which is what gets hashed into output
provenance.  Two built-in presets cover the standard runs: the cascade
default (length-rescaled anharmonic trap, six modes) and the convergence
sweep (natural-unit anharmonic trap, four modes).
"""

from __future__ import annotations

import configparser
import hashlib
import os
import re
from dataclasses import dataclass, field, fields

import numpy as np

from .convergence import MIN_SWEEP_SAMPLES
from .errors import ConfigError, ValidationError


@dataclass
class TrapConfig:
    kind: str = "anharmonic"
    beta: float = 0.2
    scale: float = 6.0
    r_max: float = 36.0
    n_points: int = 2400
    modes: int = 6
    file: str = ""


@dataclass
class KernelConfig:
    coupling_amplitude: float = 3.0
    coupling_width: float = 1.0
    pair_amplitude: float = 1.0
    pair_width: float = 1.0


@dataclass
class MomentumConfig:
    rho_max: str = "auto"  # "auto" = 4 * largest gap + 8, or a number
    n_rho: int = 8192


@dataclass
class ConventionConfig:
    fgr_pi_factor: bool = True
    include_degenerate: bool = True
    eps_policy: str = "eta2"
    gap_tol: float = 1e-8


@dataclass
class DynamicsConfig:
    initial: str = "uniform"
    normalize: bool = True
    coefficient_preset: str = "none"
    t_end: float = 50.0
    rtol: float = 1e-11
    atol: float = 1e-14
    samples: int = 501
    bec_horizon: float = 200.0
    bec_threshold: float = 1e-3


@dataclass
class SweepConfig:
    etas: str = "0.2, 0.1, 0.05"
    t_final: float = 1.0
    samples: int = 256


@dataclass
class OutputConfig:
    directory: str = "runs/out"


_SECTIONS = {
    "trap": TrapConfig,
    "kernels": KernelConfig,
    "momentum": MomentumConfig,
    "conventions": ConventionConfig,
    "dynamics": DynamicsConfig,
    "sweep": SweepConfig,
    "output": OutputConfig,
}


@dataclass
class SimulationConfig:
    trap: TrapConfig = field(default_factory=TrapConfig)
    kernels: KernelConfig = field(default_factory=KernelConfig)
    momentum: MomentumConfig = field(default_factory=MomentumConfig)
    conventions: ConventionConfig = field(default_factory=ConventionConfig)
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
        if self.momentum.rho_max == "auto":
            return 4.0 * max_gap + 8.0
        return float(self.momentum.rho_max)

    def initial_state(self) -> np.ndarray:
        state = _parse_initial(self.dynamics.initial, self.trap.modes)
        if self.dynamics.normalize:
            norm = np.linalg.norm(state)
            if norm == 0:
                raise ValidationError("initial state has zero mass, cannot normalize")
            state = state / norm
        return state

    def coefficient_preset(self) -> float | None:
        """None for trap-derived coefficients, else the synthetic rate."""
        text = self.dynamics.coefficient_preset.strip().lower()
        if text in ("", "none"):
            return None
        m = re.fullmatch(r"two-mode\(([^)]+)\)", text)
        if m:
            return float(m.group(1))
        raise ConfigError(f"unknown coefficient preset {text!r}")

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def validate(self) -> "SimulationConfig":
        t = self.trap
        if t.kind not in ("harmonic", "anharmonic", "custom"):
            raise ValidationError(f"unknown trap kind {t.kind!r}")
        if t.n_points < 16:
            raise ValidationError(f"trap n_points must be >= 16, got {t.n_points}")
        if t.n_points % 2 != 0:
            raise ValidationError("trap n_points must be even (Richardson pairing)")
        for name, value in (("r_max", t.r_max), ("scale", t.scale)):
            if not value > 0:
                raise ValidationError(f"trap {name} must be positive, got {value}")
        if t.beta < 0:
            raise ValidationError(f"trap beta must be non-negative, got {t.beta}")
        if not 1 <= t.modes < t.n_points / 4:
            raise ValidationError(f"trap modes = {t.modes} invalid for n_points = {t.n_points}")
        k = self.kernels
        for name in ("coupling_width", "pair_width"):
            if not getattr(k, name) > 0:
                raise ValidationError(f"kernel {name} must be positive")
        m = self.momentum
        if m.rho_max != "auto":
            try:
                value = float(m.rho_max)
            except ValueError:
                raise ConfigError(f"momentum rho_max must be 'auto' or a number, got {m.rho_max!r}")
            if not value > 0:
                raise ValidationError("momentum rho_max must be positive")
        if m.n_rho < 16:
            raise ValidationError(f"momentum n_rho must be >= 16, got {m.n_rho}")
        c = self.conventions
        if c.eps_policy not in ("eta2", "limit"):
            raise ValidationError(f"unknown eps_policy {c.eps_policy!r}")
        if not c.gap_tol > 0:
            raise ValidationError("gap_tol must be positive")
        d = self.dynamics
        for name in ("t_end", "rtol", "atol", "bec_horizon", "bec_threshold"):
            if not 0 < getattr(d, name) < np.inf:
                raise ValidationError(f"dynamics {name} must be positive and finite")
        if d.samples < 2:
            raise ValidationError("dynamics samples must be at least 2")
        state = _parse_initial(d.initial, t.modes)
        if len(state) > t.modes:
            raise ValidationError("initial state has more entries than trap modes")
        self.coefficient_preset()
        etas = self.eta_values()
        if not all(0 < e < np.inf for e in etas):
            raise ValidationError("sweep etas must be positive and finite")
        if any(b >= a for a, b in zip(etas, etas[1:])):
            raise ValidationError("sweep etas must be strictly decreasing")
        if not 0 < self.sweep.t_final < np.inf:
            raise ValidationError("sweep t_final must be positive and finite")
        if self.sweep.samples < MIN_SWEEP_SAMPLES:
            raise ValidationError(
                f"sweep samples must be at least {MIN_SWEEP_SAMPLES}, got {self.sweep.samples}"
            )
        return self


def _parse_initial(text: str, modes: int) -> np.ndarray:
    """Initial amplitudes from a preset name or an explicit complex list."""
    text = text.strip()
    low = text.lower()
    if low == "uniform":
        return np.full(modes, 1.0 / np.sqrt(modes), dtype=complex)
    if low == "ground-only":
        state = np.zeros(modes, dtype=complex)
        state[0] = 1.0
        return state
    m = re.fullmatch(r"two-mode\(([^)]+)\)", low)
    if m:
        x0 = float(m.group(1))
        if not 0.0 < x0 < 1.0:
            raise ValidationError(f"two-mode occupation must be in (0,1), got {x0}")
        if modes < 2:
            raise ValidationError("two-mode preset needs at least 2 modes")
        state = np.zeros(modes, dtype=complex)
        state[0] = np.sqrt(x0)
        state[1] = np.sqrt(1.0 - x0)
        return state
    m = re.fullmatch(r"uniform\((\d+)\)", low)
    if m:
        count = int(m.group(1))
        if not 1 <= count <= modes:
            raise ValidationError(f"uniform preset count {count} exceeds {modes} modes")
        state = np.zeros(modes, dtype=complex)
        state[:count] = 1.0 / np.sqrt(count)
        return state
    m = re.fullmatch(r"geometric\(([^)]+)\)", low)
    if m:
        q = float(m.group(1))
        if not 0.0 < q < 1.0:
            raise ValidationError(f"geometric ratio must be in (0,1), got {q}")
        state = q ** np.arange(modes, dtype=float)
        return (state / np.linalg.norm(state)).astype(complex)
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


def _coerce(raw: str, template_value, section: str, key: str):
    kind = type(template_value)
    raw = raw.strip()
    try:
        if kind is bool:
            lowered = raw.lower()
            if lowered in ("true", "yes", "on", "1"):
                return True
            if lowered in ("false", "no", "off", "0"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        return raw
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
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        target = getattr(config, section)
        known = {f.name: getattr(target, f.name) for f in fields(target)}
        for key, raw in parser.items(section):
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            setattr(target, key, _coerce(raw, known[key], section, key))
    return config.validate()


def emit_config(config: SimulationConfig) -> str:
    """Canonical text form with every field present, in fixed order."""
    lines = []
    for section, _ in _SECTIONS.items():
        target = getattr(config, section)
        lines.append(f"[{section}]")
        for f in fields(target):
            lines.append(f"{f.name} = {getattr(target, f.name)}")
        lines.append("")
    return "\n".join(lines)


def config_hash(config: SimulationConfig) -> str:
    return hashlib.sha256(emit_config(config).encode("utf-8")).hexdigest()
