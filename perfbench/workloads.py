"""The three benchmark workloads and the correctness gate of each.

Each workload is one CLI command on one shipped config, run in a closed
loop by a single client.  The gate reads the files the command wrote and
returns the reasons it failed (empty when it passed) and the smallest
``tolerance / measured`` over the quantities it gates on.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: str  # relative to the checkout root
    gate: Callable[[str, object], tuple[list[str], float]]
    #: the seed's phases: one per mode, or one shared by all modes
    per_mode_phases: bool


def _read_json(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name), encoding="utf-8") as handle:
        return json.load(handle)


def _ratio_headroom(pairs) -> float:
    """min tolerance / measured over (measured, tolerance) pairs with both > 0."""
    ratios = [tol / measured for measured, tol in pairs if measured > 0 and tol > 0]
    return min(ratios) if ratios else float("inf")


def gate_cascade(out_dir: str, config) -> tuple[list[str], float]:
    diag = _read_json(out_dir, "diagnostics.json")
    failures = [
        f"diagnostics.{key} is false"
        for key in ("mass_conserved", "energy_monotone", "tails_monotone")
        if diag[key] is not True
    ]
    # the budgets evolve applies when it writes those three flags
    budget = 100.0 * config.dynamics.rtol
    headroom = _ratio_headroom(
        [
            (diag["mass_drift"], budget * config.dynamics.t_end),
            (diag["max_energy_increase"], budget),
            (diag["max_tail_increase"], budget),
        ]
    )
    return failures, headroom


def gate_sweep(out_dir: str, config) -> tuple[list[str], float]:
    report = _read_json(out_dir, "convergence.json")
    failures = [] if report["strictly_decreasing"] is True else ["sweep is not strictly decreasing"]
    sups = report["sup_distances"]
    # the factor-two claim: sup[-1] / sup[0] <= 0.5
    return failures, _ratio_headroom([(sups[-1] / sups[0], 0.5)])


def gate_certify(out_dir: str, config) -> tuple[list[str], float]:
    manifest = _read_json(out_dir, "manifest.json")
    records = [
        (f"{block}.{rec['name']}", rec)
        for block, recs in manifest["checks"].items()
        for rec in recs
    ]
    failures = [f"check {name} failed" for name, rec in records if rec["passed"] is not True]
    if manifest["all_passed"] is not True:
        failures.append("manifest all_passed is false")
    # only records that gate on measured <= tolerance with float values;
    # counts, booleans and lists (sign_convention, spectral_genericity,
    # sweep_strictly_decreasing) carry no margin
    gated = [
        (rec["measured"], rec["tolerance"])
        for _, rec in records
        if type(rec["measured"]) is float and type(rec["tolerance"]) is float
    ]
    return failures, _ratio_headroom(gated)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cascade", "evolve", "configs/default.cfg", gate_cascade, True),
        Workload("sweep", "converge", "configs/convergence.cfg", gate_sweep, False),
        Workload("certify", "check", "configs/default.cfg", gate_certify, True),
    )
}


def seeded_config(root: str, workload: Workload, seed: int, out_path: str) -> str:
    """Path of the config to run: the shipped file for seed 0.

    Any other seed writes a copy whose initial amplitudes are multiplied by
    phases drawn from the seed, chosen so that every gated quantity keeps
    its value.  The limit cascade is equivariant under a phase per mode,
    e^{i theta_k}.  The prelimit system of the sweep is not: its
    off-resonant quadruples mix the phases, and per-mode phases move the
    factor-two margin by about +-15% from seed to seed.  It is invariant
    under one phase shared by all modes, e^{i theta}, which the sweep gets.
    """
    shipped = os.path.join(root, workload.config)
    if seed == 0:
        return shipped
    from cascadelab.config import parse_config

    config = parse_config(shipped)
    state = config.initial_state()
    theta = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, len(state))
    if not workload.per_mode_phases:
        theta[:] = theta[0]
    amplitudes = ", ".join(repr(complex(a)) for a in state * np.exp(1j * theta))
    with open(shipped, encoding="utf-8") as handle:
        text = handle.read()
    text, replaced = re.subn(
        r"^initial\s*=.*$", f"initial = {amplitudes}", text, count=1, flags=re.MULTILINE
    )
    if replaced != 1:
        raise ValueError(f"{workload.config} has no [dynamics] initial line")
    with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
    return out_path
