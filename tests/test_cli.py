import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cascadelab.checks as checks
import cascadelab.convergence as convergence
from cascadelab.cli import main
from cascadelab.config import SimulationConfig, emit_config
from cascadelab.errors import NumericalError, ValidationError

SRC = Path(__file__).resolve().parents[1] / "src"

HARMONIC_CFG = """
[trap]
kind = harmonic
beta = 0.0
scale = 1.0
r_max = 12.0
n_points = 2000
modes = 6

[kernels]
coupling_amplitude = 1.0

[dynamics]
initial = uniform(6)
t_end = 1.0
"""

TWO_MODE_CFG = """
[trap]
modes = 2

[dynamics]
initial = two-mode(0.5)
coefficient_preset = two-mode(1.0)
t_end = 1.0
rtol = 1e-11
atol = 1e-14
samples = 201
"""


def run_cli(args):
    return main(args)


def test_spectrum_command_harmonic(tmp_path):
    cfg = tmp_path / "h.cfg"
    cfg.write_text(HARMONIC_CFG)
    out = tmp_path / "out"
    assert run_cli(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0

    lines = (out / "basis.csv").read_text().splitlines()
    energy_line = next(l for l in lines if l.startswith("# energies:"))
    energies = np.array([float(tok) for tok in energy_line.split(":")[1].split()])
    exact = 4.0 * np.arange(6) + 3.0
    assert np.max(np.abs(energies - exact) / exact) < 1e-6

    report = json.loads((out / "resonance_report.json").read_text())
    assert not report["is_generic"]  # equally spaced spectrum collides
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "spectrum"
    assert "config_sha256" in manifest["provenance"]


def test_evolve_two_mode_preset(tmp_path):
    cfg = tmp_path / "two.cfg"
    cfg.write_text(TWO_MODE_CFG)
    out = tmp_path / "out"
    assert run_cli(["evolve", "--config", str(cfg), "--out", str(out)]) == 0

    rows = [
        line.split(",")
        for line in (out / "trajectory.csv").read_text().splitlines()
        if line and not line.startswith("#") and not line.startswith("T,")
    ]
    times = np.array([float(r[0]) for r in rows])
    ground = np.array([float(r[1]) ** 2 + float(r[2]) ** 2 for r in rows])
    curve = 1.0 / (1.0 + np.exp(-2.0 * times))
    assert np.max(np.abs(ground - curve)) < 1e-8

    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["mass_conserved"] and diag["energy_monotone"] and diag["tails_monotone"]
    assert isinstance(diag["nfev"], int) and diag["nfev"] > 0


def test_coeffs_command_and_determinism(tmp_path):
    cfg = tmp_path / "small.cfg"
    # small natural-unit config keeps this test quick
    cfg.write_text(
        "[trap]\nscale = 1.0\nr_max = 12.0\nn_points = 800\nmodes = 3\n"
        "[momentum]\nn_rho = 2048\n"
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(["coeffs", "--config", str(cfg), "--out", str(out1)]) == 0
    assert run_cli(["coeffs", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "coefficients.json").read_bytes() == (out2 / "coefficients.json").read_bytes()
    assert (out1 / "limit_matrix.csv").read_bytes() == (out2 / "limit_matrix.csv").read_bytes()

    doc = json.loads((out1 / "coefficients.json").read_text())
    assert doc["size"] == 3
    assert "fgr_pi_convention" not in doc
    fgr = np.array(doc["fgr"])
    assert np.array_equal(fgr, fgr.T)
    assert np.all(np.diag(fgr) == 0)
    re_m = np.array(doc["limit_matrix"]["re"])
    assert np.max(np.abs(re_m + re_m.T)) == 0.0


SMALL_SWEEP_CFG = (
    "[trap]\nscale = 1.0\nr_max = 12.0\nn_points = 800\nmodes = 3\n"
    "[momentum]\nn_rho = 2048\n"
    "[dynamics]\ninitial = geometric(0.7)\nrtol = 1e-9\natol = 1e-12\n"
    "[sweep]\netas = 0.2, 0.1\nt_final = 0.5\nsamples = 200\n"
)


def test_converge_command(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SMALL_SWEEP_CFG)
    out = tmp_path / "out"
    assert run_cli(["converge", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "convergence.json").read_text())
    assert report["strictly_decreasing"]
    assert len(report["etas"]) == 2
    assert all(n > 0 for n in report["meta"]["prelimit_nfev"])
    assert len(report["meta"]["prelimit_max_step"]) == 2
    assert report["meta"]["prelimit_method"] == "DOP853"
    csv_lines = (out / "convergence.csv").read_text().splitlines()
    assert csv_lines[-2].startswith("2.0000000000000001e-01")


def test_exit_code_config_error(tmp_path, capsys):
    assert run_cli(["spectrum", "--config", str(tmp_path / "missing.cfg")]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "config"


def test_exit_code_validation_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[trap]\nn_points = -5\n")
    assert run_cli(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "validation"


def test_exit_code_numerical_error(tmp_path, capsys, monkeypatch):
    import cascadelab.cli as cli_module

    def boom(config, out_dir):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr(cli_module, "cmd_spectrum", boom)
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("[trap]\nmodes = 2\n")
    assert run_cli(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "numerical"


def test_exit_code_output_path_under_file(tmp_path, capsys):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("[trap]\nmodes = 2\n")
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    out = blocker / "out"
    assert run_cli(["spectrum", "--config", str(cfg), "--out", str(out)]) == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "validation"
    assert str(out) in record["message"]


NON_FINITE_CASES = (
    ("converge", "[sweep]\netas = 0.2, nan\n"),
    ("converge", "[sweep]\netas = inf, 0.2\n"),
    ("converge", "[sweep]\nt_final = inf\n"),
    ("converge", "[dynamics]\nt_end = inf\n"),
    ("converge", "[dynamics]\nbec_horizon = inf\n"),
    ("evolve", "[dynamics]\ncoefficient_preset = two-mode(nan)\n"),
    ("evolve", "[dynamics]\ncoefficient_preset = two-mode(inf)\n"),
    ("evolve", "[dynamics]\ncoefficient_preset = two-mode(1e400)\n"),
)

#: Runs ``main(command, path)`` for each (command, path) argument pair and
#: prints each exit code.
CHILD_SCRIPT = (
    "import sys\n"
    "from cascadelab.cli import main\n"
    "args = sys.argv[1:]\n"
    "for command, path in zip(args[::2], args[1::2]):\n"
    "    print(main([command, '--config', path, '--out', path + '.out']))\n"
)


def run_child(tmp_path, cases, timeout):
    """Run (command, config text) cases in one child interpreter, stopped after timeout s."""
    args = []
    for i, (command, text) in enumerate(cases):
        path = tmp_path / f"case{i}.cfg"
        path.write_text(text)
        args += [command, str(path)]
    return subprocess.run(
        [sys.executable, "-c", CHILD_SCRIPT, *args],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_non_finite_input_exits_3_promptly(tmp_path):
    """A non-finite eta, horizon, end time or synthetic rate is rejected, not integrated.

    Such inputs once ran past a 60 s timeout without exiting.  One child
    interpreter runs every case and is stopped after 30 s, so a hang fails
    the test instead of stalling the suite.
    """
    done = run_child(tmp_path, NON_FINITE_CASES, timeout=30)
    assert done.stdout.split() == ["3"] * len(NON_FINITE_CASES), done.stderr
    records = [json.loads(line) for line in done.stderr.splitlines()]
    assert [r["error"] for r in records] == ["validation"] * len(NON_FINITE_CASES)
    assert all("finite" in r["message"] for r in records)


def test_overflowing_coefficients_exit_4_promptly(tmp_path):
    """A coupling so large that the coefficients overflow is a numerical failure.

    The limit matrix then holds nan + inf j, which ``evolve`` and
    ``converge`` once integrated past a 60 s timeout without exiting.
    """
    cases = []
    for command, config in (
        ("evolve", SimulationConfig.default()),
        ("converge", SimulationConfig.convergence()),
    ):
        config.kernels.coupling_amplitude = 1e200
        cases.append((command, emit_config(config)))
    done = run_child(tmp_path, cases, timeout=60)
    assert done.stdout.split() == ["4"] * len(cases), done.stderr
    # stderr holds the records and nothing else: no numpy overflow warnings
    records = [json.loads(line) for line in done.stderr.splitlines()]
    assert [r["error"] for r in records] == ["numerical"] * len(cases)
    assert all("non-finite" in r["message"] for r in records)


@pytest.mark.parametrize(
    "error, code, kind",
    [(ValidationError, 3, "validation"), (NumericalError, 4, "numerical")],
)
def test_worker_error_keeps_exit_code(
    tmp_path, capsys, monkeypatch, usable_cpus, error, code, kind
):
    """An error raised in a worker reaches the CLI with its class and message."""
    usable_cpus(2)

    def fail(tensor, *args):
        raise error(f"synthetic failure at eta = {tensor.eta}")

    monkeypatch.setattr(convergence, "integrate_prelimit", fail)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SMALL_SWEEP_CFG)
    assert run_cli(["converge", "--config", str(cfg), "--out", str(tmp_path / "o")]) == code
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == kind
    assert record["type"] == error.__name__
    assert record["message"] == "synthetic failure at eta = 0.1"


def test_dead_worker_is_numerical_error(tmp_path, capsys, monkeypatch, usable_cpus):
    usable_cpus(2)

    def die(*args):
        os._exit(1)

    monkeypatch.setattr(convergence, "integrate_prelimit", die)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SMALL_SWEEP_CFG)
    assert run_cli(["converge", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "numerical"
    assert "worker" in record["message"]


# ---------------------------------------------------------------------------
# check on one shared worker pool
# ---------------------------------------------------------------------------


def test_pooled_check_equals_in_process(tmp_path, capsys, usable_cpus):
    """Both routes of ``check`` write the same manifest and print the same lines."""
    outputs = []
    for count in (1, 2):
        usable_cpus(count)
        out = tmp_path / f"cpus{count}"
        assert run_cli(["check", "--out", str(out)]) == 0
        outputs.append(((out / "manifest.json").read_bytes(), capsys.readouterr().out))
        assert multiprocessing.active_children() == []
    assert outputs[0] == outputs[1]


def test_block_error_mid_check_exits_4(tmp_path, capsys, monkeypatch, usable_cpus):
    """A block that raises while the sweep runs leaves one record and no worker."""
    usable_cpus(2)

    def fail(assets):
        raise NumericalError("synthetic dynamics failure")

    monkeypatch.setattr(checks, "dynamics_checks", fail)
    assert run_cli(["check", "--out", str(tmp_path / "o")]) == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "numerical"
    assert record["message"] == "synthetic dynamics failure"
    assert multiprocessing.active_children() == []


def test_dead_worker_in_check_is_numerical_error(tmp_path, capsys, monkeypatch, usable_cpus):
    usable_cpus(2)

    def die(*args):
        os._exit(1)

    monkeypatch.setattr(convergence, "integrate_prelimit", die)
    assert run_cli(["check", "--out", str(tmp_path / "o")]) == 4
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "numerical"
    assert "worker" in record["message"]
    assert multiprocessing.active_children() == []


def test_custom_tabulated_trap(tmp_path):
    # a tabulated copy of the harmonic trap must reproduce its spectrum
    import cascadelab.grids as grids

    grid = grids.RadialGrid(12.0, 2000)
    table = tmp_path / "trap.csv"
    with open(table, "w") as handle:
        for r in grid.nodes:
            handle.write(f"{float(r)!r},{float(r * r)!r}\n")
    cfg = tmp_path / "custom.cfg"
    cfg.write_text(
        "[trap]\nkind = custom\nfile = %s\nr_max = 12.0\nn_points = 2000\nmodes = 3\n"
        "[kernels]\ncoupling_amplitude = 1.0\n" % table
    )
    out = tmp_path / "out"
    assert run_cli(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "basis.csv").read_text().splitlines()
    energy_line = next(l for l in lines if l.startswith("# energies:"))
    energies = np.array([float(tok) for tok in energy_line.split(":")[1].split()])
    assert np.max(np.abs(energies - np.array([3.0, 7.0, 11.0]))) < 1e-4


def test_custom_trap_grid_mismatch(tmp_path):
    table = tmp_path / "trap.csv"
    table.write_text("1.0,1.0\n2.0,4.0\n")
    cfg = tmp_path / "custom.cfg"
    cfg.write_text(
        "[trap]\nkind = custom\nfile = %s\nr_max = 12.0\nn_points = 2000\nmodes = 3\n" % table
    )
    assert run_cli(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
