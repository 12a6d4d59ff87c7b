import json

import numpy as np

from cascadelab.cli import main
from cascadelab.errors import NumericalError

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
    assert doc["fgr_pi_convention"] is True
    fgr = np.array(doc["fgr"])
    assert np.array_equal(fgr, fgr.T)
    assert np.all(np.diag(fgr) == 0)
    re_m = np.array(doc["limit_matrix"]["re"])
    assert np.max(np.abs(re_m + re_m.T)) == 0.0


def test_converge_command(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "[trap]\nscale = 1.0\nr_max = 12.0\nn_points = 800\nmodes = 3\n"
        "[momentum]\nn_rho = 2048\n"
        "[dynamics]\ninitial = geometric(0.7)\nrtol = 1e-9\natol = 1e-12\n"
        "[sweep]\netas = 0.2, 0.1\nt_final = 0.5\nsamples = 200\n"
    )
    out = tmp_path / "out"
    assert run_cli(["converge", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "convergence.json").read_text())
    assert report["strictly_decreasing"]
    assert len(report["etas"]) == 2
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


def test_threads_must_be_positive(tmp_path, capsys):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("[trap]\nmodes = 2\n")
    assert run_cli(["converge", "--config", str(cfg), "--threads", "0"]) == 3


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
