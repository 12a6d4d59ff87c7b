import ast
import json
import multiprocessing
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import cascadelab.checks as checks
import cascadelab.convergence as convergence
from cascadelab.cli import main
from cascadelab.config import SimulationConfig, TrapConfig, emit_config, parse_config
from cascadelab.errors import NumericalError, ValidationError
from cascadelab.grids import RadialGrid
from cascadelab.pipeline import Assets

SRC = Path(__file__).resolve().parents[1] / "src"
CONFIGS = Path(__file__).resolve().parents[1] / "configs"

HARMONIC_CFG = """
[trap]
beta = 0.0
scale = 1.0
r_max = 12.0
n_points = 2000
modes = 6

[kernels]
coupling_amplitude = 1.0

[dynamics]
initial = uniform
t_end = 1.0
"""


def run_cli(args):
    return main(args)


#: scipy subpackages the CLI does not load: ``rk.dop853`` replaces
#: scipy.integrate (which pulls in optimize and sparse) and numpy.fft
#: replaces scipy.fft.
UNLOADED_AT_START = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.fft")


def test_cli_start_loads_no_integrate_or_fft():
    """A fresh ``import cascadelab.cli`` loads none of UNLOADED_AT_START."""
    probe = "import sys, cascadelab.cli; print(' '.join(sorted(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    loaded = done.stdout.split()
    assert "cascadelab.cli" in loaded
    assert [m for m in loaded if m.startswith(UNLOADED_AT_START)] == []


def test_package_imports_neither_integrate_nor_fft():
    """No import of scipy.integrate or scipy.fft anywhere in the package, deferred ones included."""
    found = []
    for path in sorted((SRC / "cascadelab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            banned = ("scipy.integrate", "scipy.fft")
            found += [(path.name, n) for n in names if n.startswith(banned)]
    assert found == []


#: scipy subpackages a whole ``check`` leaves unloaded: its real-space
#: Plancherel oracle integrates its own natural spline, not
#: scipy.interpolate's, which would pull in optimize, sparse and fft.
UNLOADED_AFTER_CHECK = ("scipy.interpolate",) + UNLOADED_AT_START


def test_check_loads_no_interpolate_integrate_or_fft(tmp_path):
    """A fresh ``check`` on a shipped config runs its Plancherel oracle and
    leaves every module of UNLOADED_AFTER_CHECK unloaded."""
    probe = (
        "import sys\n"
        "from cascadelab.cli import main\n"
        "code = main(['check', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(code, ' '.join(sorted(sys.modules)))\n"
    )
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-c", probe, str(SRC.parent / "configs" / "default.cfg"), str(out)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    code, *loaded = done.stdout.splitlines()[-1].split()
    assert code == "0", done.stderr
    records = json.loads((out / "manifest.json").read_text())["checks"]["coefficients"]
    assert [r["passed"] for r in records if r["name"] == "plancherel"] == [True]
    assert [m for m in loaded if m.startswith(UNLOADED_AFTER_CHECK)] == []


def test_package_defers_no_import():
    """Every import in the package sits outside its functions, and none is of scipy.interpolate."""
    found = []
    for path in sorted((SRC / "cascadelab").glob("*.py")):
        tree = ast.parse(path.read_text())
        in_functions = {
            id(node)
            for scope in ast.walk(tree)
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(scope)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                names = [module] + [f"{module}.{alias.name}" for alias in node.names]
            else:
                continue
            if id(node) in in_functions:
                found.append((path.name, node.lineno, "inside a function"))
            found += [(path.name, node.lineno, n) for n in names if n.startswith("scipy.interpolate")]
    assert found == []


def _unreferenced_module_names(package):
    """Module-level functions, classes and constants that no code in ``package`` refers to.

    A reference is a Name or an Attribute outside the name's own
    definition; an import alone is none.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    assert "coeffs" in trees, package
    defined = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[(module, node.name)] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        defined[(module, target.id)] = node
    used = set()
    for module, tree in trees.items():
        own = {}
        for (defining, name), node in defined.items():
            if defining == module:
                for inner in ast.walk(node):
                    own[id(inner)] = name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if own.get(id(node)) != name:
                used.add(name)
    return sorted(f"{module}.{name}" for module, name in defined if name not in used)


def test_every_package_name_has_a_use_in_the_package():
    """A name that only tests call belongs in tests/oracles.py, not in the package."""
    assert _unreferenced_module_names(SRC / "cascadelab") == []


def _defaults_no_call_passes(package):
    """Defaulted parameters of package functions that no call in ``package`` passes.

    Calls match functions by name.  A call passes a parameter by keyword,
    by position (not counting a method's self or cls), or through a
    starred argument.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    assert "coeffs" in trees, package
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(callee, []).append(node)

    def passes(call, name, index):
        if any(k.arg in (name, None) for k in call.keywords):
            return True
        starred = any(isinstance(a, ast.Starred) for a in call.args)
        return index is not None and (starred or len(call.args) > index)

    missing = []
    for module, tree in trees.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
            if positional[:1] in (["self"], ["cls"]):
                positional = positional[1:]
            defaulted = [(name, i) for i, name in enumerate(positional)]
            defaulted = defaulted[len(defaulted) - len(fn.args.defaults) :]
            defaulted += [
                (a.arg, None)
                for a, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                if default is not None
            ]
            for name, index in defaulted:
                if not any(passes(c, name, index) for c in calls.get(fn.name, [])):
                    missing.append(f"{module}.{fn.name}({name})")
    return sorted(missing)


def test_every_defaulted_parameter_is_passed_in_the_package():
    """A default that no package call overrides is a constant posing as an option.

    ``cli.main(argv)`` is the one exception: the console script and the
    tests are its callers.
    """
    missing = _defaults_no_call_passes(SRC / "cascadelab")
    assert [m for m in missing if m != "cli.main(argv)"] == []


def _call_sites(package, callee):
    """The enclosing ``module.function`` (or ``module.Class.method``) of each call to ``callee``."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif isinstance(child, ast.Call):
                if getattr(child.func, "id", getattr(child.func, "attr", None)) == callee:
                    sites.append(scope)
            visit(child, inner)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return sites


def test_grid_transforms_has_one_call_site():
    """The pairing table is the one caller of the momentum-grid transform in the package."""
    assert _call_sites(SRC / "cascadelab", "grid_transforms") == ["coeffs.pairing_table"]


def test_cli_writer_is_the_one_writer():
    """Only ``cli._write`` makes the output directory, writes files and stamps provenance,
    and no command takes an output path: each ``cmd_*`` takes the config alone."""
    for callee in ("ensure_dir", "write_json", "write_csv", "_provenance"):
        assert _call_sites(SRC / "cascadelab", callee) == ["cli._write"], callee
    tree = ast.parse((SRC / "cascadelab" / "cli.py").read_text())
    commands = {
        node.name: [arg.arg for arg in node.args.args]
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")
    }
    assert sorted(commands) == ["cmd_check", "cmd_coeffs", "cmd_converge", "cmd_evolve", "cmd_spectrum"]
    assert all(args == ["config"] for args in commands.values()), commands


ONE_MODE_CFG = """
[trap]
modes = 1

[dynamics]
t_end = 1.0

[sweep]
etas = 0.2, 0.1
"""


def test_one_mode_check_passes_quietly(tmp_path):
    """A one-mode trap has no excited mode and no pair.

    ``check`` once exited 3 on the Plancherel record's fixed product
    chi_0 chi_1, and past that with a numpy traceback on the empty ground
    row of ``bec_formation``.
    """
    done = run_child(tmp_path, [("check", ONE_MODE_CFG)], timeout=120)
    assert done.stderr == ""
    lines = done.stdout.splitlines()
    assert len(lines) == 24
    assert lines[-1] == "0"
    assert all(line.startswith("[PASS] ") for line in lines[:-1])
    assert "[PASS] dynamics.bec_formation" in lines


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


def test_coeffs_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    """The outputs are the same bytes at one and at two OpenBLAS threads.

    The runs are ``coeffs`` and ``check`` on default.cfg, and ``coeffs``,
    ``evolve`` and ``converge`` on it with eight modes.  There the 36 x 36
    mean-field table, formed as a BLAS product, moved ``hartree_direct`` by
    1.7e-18 between the two thread counts.  ``check``'s manifest holds every
    record of the suite, computed at one thread while the sweep's workers
    run and at the starting count before and after.  The count is read
    when numpy loads, so each run gets a fresh interpreter.
    """
    default = CONFIGS / "default.cfg"
    eight = tmp_path / "eight_modes.cfg"
    eight.write_text(default.read_text().replace("modes = 6\n", "modes = 8\n"))
    runs = [
        ("coeffs", default, ("coefficients.json", "limit_matrix.csv")),
        ("check", default, ("manifest.json",)),
        ("coeffs", eight, ("coefficients.json", "limit_matrix.csv")),
        ("evolve", eight, ("trajectory.csv", "diagnostics.json")),
        ("converge", eight, ("convergence.json", "convergence.csv")),
    ]
    for command, config, names in runs:
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{command}-{config.stem}-{threads}"
            subprocess.run(
                [sys.executable, "-m", "cascadelab.cli", command]
                + ["--config", str(config), "--out", str(out)],
                env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": threads},
                check=True,
                timeout=120,
            )
            outs.append(out)
        for name in names:
            same = (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
            assert same, (command, config.stem, name)


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
    # the config text lives in the manifest alone
    assert "config_echo" not in report
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_echo"] == emit_config(parse_config(str(cfg)))
    assert report["strictly_decreasing"]
    assert len(report["etas"]) == 2
    assert all(n > 0 for n in report["meta"]["prelimit_nfev"])
    assert len(report["meta"]["prelimit_max_step"]) == 2
    assert report["meta"]["prelimit_method"] == "DOP853"
    csv_lines = (out / "convergence.csv").read_text().splitlines()
    assert csv_lines[-2].startswith("2.0000000000000001e-01")


def test_evolve_tail_columns_hold_the_tails_from_mode_one(tmp_path):
    """``m_j`` is the mass in modes j and up, so ``m_1`` is the excited mass.

    The columns once held the mass above mode j: ``m_1`` left out mode 1
    and the last column was zero in every row.
    """
    out = tmp_path / "out"
    assert run_cli(["evolve", "--config", str(CONFIGS / "default.cfg"), "--out", str(out)]) == 0
    lines = [line for line in (out / "trajectory.csv").read_text().splitlines() if line[0] != "#"]
    header = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    column = dict(zip(header, data.T))
    tails = [f"m_{j}" for j in range(1, 6)]
    assert header[-5:] == tails
    excited = column["mass"] - column["ground_occupation"]
    assert np.max(np.abs(column["m_1"] - excited)) <= 1e-15
    assert all(np.any(column[name] != 0.0) for name in tails)
    occupations = [column[f"re_f_{k}"] ** 2 + column[f"im_f_{k}"] ** 2 for k in range(6)]
    assert np.allclose(column["m_5"], occupations[5], rtol=1e-12, atol=0)


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


def test_rtol_below_solver_floor_exits_3(tmp_path, capsys):
    """The solver would raise such an rtol to its floor; the config names it instead."""
    cfg = tmp_path / "tight.cfg"
    cfg.write_text("[dynamics]\nrtol = 1e-15\n")
    assert run_cli(["evolve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "validation"
    assert "rtol" in record["message"]


def test_exit_code_numerical_error(tmp_path, capsys, monkeypatch):
    import cascadelab.cli as cli_module

    def boom(config):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr(cli_module, "cmd_spectrum", boom)
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("[trap]\nmodes = 2\n")
    assert run_cli(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "numerical"


def test_exit_code_output_path_under_file(tmp_path, capsys, usable_cpus):
    """An --out below a file exits 3 with one JSON line naming it and prints nothing.

    The path is first tried once the command has finished, so ``converge``
    and ``check`` report it after their prelimit solves, which run on a
    worker pool where fork exists, and leave no worker alive.  ``check``
    once printed a passing suite's verdicts before it found the path.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        usable_cpus(2)
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("[trap]\nmodes = 2\n")
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    out = blocker / "out"
    for command in ("spectrum", "converge", "check"):
        assert run_cli([command, "--config", str(cfg), "--out", str(out)]) == 3, command
        captured = capsys.readouterr()
        assert captured.out == "", command
        lines = captured.err.splitlines()
        assert len(lines) == 1, command
        record = json.loads(lines[0])
        assert record["error"] == "validation"
        assert str(out) in record["message"]
        assert not out.exists()
        assert multiprocessing.active_children() == []


#: The lines a passing ``check`` prints, in order, for the shipped configs.
PASSING_CHECK_STDOUT = "".join(
    f"[PASS] {name}\n"
    for name in (
        "spectrum.orthonormality",
        "spectrum.spectral_convergence_doubling",
        "spectrum.sign_convention",
        "spectrum.harmonic_oracle",
        "spectrum.spectral_genericity",
        "coefficients.coefficient_symmetries",
        "coefficients.independent_recomputation",
        "coefficients.dual_route_fgr",
        "coefficients.lamb_dual_route",
        "coefficients.plancherel",
        "coefficients.eps_uniformity",
        "coefficients.row_sum_stability",
        "dynamics.mass_conservation",
        "dynamics.energy_monotonicity",
        "dynamics.tail_monotonicity",
        "dynamics.phase_equivariance",
        "dynamics.logistic_domination",
        "dynamics.bec_formation",
        "dynamics.two_mode_exactness",
        "convergence.sweep_strictly_decreasing",
        "convergence.sweep_factor_two",
        "convergence.sweep_initial_distance",
        "convergence.sweep_reproducibility",
    )
)


def test_passing_check_prints_every_verdict(check_runs):
    """A passing ``check`` prints one [PASS] line per record, in the suite's order."""
    for run in check_runs.values():
        assert run.code == 0
        assert run.stdout == PASSING_CHECK_STDOUT


def test_unwritable_output_file_exits_3(tmp_path, capsys):
    """A file the run cannot write exits 3 with one JSON line naming its path.

    A directory in the place of ``basis.csv`` once raised IsADirectoryError
    out of ``main`` (a traceback and exit 1).
    """
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("[trap]\nmodes = 2\n")
    out = tmp_path / "o"
    (out / "basis.csv").mkdir(parents=True)
    assert run_cli(["spectrum", "--config", str(cfg), "--out", str(out)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "validation"
    assert str(out / "basis.csv") in record["message"]


NON_FINITE_CASES = (
    ("converge", "[sweep]\netas = 0.2, nan\n"),
    ("converge", "[sweep]\netas = inf, 0.2\n"),
    ("converge", "[sweep]\nt_final = inf\n"),
    ("converge", "[dynamics]\nt_end = inf\n"),
    ("converge", "[dynamics]\nrtol = inf\n"),
    ("spectrum", "[kernels]\ncoupling_amplitude = nan\n"),
    ("spectrum", "[kernels]\npair_width = inf\n"),
    ("spectrum", "[momentum]\nrho_max = inf\n"),
    ("spectrum", "[trap]\nscale = inf\n"),
    ("evolve", "[trap]\nr_max = inf\n"),
    ("evolve", "[kernels]\ncoupling_amplitude = nan\n"),
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
    """A non-finite eta, end time, tolerance, trap, cutoff or kernel input
    is rejected at parse, not computed with.

    Some once ran past a 60 s timeout without exiting; others ran through
    and hashed the value into the outputs.  One child interpreter runs
    every case and is stopped after 30 s, so a hang fails the test instead
    of stalling the suite.
    """
    done = run_child(tmp_path, NON_FINITE_CASES, timeout=30)
    assert done.stdout.split() == ["3"] * len(NON_FINITE_CASES), done.stderr
    records = [json.loads(line) for line in done.stderr.splitlines()]
    assert [r["error"] for r in records] == ["validation"] * len(NON_FINITE_CASES)
    assert all("finite" in r["message"] for r in records)


@pytest.mark.parametrize("line", ["initial = geometric(abc)"])
def test_malformed_preset_number_exits_2(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[dynamics]\n{line}\n")
    assert run_cli(["evolve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "config"
    key, text = (part.strip() for part in line.split("="))
    assert key in record["message"] and repr(text) in record["message"]


@pytest.mark.parametrize("text", ["ground-only", "two-mode(0.25)", "uniform(3)"])
def test_dropped_initial_spelling_exits_2(tmp_path, capsys, text):
    """The aliases of explicit lists are gone: ``1``, ``0.5, 0.866...`` and ``1, 1, 1`` remain."""
    cfg = tmp_path / "dropped.cfg"
    cfg.write_text(f"[dynamics]\ninitial = {text}\n")
    out = tmp_path / "o"
    assert run_cli(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "config"
    assert f"cannot parse initial state {text!r}" in record["message"]
    assert not out.exists()


def test_non_finite_amplitudes_exit_3_before_any_work(tmp_path):
    """Explicit amplitudes are checked at validation, ahead of normalizing by their norm.

    Checked once the eigensolve and transforms had run, they printed
    numpy's divide warning on stderr ahead of the record.
    """
    cases = [("evolve", f"[dynamics]\ninitial = {x}, 1\n") for x in ("nan", "inf", "1+nanj")]
    done = run_child(tmp_path, cases, timeout=30)
    assert done.stdout.split() == ["3"] * len(cases), done.stderr
    # stderr holds the records and nothing else
    records = [json.loads(line) for line in done.stderr.splitlines()]
    assert [r["error"] for r in records] == ["validation"] * len(cases)
    assert all("finite" in r["message"] for r in records)


@pytest.mark.parametrize("command", ["spectrum", "coeffs"])
def test_zero_mass_initial_state_exits_3_at_parse(tmp_path, capsys, command):
    """Data that cannot be normalized fails every command, not only those that integrate."""
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("[dynamics]\ninitial = 0, 0\n")
    assert run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert "zero mass" in json.loads(lines[0])["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text", ["1e200, 1", "1e-200, 1e-200", "1e-320"])
def test_initial_data_of_extreme_magnitude_evolve(tmp_path, capsys, text):
    """Data far from unit mass run as their direction, with nothing on stderr.

    Their squared norm once overflowed or underflowed: ``1e200, 1`` ran as
    the zero vector (final ground occupation 0.0, after a numpy warning),
    and the two tiny ones exited 3 with "zero mass".
    """
    cfg = tmp_path / "extreme.cfg"
    cfg.write_text(f"[dynamics]\ninitial = {text}\n")
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""
    summary = json.loads((out / "diagnostics.json").read_text())
    assert summary["mass_conserved"]
    if text == "1e200, 1":
        assert summary["final_ground_occupation"] == 1.0


def test_huge_ground_amplitude_check_runs_bec_formation(tmp_path):
    """``check`` on ``1e200, 1`` certifies ground-mode data, not the zero data it once
    passed with ``logistic_domination`` and ``bec_formation`` skipped."""
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("[dynamics]\ninitial = 1e200, 1\n")
    out = tmp_path / "o"
    assert run_cli(["check", "--config", str(cfg), "--out", str(out)]) == 0
    records = json.loads((out / "manifest.json").read_text())["checks"]["dynamics"]
    bec = next(r for r in records if r["name"] == "bec_formation")
    assert bec["passed"] and not bec["detail"].startswith("skipped")


def test_zero_kernels_check_passes(tmp_path):
    """With both kernels zero every coefficient is zero, and ``check`` keeps its exit codes.

    ``eps_uniformity`` once divided 0/0 (ZeroDivisionError, exit 1 with a
    traceback) and ``row_sum_stability`` would then have read nan.
    """
    cfg = tmp_path / "free.cfg"
    cfg.write_text("[kernels]\ncoupling_amplitude = 0.0\npair_amplitude = 0.0\n")
    out = tmp_path / "o"
    assert run_cli(["check", "--config", str(cfg), "--out", str(out)]) == 0
    blocks = json.loads((out / "manifest.json").read_text())["checks"]
    records = [record for block in blocks.values() for record in block]
    assert len(records) == 23
    assert all(record["passed"] for record in records)
    assert all(np.all(np.isfinite(np.asarray(r["measured"], dtype=float))) for r in records)


@pytest.mark.parametrize(
    "text",
    [
        "[dynamics]\nt_end = 0\n",
        "[dynamics]\nt_end = inf\n",
        "[sweep]\nt_final = 0\n",
        "[sweep]\nt_final = inf\n",
    ],
    ids=["t_end-zero", "t_end-inf", "t_final-zero", "t_final-inf"],
)
def test_bad_horizon_exits_3_at_parse(tmp_path, capsys, text):
    """Both horizons are a ``SolverOptions`` t_end and fail with its one message."""
    cfg = tmp_path / "horizon.cfg"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert run_cli(["evolve", "--config", str(cfg), "--out", str(out)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "validation"
    assert record["message"].startswith("t_end must be positive and finite, got ")
    assert not out.exists()


@pytest.mark.parametrize(
    "line",
    [
        "normalize = false",
        "bec_horizon = 200.0",
        "bec_threshold = 1e-3",
        "coefficient_preset = two-mode(1.0)",
    ],
)
def test_removed_dynamics_key_exits_2(tmp_path, capsys, line):
    """Unit mass, the condensate horizon and threshold and the coefficient source are fixed."""
    cfg = tmp_path / "removed.cfg"
    cfg.write_text(f"[dynamics]\n{line}\n")
    out = tmp_path / "o"
    assert run_cli(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "config"
    assert repr(line.split(" = ")[0]) in record["message"]
    assert not out.exists()


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


def test_pooled_check_equals_in_process(check_runs):
    """Both routes of ``check`` write the same manifest and print the same lines."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs the fork start method")
    outputs = []
    for run in (check_runs["in_process"], check_runs["pooled"]):
        assert run.code == 0
        outputs.append((run.manifest, run.stdout))
        assert run.workers_left == []
    assert outputs[0] == outputs[1]


def test_check_builds_the_canonical_sweep_twice(monkeypatch):
    """``check`` hands its pool two canonical setups built apart, tables equal in bytes.

    So ``sweep_reproducibility`` covers the eigensolve and the table too,
    not only the solves.
    """
    handed = []

    class Handed(Exception):
        pass

    def record(setups):
        handed.extend(setups)
        raise Handed

    monkeypatch.setattr(checks, "sweep_runs", record)
    with pytest.raises(Handed):
        checks.run_all_checks(SimulationConfig.default())
    first, second = handed
    assert first is not second and first.table is not second.table
    assert first.table.basis is not second.table.basis
    assert first.table.momenta == second.table.momenta
    for name in ("ghat", "hartree"):
        assert getattr(first.table, name).tobytes() == getattr(second.table, name).tobytes()


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
    assert not (tmp_path / "o").exists()


def test_block_error_mid_check_stops_running_solves(tmp_path, capsys, monkeypatch, usable_cpus):
    """The error exit terminates the workers instead of waiting for their solves."""
    usable_cpus(2)

    def stall(*args):
        time.sleep(60)

    def fail(assets):
        raise NumericalError("synthetic dynamics failure")

    monkeypatch.setattr(convergence, "integrate_prelimit", stall)
    monkeypatch.setattr(checks, "dynamics_checks", fail)
    start = time.monotonic()
    assert run_cli(["check", "--out", str(tmp_path / "o")]) == 4
    assert time.monotonic() - start < 10
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["message"] == "synthetic dynamics failure"
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
    assert not (tmp_path / "o").exists()


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
        "[trap]\nfile = %s\nr_max = 12.0\nn_points = 2000\nmodes = 3\n"
        "[kernels]\ncoupling_amplitude = 1.0\n" % table
    )
    out = tmp_path / "out"
    assert run_cli(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "basis.csv").read_text().splitlines()
    energy_line = next(l for l in lines if l.startswith("# energies:"))
    energies = np.array([float(tok) for tok in energy_line.split(":")[1].split()])
    assert np.max(np.abs(energies - np.array([3.0, 7.0, 11.0]))) < 1e-4


def anharmonic_table(tmp_path):
    """A tabulated trap r^2 + 0.2 r^4 on RadialGrid(12.0, 2000), and its [trap] lines."""
    nodes = RadialGrid(12.0, 2000).nodes
    table = tmp_path / "trap.csv"
    table.write_text("".join(f"{float(r)!r},{float(r**2 + 0.2 * r**4)!r}\n" for r in nodes))
    return table, "[trap]\nfile = %s\nr_max = 12.0\nn_points = 2000\nmodes = 3\n" % table


@pytest.mark.parametrize(
    "extra, named",
    [
        ("beta = 5.0\n", "beta"),
        ("scale = 0.3\n", "scale"),
        ("beta = 0.2\nscale = 6.0\n", "beta and scale"),
    ],
    ids=["beta", "scale", "both_at_defaults"],
)
def test_trap_shape_next_to_file_exits_2(tmp_path, capsys, extra, named):
    """beta and scale do not enter a tabulated trap, so setting either next to ``file``
    is a config error: accepted, they would give one spectrum a second config hash."""
    _, trap = anharmonic_table(tmp_path)
    cfg = tmp_path / "custom.cfg"
    cfg.write_text(trap)
    assert run_cli(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "plain")]) == 0
    capsys.readouterr()
    cfg.write_text(trap + extra)
    assert run_cli(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "config"
    assert f"[trap] {named} cannot be set" in record["message"]
    assert not (tmp_path / "o").exists()


def test_tabulated_trap_records_why_doubling_is_skipped(tmp_path):
    """A table cannot be resampled onto the doubled grid: the spectrum block says so
    in a skipped record and still lists five records."""
    table, _ = anharmonic_table(tmp_path)
    config = SimulationConfig()
    config.trap = TrapConfig(r_max=12.0, n_points=2000, modes=3, file=str(table))
    records = checks.spectrum_checks(Assets(config.validate()))
    assert [r["name"] for r in records] == [
        "orthonormality",
        "spectral_convergence_doubling",
        "sign_convention",
        "harmonic_oracle",
        "spectral_genericity",
    ]
    assert all(r["passed"] for r in records)
    reason = "a tabulated trap cannot be resampled onto the doubled grid"
    assert records[1]["detail"] == f"skipped: {reason}"


def test_custom_trap_grid_mismatch(tmp_path):
    table = tmp_path / "trap.csv"
    table.write_text("1.0,1.0\n2.0,4.0\n")
    cfg = tmp_path / "custom.cfg"
    cfg.write_text(
        "[trap]\nfile = %s\nr_max = 12.0\nn_points = 2000\nmodes = 3\n" % table
    )
    assert run_cli(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3


def test_missing_trap_file_exits_2(tmp_path, capsys):
    """A trap file that cannot be read is a config error, never a fall-back to the default trap."""
    missing = tmp_path / "absent.csv"
    cfg = tmp_path / "custom.cfg"
    cfg.write_text("[trap]\nfile = %s\n" % missing)
    assert run_cli(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "config"
    assert str(missing) in record["message"]
    assert not (tmp_path / "o" / "basis.csv").exists()


@pytest.mark.parametrize(
    "rows, code, named",
    [
        ("0.1,abc\n0.2,1.0\n", 2, None),
        ("0.1,1.0\n0.2,4.0,0.0\n", 2, None),
        (None, 3, "two columns"),
        ("", 3, "no rows"),
        ("# r, V(r)\n# to be filled in\n", 3, "no rows"),
    ],
    ids=["non_numeric", "ragged", "three_columns", "empty", "comments_only"],
)
def test_unusable_trap_table_keeps_exit_codes(tmp_path, capsys, rows, code, named):
    """A table numpy cannot parse is a config error; a third column is not silently
    dropped, and a table with no rows is named as such.  Stderr holds the record alone:
    no numpy warning escapes to be printed ahead of it."""
    table, trap = anharmonic_table(tmp_path)
    if rows is None:
        lines = table.read_text().splitlines()
        rows = "".join(line + ",0.0\n" for line in lines)
    table.write_text(rows)
    cfg = tmp_path / "custom.cfg"
    cfg.write_text(trap)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")]) == code
    assert [str(w.message) for w in caught] == []
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == ("config" if code == 2 else "validation")
    assert (named or str(table)) in record["message"]
    assert not (tmp_path / "o" / "basis.csv").exists()


@pytest.mark.parametrize("command", ["spectrum", "coeffs", "evolve", "converge", "check"])
@pytest.mark.parametrize("case", ["coupling_width", "empty_trap_file"])
def test_config_rejected_before_output_directory(tmp_path, capsys, command, case):
    """Every command rejects the same configs at parse, before it makes the output directory.

    A coupling kernel that has not decayed at r_max once passed ``spectrum``
    (exit 0) and failed ``coeffs`` (exit 3); an empty trap file exited 3 but
    left an empty output directory behind.
    """
    if case == "coupling_width":
        text, named = "[kernels]\ncoupling_width = 100\n", "coupling kernel profile has not decayed"
    else:
        table, text = anharmonic_table(tmp_path)
        table.write_text("")
        named = "holds no rows"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert run_cli([command, "--config", str(cfg), "--out", str(out)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "validation"
    assert named in record["message"]
    assert not out.exists()



DECAY_CFG = "[trap]\nr_max = 12.0\nn_points = 800\n"
LOW_CUTOFF_CFG = "[momentum]\nrho_max = 0.5\n"
THIRTEEN_MODES_CFG = "[trap]\nr_max = 48.0\nn_points = 3200\nmodes = 13\n"

#: Runs whose config passes parse but breaks a rule checked at run time:
#: (command, config text, the message's tell).
LATE_RULE_CASES = {
    **{
        f"decay-{command}": (command, DECAY_CFG, "eigenfunctions not decayed at r_max")
        for command in ("spectrum", "coeffs", "evolve", "converge", "check")
    },
    **{
        f"cutoff-{command}": (command, LOW_CUTOFF_CFG, "reaches beyond the momentum cutoff 0.5")
        for command in ("coeffs", "evolve", "converge", "check")
    },
    "mode_cap-converge": (
        "converge",
        THIRTEEN_MODES_CFG,
        "13 modes would need 28561 tensor entries; cap is 12 modes",
    ),
}


@pytest.mark.parametrize(
    "command, text, named", LATE_RULE_CASES.values(), ids=LATE_RULE_CASES.keys()
)
def test_late_rule_leaves_no_directory(tmp_path, capsys, command, text, named):
    """A rule that needs the spectrum or the sweep exits 3 with one JSON line and no directory.

    Each of these runs once left an empty output directory behind: the
    directory was made before the command's work.
    """
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert run_cli([command, "--config", str(cfg), "--out", str(out)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "validation"
    assert named in record["message"]
    assert not out.exists()
    assert multiprocessing.active_children() == []


def test_mode_cap_is_checked_before_any_worker_starts(tmp_path, capsys, monkeypatch, usable_cpus):
    """``converge`` at 13 modes exits 3 before the sweep asks for a worker pool.

    The cap once surfaced only in the first eta's tensor assembly, after the
    pool had forked.  The stderr line is the one that run printed.
    """
    usable_cpus(2)

    def no_pool(jobs):
        raise AssertionError("a worker pool was asked for")

    monkeypatch.setattr(convergence, "_worker_pool", no_pool)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(THIRTEEN_MODES_CFG)
    out = tmp_path / "o"
    assert run_cli(["converge", "--config", str(cfg), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        '{"error": "validation", "message": "13 modes would need 28561 tensor entries; '
        'cap is 12 modes", "type": "ValidationError"}\n'
    )
    assert not out.exists()


def test_runs_clear_of_late_rules_write_their_files(tmp_path, capsys):
    """``spectrum`` reads no cutoff, and ``check`` builds no tensor from the configured modes.

    So the first finishes under the low cutoff and the second at 13 modes;
    each writes its files, whatever its records say.
    """
    cfg = tmp_path / "low.cfg"
    cfg.write_text(LOW_CUTOFF_CFG)
    out = tmp_path / "spectrum"
    assert run_cli(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["basis.csv", "manifest.json", "resonance_report.json"]
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(THIRTEEN_MODES_CFG)
    out = tmp_path / "check"
    code = run_cli(["check", "--config", str(cfg), "--out", str(out)])
    assert capsys.readouterr().err == ""
    assert os.listdir(out) == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert code == (0 if manifest["all_passed"] else 3)
