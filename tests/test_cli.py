import contextlib
import copy
import functools
import io
import json
import math
import os
import random
import signal
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trilap
from trilap import Grid, audit, load_system
from trilap.cli import main
from trilap.criterion import SignSampler

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SRC = str(Path(trilap.__file__).resolve().parent.parent)
LOADED_MODULES = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); import trilap.cli; "
    "loaded = lambda: print(sorted(m for m in sys.modules if m.split('.')[0] == sys.argv[3])); "
    "loaded(); "
    "[(trilap.cli.main(argv + ['--json']), loaded()) for argv in json.loads(sys.argv[2])]"
)


def modules_after(package, commands, tmp_path):
    """Modules of `package` loaded in a fresh process after `import trilap.cli`, then after each command."""
    commands = [argv + ["--out", str(tmp_path)] for argv in commands]
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_MODULES, SRC, json.dumps(commands), package],
        capture_output=True, text=True, check=True,
    )
    # each command prints its JSON payload, an object; the module lists are lists
    return [line for line in proc.stdout.splitlines() if line.startswith("[")]


def test_import_and_audit_do_not_load_scipy(tmp_path):
    # scipy (ode-check's expm) loads on first use only; simulate transforms
    # with numpy.fft alone
    config = str(CONFIGS / "diagonal_logistic.json")
    loaded = modules_after("scipy", [["audit", config], ["simulate", config, "--t-end", "0.1"]],
                           tmp_path)
    assert loaded == ["[]"] * 3, loaded


def test_import_audit_and_a_short_simulate_do_not_load_multiprocessing(tmp_path):
    # a run splits across processes only past the break-even, and imports
    # multiprocessing only then
    config = str(CONFIGS / "diagonal_logistic.json")
    loaded = modules_after("multiprocessing",
                           [["audit", config], ["simulate", config, "--t-end", "0.1"]], tmp_path)
    assert loaded == ["[]"] * 3, loaded


# a fresh process with two workers whatever the machine, a line of its own on
# buffered stdout, then `trilap simulate` past the break-even
SPLIT_SIMULATE = (
    "import json, os, sys; sys.path.insert(0, sys.argv[1]); import trilap.cli; "
    "from trilap import stepper; stepper._workers = lambda: 2; "
    "real_fork = os.fork; forks = []; "
    "os.fork = lambda: forks.append(1) or real_fork(); "
    "print('before the run'); "
    "code = trilap.cli.main(json.loads(sys.argv[2])); "
    "print(len(forks), file=sys.stderr); sys.exit(code)"
)


def test_simulate_split_across_processes_prints_its_lines_once(tmp_path):
    cfg = json.loads((CONFIGS / "diagonal_logistic.json").read_text())
    cfg.update(d=2, Gamma=cfg["Gamma"] * 2, grid={"n": 128, "box": 32.0})
    config = tmp_path / "dl2.json"
    config.write_text(json.dumps(cfg))
    from trilap.stepper import SPLIT_MIN_MODE_STEPS

    steps = -(-SPLIT_MIN_MODE_STEPS // 128**2)
    argv = ["simulate", str(config), "--t-end", repr(steps * 1e-4), "--dt", "1e-4",
            "--out", str(tmp_path / "out"), "--json"]
    # stdout to a pipe is block-buffered unless PYTHONUNBUFFERED is set
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run([sys.executable, "-c", SPLIT_SIMULATE, SRC, json.dumps(argv)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split() == ["1"]  # the run forked once
    lines = proc.stdout.splitlines()
    assert len(lines) == 2 and lines[0] == "before the run", lines
    assert json.loads(lines[1])["final_t"] == pytest.approx(steps * 1e-4)


@pytest.mark.parametrize("component", [0, 1])
def test_propagator_overflow_in_a_chunk_exits_4(tmp_path, capsys, monkeypatch, component):
    import multiprocessing

    from trilap import stepper

    monkeypatch.setattr(stepper, "_workers", lambda: 2)
    monkeypatch.setattr(stepper, "SPLIT_MIN_MODE_STEPS", 0)
    cfg = json.loads((CONFIGS / "diagonal_logistic.json").read_text())
    cfg["Gamma"][0][component][component] = 1e308
    config = tmp_path / "overflow.json"
    config.write_text(json.dumps(cfg))
    code, _, err = run_cli(["simulate", str(config), "--t-end", "20", "--dt", "10",
                            "--out", str(tmp_path)], capsys)
    assert code == 4 and "non-finite propagator entries" in err, err
    assert multiprocessing.active_children() == []


def test_probe_and_counterexample_do_not_load_scipy(tmp_path):
    # the probes' erf ramps run a numpy port of the Cephes erfc that scipy runs
    loaded = modules_after("scipy", [
        ["probe", "--kind", "diffusion", "--d", "1"],
        ["probe", "--kind", "transport", "--d", "1"],
        ["counterexample", "--kind", "diffusion", "--d", "1"],
        ["counterexample", "--kind", "transport", "--d", "1"],
    ], tmp_path)
    assert loaded == ["[]"] * 5, loaded


def test_audit_pass(tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, _ = run_cli(
        ["audit", str(CONFIGS / "diagonal_logistic.json"), "--out", str(out)], capsys)
    assert code == 0
    assert "PASS" in stdout
    report = json.loads((out / "audit_report.json").read_text())
    assert report["overall"] is True
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 0 and manifest["config"]["N"] == 2


def test_audit_lotka_volterra_passes(tmp_path, capsys):
    code, _, _ = run_cli(
        ["audit", str(CONFIGS / "lotka_volterra.json"), "--out", str(tmp_path)], capsys)
    assert code == 0


@pytest.mark.parametrize("name,rule", [
    ("coupled_diffusion.json", "diag-A"),
    ("coupled_transport.json", "diag-Gamma"),
])
def test_audit_fail_locates_site(tmp_path, capsys, name, rule):
    code, stdout, _ = run_cli(["audit", str(CONFIGS / name), "--out", str(tmp_path)], capsys)
    assert code == 2
    report = json.loads((tmp_path / "audit_report.json").read_text())
    assert report["overall"] is False
    assert any(v["rule"] == rule for v in report["violations"])


def test_audit_warnings_only_exit_code(tmp_path, capsys):
    cfg = {
        "d": 1, "N": 2,
        "A": [[1.0, 0.0], [0.0, 1.0]],
        "Gamma": [[[0.0, 0.0], [0.0, 0.0]]],
        # overflows the reaction sampler at large scales, never positive
        "reaction": {"kind": "polynomial",
                     "terms": [[{"coeff": -1.0, "exponents": [0, 501]}], []]},
        "grid": {"n": 16, "box": 8.0},
    }
    path = tmp_path / "warn.json"
    path.write_text(json.dumps(cfg))
    code, _, _ = run_cli(["audit", str(path), "--out", str(tmp_path / "o")], capsys)
    assert code == 3


def test_audit_seed_reproducibility(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli(["audit", str(CONFIGS / "diagonal_logistic.json"), "--seed", "7", "--out", str(a)], capsys)
    run_cli(["audit", str(CONFIGS / "diagonal_logistic.json"), "--seed", "7", "--out", str(b)], capsys)
    assert (a / "audit_report.json").read_bytes() == (b / "audit_report.json").read_bytes()


def test_usage_errors(tmp_path, capsys):
    assert run_cli(["frobnicate"], capsys)[0] == 4
    assert run_cli(["audit", str(tmp_path / "missing.json")], capsys)[0] == 4
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["audit", str(bad), "--out", str(tmp_path)], capsys)[0] == 4


def test_probe_command_diffusion(tmp_path, capsys):
    code, stdout, _ = run_cli(
        ["probe", "--kind", "diffusion", "--d", "1", "--eps", "1",
         "--out", str(tmp_path), "--json"], capsys)
    assert code == 0
    payload = json.loads(stdout)
    assert payload["reference"] == -1.0
    assert payload["relative_error"] < 0.02


def test_probe_command_transport(tmp_path, capsys):
    code, stdout, _ = run_cli(
        ["probe", "--kind", "transport", "--d", "1", "--eps", "1",
         "--out", str(tmp_path), "--json"], capsys)
    assert code == 0
    payload = json.loads(stdout)
    assert payload["reference"] == -1.0
    assert payload["relative_error"] < 0.01


def test_probe_eps_runs_on_the_co_dilated_grid(tmp_path, capsys):
    # --n and --box name the eps=1 grid; at eps=0.5 the probe is the eps=1
    # probe sampled at x/0.5, so its triple Laplacian is exactly 2^6 times larger
    runs = []
    for eps in ("1", "0.5"):
        out = tmp_path / eps
        code, stdout, err = run_cli(
            ["probe", "--kind", "diffusion", "--d", "2", "--eps", eps, "--out", str(out),
             "--json"], capsys)
        assert code == 0, err
        runs.append((json.loads(stdout), json.loads((out / "manifest.json").read_text())))
    (one, _), (half, manifest) = runs
    assert half["lap3_at_origin"] == 64.0 * one["lap3_at_origin"]
    assert half["relative_error"] < 1e-3
    assert (manifest["config"]["n"], manifest["config"]["box"]) == (128, 1.1)


@pytest.mark.parametrize("d", [2, 3])
def test_probe_box_alone_keeps_the_default_grid(tmp_path, capsys, d):
    # --box without --n takes the dimension's default n, as counterexample does
    runs = []
    for box in ([], ["--box", "2.2"]):
        out = tmp_path / str(len(runs))
        code, stdout, err = run_cli(
            ["probe", "--kind", "diffusion", "--d", str(d), *box, "--out", str(out)], capsys)
        assert code == 0, err
        runs.append((stdout, json.loads((out / "manifest.json").read_text())["config"]["n"]))
    assert runs[0] == runs[1] and runs[0][1] == 128


def test_counterexample_diffusion(tmp_path, capsys):
    code, stdout, _ = run_cli(
        ["counterexample", "--kind", "diffusion", "--k", "1", "--j", "2", "--a", "1.0",
         "--d", "1", "--eps", "1,0.5,0.25", "--out", str(tmp_path), "--json"], capsys)
    assert code == 0
    payload = json.loads(stdout)
    assert payload["negativity_observed"] is True
    assert -7.2 <= payload["fitted_slope"] <= -4.8
    assert (tmp_path / "violation_report.json").exists()


def test_counterexample_without_negativity_exits_2(tmp_path, capsys):
    code, _, _ = run_cli(
        ["counterexample", "--kind", "transport", "--d", "1", "--eps", "1",
         "--t-probe", "1e-30", "--out", str(tmp_path)], capsys)
    assert code == 2


def test_counterexample_with_one_distinct_eps_has_no_slope(tmp_path, capsys):
    code, stdout, err = run_cli(
        ["counterexample", "--kind", "diffusion", "--d", "1", "--eps", "1,1",
         "--out", str(tmp_path)], capsys)
    assert code == 0, err
    assert "slope n/a" in stdout and err == ""


@pytest.mark.parametrize("kind,d", [("diffusion", 2), ("diffusion", 3), ("transport", 2),
                                    ("transport", 3)])
def test_counterexample_runs_at_higher_dimension(tmp_path, capsys, kind, d):
    # box 2.2 holds the eps = 1 probe; without --box, n = 32 shrinks the box to 0.55
    code, stdout, err = run_cli(
        ["counterexample", "--kind", kind, "--d", str(d), "--n", "32", "--box", "2.2",
         "--eps", "1", "--out", str(tmp_path), "--json"], capsys)
    assert code == 0, err
    payload = json.loads(stdout)
    assert payload["eps"] == [1.0] and payload["dropped"] == []
    rate = payload["initial_rate_at_origin"][0]
    assert math.isfinite(rate) and rate < 0
    assert payload["negativity_observed"] is True
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["n"] == 32
    assert manifest["config"]["box"] == 2.2


def test_counterexample_reaction_runs_at_d3(tmp_path, capsys):
    code, stdout, err = run_cli(
        ["counterexample", "--kind", "reaction", "--d", "3", "--n", "32", "--box", "2.2",
         "--out", str(tmp_path), "--json"], capsys)
    assert code == 0, err
    payload = json.loads(stdout)
    assert payload["eps"] == [1.0, 0.5, 0.25] and payload["dropped"] == []
    assert payload["negativity_observed"] is True


def test_counterexample_names_each_dropped_eps_on_stderr(tmp_path, capsys):
    # without --box, n = 32 shrinks the box to 0.55, so no eps fits its probe
    code, stdout, err = run_cli(
        ["counterexample", "--kind", "diffusion", "--d", "2", "--n", "32", "--eps", "1,0.5",
         "--out", str(tmp_path)], capsys)
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 2, err
    for line, eps in zip(lines, ("1", "0.5")):
        assert line.startswith(f"dropped eps {eps}: outer radius "), line
        assert "does not fit in half the box 0.275" in line
    assert "NOT OBSERVED" in stdout


def test_counterexample_with_a_coupling_past_double_range_drops_every_eps(tmp_path, capsys):
    # gamma * xi overflows the symbol entry, so the rate at the origin is not finite:
    # each eps is dropped with that reason, and no numpy warning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run_cli(["counterexample", "--kind", "transport", "--gamma", "1e308",
                                     "--out", str(tmp_path), "--json"], capsys)
    assert code == 2, err
    report = json.loads(stdout)
    assert report["eps"] == [] and report["negativity_observed"] is False
    assert [drop["eps"] for drop in report["dropped"]] == [1.0, 0.5, 0.25]
    assert err.splitlines() == [f"dropped eps {eps}: initial rate at the origin is nan"
                                for eps in ("1", "0.5", "0.25")]


def _grid_config(tmp_path, box):
    cfg = json.loads((CONFIGS / "coupled_transport.json").read_text())
    cfg["grid"]["box"] = box
    path = tmp_path / "box.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize("argv", [
    # |x|^2 of the corner sample overflows
    ["simulate", "{config:1e308}", "--t-end", "0.1"],
    ["simulate", "{config:1e200}", "--t-end", "0.1"],
    # |xi|_max^6 overflows, or underflows to 0
    ["simulate", "{config:1e-60}", "--t-end", "0.1"],
    ["simulate", "{config:1e100}", "--t-end", "0.1"],
    ["simulate", "{config:5e-324}", "--t-end", "0.1"],
    ["counterexample", "--kind", "diffusion", "--d", "2", "--box", "1e308"],
    ["counterexample", "--kind", "transport", "--d", "3", "--n", "16", "--box", "1e-60"],
    ["probe", "--kind", "diffusion", "--d", "1", "--box", "1e308"],
    ["probe", "--kind", "transport", "--d", "1", "--box", "1e-300"],
])
def test_box_out_of_floating_point_range_exits_4(tmp_path, capsys, argv):
    args = [_grid_config(tmp_path, float(a[8:-1])) if a.startswith("{config:") else a
            for a in argv] + ["--out", str(tmp_path / "o")]
    code, _, err = run_cli(args, capsys)
    assert code == 4, err
    assert "grid: box must keep" in err and "Warning" not in err


def test_box_out_of_range_exits_4_without_a_warning_in_a_fresh_process(tmp_path):
    # outside the test run's warning filters, an overflow would print a raw RuntimeWarning
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, trilap.cli; sys.exit(trilap.cli.main(sys.argv[1:]))",
         "simulate", _grid_config(tmp_path, 1e308), "--t-end", "0.1", "--out", str(tmp_path)],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(Path(trilap.__file__).resolve().parent.parent)},
    )
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("config error: grid: box must keep"), proc.stderr
    assert "Warning" not in proc.stderr


@pytest.mark.parametrize("command,patch,field", [
    ("audit", {"d": "x"}, "'d'"),
    ("simulate", {"d": "x"}, "'d'"),
    # audit reads no grid
    ("simulate", {"grid": {"box": 8.0}}, "'grid.n'"),
    ("audit", {"A": [[1.0, "x"], [0.0, 0.5]]}, "'A'"),
    ("audit", {"A": [[1.0, 0.0], [0.5]]}, "'A'"),
    ("audit", {"Gamma": [[[0.2, "x"], [0.0, -0.3]]]}, "'Gamma[0]'"),
    ("audit", {"Gamma": [[[0.2, 0.0], [-0.3]]]}, "'Gamma[0]'"),
    ("audit", {"reaction": {"kind": "linear", "L": [[1.0, "x"], [0.0, 1.0]]}}, "'reaction.L'"),
    ("audit", {"reaction": {"kind": "linear", "L": [[1.0, 0.0], [1.0]]}}, "'reaction.L'"),
    ("audit", {"reaction": {"kind": "polynomial", "terms": [
        [{"coeff": "x", "exponents": [1, 0]}], []]}}, "'reaction.terms[0][0].coeff'"),
    ("audit", {"reaction": {"kind": "polynomial", "terms": [
        [{"coeff": 1.0, "exponents": ["x", 0]}], []]}}, "'reaction.terms[0][0].exponents'"),
    ("audit", {"reaction": {"kind": "polynomial", "terms": [
        [{"coeff": 1.0, "exponents": [1.5, 0]}], []]}}, "'reaction.terms[0][0].exponents'"),
    # integers beyond floating-point range
    ("audit", {"d": 10**400}, "'d'"),
    ("audit", {"N": 10**400}, "'N'"),
    ("audit", {"reaction": {"kind": "polynomial", "terms": [
        [{"coeff": 10**400, "exponents": [1, 0]}], []]}}, "'reaction.terms[0][0].coeff'"),
    ("audit", {"reaction": {"kind": "polynomial", "terms": [
        [{"coeff": 1.0, "exponents": [10**400, 0]}], []]}}, "'reaction.terms[0][0].exponents'"),
    # a boolean among numbers would load as 1.0
    ("audit", {"A": [[True, 0.0], [0.0, 1.0]]}, "'A'"),
    # exponents above the cap
    ("audit", {"reaction": {"kind": "polynomial", "terms": [
        [{"coeff": 1.0, "exponents": [1025, 0]}], []]}}, "'reaction.terms[0][0].exponents'"),
    ("simulate", {"reaction": {"kind": "polynomial", "terms": [
        [{"coeff": 1.0, "exponents": [1e308, 0]}], []]}}, "'reaction.terms[0][0].exponents'"),
])
def test_malformed_config_exits_4_naming_field(tmp_path, capsys, command, patch, field):
    cfg = json.loads((CONFIGS / "diagonal_logistic.json").read_text()) | patch
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    args = [command, str(path), "--out", str(tmp_path / "o")]
    if command == "simulate":
        args += ["--t-end", "0.1"]
    code, _, err = run_cli(args, capsys)
    assert code == 4, err
    assert field in err


def test_audit_rejects_diffusion_whose_symmetric_part_overflows(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "diagonal_logistic.json").read_text()) | {
        "A": [[-1.7e308, 0.0], [0.0, 1.0]], "reaction": {"kind": "zero"}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code, stdout, err = run_cli(["audit", str(path), "--out", str(tmp_path / "o")], capsys)
    assert code == 4, stdout
    assert "PASS" not in stdout and "fails positivity" in err


REJECTED_FLAG_MESSAGES = {
    ("--samples", "0"): "--samples must be >= 1, got 0",
    ("--seed", "-1"): "--seed must be >= 0, got -1",
    ("--tol", "-1"): "--tol must be >= 0, got -1",
    ("--tol", "nan"): "--tol must be >= 0, got nan",
    ("--t-end", "nan"): "--t-end must be finite and > 0, got nan",
    ("--t-end", "inf"): "--t-end must be finite and > 0, got inf",
    ("--dt", "nan"): "--dt must be finite and > 0, got nan",
    ("--dt", "0"): "--dt must be finite and > 0, got 0",
    ("--stride", "0"): "--stride must be >= 1, got 0",
    ("--u0", "constant:x"): "--u0 constant must be comma-separated finite numbers, got x",
    ("--u0", "x"): "--u0 must be comma-separated finite numbers, got x",
    ("--u0", "-1"): "--u0 must be nonnegative, got -1",
    ("--u0", "1,2,3"): "--u0 must be 1 or 2 values, got 1,2,3",
    ("--eps", "x"): "--eps must be comma-separated finite numbers, got x",
    ("--eps", "nan"): "--eps must be comma-separated finite numbers, got nan",
    ("--eps", "1,0"): "--eps must be all positive, got 1,0",
    ("--a", "-1"): "--a must be finite and > 0, got -1",
    ("--a", "nan"): "--a must be finite and > 0, got nan",
    ("--a", "inf"): "--a must be finite and > 0, got inf",
    ("--gamma", "inf"): "--gamma must be finite and nonzero, got inf",
    ("--gamma", "nan"): "--gamma must be finite and nonzero, got nan",
    ("--gamma", "0"): "--gamma must be finite and nonzero, got 0",
    ("--t-probe", "-1"): "--t-probe must be finite and > 0, got -1",
    ("--t-probe", "0"): "--t-probe must be finite and > 0, got 0",
    ("--t-probe", "nan"): "--t-probe must be finite and > 0, got nan",
    ("--t-probe", "inf"): "--t-probe must be finite and > 0, got inf",
    ("--eps", "-1"): "--eps must be finite and > 0, got -1",
    ("--eps", "0"): "--eps must be finite and > 0, got 0",
    # `probe --eps` takes one number, `counterexample --eps` a list
    ("probe", "--eps", "nan"): "--eps must be finite and > 0, got nan",
    ("--eps", "1e-60"): "--eps must be such that the reference is finite and nonzero, got 1e-60",
    ("--eps", "1e-52"): "--eps must be such that the reference is finite and nonzero, got 1e-52",
}


@pytest.mark.parametrize("argv", [
    ["audit", "{config}", "--samples", "0"],
    ["audit", "{config}", "--tol", "-1"],
    ["counterexample", "--kind", "diffusion", "--eps", "x"],
    ["counterexample", "--kind", "diffusion", "--k", "1", "--j", "1"],
    ["counterexample", "--kind", "diffusion", "--k", "0"],
    ["counterexample", "--kind", "diffusion", "--a", "-1"],
    ["counterexample", "--kind", "diffusion", "--d", "4"],
    ["counterexample", "--kind", "transport", "--d", "1", "--axis", "3"],
    ["counterexample", "--kind", "transport", "--d", "1", "--axis", "0"],
    ["probe", "--kind", "diffusion", "--d", "4"],
    ["simulate", "{config}", "--t-end", "0.1", "--u0", "constant:x"],
    ["ode-check", "{config}", "--u0", "x"],
    ["ode-check", "{config}", "--u0", "-1"],
    ["audit", "{config}", "--tol", "nan"],
    ["audit", "{config}", "--seed", "-1"],
    ["simulate", "{config}", "--t-end", "nan"],
    ["simulate", "{config}", "--t-end", "inf"],
    ["ode-check", "{config}", "--t-end", "inf"],
    ["counterexample", "--kind", "diffusion", "--eps", "nan"],
    ["counterexample", "--kind", "diffusion", "--eps=1,0"],
    ["counterexample", "--kind", "diffusion", "--a", "nan"],
    ["counterexample", "--kind", "diffusion", "--a", "inf"],
    ["counterexample", "--kind", "transport", "--gamma", "inf"],
    ["counterexample", "--kind", "transport", "--gamma", "nan"],
    ["counterexample", "--kind", "transport", "--gamma", "0"],
    ["simulate", "{config}", "--t-end", "0.1", "--dt", "nan"],
    ["simulate", "{config}", "--t-end", "0.1", "--stride", "0"],
    ["ode-check", "{config}", "--dt", "0"],
    ["ode-check", "{config}", "--tol", "nan"],
    ["counterexample", "--kind", "diffusion", "--t-probe", "-1"],
    ["counterexample", "--kind", "diffusion", "--t-probe", "0"],
    ["counterexample", "--kind", "diffusion", "--t-probe", "nan"],
    ["counterexample", "--kind", "diffusion", "--t-probe", "inf"],
    ["probe", "--kind", "diffusion", "--d", "1", "--eps", "-1"],
    ["probe", "--kind", "diffusion", "--d", "1", "--eps", "0"],
    ["probe", "--kind", "diffusion", "--d", "1", "--eps", "nan"],
    ["ode-check", "{config}", "--u0", "1,2,3"],
    ["simulate", "{config}", "--t-end", "0.1", "--seed", "-1"],
    # the reference -d^3/eps^6 or -sign/eps leaves double range
    ["probe", "--kind", "diffusion", "--d", "1", "--eps", "1e-60"],
    ["probe", "--kind", "diffusion", "--d", "1", "--eps", "1e-52"],
    ["probe", "--kind", "transport", "--d", "1", "--eps", "1e-320"],
    # initial data past the blow-up threshold
    ["simulate", "{config}", "--t-end", "0.1", "--u0", "constant:1e308,1e308"],
    ["ode-check", "{config}", "--u0", "1e308"],
])
def test_rejected_arguments_exit_4(tmp_path, capsys, argv):
    config = str(CONFIGS / "diagonal_logistic.json")
    args = [a.format(config=config) for a in argv] + ["--out", str(tmp_path)]
    code, _, err = run_cli(args, capsys)
    assert code == 4, err
    # the last flag holds the rejected value; it is reported under that flag
    # with the rule it breaks and the value typed, not under a library parameter
    last = tuple(argv[-1].split("=")) if "=" in argv[-1] else tuple(argv[-2:])
    last = (argv[0],) + last if (argv[0],) + last in REJECTED_FLAG_MESSAGES else last
    if last in REJECTED_FLAG_MESSAGES:
        assert err.rstrip().endswith(REJECTED_FLAG_MESSAGES[last]), err


@pytest.mark.parametrize("argv,message", [
    (["counterexample", "--kind", "reaction", "--k", "2", "--j", "2"], "--k 2 --j 2"),
    (["counterexample", "--kind", "diffusion", "--j", "0"], "--j must be >= 1, got 0"),
    (["probe", "--kind", "transport", "--d", "1", "--axis", "0"], "--axis must be in 1..1, got 0"),
    (["counterexample", "--kind", "transport", "--d", "2", "--axis", "3"],
     "--axis must be in 1..2, got 3"),
])
def test_index_errors_quote_the_one_based_flag(tmp_path, capsys, argv, message):
    code, _, err = run_cli(argv + ["--out", str(tmp_path)], capsys)
    assert code == 4
    assert message in err


def test_simulate_writes_outputs(tmp_path, capsys):
    out = tmp_path / "sim"
    code, stdout, _ = run_cli(
        ["simulate", str(CONFIGS / "diagonal_logistic.json"),
         "--t-end", "0.1", "--dt", "0.0125", "--out", str(out), "--json"], capsys)
    assert code == 0
    payload = json.loads(stdout)
    assert payload["blown_up"] is False
    csv = (out / "timeseries.csv").read_text()
    assert csv.splitlines()[0] == "t,component,min,argmin_index,mass,l2norm"
    data = np.load(out / "final_state.npz")
    assert data["values"].shape == (2, 64)
    assert (out / "plot_min.gp").exists()
    assert (out / "manifest.json").exists()


def test_simulate_default_dt(tmp_path, capsys):
    code, stdout, _ = run_cli(
        ["simulate", str(CONFIGS / "coupled_diffusion.json"), "--t-end", "0.5",
         "--out", str(tmp_path / "o"), "--json"], capsys)
    assert code == 0
    assert json.loads(stdout)["final_t"] == 0.5


def test_simulate_constant_initial_data(tmp_path, capsys):
    code, stdout, _ = run_cli(
        ["simulate", str(CONFIGS / "lotka_volterra.json"), "--t-end", "0.05", "--dt", "0.0125",
         "--u0", "constant:1.0,0.5", "--out", str(tmp_path / "o"), "--json"], capsys)
    assert code == 0


def test_simulate_blowup_exits_5(tmp_path, capsys):
    cfg = {
        "d": 1, "N": 1,
        "A": [[1.0]],
        "Gamma": [[[0.0]]],
        "reaction": {"kind": "polynomial",
                     "terms": [[{"coeff": -1.0, "exponents": [2]}]]},
        "grid": {"n": 16, "box": 16.0},
    }
    path = tmp_path / "blow.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run_cli(
        ["simulate", str(path), "--t-end", "2.0", "--dt", "0.015625",
         "--u0", "constant:2.0", "--out", str(tmp_path / "o"), "--json"], capsys)
    assert code == 5
    assert err.startswith("simulate: blew up at step "), err


def test_simulate_over_the_step_budget_exits_4_before_a_step(tmp_path, capsys, monkeypatch):
    # a huge diffusion entry makes suggest_dt about 1e-302: 8.8e299 steps
    cfg = json.loads((CONFIGS / "coupled_transport.json").read_text())
    cfg["A"][0][0] = 1e300
    path = tmp_path / "stiff.json"
    path.write_text(json.dumps(cfg))

    def no_step(*args):
        raise AssertionError("the run started")

    monkeypatch.setattr(trilap.cli, "run", no_step)
    code, _, err = run_cli(
        ["simulate", str(path), "--t-end", "0.01", "--out", str(tmp_path / "o")], capsys)
    assert code == 4, err
    assert "t_end=0.01 at dt=1.13768e-302 takes 8.79e+299 steps" in err


def test_simulate_blowup_from_a_huge_coefficient_exits_5_without_a_warning(tmp_path):
    # outside the test run's warning filters, the overflowing stages would print
    # raw RuntimeWarnings; the stepper reports the blow-up itself
    cfg = json.loads((CONFIGS / "lotka_volterra.json").read_text())
    cfg["reaction"]["terms"][0][0]["coeff"] = -1e308
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cfg))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, trilap.cli; sys.exit(trilap.cli.main(sys.argv[1:]))",
         "simulate", str(path), "--t-end", "0.01", "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(Path(trilap.__file__).resolve().parent.parent)},
    )
    assert proc.returncode == 5, proc.stderr
    assert "blew up at step 1" in proc.stdout
    assert "Warning" not in proc.stderr, proc.stderr


def test_simulate_propagator_overflow_exits_4_without_a_warning(tmp_path, capsys):
    # dt * xi * T is non-finite, so no propagator exists for this dt: a config
    # error that names dt, not a runtime error, and no state ever blew up
    cfg = json.loads((CONFIGS / "coupled_transport.json").read_text())
    cfg["Gamma"][0][0][1] = 1e308
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run_cli(
            ["simulate", str(path), "--t-end", "0.01", "--out", str(tmp_path / "o")], capsys)
    assert code == 4, err
    assert err.startswith("config error: non-finite propagator entries at dt="), err
    assert "reduce dt or grid resolution" in err
    assert not caught, [str(w.message) for w in caught]


def test_ode_check_checks_the_u0_count_of_a_zero_reaction(tmp_path, capsys):
    # a zero reaction has no component count of its own to trip over: --u0 is checked against N
    config = str(CONFIGS / "coupled_diffusion.json")
    code, _, err = run_cli(["ode-check", config, "--u0", "1,2,3", "--out", str(tmp_path)], capsys)
    assert code == 4
    assert err.rstrip().endswith(REJECTED_FLAG_MESSAGES[("--u0", "1,2,3")]), err
    assert run_cli(["ode-check", config, "--u0", "1,2", "--out", str(tmp_path)], capsys)[0] == 0


def test_ode_check_logistic(tmp_path, capsys):
    code, stdout, _ = run_cli(
        ["ode-check", str(CONFIGS / "diagonal_logistic.json"), "--t-end", "1.0",
         "--u0", "0.7,0.3", "--out", str(tmp_path), "--json"], capsys)
    assert code == 0
    payload = json.loads(stdout)
    assert payload["max_deviation"] <= 1e-8
    assert (tmp_path / "ode_check.json").exists()


@pytest.mark.parametrize("reaction", [
    {"kind": "linear", "L": [[-5.0, 0.0], [0.0, -5.0]]},
    {"kind": "polynomial", "terms": [[{"coeff": -5.0, "exponents": [1, 0]}],
                                     [{"coeff": -5.0, "exponents": [0, 1]}]]},
])
def test_ode_check_exactly_linear_reaction_passes_with_default_flags(tmp_path, capsys, reaction):
    # F = -5u is stepped exactly, so the reference must not carry RK4's 1.4e-5 error
    cfg = json.loads((CONFIGS / "diagonal_logistic.json").read_text()) | {"reaction": reaction}
    path = tmp_path / "growth.json"
    path.write_text(json.dumps(cfg))
    code, stdout, err = run_cli(["ode-check", str(path), "--out", str(tmp_path / "o"), "--json"],
                                capsys)
    assert code == 0, err
    assert json.loads(stdout)["max_deviation"] <= 1e-10


@pytest.mark.parametrize("L", [[[-5.0, 0.0], [0.0, -5.0]], [[-1.0, 0.5], [-0.25, 2.0]],
                               [[0.3, -0.7], [1.1, -0.4]]])
def test_linear_and_degree_one_polynomial_spellings_give_the_same_outputs(tmp_path, capsys, L):
    # "linear" is a spelling of the polynomial with one degree-1 term per nonzero entry of L
    polynomial = {"kind": "polynomial", "terms": [
        [{"coeff": c, "exponents": [int(l == j) for l in range(len(row))]}
         for j, c in enumerate(row) if c]
        for row in L]}
    base = json.loads((CONFIGS / "diagonal_logistic.json").read_text())
    path = tmp_path / "system.json"
    outputs = []
    for reaction in ({"kind": "linear", "L": L}, polynomial):
        path.write_text(json.dumps(base | {"reaction": reaction}))
        runs = {}
        for command, flags in (("simulate", ["--t-end", "0.05"]), ("ode-check", ["--t-end", "0.25"]),
                               ("audit", [])):
            out = tmp_path / command
            code, stdout, err = run_cli([command, str(path), *flags, "--out", str(out)], capsys)
            files = {f.name: f.read_bytes() for f in sorted(out.iterdir()) if f.name != "manifest.json"}
            runs[command] = (code, stdout, err, files)
        outputs.append(runs)
    linear, poly = outputs
    assert len(linear["simulate"][3]) == 3 and linear["ode-check"][3]
    assert linear["simulate"] == poly["simulate"]
    assert linear["ode-check"] == poly["ode-check"]
    # the audit's witness values may differ by rounding, its verdicts and sites may not
    reports = [json.loads(runs["audit"][3]["audit_report.json"]) for runs in outputs]
    located = [(r["overall"], r["reaction_ok"], [(v["rule"], v["site"]) for v in r["violations"]],
                [(w["rule"], w["site"]) for w in r["warnings"]]) for r in reports]
    assert located[0] == located[1]
    assert linear["audit"][0] == poly["audit"][0]


FRESH_MAIN = (
    "import sys; sys.path.insert(0, sys.argv[1]); import trilap.cli; "
    "sys.exit(trilap.cli.main(sys.argv[2:]))"
)


def test_parser_is_built_once_and_reused_calls_match_fresh_processes(tmp_path, capsys):
    from trilap.cli import _build_parser

    src = str(Path(trilap.__file__).resolve().parent.parent)
    config, out = str(CONFIGS / "coupled_diffusion.json"), str(tmp_path / "o")
    calls = [["audit", config, "--out", out, "--json"], ["audit", config, "--out", out],
             ["audit", config, "--out", out, "--samples", "0"],
             ["audit", config, "--out", out, "--json"]]
    _build_parser.cache_clear()
    for argv in calls:
        code, stdout, stderr = run_cli(argv, capsys)
        fresh = subprocess.run([sys.executable, "-c", FRESH_MAIN, src, *argv],
                               capture_output=True, text=True)
        assert (code, stdout, stderr) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert _build_parser.cache_info().misses == 1


def test_written_report_is_the_json_stdout(tmp_path, capsys):
    from trilap.probes import DiffusionViolation, ode_reduction_check, run_violation_experiment

    spec = load_system((CONFIGS / "coupled_diffusion.json").read_text())
    logistic = load_system((CONFIGS / "diagonal_logistic.json").read_text())
    cases = [
        (["audit", str(CONFIGS / "coupled_diffusion.json")], "audit_report.json",
         audit(spec, SignSampler()).to_dict()),
        (["counterexample", "--kind", "diffusion", "--d", "1", "--n", "64"],
         "violation_report.json",
         run_violation_experiment(DiffusionViolation(k=0, j=1, a=1.0), [1.0, 0.5, 0.25],
                                  Grid(d=1, n=64, box=4.0), t_probe=None).to_dict()),
        (["ode-check", str(CONFIGS / "diagonal_logistic.json")], "ode_check.json",
         ode_reduction_check(logistic.reaction, np.ones(2), 1.0, 1.0 / 128.0).to_dict()),
    ]
    for i, (argv, name, payload) in enumerate(cases):
        out = tmp_path / str(i)
        code, stdout, err = run_cli([*argv, "--out", str(out), "--json"], capsys)
        assert code in (0, 2), err
        text = (out / name).read_text()
        assert text == stdout and text.count("\n") == 1
        assert json.loads(text) == payload
        assert (out / "manifest.json").read_text().count("\n") == 1


# ---------------------------------------------------------------------------
# fuzz: `trilap audit` on configs with arbitrary JSON in place of any field

# values that sit on a parser's boundaries, then arbitrary JSON
JSON_LEAVES = (
    st.sampled_from([10**400, -10**400, 2**64, -1, 0, 1.5, float("nan"), float("inf"),
                     -float("inf"), True, False, None, "1", [], {}])
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
)
JSON_VALUES = JSON_LEAVES | st.recursive(
    JSON_LEAVES,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=4), kids, max_size=4),
    max_leaves=8,
)


def _paths(node, prefix=()):
    """Every position in a JSON tree, the root included (as the empty path)."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _replaced(node, path, value):
    if not path:
        return value
    node = copy.copy(node)
    node[path[0]] = _replaced(node[path[0]], path[1:], value)
    return node


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    name=st.sampled_from(sorted(p.name for p in CONFIGS.glob("*.json"))),
    mutations=st.lists(st.tuples(st.integers(min_value=0), JSON_VALUES), min_size=1, max_size=3),
)
def test_audit_fuzz_never_raises_or_exits_5(name, mutations):
    cfg = json.loads((CONFIGS / name).read_text())
    for pick, value in mutations:
        paths = list(_paths(cfg))[1:]  # the root stays an object
        cfg = _replaced(cfg, paths[pick % len(paths)], value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.json"
        path.write_text(json.dumps(cfg))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["audit", str(path), "--samples", "8", "--out", str(Path(tmp) / "o")])
    assert code in (0, 2, 3, 4), err.getvalue()


# ---------------------------------------------------------------------------
# seeded mutation fuzz: audit, simulate and ode-check on the example configs
# with one or two leaves replaced by junk: wrong types, NaN, +-inf, +-1e308,
# bad shapes and plain numbers

JUNK = ("x", None, True, [], {}, [1.0], [[1.0, 2.0]], float("nan"), float("inf"),
        -float("inf"), 1e308, -1e308, 1e-308, 10**400, 0, -1, 0.5, 2.0, -3.0, 1e3)
FUZZ_COMMANDS = {
    "audit": ["--samples", "8"],
    "simulate": ["--t-end", "0.01"],
    "ode-check": ["--t-end", "0.0625"],  # 8 steps of the default dt, 1/128
}
FUZZ_SECONDS = 2.0


class _Overtime(BaseException):
    """Raised by the fuzz's timer; not an Exception, so the CLI boundary lets it through."""


def _fuzz_case(seed):
    """(command, config) for one seed: an example config on an n=8 grid, 1-2 leaves replaced."""
    rng = random.Random(seed)
    command = sorted(FUZZ_COMMANDS)[seed % len(FUZZ_COMMANDS)]
    name = rng.choice(sorted(p.name for p in CONFIGS.glob("*.json")))
    cfg = json.loads((CONFIGS / name).read_text())
    cfg["grid"]["n"] = 8

    def at(path):
        return functools.reduce(lambda node, key: node[key], path, cfg)

    for _ in range(rng.randint(1, 2)):
        leaves = [p for p in _paths(cfg) if not isinstance(at(p), (dict, list))]
        cfg = _replaced(cfg, rng.choice(leaves), rng.choice(JUNK))
    return command, cfg


def _fuzz_seeds(count, known):
    for seed in range(count):
        reason = known.get(seed)
        yield seed if reason is None else pytest.param(
            seed, marks=pytest.mark.xfail(strict=True, reason=reason))


# box 0.5 at n=8 puts |xi|^6 near 1.6e10, so suggest_dt takes about 115,000 steps
SLOW = "suggest_dt's range cap makes t_end = 0.01 take about 115,000 steps"


@pytest.mark.parametrize("seed", _fuzz_seeds(200, {131: SLOW}))
def test_mutated_configs_map_to_documented_exit_codes(tmp_path, capsys, seed):
    command, cfg = _fuzz_case(seed)
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(cfg))
    case = f"{command} {json.dumps(cfg)}"

    def overtime(signum, frame):
        raise _Overtime

    previous = signal.signal(signal.SIGALRM, overtime)
    signal.setitimer(signal.ITIMER_REAL, FUZZ_SECONDS)
    # record warnings instead of raising them, as a plain process would print them
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            argv = [command, str(path), *FUZZ_COMMANDS[command], "--out", str(tmp_path / "o")]
            code, stdout, err = run_cli(argv, capsys)
    except _Overtime:
        pytest.fail(f"{case}: still running after {FUZZ_SECONDS} s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    case += f": exit {code}, stderr {err!r}"
    assert code in (0, 2, 3, 4, 5), case
    assert code != 5 or (command == "simulate" and "blew up at step" in stdout), case
    assert err or code not in (4, 5), case
    assert "Warning" not in err and not caught, (case, [str(w.message) for w in caught])
