import json
from pathlib import Path

import numpy as np
import pytest

from trilap.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


@pytest.mark.parametrize("kind,d", [("diffusion", 2), ("transport", 3)])
def test_counterexample_runs_at_higher_dimension(tmp_path, capsys, kind, d):
    code, stdout, err = run_cli(
        ["counterexample", "--kind", kind, "--d", str(d), "--n", "32", "--eps", "1",
         "--out", str(tmp_path), "--json"], capsys)
    assert code in (0, 2), err
    payload = json.loads(stdout)
    assert code == (0 if payload["negativity_observed"] else 2)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["n"] == 32
    assert manifest["config"]["box"] == pytest.approx(2.2 * 32 / 128)


@pytest.mark.parametrize("command,patch,field", [
    ("audit", {"d": "x"}, "'d'"),
    ("simulate", {"d": "x"}, "'d'"),
    # audit reads no grid
    ("simulate", {"grid": {"box": 8.0}}, "'grid.n'"),
])
def test_malformed_config_exits_4_naming_field(tmp_path, capsys, command, patch, field):
    cfg = json.loads((CONFIGS / "diagonal_logistic.json").read_text()) | patch
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    args = [command, str(path), "--out", str(tmp_path / "o")]
    if command == "simulate":
        args += ["--t-end", "0.1"]
    code, _, err = run_cli(args, capsys)
    assert code == 4
    assert field in err


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
    code, _, _ = run_cli(
        ["simulate", str(path), "--t-end", "2.0", "--dt", "0.015625",
         "--u0", "constant:2.0", "--out", str(tmp_path / "o")], capsys)
    assert code == 5


def test_ode_check_logistic(tmp_path, capsys):
    code, stdout, _ = run_cli(
        ["ode-check", str(CONFIGS / "diagonal_logistic.json"), "--t-end", "1.0",
         "--u0", "0.7,0.3", "--out", str(tmp_path), "--json"], capsys)
    assert code == 0
    payload = json.loads(stdout)
    assert payload["max_deviation"] <= 1e-8
    assert (tmp_path / "ode_check.json").exists()
