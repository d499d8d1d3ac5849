"""The scatter1d command line, end to end in fresh interpreters."""

import json
import os
import subprocess
import sys
from pathlib import Path

import scatter1d as s

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "scatter1d.cli", *args],
        cwd=cwd, env=env, capture_output=True, timeout=300,
    )


def test_solve_periodic_numeric_cell_is_deterministic(tmp_path):
    spec = tmp_path / "repeat.json"
    s.save_potential(s.LocallyPeriodic(s.ExpGrating(0.3 - 0.1j, 1, 0.4), 50, 0.6), spec)
    runs = [run_cli("solve", "--spec", str(spec), "--k", "1.15", cwd=tmp_path) for _ in range(2)]
    for run in runs:
        assert run.returncode == 0, run.stderr
    assert runs[0].stdout == runs[1].stdout
    record = json.loads(runs[0].stdout)
    assert record["det_residual"] < 1e-9


def test_design_output_verifies(tmp_path):
    target = ["--r-left", "1.7320508@-45", "--r-right", "0,0", "--t", "0,1.4142136"]
    design = run_cli("design", "--k0", "1.0", *target, "--out-spec", "design.json",
                     "--report", "report.json", cwd=tmp_path)
    assert design.returncode == 0, design.stderr
    verify = run_cli("verify", "--spec", "design.json", "--k", "1.0", *target, cwd=tmp_path)
    assert verify.returncode == 0, verify.stderr
    assert json.loads(verify.stdout)["ok"] is True


def test_verify_exact_without_closed_form_is_a_usage_error(tmp_path):
    spec = tmp_path / "grating.json"
    s.save_potential(s.ExpGrating(0.3, 1, 2.0), spec)
    run = run_cli("verify", "--spec", str(spec), "--k", "1.0", "--solver", "exact",
                  "--r-left", "0,0", "--r-right", "0,0", "--t", "1,0", cwd=tmp_path)
    assert run.returncode == 2
    assert run.stderr.startswith(b"error: ")
    assert b"Traceback" not in run.stderr
    assert run.stdout == b""
