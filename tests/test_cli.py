"""The scatter1d command line, end to end in fresh interpreters."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import scatter1d as s
from scatter1d import cli

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
    approx = run_cli("approx", "--spec", "design.json", "--k", "1.0", cwd=tmp_path)
    assert approx.returncode == 0, approx.stderr


def test_verify_exact_without_closed_form_is_a_usage_error(tmp_path):
    spec = tmp_path / "grating.json"
    s.save_potential(s.ExpGrating(0.3, 1, 2.0), spec)
    run = run_cli("verify", "--spec", str(spec), "--k", "1.0", "--solver", "exact",
                  "--r-left", "0,0", "--r-right", "0,0", "--t", "1,0", cwd=tmp_path)
    assert run.returncode == 2
    assert run.stderr.startswith(b"error: ")
    assert b"Traceback" not in run.stderr
    assert run.stdout == b""


@pytest.mark.parametrize("r_left", ["nan,0", "inf,0"])
def test_non_finite_design_target_writes_nothing(r_left, tmp_path):
    run = run_cli("design", "--k0", "1", "--r-left", r_left, "--r-right", "0,0", "--t", "1,0.1",
                  "--out-spec", "design.json", cwd=tmp_path)
    assert run.returncode == 2
    assert run.stderr.startswith(b"error: ")
    assert b"Traceback" not in run.stderr
    assert run.stdout == b""
    assert not (tmp_path / "design.json").exists()


def test_design_usage_errors_print_their_own_message(tmp_path):
    base = {"--k0": "1.0", "--r-left": "0.1,0", "--r-right": "0.2,0", "--t": "1,0.1"}
    cases = [
        ("--k0", "-1", b"error: k0 must be positive\n"),
        ("--r-left", "0.1x", b"error: cannot parse complex number '0.1x': "),
        ("--t", "0", b"error: zero transmission unrealizable (T never vanishes)\n"),
    ]
    for flag, value, message in cases:
        argv = [item for key, val in {**base, flag: value}.items() for item in (key, val)]
        run = run_cli("design", *argv, cwd=tmp_path)
        assert run.returncode == 2, (flag, run.stderr)
        assert run.stderr.startswith(message), (flag, run.stderr)
        assert run.stdout == b""


SCAN = ["scan", "--spec", "grating.json", "--k-min", "0.5", "--k-max", "1.0",
        "--out-csv", "scan.csv"]
DESIGN = ["design", "--k0", "1.0", "--r-left", "0.1,0", "--r-right", "0.2,0", "--t", "1,0.1"]
VERIFY = ["verify", "--spec", "grating.json", "--k", "1.0", "--r-left", "0,0", "--r-right", "0,0",
          "--t", "1,0"]
NUMBER_ERRORS = {   # argparse keeps the last of a repeated option
    "points_one": (SCAN + ["--points", "1"], "points must be at least 2"),
    "points_negative": (SCAN + ["--points", "-3"], "points must be at least 2"),
    "points_zero": (SCAN + ["--points", "0"], "points must be at least 2"),
    "k_max_inf": (SCAN + ["--k-max", "inf"], "k-max must be positive and finite"),
    "k_nan_grating": (["solve", "--spec", "grating.json", "--k", "nan"],
                      "k must be positive and finite"),
    "k_nan_delta": (["solve", "--spec", "delta.json", "--k", "nan"],
                    "k must be positive and finite"),
    "tol_zero": (["solve", "--spec", "grating.json", "--k", "1.0", "--tol", "0"],
                 "tol must be positive and finite"),
    "verify_tol_negative": (DESIGN + ["--verify-tol=-1e-6"],
                            "verify-tol must be positive and finite"),
    "k0_nan": (DESIGN + ["--k0", "nan"], "k0 must be finite"),
    "r_left_nan": (DESIGN + ["--r-left", "nan,0", "--r-right", "0,0"],
                   "complex number 'nan,0' must be finite"),
    "t_inf": (DESIGN + ["--t", "inf"], "complex number 'inf' must be finite"),
    "verify_t_nan": (VERIFY + ["--t", "nan"], "complex number 'nan' must be finite"),
    "verify_r_right_inf": (VERIFY + ["--r-right", "inf@30"],
                           "complex number 'inf@30' must be finite"),
    "approx_exact_smis": (["approx", "--spec", "smis.json", "--k", "1.0", "--solver", "exact"],
                          "no closed form for SmisProfile"),
}


@pytest.mark.parametrize("case", NUMBER_ERRORS)
def test_unusable_numbers_are_usage_errors(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    s.save_potential(s.ExpGrating(0.3, 1, 2.0), "grating.json")
    s.save_potential(s.DeltaComb([(0.8 + 0.4j, 0.2)]), "delta.json")
    s.save_potential(s.SmisProfile(1.0, 0.02, 2, 0.3), "smis.json")
    argv, message = NUMBER_ERRORS[case]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert err == f"error: {message}\n"
    assert out == ""
