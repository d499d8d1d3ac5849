"""The scatter1d command line, end to end in fresh interpreters."""

import csv
import functools
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scatter1d as s
from scatter1d import cli
from scatter1d.transfer import ENTRY_NAMES

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
BARRIER_JSON = '{"type": "piecewise", "breakpoints": [0, 1], "values": [1]}'
NON_FINITE_SPECS = {   # JSON specs may hold NaN and Infinity
    "piecewise_nan": ('{"type": "piecewise", "breakpoints": [0, NaN, 1], "values": [1, 1]}',
                      "breakpoints and values"),
    "period_nan": ('{"type": "locally_periodic", "copies": 3, "period": NaN, "cell": %s}'
                   % BARRIER_JSON, "copies and period"),
    "shift_nan": ('{"type": "translated", "shift": NaN, "inner": %s}' % BARRIER_JSON, "shift"),
    "grating_length_inf": ('{"type": "exp_grating", "strength": [0.3, 0], "harmonic": 1,'
                           ' "length": Infinity}', "strength, harmonic, length and offset"),
    "grating_harmonic_inf": ('{"type": "exp_grating", "strength": [0.3, 0], "harmonic": Infinity,'
                             ' "length": 1}', "strength, harmonic, length and offset"),
    "sampled_dx_nan": ('{"type": "sampled", "x0": 0, "dx": NaN, "values": [1, 2, 3]}',
                       "x0, dx and values"),
    "smis_alpha_nan": ('{"type": "smis", "k0": 1.0, "alpha": NaN, "winding": 2}',
                       "k0, alpha, winding and translation"),
}
NUMBER_ERRORS.update({
    name: (["solve", "--spec", f"{name}.json", "--k", "1.0"],
           f"cannot read potential spec '{name}.json': {what} must be finite")
    for name, (_, what) in NON_FINITE_SPECS.items()
})


@pytest.mark.parametrize("case", NUMBER_ERRORS)
def test_unusable_numbers_are_usage_errors(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    s.save_potential(s.ExpGrating(0.3, 1, 2.0), "grating.json")
    s.save_potential(s.DeltaComb([(0.8 + 0.4j, 0.2)]), "delta.json")
    s.save_potential(s.SmisProfile(1.0, 0.02, 2, 0.3), "smis.json")
    for name, (text, _) in NON_FINITE_SPECS.items():
        Path(f"{name}.json").write_text(text)
    argv, message = NUMBER_ERRORS[case]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert err == f"error: {message}\n"
    assert out == ""


def test_main_twice_in_one_process(tmp_path, monkeypatch, capsys):
    # the parser is built once; a usage error in between leaves no trace
    monkeypatch.chdir(tmp_path)
    s.save_potential(s.ExpGrating(0.3, 1, 2.0), "grating.json")
    solve = ["solve", "--spec", "grating.json", "--k", "1.1"]
    runs = []
    for argv in (solve, ["solve", "--spec", "grating.json"], solve):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        runs.append((code, *capsys.readouterr()))
    assert cli.build_parser() is cli.build_parser()
    assert runs[1][0] == 2 and "--k" in runs[1][2]
    assert runs[0][0] == 0 and runs[0][1]
    assert runs[2] == runs[0]


def f_string_profile(potential, npoints=2048):
    """The profile CSV as formatted one numpy scalar at a time."""
    x = np.linspace(*potential.support(), npoints)
    v = potential.evaluate(x)
    lines = [f"{xi:.17g},{vi.real:.17g},{vi.imag:.17g}\n" for xi, vi in zip(x, v)]
    return "x,re_v,im_v\n" + "".join(lines)


def f_string_scan(result):
    """The scan CSV as formatted one field at a time through csv.writer."""
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(sys.modules["scatter1d.scan"]._CSV_HEADER)
    for pt in result.points:
        row = [f"{pt.k:.17g}"]
        zs = [pt.matrix.entry(name) for name in ENTRY_NAMES] if pt.matrix else [None] * 4
        zs += [pt.data.r_left, pt.data.r_right, pt.data.t] if pt.data else [None] * 3
        for z in zs:
            row += ["", ""] if z is None else [f"{z.real:.17g}", f"{z.imag:.17g}"]
        row += ["|".join(pt.classification.flags()) if pt.classification else "", pt.error or ""]
        writer.writerow(row)
    return fh.getvalue()


def test_csv_files_match_field_by_field_formatting(tmp_path, monkeypatch):
    design = s.solve_single_mode(s.DesignSpec(1.0, 0.3j, 0.15, 1.0)).potential
    s.write_profile_csv(design, tmp_path / "profile.csv")
    assert (tmp_path / "profile.csv").read_bytes().decode() == f_string_profile(design)

    # a cap of 128 slices fails some k of the grid: their rows carry an
    # error, which holds commas and is quoted
    capped = functools.partial(s.transfer_matrix_dynamical, max_slices=128)
    monkeypatch.setattr(sys.modules["scatter1d.scan"], "transfer_matrix_dynamical", capped)
    result = s.scan(s.ExpGrating(0.3 - 0.1j, 1, 2.0), 0.5, 12.0, 9, solver="dynamical",
                    refine=False)
    assert any(pt.error for pt in result.points) and any(pt.matrix for pt in result.points)
    s.write_scan_csv(result, tmp_path / "scan.csv")
    text = (tmp_path / "scan.csv").read_bytes().decode()
    assert text == f_string_scan(result) and '"ToleranceNotReached' in text
