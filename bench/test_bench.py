"""Tests of the benchmark itself: seeding, checks and tracing.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import scatter1d as s  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path)


def _first(ops, kind):
    return next(i for i, op in enumerate(ops) if op.kind == kind)


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_seed_changes_inputs_not_make_up(name, workdir):
    wl = W.WORKLOADS[name](workdir)
    a, b = wl.round(1), wl.round(2)
    assert Counter(op.kind for op in a) == Counter(wl.counts) == Counter(op.kind for op in b)
    assert [op.params for op in wl.round(1)] == [op.params for op in a]
    seeded = [op for op in a if op.kind not in wl.expected_failures]
    assert not any(op.params == other.params for op in seeded for other in b)


def test_design_targets_keep_their_windings():
    rng = np.random.default_rng(0)
    windings = {"general": [1, 2, 1], "reflectionless_right": [1, 2, 1], "unit_t": [2, 1],
                "doubly_reflectionless": [5, 1, 4, 1]}
    for kind, want in windings.items():
        for _ in range(200):
            rl, rr, t = W.Design.target(kind, rng)
            spec = s.DesignSpec(1.0, rl, rr, t)
            if rr == 0 and rl != 0:
                spec = s.design._time_reversed_spec(spec)
            mags = [abs(f[1, 0]) or abs(f[0, 1]) for f in s.factor_matrices(spec)]
            assert [s.default_winding(m) for m in mags] == want


def test_solve_check_rejects_matrix_off_by_ten_tol(workdir):
    wl = W.Solve(workdir)
    ops = wl.round(3)
    i = _first(ops, "grating")
    m = ops[i].collect(ops[i].run())
    m_ref = wl.references(ops)[i]
    assert wl.check(ops[i], m, m_ref).ok
    off = m.copy()
    off[0, 1] += 10 * W.SOLVE_TOL * max(1.0, np.linalg.norm(m_ref))
    assert not wl.check(ops[i], off, m_ref).ok


def test_scan_check_rejects_moved_missing_and_spurious_zeros(workdir):
    wl = W.Scan(workdir)
    ops = wl.round(4)
    i = _first(ops, "gain_delta")
    out = ops[i].collect(ops[i].run())
    (zero,) = wl.references(ops)[i]
    assert wl.check(ops[i], out, [zero]).ok

    def with_points(points):
        return {**out, "summary": {**out["summary"], "singular_points": points}}

    (found,) = out["summary"]["singular_points"]
    moved = {**found, "k_star": zero.k + 10 * zero.radius}
    assert not wl.check(ops[i], with_points([moved]), [zero]).ok
    assert not wl.check(ops[i], with_points([]), [zero]).ok
    assert not wl.check(ops[i], with_points([found, {**found, "entry": "M11"}]), [zero]).ok


def test_scan_readme_default_grid_fails(workdir):
    wl = W.Scan(workdir)
    ops = wl.round(5)
    i = _first(ops, "readme_delta")
    out = ops[i].collect(ops[i].run())
    assert out["summary"]["points"] == 2
    assert not wl.check(ops[i], out, wl.references(ops)[i]).ok


def test_scan_zero_radius_of_a_double_zero():
    # |f| = c (k - 1)^2 reaches the bound at (bound / c)^(1/2)
    c, norm = 0.08, 1.0
    bound = W.ZERO_TOL * norm + W.SOLVE_TOL
    radius = W._zero_radius(lambda k: c * (k - 1.0) ** 2, norm, 1.0)
    assert radius == pytest.approx((bound / c) ** 0.5, rel=1e-6)


def test_design_check_rejects_amplitude_off_by_ten_tol(workdir):
    wl = W.Design(workdir)
    ops = wl.round(6)
    i = _first(ops, "unit_t")
    out = ops[i].collect(ops[i].run())
    assert wl.check(ops[i], out, None).ok
    rl, rr, t = ops[i].params["targets"]
    ops[i].params["targets"] = (rl + 10 * W.VERIFY_TOL * max(1.0, abs(rl)), rr, t)
    assert not wl.check(ops[i], out, None).ok


def test_approx_check_rejects_outputs_off_by_ten_tol(workdir):
    wl = W.Approx(workdir)
    ops = wl.round(7)
    i = _first(ops, "barrier")
    born, rep1, rep2 = ops[i].collect(ops[i].run())
    transforms = wl.references(ops)[i]
    assert wl.check(ops[i], (born, rep1, rep2), transforms).ok
    k = ops[i].params["k"]
    bad_born = s.ScatteringData(born.r_left + 10 * W.APPROX_TOL, born.r_right, born.t, k)
    assert not wl.check(ops[i], (bad_born, rep1, rep2), transforms).ok
    m = rep2.matrix.m.copy()
    m[1, 1] += 10 * W.APPROX_TOL
    bad = s.ApproxReport(2, "dyson", s.TransferMatrix(m, k), rep2.data)
    assert not wl.check(ops[i], (born, rep1, bad), transforms).ok


def test_double_delta_order_two_is_exact():
    assert W.Approx.double_delta_exact(8).ok


def test_tracer_wraps_every_binding_and_restores():
    tracer = tracing.Tracer()
    original = s.transfer.chain_product
    tracer.install(s, tracing.HOOKS)
    try:
        assert s.engines.chain_product is s.transfer.chain_product is not original
        tracer.enabled = True
        s.matrix_at(s.ExpGrating(0.3 - 0.1j, 1, 2.0), 1.1, "auto", 1e-9)
        tracer.enabled = False
        calls, self_s, counts = tracer.totals()
        assert calls["engines.transfer_matrix_dynamical"] == 1
        assert counts["engines.transfer_matrix_dynamical.slices"] == counts[
            "exact.barrier_slice_matrices.slices"] > 0
        assert all(v >= 0 for v in self_s.values())
    finally:
        tracer.uninstall()
    assert s.engines.chain_product is original is s.transfer.chain_product


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer = set(tracing.layer_metrics(tracing.Tracer(), 1))
    layer |= {"cli.output_bytes", "trace.overhead_pct", *run.ACCURACY.values()}
    assert {m["name"] for m in spec["per_layer"]} == layer
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "solve", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0 and out.stdout == ""
