"""Wavenumber scans against zeros known in closed form.

A delta z delta(x - a) has M11 = 1 - iz/2k and M22 = 1 + iz/2k, so a gain
delta z = ig lases (M22 = 0) and a lossy one z = -ig absorbs coherently
(M11 = 0) at k = g/2.  A real barrier V on [0, L] is reflectionless where
sqrt(k^2 - V) L is a multiple of pi.
"""

import json
import math

import numpy as np
import pytest

import scatter1d as s

def found(result, entry):
    return [sp for sp in result.singular_points if sp.entry == entry]


def test_gain_delta_lases_at_half_strength():
    g = 3.0
    result = s.scan(s.DeltaComb([(1j * g, 0.4)]), 1.0, 2.0, 90)
    (sp,) = found(result, "M22")
    assert sp.k_star == pytest.approx(g / 2, abs=1e-9)
    assert "spectral_singularity" in sp.classification.flags()
    assert sp.verified_residual is not None and sp.verified_residual < 1e-8
    assert found(result, "M11") == []


def test_lossy_delta_absorbs_at_half_strength():
    g, a = 3.0, 0.3
    result = s.scan(s.DeltaComb([(-1j * g, a)]), 1.0, 2.0, 90)
    (sp,) = found(result, "M11")
    assert sp.k_star == pytest.approx(g / 2, abs=1e-9)
    # at M11 = 0 the matrix is [[0, M12], [M21, 2]] with M21 = g/2k e^{2iak}
    assert sp.cpa_ratio == pytest.approx(np.exp(2j * a * g / 2), abs=1e-8)
    assert sp.verified_residual is not None and sp.verified_residual < 1e-8
    assert found(result, "M22") == []


def test_real_barrier_reflectionless_at_resonances():
    v, length = 1.5, 1.0
    p = s.PiecewiseConstant.barrier(v, 0.0, length)
    result = s.scan(p, 3.0, 7.0, s.default_scan_points(p, 3.0, 7.0))
    expected = [math.sqrt(v + (n * math.pi / length) ** 2) for n in (1, 2)]
    for entry in ("M12", "M21"):
        got = sorted(sp.k_star for sp in found(result, entry))
        assert got == pytest.approx(expected, abs=1e-8), entry
    assert found(result, "M11") == found(result, "M22") == []


def test_exact_solver_records_every_failure_and_returns():
    result = s.scan(s.ExpGrating(0.3, 1, 2.0), 0.5, 1.5, 7, solver="exact")
    assert len(result.points) == 7
    for pt in result.points:
        assert pt.matrix is None and pt.data is None
        assert pt.error.startswith("NotExactlySolvable")
    assert result.singular_points == []
    assert s.singular_summary(result)["errors"] == 7


def test_outputs_byte_identical_across_runs(tmp_path):
    p = s.Sum([s.DeltaComb([(2j, 0.0)]), s.PiecewiseConstant.barrier(0.5 - 0.1j, 0.5, 1.5)])
    texts, summaries = [], []
    for run in range(2):
        result = s.scan(p, 0.5, 1.5, 41)
        path = tmp_path / f"scan{run}.csv"
        s.write_scan_csv(result, path)
        texts.append(path.read_bytes())
        summaries.append(json.dumps(s.singular_summary(result), sort_keys=True))
    assert texts[0] == texts[1]
    assert summaries[0] == summaries[1]
    assert texts[0].count(b"\n") == 42


def test_default_grid_from_support_length():
    # 512 points per unit of (k_max - k_min)*L/(2 pi)
    barrier = s.PiecewiseConstant.barrier(3.0, 0.0, 2.0)
    assert s.default_scan_points(barrier, 3.3, 5.3) == math.ceil(512 * 2.0 * 2.0 / (2 * math.pi))
