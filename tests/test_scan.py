"""Wavenumber scans against zeros known in closed form.

A delta z delta(x - a) has M11 = 1 - iz/2k and M22 = 1 + iz/2k, so a gain
delta z = ig lases (M22 = 0) and a lossy one z = -ig absorbs coherently
(M11 = 0) at k = g/2.  A real barrier V on [0, L] is reflectionless where
sqrt(k^2 - V) L is a multiple of pi.
"""

import functools
import json
import math
import sys

import numpy as np
import pytest

import scatter1d as s
from conftest import rel_diff

SCAN = sys.modules["scatter1d.scan"]

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
    assert result.k.shape == (7,) and result.matrices.shape == (7, 2, 2)
    assert np.isnan(result.matrices).all() and not result.flags.any()
    assert len(result.errors) == 7
    for error in result.errors:
        assert error.startswith("NotExactlySolvable")
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


BATCH_CASES = {
    "barrier": (s.PiecewiseConstant.barrier(1.5 - 0.2j, 0.0, 1.0), 3.0, 4.0),
    "delta_comb": (s.DeltaComb([(0.4, -1.0), (-0.6j, 0.0), (0.3 + 0.3j, 1.2)]), 0.5, 2.0),
    "smis": (s.SmisProfile(1.0, 0.02, 2, 0.3), 0.95, 1.05),
    # 8 k L / pi > 64 here, so every k of the grid starts from its own slice count
    "grating_high_k": (s.ExpGrating(0.3 - 0.1j, 1, 2.0), 13.0, 15.0),
    "periodic_numeric_cell": (s.LocallyPeriodic(s.ExpGrating(0.3 - 0.1j, 1, 0.4), 5, 0.6), 0.9, 1.4),
    "reversed_translated": (
        s.TimeReversed(s.Translated(s.PiecewiseConstant.barrier(0.9 - 0.3j, 0.0, 0.8), 2.2)),
        0.5, 3.0,
    ),
}


@pytest.mark.parametrize("solver", ["exact", "dynamical", "auto"])
@pytest.mark.parametrize("name", sorted(BATCH_CASES))
def test_batched_grid_equals_per_point(name, solver):
    p, k_min, k_max = BATCH_CASES[name]
    grid = np.linspace(k_min, k_max, 9)
    singles = []
    for k in grid:
        try:
            singles.append(s.matrix_at(p, float(k), solver).m)
        except s.NotExactlySolvable as exc:
            singles.append(f"NotExactlySolvable: {exc}")
    result = s.scan(p, k_min, k_max, len(grid), solver=solver, refine=False)
    if isinstance(singles[0], str):   # no closed form: every point records the error
        with pytest.raises(s.NotExactlySolvable):
            s.matrix_at(p, grid, solver)
        assert result.errors == singles
        return
    batch = s.matrix_at(p, grid, solver)
    assert batch.shape == result.matrices.shape == (len(grid), 2, 2)
    assert result.errors == [None] * len(grid)
    for one, many, scanned in zip(singles, batch, result.matrices):
        assert rel_diff(many, one) <= 1e-13
        assert rel_diff(scanned, one) <= 1e-13


def test_failed_wavenumber_records_its_own_error(monkeypatch):
    # at a cap of 128 slices the grating reaches tol at some k of the grid
    # only; a refinement that fails is skipped, not raised out of the scan
    capped = functools.partial(s.transfer_matrix_dynamical, max_slices=128)
    monkeypatch.setattr(SCAN, "transfer_matrix_dynamical", capped)
    p, grid = s.ExpGrating(0.3 - 0.1j, 1, 2.0), np.linspace(0.5, 12.0, 9)
    for refine in (False, True):
        result = s.scan(p, grid[0], grid[-1], len(grid), solver="dynamical", refine=refine)
        errors = 0
        for k, m, flags, error in zip(grid, result.matrices, result.flags, result.errors):
            try:
                one = s.matrix_at(p, float(k), "dynamical")
            except s.ToleranceNotReached as exc:
                assert np.isnan(m).all() and not flags.any()
                assert error == f"ToleranceNotReached: {exc}"
                errors += 1
            else:
                assert error is None and rel_diff(m, one.m) <= 1e-13
        assert 0 < errors < len(grid)


@pytest.mark.parametrize("k", [math.nan, math.inf, np.array([1.0, math.nan])])
def test_non_finite_k_is_refused(k, monkeypatch):
    grating = s.ExpGrating(0.3, 1, 2.0)
    with pytest.raises(ValueError, match="finite"):
        s.matrix_at(grating, k)
    with pytest.raises(ValueError, match="finite"):
        s.transfer_matrix_dynamical(grating, k)
    if np.ndim(k):
        return
    # a scan bound is refused before any solve, as is a default grid over it
    monkeypatch.setattr(SCAN, "matrix_at", None)
    for bounds in ((1.0, k), (k, 2.0)):
        with pytest.raises(ValueError, match="k must be positive and finite"):
            s.scan(grating, *bounds, 5)
        with pytest.raises(ValueError, match="k must be positive and finite"):
            s.default_scan_points(grating, *bounds)


BARRIER = s.PiecewiseConstant.barrier(0.8 + 0.3j, 0.0, 1.2)
SCALAR_K_ENTRY_POINTS = {
    "TransferMatrix": lambda k: s.TransferMatrix(np.eye(2), k),
    "exact_matrix": lambda k: s.exact_matrix(BARRIER, k),
    "delta_matrix": lambda k: s.delta_matrix(0.7, 0.2, k),
    "barrier_matrix": lambda k: s.barrier_matrix(0.8, 0.0, 1.2, k),
    "born_first": lambda k: s.born_first(BARRIER, k),
    "dyson_order1": lambda k: s.dyson_order1(BARRIER, k),
    "dyson_order2": lambda k: s.dyson_order2(BARRIER, k),
    "scattering_solution": lambda k: s.scattering_solution(BARRIER, k),
    "ls_amplitudes": lambda k: s.ls_amplitudes(BARRIER, k),
    "s_curve_solve": lambda k: s.s_curve_solve(BARRIER, k),
    "from_permittivity": lambda k: s.from_permittivity(
        np.linspace(0.0, 1.0, 11), np.r_[1.0, np.full(9, 2.25), 1.0], k),
}


@pytest.mark.parametrize("k", [math.nan, math.inf])
@pytest.mark.parametrize("entry", sorted(SCALAR_K_ENTRY_POINTS))
def test_non_finite_scalar_k_is_refused(entry, k):
    with pytest.raises(ValueError, match="k must be positive and finite"):
        SCALAR_K_ENTRY_POINTS[entry](k)
