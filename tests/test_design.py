"""Single-mode inverse design: factorization, block amplitudes, composed designs."""

import cmath
import sys

import numpy as np
import pytest

import scatter1d as s
from scatter1d import design as d
from scatter1d.transfer import chain_product

K0 = 1.0
VERIFY_TOL = 1e-8

SPECS = {
    "general": d.DesignSpec(K0, 0.06 * cmath.exp(0.5j), 0.3 * cmath.exp(-1j), 1.03 + 0.02j),
    "unit_t": d.DesignSpec(K0, 0.3j, 0.15, 1.0),
    "reflectionless_right": d.DesignSpec(K0, 0.3 * cmath.exp(2j), 0, 1.04 + 0.02j),
    "doubly_reflectionless": d.DesignSpec(K0, 0, 0, 1.1 * cmath.exp(0.3j)),
}


@pytest.mark.parametrize("name", SPECS)
def test_factors_reproduce_target_matrix(name):
    spec = SPECS[name]
    factors = d.factor_matrices(spec)
    assert 2 <= len(factors) <= 4
    for f in factors:   # unit triangular: each one is an invisible block
        assert f[0, 0] == f[1, 1] == 1 and (f[0, 1] == 0 or f[1, 0] == 0)
    target = spec.target_matrix().m
    assert np.abs(chain_product(np.stack(factors)) - target).max() <= 1e-14 * np.abs(target).max()


@pytest.mark.parametrize("winding", [1, 2, 5])
@pytest.mark.parametrize("magnitude", [0.01, 0.3, 1.5])
def test_alpha_inverts_residue_reflection(magnitude, winding):
    alpha = d.alpha_for_reflection(magnitude, winding)
    assert alpha > 0
    assert abs(abs(d.residue_reflection(alpha, winding)) - magnitude) <= 1e-10 * magnitude


@pytest.mark.parametrize("magnitude", [4 * np.pi / d.C_MIN, 5.0])
def test_alpha_unreachable_at_or_below_c_min(magnitude):
    # c = 4 pi n / |R| <= 27/8
    with pytest.raises(d.TargetUnreachableError):
        d.alpha_for_reflection(magnitude, 1)


@pytest.mark.parametrize("build, reflection", [
    (d.build_right_invisible, 0.3 * cmath.exp(1j)),
    (d.build_left_invisible, 0.2 * cmath.exp(-2j)),
], ids=["right_invisible", "left_invisible"])
def test_block_is_verified_and_factor_matches(build, reflection):
    block = build(K0, reflection, verify_tol=VERIFY_TOL)
    assert block.reflection == reflection
    for name, residual in block.residuals.items():
        assert residual <= VERIFY_TOL, name
    m = s.matrix_at(block.profile, K0, "auto", 1e-10).m
    assert np.abs(m - block.factor).max() <= VERIFY_TOL * max(1.0, abs(reflection))


@pytest.mark.parametrize("name", SPECS)
def test_design_meets_five_verify_tol(name):
    spec = SPECS[name]
    result = d.solve_single_mode(spec, verify_tol=VERIFY_TOL)
    bound = 5 * VERIFY_TOL * max(1.0, float(np.abs(result.target).max()))
    assert result.matrix_residual <= bound
    # independently of the forward check: the amplitudes at k0
    got = s.matrix_at(result.potential, K0, "auto", 1e-10).amplitudes()
    for have, want in [(got.r_left, spec.r_left), (got.r_right, spec.r_right), (got.t, spec.t)]:
        assert abs(have - want) <= 5 * VERIFY_TOL * max(1.0, abs(want))


@pytest.mark.parametrize("name", SPECS)
def test_block_residuals_are_its_own(name):
    # each emitted block carries the residuals of its own dynamical-engine matrix,
    # at the leaf tol of the forward verify
    result = d.solve_single_mode(SPECS[name], verify_tol=VERIFY_TOL)
    leaf_tol = VERIFY_TOL / 50 / len(result.blocks)
    for block in result.blocks:
        r = block.reflection
        r_left, r_right = (r, 0) if block.orientation == "right_invisible" else (0, r)
        expect = s.ScatteringData(r_left, r_right, 1.0, K0)
        m = s.transfer_matrix_dynamical(block.profile, K0, leaf_tol)
        assert block.residuals == d._block_residuals(m, expect, VERIFY_TOL)


@pytest.mark.parametrize("name", SPECS)
def test_achieved_is_the_forward_verify(name):
    result = d.solve_single_mode(SPECS[name], verify_tol=VERIFY_TOL)
    m = s.matrix_at(result.potential, K0, "auto", VERIFY_TOL / 50).m
    assert np.array_equal(result.achieved, m)


def test_design_makes_no_s_curve_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("s_curve_solve called")

    original = s.engines.s_curve_solve
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "scatter1d":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, refuse)
    for spec in SPECS.values():
        d.solve_single_mode(spec, verify_tol=VERIFY_TOL)
    d.build_right_invisible(K0, 0.3j, verify_tol=VERIFY_TOL)
    d.build_left_invisible(K0, 0.2, verify_tol=VERIFY_TOL)


def test_perturbed_block_fails_verification(monkeypatch):
    exact_alpha = d.alpha_for_reflection
    calls = []

    def off_alpha(magnitude, winding):   # the second block's alpha off by 1e-3 relative
        calls.append(magnitude)
        alpha = exact_alpha(magnitude, winding)
        return alpha * (1 + 1e-3) if len(calls) == 2 else alpha

    monkeypatch.setattr(d, "alpha_for_reflection", off_alpha)
    with pytest.raises(d.DesignVerificationError, match="block verification failed"):
        d.solve_single_mode(SPECS["general"], verify_tol=VERIFY_TOL)
    monkeypatch.setattr(d, "alpha_for_reflection", lambda m, n: exact_alpha(m, n) * (1 + 1e-3))
    with pytest.raises(d.DesignVerificationError, match="block verification failed"):
        d.build_right_invisible(K0, 0.3 * cmath.exp(1j), verify_tol=VERIFY_TOL)


@pytest.mark.parametrize("amplitude", ["r_left", "r_right", "t"])
@pytest.mark.parametrize("bad", [complex("nan"), complex(0, float("inf"))])
def test_non_finite_target_is_refused(amplitude, bad):
    amps = {"r_left": 0.1, "r_right": 0.2, "t": 1.0, amplitude: bad}
    with pytest.raises(ValueError, match="target amplitudes must be finite"):
        d.DesignSpec(K0, **amps)


VERIFY_TOL_CALLS = {
    "build_right_invisible": lambda tol: d.build_right_invisible(K0, 0.3j, verify_tol=tol),
    "build_left_invisible": lambda tol: d.build_left_invisible(K0, 0.3j, verify_tol=tol),
    "solve_single_mode": lambda tol: d.solve_single_mode(SPECS["general"], verify_tol=tol),
}


@pytest.mark.parametrize("bad", [float("nan"), 0.0, -1e-8, float("inf")])
@pytest.mark.parametrize("call", sorted(VERIFY_TOL_CALLS))
def test_unusable_verify_tol_is_refused_before_any_solve(call, bad, monkeypatch):
    for name in ("factor_matrices", "alpha_for_reflection", "matrix_at"):
        monkeypatch.setattr(d, name, None)   # any factorisation or solve would fail
    with pytest.raises(ValueError, match="verify_tol must be positive and finite"):
        VERIFY_TOL_CALLS[call](bad)
