"""Single-mode inverse design: factorization, block amplitudes, composed designs."""

import cmath

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
    # each emitted block carries the S-curve residuals of its own profile
    result = d.solve_single_mode(SPECS[name], verify_tol=VERIFY_TOL)
    for block in result.blocks:
        r = block.reflection
        r_left, r_right = (r, 0) if block.orientation == "right_invisible" else (0, r)
        expect = s.ScatteringData(r_left, r_right, 1.0, K0)
        assert block.residuals == d._verify_block(block.profile, K0, expect, VERIFY_TOL)
