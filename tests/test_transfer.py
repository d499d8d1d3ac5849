"""Transfer-matrix algebra: amplitude maps, composition, symmetry rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scatter1d as s
from scatter1d.transfer import (
    FLAG_NAMES, IDENTITY, KMAT, SIGMA3, chain_product, flag_stack, propagation_matrix,
)
from conftest import assert_close, rel_diff


def random_unimodular(rng):
    while True:
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        det = np.linalg.det(m)
        if abs(det) > 1e-3:
            return m / np.sqrt(det)


class TestConstants:
    def test_k_squared_vanishes(self):
        assert np.abs(KMAT @ KMAT).max() == 0

    def test_sigma3_squared(self):
        assert np.abs(SIGMA3 @ SIGMA3 - IDENTITY).max() == 0

    def test_propagation_matrix(self):
        t = propagation_matrix(2.0, 0.3)
        assert_close(t[0, 0], np.exp(0.6j), 1e-15)
        assert_close(t[1, 1], np.exp(-0.6j), 1e-15)
        assert t[0, 1] == 0 and t[1, 0] == 0


class TestAmplitudeMaps:
    def test_identity_is_free(self):
        d = s.TransferMatrix(IDENTITY, 1.0).amplitudes()
        assert (d.r_left, d.r_right, d.t) == (0, 0, 1)

    def test_delta_amplitudes(self):
        z, k = 2.0, 1.0
        d = s.delta_matrix(z, 0.0, k).amplitudes()
        assert_close(d.r_left, -(1 + 1j) / 2, 1e-14)
        assert_close(d.r_right, -(1 + 1j) / 2, 1e-14)
        assert_close(d.t, (1 - 1j) / 2, 1e-14)
        assert_close(abs(d.r_left) ** 2 + abs(d.t) ** 2, 1.0, 1e-14, "|R|^2+|T|^2")

    def test_trivial_inverse(self):
        m = s.matrix_from_amplitudes(s.ScatteringData(0, 0, 1, 2.0))
        assert np.abs(m.m - IDENTITY).max() == 0

    def test_unidirectional_matrix(self):
        rl = 0.3 - 0.8j
        m = s.matrix_from_amplitudes(s.ScatteringData(rl, 0, 1, 1.0))
        np.testing.assert_allclose(m.m, [[1, 0], [-rl, 1]], rtol=0, atol=1e-15)

    def test_zero_transmission_rejected(self):
        with pytest.raises(ValueError):
            s.matrix_from_amplitudes(s.ScatteringData(0.1, 0.1, 0, 1.0))

    def test_singularity_raises(self):
        m = s.delta_matrix(2j, 0.0, 1.0)
        assert abs(m.m22) < 1e-15
        with pytest.raises(s.SpectralSingularityError):
            m.amplitudes()

    def test_roundtrip_random(self, rng):
        for _ in range(25):
            m = s.TransferMatrix(random_unimodular(rng), 1.3)
            if abs(m.m22) < 1e-6:
                continue
            back = s.matrix_from_amplitudes(m.amplitudes())
            assert np.abs(back.m - m.m).max() < 1e-12 * max(1.0, m.norm())

    def test_m11_identity(self, rng):
        # M11 = (1 + M12 M21)/M22 for unit-determinant matrices
        for _ in range(10):
            m = s.TransferMatrix(random_unimodular(rng), 0.7)
            assert_close(m.m11, (1 + m.m12 * m.m21) / m.m22, 1e-10)


class TestCompose:
    def test_identity_neutral(self, rng):
        m = s.TransferMatrix(random_unimodular(rng), 1.0)
        ident = s.TransferMatrix(IDENTITY, 1.0)
        composed = s.compose(m, ident)
        assert np.abs(composed.m - m.m).max() == 0

    def test_two_deltas_match_multi(self):
        k = 0.9
        comb = s.DeltaComb([(0.7 + 0.2j, -0.4), (-0.5j, 0.6)])
        composed = s.compose(
            s.delta_matrix(-0.5j, 0.6, k), s.delta_matrix(0.7 + 0.2j, -0.4, k)
        )
        multi = s.exact_matrix(comb, k)
        assert np.abs(composed.m - multi.m).max() < 1e-15

    def test_split_barrier(self):
        z, k = 1.2 - 0.4j, 1.1
        whole = s.barrier_matrix(z, 0.0, 2.0, k)
        halves = s.compose(s.barrier_matrix(z, 1.0, 2.0, k), s.barrier_matrix(z, 0.0, 1.0, k))
        assert np.abs(whole.m - halves.m).max() < 1e-13

    def test_wavenumber_mismatch(self):
        a = s.delta_matrix(1.0, 0.0, 1.0)
        b = s.delta_matrix(1.0, 0.0, 2.0)
        with pytest.raises(s.WavenumberMismatchError):
            s.compose(a, b)
        with pytest.raises(s.WavenumberMismatchError):
            s.compose_chain([a, a, b])

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 4097])
    def test_chain_product_matches_sequential(self, rng, n):
        # thin complex slices, as the dynamical engine multiplies them, at
        # three wavenumbers on a leading axis and at one with no batch axis
        edges = np.sort(rng.uniform(0.0, 3.0, n + 1))
        heights = rng.normal(size=n) + 1j * rng.normal(size=n)
        k = np.array([0.4, 1.3, 2.9])
        stacks = s.exact.barrier_slice_matrices(heights, edges[:-1], edges[1:], k[:, None])

        def sequential(stack):
            out = stack[0]
            for m in stack[1:]:
                out = m @ out
            return out

        batched = chain_product(stacks)
        assert batched.shape == (3, 2, 2)
        for stack, got in zip(stacks, batched):
            ref = sequential(stack)
            assert rel_diff(got, ref) <= 1e-13
            assert rel_diff(chain_product(stack), ref) <= 1e-13

    def test_det_multiplicative(self, rng):
        a = s.TransferMatrix(random_unimodular(rng), 1.0)
        b = s.TransferMatrix(random_unimodular(rng), 1.0)
        assert s.compose(a, b).det_residual() < 1e-10


class TestTranslate:
    def test_zero_shift(self, rng):
        m = s.TransferMatrix(random_unimodular(rng), 1.0)
        assert np.abs(s.translate_matrix(m, 0.0).m - m.m).max() == 0

    def test_delta_translation(self):
        z, a, k = 1.0 + 2.0j, 0.8, 1.4
        direct = s.delta_matrix(z, a, k)
        moved = s.translate_matrix(s.delta_matrix(z, 0.0, k), a)
        assert np.abs(direct.m - moved.m).max() < 1e-15

    def test_additivity_exact(self, rng):
        m = s.TransferMatrix(random_unimodular(rng), 0.9)
        one = s.translate_matrix(m, 0.7 + 0.4)
        two = s.translate_matrix(s.translate_matrix(m, 0.7), 0.4)
        assert np.abs(one.m - two.m).max() < 1e-15

    def test_amplitude_translation_rule(self):
        z, k, a = 1.1 - 0.6j, 1.2, 0.55
        base = s.barrier_matrix(z, 0.0, 1.0, k).amplitudes()
        moved = s.translate_matrix(s.barrier_matrix(z, 0.0, 1.0, k), a).amplitudes()
        assert_close(moved.r_left, np.exp(2j * k * a) * base.r_left, 1e-13)
        assert_close(moved.r_right, np.exp(-2j * k * a) * base.r_right, 1e-13)
        assert_close(moved.t, base.t, 1e-13)
        # ScatteringData.translated agrees
        shifted = base.translated(a)
        assert_close(shifted.r_left, moved.r_left, 1e-13)


class TestTimeReverse:
    def test_identity_fixed(self):
        m = s.TransferMatrix(IDENTITY, 1.0)
        assert np.abs(s.time_reverse_matrix(m).m - IDENTITY).max() == 0

    def test_involution(self, rng):
        m = s.TransferMatrix(random_unimodular(rng), 1.0)
        twice = s.time_reverse_matrix(s.time_reverse_matrix(m))
        assert np.abs(twice.m - m.m).max() == 0

    def test_entry_rule(self, rng):
        m = s.TransferMatrix(random_unimodular(rng), 1.0)
        r = s.time_reverse_matrix(m)
        assert r.m11 == np.conj(m.m22)
        assert r.m12 == np.conj(m.m21)
        assert r.m21 == np.conj(m.m12)
        assert r.m22 == np.conj(m.m11)

    def test_amplitude_rule(self):
        z, k = 0.9 + 1.3j, 0.8
        m = s.barrier_matrix(z, 0.0, 1.0, k)
        d = m.amplitudes()
        rbar = s.time_reverse_matrix(m).amplitudes()
        denom = np.conj(d.t**2 - d.r_left * d.r_right)
        assert_close(rbar.r_left, -np.conj(d.r_right) / denom, 1e-12)
        assert_close(rbar.r_right, -np.conj(d.r_left) / denom, 1e-12)
        assert_close(rbar.t, np.conj(d.t) / denom, 1e-12)
        # the engine-level check: conjugated potential gives the same numbers
        pbar = s.TimeReversed(s.PiecewiseConstant((0.0, 1.0), (z,)))
        dbar = s.exact_matrix(pbar, k).amplitudes()
        assert_close(dbar.r_left, rbar.r_left, 1e-12)


class TestClassify:
    def test_delta_spectral_singularity(self):
        cls = s.delta_matrix(2j, 0.0, 1.0).classify()
        assert cls.spectral_singularity
        assert not cls.time_reversed_ss
        assert not cls.self_dual
        assert "spectral_singularity" in cls.flags()

    def test_delta_cpa(self):
        m = s.delta_matrix(-2j, 0.0, 1.0)
        cls = m.classify()
        assert cls.time_reversed_ss and not cls.spectral_singularity
        assert cls.cpa_ratio is not None
        assert_close(cls.cpa_ratio, m.m21, 0.0, "CPA amplitude ratio is M21")

    def test_right_invisible_matrix(self):
        m = s.TransferMatrix([[1, 0], [-0.4 + 0.1j, 1]], 1.0)
        cls = m.classify()
        assert cls.right_reflectionless and cls.right_invisible
        assert not cls.left_reflectionless

    def test_self_dual_synthetic(self):
        m = s.TransferMatrix([[1e-12, 1j], [1j, 1e-12]], 1.0)
        cls = m.classify()
        assert cls.self_dual and cls.spectral_singularity and cls.time_reversed_ss

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            s.TransferMatrix(IDENTITY, -1.0)

    def test_flag_stack_on_known_matrices(self):
        # deltas at k = g/2: a gain one lases (M22 = 0), a lossy one absorbs (M11 = 0)
        g, b, c = 3.0, 0.7j, -0.4 + 0.1j
        cases = {
            ("spectral_singularity",): s.delta_matrix(1j * g, 0.4, g / 2).m,
            ("time_reversed_ss",): s.delta_matrix(-1j * g, 0.3, g / 2).m,
            ("spectral_singularity", "time_reversed_ss", "self_dual"): [[0, 1], [-1, 0]],
            ("right_reflectionless", "right_invisible"): [[1, 0], [c, 1]],
            ("left_reflectionless", "left_invisible"): [[1, b], [0, 1]],
            (): np.full((2, 2), np.nan),
        }
        stack = np.array(list(cases.values()), dtype=complex)
        flags = flag_stack(stack)
        assert flags.shape == (len(cases), len(FLAG_NAMES)) and flags.dtype == bool
        for row, (want, m) in zip(flags, cases.items()):
            assert tuple(name for name, on in zip(FLAG_NAMES, row) if on) == want
            assert s.TransferMatrix(m, 1.0).classify().flags() == want
        assert (flag_stack(stack.reshape(2, 3, 2, 2)) == flags.reshape(2, 3, -1)).all()


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_roundtrip_property(data):
    """matrix_from_amplitudes inverts amplitudes_from_matrix on unit-det matrices."""
    vals = data.draw(
        st.lists(st.floats(-2, 2, allow_nan=False), min_size=8, max_size=8)
    )
    m = np.array(
        [
            [vals[0] + 1j * vals[1], vals[2] + 1j * vals[3]],
            [vals[4] + 1j * vals[5], vals[6] + 1j * vals[7]],
        ]
    )
    det = np.linalg.det(m)
    if abs(det) < 1e-3:
        return
    m = m / np.sqrt(det)
    tm = s.TransferMatrix(m, 1.0)
    if abs(tm.m22) < 1e-3:
        return
    back = s.matrix_from_amplitudes(tm.amplitudes())
    assert np.abs(back.m - tm.m).max() <= 1e-12 * max(1.0, tm.norm())
