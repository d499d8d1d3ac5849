"""Closed-form solvers: deltas, barriers, stacks, unimodular powers, repeats."""

import numpy as np
import pytest

import scatter1d as s
from scatter1d.transfer import IDENTITY, propagation_matrix
from conftest import assert_close, corpus, rel_diff


def rule_by_rule(p, k):
    """The closed-form rules applied node by node, as a reference dispatcher."""
    if isinstance(p, s.DeltaComb):
        return s.exact_matrix(p, k)
    if isinstance(p, s.PiecewiseConstant):
        return s.exact_matrix(p, k)
    if isinstance(p, s.Translated):
        return s.translate_matrix(rule_by_rule(p.inner, k), p.shift)
    if isinstance(p, s.TimeReversed):
        return s.time_reverse_matrix(rule_by_rule(p.inner, k))
    if isinstance(p, s.LocallyPeriodic):
        return s.locally_periodic_matrix(rule_by_rule(p.cell, k), p.period, p.copies)
    if isinstance(p, s.Sum) and not p.overlapping:
        return s.compose_chain([rule_by_rule(q, k) for q in p.spatially_sorted()])
    raise s.NotExactlySolvable(type(p).__name__)


def closed_form_corpus():
    out = {}
    for name, p in corpus().items():
        try:
            rule_by_rule(p, 1.0)
        except s.NotExactlySolvable:
            continue
        out[name] = p
    return out


class TestDeltaMatrix:
    def test_zero_strength(self):
        with np.errstate(all="raise"):
            m = s.delta_matrix(0.0, 0.3, 1.0)
        assert np.abs(m.m - IDENTITY).max() == 0

    def test_spectral_singularity_matrix(self):
        m = s.delta_matrix(2j, 0.0, 1.0)
        np.testing.assert_allclose(m.m, [[2, 1], [-1, 0]], rtol=0, atol=1e-15)

    def test_matches_first_order_truncation(self):
        # the series truncation at order 1 is exact for one delta
        z, a, k = 1 + 1j, 0.5, 2.0
        comb = s.DeltaComb([(z, a)])
        rep = s.dyson_order1(comb, k)
        assert np.abs(rep.matrix.m - s.delta_matrix(z, a, k).m).max() < 1e-14

    def test_det(self):
        assert s.delta_matrix(0.7 - 2.1j, 1.1, 0.6).det_residual() < 1e-14


class TestMultiDelta:
    def test_single_term(self):
        comb = s.DeltaComb([(1.2j, 0.4)])
        k = 1.1
        assert np.abs(s.exact_matrix(comb, k).m - s.delta_matrix(1.2j, 0.4, k).m).max() == 0

    def test_entries_multilinear(self):
        # second difference in one strength vanishes: entries are degree-1 in each z_j
        k, a1, a2 = 0.8, -0.3, 0.9
        z2 = 0.5 - 0.2j

        def m_of(z1):
            return s.exact_matrix(s.DeltaComb([(z1, a1), (z2, a2)]), k).m

        z0, h = 0.6 + 0.1j, 0.37
        second = m_of(z0 + h) - 2 * m_of(z0) + m_of(z0 - h)
        assert np.abs(second).max() < 1e-14

    def test_equal_spacing_matches_locally_periodic(self):
        z, ell, k, n = 0.4 - 0.6j, 1.3, 0.77, 5
        comb = s.DeltaComb([(z, j * ell) for j in range(n)])
        brute = s.exact_matrix(comb, k)
        cheb = s.locally_periodic_matrix(s.delta_matrix(z, 0.0, k), ell, n)
        assert rel_diff(brute.m, cheb.m) < 1e-12

    def test_generator_form_on_delta_cell(self):
        # the two L-factorizations agree when the first cell carries a1 != 0:
        # L = T(a1) M1 T(ell - a1) equals M1(at origin) T(ell)
        z, a1, ell, k = 0.9 + 0.3j, 0.35, 1.2, 1.05
        m1 = s.delta_matrix(z, a1, k)
        lhs = propagation_matrix(k, a1) @ m1.m @ propagation_matrix(k, ell - a1)
        rhs = s.delta_matrix(z, 0.0, k).m @ propagation_matrix(k, ell)
        assert np.abs(lhs - rhs).max() < 1e-14


class TestBarrier:
    def test_zero_height_identity(self):
        m = s.barrier_matrix(0.0, 0.0, 1.0, 1.3)
        assert np.abs(m.m - IDENTITY).max() < 1e-15

    def test_degenerate_height(self):
        # z = k^2 makes nn = 0; the stabilized limit uses s -> kL
        k, L = 1.0, 1.0
        m = s.barrier_matrix(k * k, 0.0, L, k)
        assert_close(m.m11, np.exp(-1j) * (1 + 0.5j), 1e-12, "M11 limit")
        assert_close(m.m12, -0.5j * np.exp(-1j * (L + 0.0)), 1e-12, "M12 limit")
        assert m.det_residual() < 1e-12

    def test_near_degenerate_taylor_branch(self):
        k, L = 1.0, 1.0
        m_exact_limit = s.barrier_matrix(k * k, 0.0, L, k)
        m_near = s.barrier_matrix(k * k * (1 + 1e-14), 0.0, L, k)
        assert np.abs(m_near.m - m_exact_limit.m).max() < 1e-10

    def test_branch_flip_invariance(self):
        # M depends on nn only through even functions; flipping the root's
        # sign must not change the matrix
        z, k, L = 2.4 - 1.1j, 1.2, 0.9
        nn = np.sqrt(1 - z / k**2 + 0j)
        for root in (nn, -nn):
            w = k * L * root
            c, sn = np.cos(w), np.sin(w) / root
            zh = z / (2 * k * k)
            m11 = np.exp(-1j * k * L) * (c - 1j * (zh - 1) * sn)
            assert_close(m11, s.barrier_matrix(z, 0.0, L, k).m11, 1e-13)

    def test_matches_dynamical(self):
        z, L, k = 1.0 + 0.5j, 2.0, 1.3
        p = s.PiecewiseConstant((0.0, L), (z,))
        md = s.transfer_matrix_dynamical(p, k, 1e-10)
        me = s.barrier_matrix(z, 0.0, L, k)
        assert np.abs(md.m - me.m).max() < 1e-8

    def test_piecewise_single_cell(self):
        p = s.PiecewiseConstant((0.1, 0.9), (1.4 - 0.2j,))
        k = 0.9
        assert np.abs(s.exact_matrix(p, k).m - s.barrier_matrix(1.4 - 0.2j, 0.1, 0.9, k).m).max() == 0

    def test_bilayer_product(self):
        zm, zp, L, k = 1.1 + 0.3j, -0.7j, 1.0, 1.2
        p = s.PiecewiseConstant((-L / 2, 0.0, L / 2), (zm, zp))
        prod = s.compose(
            s.barrier_matrix(zp, 0.0, L / 2, k), s.barrier_matrix(zm, -L / 2, 0.0, k)
        )
        assert np.abs(s.exact_matrix(p, k).m - prod.m).max() < 1e-15

    def test_split_into_ten_cells(self):
        z, k = 0.9 - 1.2j, 1.4
        bp = tuple(np.linspace(0.0, 2.0, 11))
        p = s.PiecewiseConstant(bp, (z,) * 10)
        whole = s.barrier_matrix(z, 0.0, 2.0, k)
        assert np.abs(s.exact_matrix(p, k).m - whole.m).max() < 1e-10


class TestUnimodularPower:
    def test_shear_power(self):
        up = s.unimodular_power(np.array([[1.0, 1.0], [0.0, 1.0]]), 5)
        np.testing.assert_allclose(up.value, [[1, 5], [0, 1]], rtol=0, atol=1e-12)

    def test_identity(self):
        for n in (1, 2, 17):
            up = s.unimodular_power(np.eye(2, dtype=complex), n)
            assert np.abs(up.value - IDENTITY).max() < 1e-12

    def test_random_against_brute(self, rng):
        for _ in range(30):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            m /= np.sqrt(np.linalg.det(m))
            n = int(rng.integers(1, 50))
            brute = np.linalg.matrix_power(m, n)
            assert rel_diff(s.unimodular_power(m, n).value, brute) < 1e-9

    def test_jordan_branch(self, rng):
        j = np.array([[1.0, 1.0], [0.0, 1.0]])
        for sign in (1.0, -1.0):
            for _ in range(5):
                a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                while abs(np.linalg.det(a)) < 0.3:
                    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                m = sign * (a @ j @ np.linalg.inv(a))
                n = int(rng.integers(2, 40))
                brute = np.linalg.matrix_power(m, n)
                assert rel_diff(s.unimodular_power(m, n).value, brute) < 1e-9

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError):
            s.unimodular_power(np.diag([2.0, 2.0]), 3)

    def test_large_n_stability(self):
        # mild complex gamma, n = 10^5: relative accuracy survives
        theta = 0.37 + 1e-4j
        m = np.array([[np.exp(1j * theta), 0], [0.3, np.exp(-1j * theta)]])
        m /= np.sqrt(np.linalg.det(m))
        n = 100_000
        up = s.unimodular_power(m, n)
        assert np.isfinite(up.value).all()
        # compare against squaring route
        b = np.linalg.matrix_power(m, n)
        assert rel_diff(up.value, b) < 1e-8


class TestLocallyPeriodic:
    def test_single_copy(self):
        cell = s.barrier_matrix(0.7 + 0.1j, 0.0, 0.5, 1.1)
        out = s.locally_periodic_matrix(cell, 0.8, 1)
        assert np.abs(out.m - cell.m).max() == 0

    def test_delta_cell_three_copies(self):
        z, ell, k = 0.9j, 1.1, 0.95
        cheb = s.locally_periodic_matrix(s.delta_matrix(z, 0.0, k), ell, 3)
        comb = s.DeltaComb([(z, 0.0), (z, ell), (z, 2 * ell)])
        assert rel_diff(cheb.m, s.exact_matrix(comb, k).m) < 1e-12

    def test_barrier_cell_vs_power_route(self):
        z, ell, k, n = 0.5 + 0.15j, 1.0, 1.1, 1000
        cell = s.barrier_matrix(z, 0.0, 0.8, k)
        cheb = s.locally_periodic_matrix(cell, ell, n)
        L = cell.m @ propagation_matrix(k, ell)
        power = (
            propagation_matrix(k, (1 - n) * ell)
            @ s.unimodular_power(L, n).value
            @ propagation_matrix(k, -ell)
        )
        assert rel_diff(cheb.m, power) < 1e-8

    def test_block_composition_consistency(self):
        # m+n copies equals the n-block composed with the translated m-block
        z, ell, k = 0.45 - 0.3j, 0.9, 1.2
        cell = s.barrier_matrix(z, 0.0, 0.6, k)
        m_copies, n_copies = 3, 4
        total = s.locally_periodic_matrix(cell, ell, m_copies + n_copies)
        first = s.locally_periodic_matrix(cell, ell, n_copies)
        second = s.translate_matrix(
            s.locally_periodic_matrix(cell, ell, m_copies), n_copies * ell
        )
        composed = s.compose(second, first)
        assert rel_diff(total.m, composed.m) < 1e-9

    def test_potential_dispatch(self):
        lp = s.LocallyPeriodic(s.PiecewiseConstant((0.0, 0.4), (0.8 - 0.1j,)), 4, 0.7)
        k = 1.3
        via_exact = s.exact_matrix(lp, k)
        brute = s.compose_chain(
            [
                s.translate_matrix(s.barrier_matrix(0.8 - 0.1j, 0.0, 0.4, k), j * 0.7)
                for j in range(4)
            ]
        )
        assert rel_diff(via_exact.m, brute.m) < 1e-12


class TestExactDispatcher:
    def test_all_corpus_dets(self):
        from conftest import corpus

        k = 1.15
        for name, p in corpus().items():
            try:
                m = s.exact_matrix(p, k)
            except s.NotExactlySolvable:
                continue
            assert m.det_residual() < 1e-10, name

    @pytest.mark.parametrize("name", list(closed_form_corpus()))
    def test_same_matrix_as_rule_by_rule(self, name):
        p = closed_form_corpus()[name]
        for k in (0.7, 1.15, 2.3):
            assert np.abs(s.exact_matrix(p, k).m - rule_by_rule(p, k).m).max() == 0, k

    def test_translated_and_reversed(self):
        base = s.PiecewiseConstant((0.0, 1.0), (0.9 + 0.4j,))
        k = 1.05
        mt = s.exact_matrix(s.Translated(base, 0.6), k)
        assert np.abs(mt.m - s.translate_matrix(s.exact_matrix(base, k), 0.6).m).max() == 0
        mr = s.exact_matrix(s.TimeReversed(base), k)
        assert np.abs(mr.m - s.time_reverse_matrix(s.exact_matrix(base, k)).m).max() == 0

    def test_overlapping_sum_rejected(self):
        p = s.Sum(
            [s.PiecewiseConstant((0.0, 2.0), (1.0,)), s.PiecewiseConstant((1.0, 3.0), (1.0,))]
        )
        with pytest.raises(s.NotExactlySolvable):
            s.exact_matrix(p, 1.0)

    def test_empty_sum_is_identity(self):
        m = s.exact_matrix(s.zero_potential(), 1.0)
        assert np.abs(m.m - IDENTITY).max() == 0

    def test_no_closed_form(self):
        with pytest.raises(s.NotExactlySolvable):
            s.exact_matrix(s.SmisProfile(1.0, 0.01, 1), 1.0)
        # a numeric cell inside a closed-form tree is still no closed form
        with pytest.raises(s.NotExactlySolvable):
            s.exact_matrix(s.LocallyPeriodic(s.ExpGrating(0.3, 1, 0.4), 5, 0.6), 1.0)
