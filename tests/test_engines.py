"""Numerical engines: dynamical slicing, wave-equation solves, S-curve method."""

import functools
import math
import timeit

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import scatter1d as s
from scatter1d import engines
from scatter1d.exact import barrier_slice_matrices, numeric_leaf_copies
from scatter1d.potentials import _cuts, _edges
from scatter1d.transfer import IDENTITY, chain_product
from conftest import assert_close, corpus, rel_diff, smooth_corpus

K_TEST = 1.15
TOL = 1e-9


def exact_or_dynamical(p, k, tol=1e-10):
    try:
        return s.exact_matrix(p, k)
    except s.NotExactlySolvable:
        return s.transfer_matrix_dynamical(p, k, tol)


class TestEffectiveHamiltonian:
    def test_direct_integration_matches_closed_form(self):
        # integrate i dM/dx = H(x) M across a barrier, with the interaction-picture
        # H(x) = (v/2k) [[1, e^{-2ikx}], [-e^{2ikx}, -1]], and compare
        z, L, k = 0.6 - 0.2j, 1.0, 1.1

        def rhs(x, y):
            ph = np.exp(2j * k * x)
            h = (z / (2 * k)) * np.array([[1.0, 1.0 / ph], [-ph, -1.0]])
            m = (y[:4] + 1j * y[4:]).reshape(2, 2)
            dm = -1j * h @ m
            return np.concatenate([dm.real.ravel(), dm.imag.ravel()])

        y0 = np.concatenate([IDENTITY.real.ravel(), IDENTITY.imag.ravel()])
        sol = solve_ivp(rhs, (0.0, L), y0, method="DOP853", rtol=1e-11, atol=1e-13)
        m_num = (sol.y[:4, -1] + 1j * sol.y[4:, -1]).reshape(2, 2)
        m_ref = s.barrier_matrix(z, 0.0, L, k).m
        assert np.abs(m_num - m_ref).max() < 1e-8


class TestDynamical:
    def test_zero_potential_identity(self):
        m = s.transfer_matrix_dynamical(s.zero_potential(), 1.0)
        assert np.abs(m.m - IDENTITY).max() == 0

    def test_barrier_matches_closed_form(self):
        z, L, k = 1.0 + 0.5j, 2.0, 1.3
        p = s.PiecewiseConstant((0.0, L), (z,))
        md = s.transfer_matrix_dynamical(p, k, TOL)
        assert np.abs(md.m - s.barrier_matrix(z, 0.0, L, k).m).max() < 10 * TOL

    def test_delta_splice_is_exact(self):
        comb = s.DeltaComb([(0.8 - 1.1j, -0.2), (2.0, 0.7)])
        md = s.transfer_matrix_dynamical(comb, K_TEST)
        assert np.abs(md.m - s.exact_matrix(comb, K_TEST).m).max() < 1e-13

    def test_mixed_delta_and_barrier(self):
        p = s.Sum(
            [s.DeltaComb([(1.2j, -0.5)]), s.PiecewiseConstant((0.0, 1.0), (0.7,))]
        )
        md = s.transfer_matrix_dynamical(p, K_TEST, TOL)
        ref = s.compose(
            s.barrier_matrix(0.7, 0.0, 1.0, K_TEST), s.delta_matrix(1.2j, -0.5, K_TEST)
        )
        assert np.abs(md.m - ref.m).max() < 10 * TOL

    def test_composition_consistency(self):
        # [a,b] then [b,c] composed equals [a,c] in one go
        g = s.ExpGrating(0.4 - 0.1j, 1, 2.0)
        k = 1.2
        left = s.Sampled.from_callable(g.evaluate, 0.0, 1.0, 2048)
        right = s.Sampled.from_callable(g.evaluate, 1.0, 2.0, 2048)
        whole = s.transfer_matrix_dynamical(g, k, 1e-9)
        parts = s.compose(
            s.transfer_matrix_dynamical(right, k, 1e-9),
            s.transfer_matrix_dynamical(left, k, 1e-9),
        )
        assert np.abs(whole.m - parts.m).max() < 1e-6  # sampling + slicing error

    def test_corpus_unimodular(self):
        for name, p in corpus().items():
            m = s.transfer_matrix_dynamical(p, K_TEST, 1e-8)
            assert m.det_residual() < 1e-7, name

    def test_grating_weak_matches_order2(self):
        zhat = 1e-3
        n, L = 1, np.pi
        z = 2 * np.pi * n * zhat / L**2
        g = s.ExpGrating(z, n, L)
        k = 0.73  # generic, off the Bragg set
        md = s.transfer_matrix_dynamical(g, k, 1e-11).amplitudes()
        d2 = s.dyson_order2(g, k).data
        assert abs(md.r_left - d2.r_left) < 5 * zhat**3
        assert abs(md.r_right - d2.r_right) < 5 * zhat**3
        assert abs(md.t - d2.t) < 5 * zhat**3


class _KinksAsBoundaries(s.Potential):
    """The same potential with its interpolation nodes reported as boundaries.

    The wave-equation solve then stops at every kink as a support boundary,
    apart from the engines' own node cuts, which makes it a reference good
    to ~1e-12 on sampled data.
    """

    def __init__(self, inner):
        self.inner = inner

    def support(self):
        return self.inner.support()

    def _smooth(self, x):
        return self.inner._smooth(x)

    def delta_terms(self):
        return self.inner.delta_terms()

    def internal_boundaries(self):
        nodes = self.inner.interpolation_nodes().tolist()
        return tuple(sorted({*self.inner.internal_boundaries(), *nodes}))


def sampled_cases():
    bump = corpus()["sampled_bump"]
    return {
        "sampled_bump": (bump, K_TEST),
        "sampled_w1": (smooth_corpus()["sampled_w1"], 1.0),
        "translated_bump": (s.Translated(bump, 0.37), K_TEST),
        "overlapping_sum": (s.Sum([bump, s.ExpGrating(0.2, 1, 1.0, 0.9)]), K_TEST),
    }


class TestDynamicalSampled:
    @pytest.mark.parametrize("name", list(sampled_cases()))
    def test_keeps_tol_without_floor(self, name):
        # slice midpoints that land on the sample nodes make two slice counts
        # agree by aliasing while the error is ~5e-7, and an ODE step that
        # strides a node misses tol by up to ~300x; no interpolation floor
        p, k = sampled_cases()[name]
        ref = s.scattering_solution(_KinksAsBoundaries(p), k, "left", 1e-12)
        for tol in (1e-8, 1e-9):
            routes = {
                "dynamical": s.transfer_matrix_dynamical(p, k, tol).amplitudes(),
                "s_curve": s.s_curve_solve(p, k, tol)[0],
                "ls": s.ls_amplitudes(p, k, tol).data,
            }
            for route, d in routes.items():
                assert abs(d.r_left - ref.r) <= tol * max(1, abs(ref.r)), (name, route, tol)
                assert abs(d.t - ref.t) <= tol * max(1, abs(ref.t)), (name, route, tol)


def wave_matrix(p, k):
    """M from the left and right noded wave-equation solves at 1e-12.

    A_- = M22 and B_- = -M21 (left solve), A_+ = M12 (right solve), and
    det M = 1 gives M11; no slicing, no composition.
    """
    q = _KinksAsBoundaries(p)
    left = s.scattering_solution(q, k, "left", 1e-12)
    right = s.scattering_solution(q, k, "right", 1e-12)
    m12, m21, m22 = right.a_plus, -left.b_minus, left.a_minus
    return np.array([[(1 + m12 * m21) / m22, m12], [m21, m22]])


@functools.cache
def smooth_reference(name, k):
    return wave_matrix(smooth_corpus()[name], k)


def gauss_product(p, k, n):
    """The product of n fourth-order Magnus slices of equal width over p's
    support, with v at each slice's two Gauss points."""
    a, b = p.support()
    left = np.linspace(a, b, n + 1)[:-1]
    right = np.append(left[1:], b)
    mid, half = 0.5 * (left + right), (right - left) / (2 * np.sqrt(3.0))
    v1, v2 = p.evaluate(mid - half), p.evaluate(mid + half)
    return chain_product(barrier_slice_matrices(0.5 * (v1 + v2), left, right, k, v2 - v1))


class TestMagnusSlices:
    def test_zero_tilt_is_the_barrier(self):
        rng = np.random.default_rng(13)
        z = rng.normal(size=200) + 1j * rng.normal(size=200)
        lo = rng.uniform(-2.0, 2.0, 200)
        hi = lo + rng.uniform(1e-3, 1.5, 200)
        k = rng.uniform(0.1, 5.0, 200)
        bare = barrier_slice_matrices(z, lo, hi, k)
        assert rel_diff(barrier_slice_matrices(z, lo, hi, k, np.zeros(200)), bare) <= 1e-15

    def test_fourth_order_on_smis(self):
        # a wrong sign of the commutator term leaves the slices second order
        p = corpus()["smis"]
        prods = [gauss_product(p, K_TEST, n) for n in (16, 32, 64, 128, 256)]
        diffs = [np.abs(b - a).max() for a, b in zip(prods[:-1], prods[1:])]
        for coarse, fine in zip(diffs[:-1], diffs[1:]):
            assert coarse / fine >= 14, diffs

    @pytest.mark.parametrize("name", ["barrier_complex", "bilayer", "sum_w3"])
    def test_piecewise_constant_is_one_barrier_per_span(self, name, monkeypatch):
        p = {**corpus(), **smooth_corpus()}[name]
        calls = []

        def recorded(heights, *args):
            calls.append((np.size(heights), args[3:]))
            return barrier_slice_matrices(heights, *args)

        monkeypatch.setattr(engines, "barrier_slice_matrices", recorded)
        m = s.transfer_matrix_dynamical(p, K_TEST, TOL).m
        assert calls and all(call == (1, ()) for call in calls)
        assert np.abs(m - s.exact_matrix(p, K_TEST).m).max() == 0

    @pytest.mark.parametrize("k", [0.7, 1.15, 2.3])
    @pytest.mark.parametrize("name", list(smooth_corpus()))
    def test_keeps_tol_without_floor(self, name, k):
        ref = smooth_reference(name, k)
        for tol in (1e-6, 1e-9):
            m = s.transfer_matrix_dynamical(smooth_corpus()[name], k, tol).m
            assert_within_tol(m, ref, tol, (name, k, tol))

    def test_sampled_span_zero_at_the_probes_is_solved(self):
        # v vanishes at every even node, where seven even probes of [0, 1] land
        values = np.zeros(17, dtype=complex)
        values[1::2] = 0.8 - 0.3j
        p = s.Sampled(0.0, 1 / 16, values)
        ref = wave_matrix(p, 1.3)
        assert abs(ref[0, 0] - (0.932 - 0.156j)) < 1e-3
        for solver in ("dynamical", "auto"):
            assert_within_tol(s.matrix_at(p, 1.3, solver, TOL).m, ref, TOL, solver)


PERIODIC_CELLS = {  # cell, period
    "grating": (s.ExpGrating(0.3 - 0.1j, 1, 0.4), 0.6),
    "smis": (s.SmisProfile(1.0, 0.02, 2, 0.3), 7.0),
    "sampled_bump": (corpus()["sampled_bump"], 1.6),
}


@functools.cache
def cell_reference(name):
    cell, _ = PERIODIC_CELLS[name]
    return wave_matrix(cell, K_TEST)


def repeat_reference(name, n):
    """n translated copies of the cell's wave-equation matrix, multiplied out."""
    _, ell = PERIODIC_CELLS[name]
    cell = s.TransferMatrix(cell_reference(name), K_TEST)
    return s.compose_chain([s.translate_matrix(cell, j * ell) for j in range(n)]).m


@functools.cache
def mixed_leaf():
    """Smooth, flat and delta pieces in one leaf, and its wave-equation
    matrix: a grating and a barrier overlap on [1, 2], the barrier alone is
    flat on [2, 3], and a delta sits inside each."""
    p = s.Sum([
        s.ExpGrating(0.3 - 0.1j, 1, 2.0),
        s.PiecewiseConstant.barrier(0.5 + 0.2j, 1.0, 3.0),
        s.DeltaComb([(0.4 - 0.3j, 0.5), (0.6j, 2.5)]),
    ])
    return p, wave_matrix(p, K_TEST)


def assert_within_tol(m, ref, tol, label):
    err = np.abs(m - ref).max()
    assert err <= tol * max(1, np.linalg.norm(ref)), (label, err)


class TestStructuralSolver:
    """matrix_at 'auto': closed forms at solvable leaves, the dynamical engine
    at the others, the Chebyshev repeat for any cell."""

    @pytest.mark.parametrize("n", [1, 5, 50])
    @pytest.mark.parametrize("cell", list(PERIODIC_CELLS))
    def test_periodic_numeric_cell(self, cell, n):
        unit, ell = PERIODIC_CELLS[cell]
        p = s.LocallyPeriodic(unit, n, ell)
        m = s.matrix_at(p, K_TEST, "auto", TOL).m
        assert_within_tol(m, repeat_reference(cell, n), TOL, (cell, n))

    def test_disjoint_sum_with_numeric_repeat(self):
        barrier = s.PiecewiseConstant.barrier(0.8j, -1.5, -0.7)
        repeat = s.LocallyPeriodic(PERIODIC_CELLS["grating"][0], 5, 0.6)
        p = s.Sum([repeat, barrier])
        assert numeric_leaf_copies(p) == 5
        m = s.matrix_at(p, K_TEST, "auto", TOL).m
        assert_within_tol(m, wave_matrix(p, K_TEST), TOL, "sum")

    def test_overlapping_sum_is_one_leaf(self):
        p, k = sampled_cases()["overlapping_sum"]
        assert numeric_leaf_copies(p) == 1
        m = s.matrix_at(p, k, "auto", TOL).m
        assert np.abs(m - s.transfer_matrix_dynamical(p, k, TOL).m).max() == 0

    def test_leaf_copies_multiply_through_repeats(self):
        cell = s.Sum([s.ExpGrating(0.2, 1, 0.5), s.DeltaComb([(0.3, 0.7)]),
                      s.Translated(s.SmisProfile(1.0, 0.02, 1), 1.0)])
        p = s.TimeReversed(s.LocallyPeriodic(s.LocallyPeriodic(cell, 3, 5.0), 4, 16.0))
        assert numeric_leaf_copies(p) == 2 * 3 * 4
        assert numeric_leaf_copies(corpus()["locally_periodic"]) == 0

    @pytest.mark.parametrize("n", [1, 5])
    def test_one_slice_pass_per_level_over_all_spans(self, n, monkeypatch):
        # n disjoint spans are one leaf under "dynamical": a pass evaluates v
        # once and makes one slice call for all of them, the first pass at
        # the first two levels (m and 2m slices per span), a later one at one
        p = s.LocallyPeriodic(PERIODIC_CELLS["grating"][0], n, 0.6)
        level0 = {1: 64, 5: 16 * 5}[n]   # 64 on one span, 16 on each of five
        evaluated, sliced = [], []
        evaluate = s.Potential.evaluate

        def recorded_evaluate(self, x):
            if self is p:
                evaluated.append(np.size(x))
            return evaluate(self, x)

        def recorded_slices(heights, *args):
            if args[3:]:
                sliced.append(np.size(heights))
            return barrier_slice_matrices(heights, *args)

        monkeypatch.setattr(s.Potential, "evaluate", recorded_evaluate)
        monkeypatch.setattr(engines, "barrier_slice_matrices", recorded_slices)
        for tol, passes in ((1e-6, 1), (1e-11, 2)):
            evaluated.clear()
            sliced.clear()
            s.matrix_at(p, K_TEST, "dynamical", tol)
            assert sliced == [3 * level0, 4 * level0][:passes], (tol, sliced)
            # one activity probe of all spans (n copies and n - 1 gaps), then
            # one evaluation per pass
            assert len(evaluated) == 1 + passes, (tol, evaluated)

    @pytest.mark.parametrize("tol", [1e-6, 1e-9])
    def test_one_table_per_leaf_keeps_tol(self, tol):
        p, ref = mixed_leaf()
        assert numeric_leaf_copies(p) == 1
        assert_within_tol(s.matrix_at(p, K_TEST, "dynamical", tol).m, ref, tol, "mixed leaf")
        repeat = s.LocallyPeriodic(PERIODIC_CELLS["smis"][0], 5, PERIODIC_CELLS["smis"][1])
        m = s.matrix_at(repeat, K_TEST, "dynamical", tol).m
        assert_within_tol(m, repeat_reference("smis", 5), tol, "smis repeat")

    def test_fifty_copy_grating_under_50_ms(self):
        p = s.LocallyPeriodic(PERIODIC_CELLS["grating"][0], 50, 0.6)
        best = min(timeit.repeat(lambda: s.matrix_at(p, K_TEST, "auto", TOL), number=1, repeat=3))
        assert best < 0.05, best


def solve_ivp_pieces(rhs, p, cuts, y0, tol):
    """The driver's reference: solve_ivp's DOP853 from each cut to the next."""
    y, xs, ys = np.asarray(y0, dtype=float), [], []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        sol = solve_ivp(lambda x, y: rhs(x, y, p.evaluate(x)), (lo, hi), y,
                        method="DOP853", rtol=tol, atol=tol * 1e-3)
        assert sol.success, sol.message
        xs.append(sol.t)
        ys.append(sol.y)
        y = sol.y[:, -1]
    return np.concatenate(xs), np.concatenate(ys, axis=1)


def numpy_schrodinger_rhs(k):
    """The wave equation's right-hand side on numpy scalars, as it was
    written before it moved to Python floats and complexes."""
    def rhs(x, y, v):
        psi = y[0] + 1j * y[1]
        dpsi = y[2] + 1j * y[3]
        dd = (v - k * k) * psi
        w = v * psi
        qm = np.exp(-1j * k * x) * w
        qp = np.exp(1j * k * x) * w
        return [dpsi.real, dpsi.imag, dd.real, dd.imag, qm.real, qm.imag, qp.real, qp.imag]

    return rhs


def numpy_s_curve_rhs(k):
    """The S-curve equation's right-hand side on numpy scalars (see above)."""
    def rhs(x, y, v):
        s_ = y[0] + 1j * y[1]
        sp = y[2] + 1j * y[3]
        spp = v * s_ - 2j * k * sp
        dr = 2j * k * np.exp(-2j * k * x) * v / (sp * sp)
        return [sp.real, sp.imag, spp.real, spp.imag, dr.real, dr.imag]

    return rhs


ALL_POTENTIALS = {**corpus(), **{f"smooth_{name}": p for name, p in smooth_corpus().items()}}


class TestOdeDriver:
    @pytest.mark.parametrize("name", sorted(ALL_POTENTIALS))
    def test_scalar_rhs_match_numpy_forms(self, name):
        # the Python-scalar right-hand sides give the numpy forms' steps bit for
        # bit; a sampled potential is cut at every node, and its first 256 cells
        # stand for the rest (sampled_bump has 512, sampled_w1 4096)
        p = ALL_POTENTIALS[name]
        cuts = _cuts(_edges(p), p.interpolation_nodes()).tolist()[:257]
        for k in (0.7, 1.15, 2.3):
            for ours, numpy_form, y0 in [
                (engines._schrodinger_rhs, numpy_schrodinger_rhs, [1.0, 0.0, 0.0, k, 0, 0, 0, 0]),
                (engines._s_curve_rhs, numpy_s_curve_rhs, [1.0, 0.0, 0.0, -2 * k, 0.0, 0.0]),
            ]:
                x, y = engines._integrate_pieces(ours(k), p, cuts, y0, 1e-9, lambda x, y: y)
                x_ref, y_ref = engines._integrate_pieces(
                    numpy_form(k), p, cuts, y0, 1e-9, lambda x, y: y)
                assert np.array_equal(x, x_ref), (k, ours.__name__)
                assert np.array_equal(y, y_ref), (k, ours.__name__)

    @pytest.mark.parametrize("name", ["grating", "smis", "sampled_bump"])
    @pytest.mark.parametrize("equation", ["schrodinger", "s_curve", "fundamental"])
    def test_steps_as_solve_ivp(self, name, equation):
        # "fundamental" is transfer_matrix_wave's batch of one k: both columns
        # of the wave equation, held to tol by the one part's own norm
        p, k, tol = corpus()[name], K_TEST, 1e-9
        a, b = p.support()
        inner = [x for x in p.internal_boundaries() if a < x < b]
        cuts = _cuts([a, *inner, b], p.interpolation_nodes()).tolist()
        if equation == "schrodinger":
            rhs, y0 = engines._schrodinger_rhs(k), [1.0, 0.0, 0.0, k, 0.0, 0.0, 0.0, 0.0]
        elif equation == "s_curve":
            rhs, y0 = engines._s_curve_rhs(k), [1.0, 0.0, 0.0, -2 * k, 0.0, 0.0]
        else:
            rhs, y0 = engines._fundamental_rhs_one(k), [1.0, 0.0, 0.0, k, 1.0, 0.0, 0.0, -k]
        x, y = engines._integrate_pieces(rhs, p, cuts, y0, tol, lambda x, y: y)
        x_ref, y_ref = solve_ivp_pieces(rhs, p, cuts, y0, tol)
        assert np.array_equal(x, x_ref)
        assert np.array_equal(y, y_ref)

    def test_blow_up_raises(self):
        # y' = y^2, y(0) = 1 is 1/(1 - x): the step size collapses at x = 1
        with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="integration failed: Required step size"):
            engines._integrate_pieces(
                lambda x, y, v: y * y, s.zero_potential(), [0.0, 2.0], [1.0], 1e-8,
                lambda x, y: y,
            )

    def test_part_gone_nan_fails_its_batch(self):
        # y' = sqrt(1 - x) is nan past x = 1, where its steps collapse; behind
        # a part that stays finite, the batch must fail as that part alone
        def nan_part(x, y, v):
            return np.sqrt(1.0 - x) + 0 * y

        def batch(x, y, v):
            return np.array([-y[0], nan_part(x, y[1], v)])

        for rhs, y0, groups in [(nan_part, [1.0], 1), (batch, [1.0, 1.0], 2)]:
            with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="Required step size"):
                engines._integrate_pieces(
                    rhs, s.zero_potential(), [0.0, 2.0], y0, 1e-8, lambda x, y: y, groups
                )


WAVE_CASES = {
    "barrier_real": corpus()["barrier_real"],
    "barrier_complex": corpus()["barrier_complex"],
    "gain_comb": s.DeltaComb([(1.5j, -0.3), (0.8j, 0.6)]),
    "lossy_comb": s.DeltaComb([(-1.2j, -0.2), (-0.5j, 0.7)]),
    "single_delta": corpus()["delta_single"],   # a support of zero length
    "smis": corpus()["smis"],
}


class TestWaveMatrix:
    """transfer_matrix_wave: all of M from one backward pass, k a batch axis."""

    @pytest.mark.parametrize("name", sorted(WAVE_CASES))
    def test_batch_keeps_tol(self, name):
        # the closed forms, or the dynamical engine at 1e-12 for SMIS, are
        # the references; k = 4 is where steps held to tol alone took SMIS
        # past it
        p, ks = WAVE_CASES[name], np.array([0.7, 1.15, 2.3, 4.0])
        m = s.transfer_matrix_wave(p, ks, TOL)
        assert m.shape == (4, 2, 2)
        for k, mk in zip(ks, m):
            assert_within_tol(mk, exact_or_dynamical(p, k, 1e-12).m, TOL, (name, k))

    @pytest.mark.parametrize("name", ["bilayer_w2", "sum_w3", "locally_periodic"])
    def test_pass_keeps_tol_over_pieces(self, name):
        # the steps' errors add up over the pieces of a layered potential:
        # with steps held to tol, these read 9.9, 5.4 and 4.6 tol at k = 0.7
        p, tol, ks = {**corpus(), **smooth_corpus()}[name], 1e-8, np.array([0.7, 1.15, 2.3, 4.0])
        batch = s.transfer_matrix_wave(p, ks, tol)
        for k, mk in zip(ks, batch):
            ref = s.exact_matrix(p, k).m
            assert_within_tol(s.transfer_matrix_wave(p, k, tol).m, ref, tol, (name, k))
            assert_within_tol(mk, ref, tol, (name, k, "batch"))

    def test_scalar_k_is_a_batch_of_one(self):
        p = WAVE_CASES["smis"]
        one = s.transfer_matrix_wave(p, K_TEST, TOL)
        assert isinstance(one, s.TransferMatrix) and one.k == K_TEST
        assert np.array_equal(one.m, s.transfer_matrix_wave(p, np.array([K_TEST]), TOL)[0])


UNUSABLE_TOLS = [math.nan, 0.0, -1e-8, math.inf]
SMIS = corpus()["smis"]
ENGINE_CALLS = {   # every engine entry, on a potential each of them takes
    "transfer_matrix_dynamical": lambda tol: s.transfer_matrix_dynamical(SMIS, 1.0, tol),
    "transfer_matrix_wave": lambda tol: s.transfer_matrix_wave(SMIS, np.array([1.0, 1.2]), tol),
    "scattering_solution": lambda tol: s.scattering_solution(SMIS, 1.0, "left", tol),
    "ls_amplitudes": lambda tol: s.ls_amplitudes(SMIS, 1.0, tol),
    "s_curve_solve": lambda tol: s.s_curve_solve(SMIS, 1.0, tol),
}


@pytest.mark.parametrize("bad", UNUSABLE_TOLS)
@pytest.mark.parametrize("engine", sorted(ENGINE_CALLS))
def test_unusable_tol_is_refused_before_any_solve(engine, bad, monkeypatch):
    # a nan tol kept the ODE driver's error norm at nan, and a zero one left
    # it scipy's rtol floor with no atol: each ran past a 10 s timeout
    for name in ("_integrate_pieces", "_dop853_steps", "_refine_leaf"):
        monkeypatch.setattr(engines, name, None)   # any solve would fail
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        ENGINE_CALLS[engine](bad)


class TestScatteringSolution:
    def test_zero_potential(self):
        sol = s.scattering_solution(s.zero_potential(), 1.0, "left")
        assert_close(sol.r, 0.0, 1e-12)
        assert_close(sol.t, 1.0, 1e-12)

    def test_delta_amplitudes(self):
        sol = s.scattering_solution(s.DeltaComb([(2.0, 0.0)]), 1.0, "left")
        assert_close(sol.r, -(1 + 1j) / 2, 1e-12)
        assert_close(sol.t, (1 - 1j) / 2, 1e-12)

    def test_transmission_reciprocity(self):
        # interpolated (sampled) potentials carry an accuracy floor from the
        # grid kinks; analytic ones must agree to 10x the solver tolerance
        for name, p in corpus().items():
            left = s.scattering_solution(p, K_TEST, "left", 1e-10)
            right = s.scattering_solution(p, K_TEST, "right", 1e-10)
            bound = 5e-7 if p.interpolation_nodes().size > 1 else 1e-9
            assert abs(left.t - right.t) < bound, name

    def test_wronskian_constant(self):
        # W[psi_l, psi_r] must be x-independent along the support; evaluate at
        # the breakpoints, where both solves stop exactly and store samples
        bp = (0.0, 0.3, 0.7, 1.1, 1.5)
        p = s.PiecewiseConstant(bp, (0.9 + 0.6j, -0.4j, 1.2, 0.5 - 0.5j))
        k = 1.3
        left = s.scattering_solution(p, k, "left", 1e-12)
        right = s.scattering_solution(p, k, "right", 1e-12)
        w = []
        for x in bp:
            li = int(np.argmin(np.abs(left.x - x)))
            ri = int(np.argmin(np.abs(right.x - x)))
            assert abs(left.x[li] - x) < 1e-12 and abs(right.x[ri] - x) < 1e-12
            w.append(
                left.psi[li] * right.dpsi[ri] - right.psi[ri] * left.dpsi[li]
            )
        w = np.array(w)
        assert np.abs(w - w[0]).max() < 1e-9 * abs(w[0])

    def test_asymptotic_coefficients_expose_entries(self):
        p = s.PiecewiseConstant((0.0, 1.0), (1.1 - 0.8j,))
        k = 0.9
        m = s.exact_matrix(p, k)
        left = s.scattering_solution(p, k, "left", 1e-12)
        assert_close(left.a_minus, m.m22, 1e-10, "A_- = M22")
        assert_close(left.b_minus, -m.m21, 1e-10, "B_- = -M21")
        right = s.scattering_solution(p, k, "right", 1e-12)
        assert_close(right.b_plus, m.m22, 1e-10, "B_+ = M22")
        assert_close(right.a_plus, m.m12, 1e-10, "A_+ = M12")


class TestLsAmplitudes:
    def test_zero(self):
        res = s.ls_amplitudes(s.zero_potential(), 1.0)
        assert (res.data.r_left, res.data.r_right, res.data.t) == (0, 0, 1)

    def test_barrier_against_closed_form(self):
        p = s.PiecewiseConstant((0.0, 1.4), (1.2 - 0.5j,))
        ref = s.exact_matrix(p, K_TEST).amplitudes()
        res = s.ls_amplitudes(p, K_TEST, 1e-11)
        assert abs(res.data.r_left - ref.r_left) < 1e-9
        assert abs(res.data.r_right - ref.r_right) < 1e-9
        assert abs(res.data.t - ref.t) < 1e-9

    def test_comb_against_closed_form(self):
        comb = s.DeltaComb([(0.5 + 0.8j, -0.6), (1.0, 0.0), (-0.7j, 0.9)])
        ref = s.exact_matrix(comb, K_TEST).amplitudes()
        res = s.ls_amplitudes(comb, K_TEST, 1e-11)
        assert abs(res.data.r_left - ref.r_left) < 1e-9
        assert abs(res.data.r_right - ref.r_right) < 1e-9

    def test_t_routes_agree(self):
        p = corpus()["bilayer"]
        res = s.ls_amplitudes(p, K_TEST, 1e-11)
        assert abs(res.t_from_left - res.t_from_right) < 1e-9


class TestSCurve:
    def test_zero_exact(self):
        data, trace = s.s_curve_solve(s.zero_potential(), 1.0)
        assert (data.r_left, data.r_right, data.t) == (0, 0, 1)

    def test_rejects_deltas(self):
        with pytest.raises(ValueError):
            s.s_curve_solve(s.DeltaComb([(1.0, 0.0)]), 1.0)

    def test_short_barrier(self):
        p = s.PiecewiseConstant((0.0, 1.2), (0.8 + 0.3j,))  # kL < pi
        k = 1.0
        ref = s.exact_matrix(p, k).amplitudes()
        data, trace = s.s_curve_solve(p, k, 1e-11)
        assert abs(data.r_left - ref.r_left) < 1e-8
        assert abs(data.r_right - ref.r_right) < 1e-8
        assert abs(data.t - ref.t) < 1e-8
        assert trace.winding < 1

    def test_smis_residue_formula(self):
        alpha, n, k0 = 0.02, 2, 1.0
        p = s.SmisProfile(k0, alpha, n, 0.3)
        data, trace = s.s_curve_solve(p, k0, 1e-12)
        assert abs(data.r_right) < 1e-9
        assert abs(data.t - 1.0) < 1e-9
        expect = s.residue_reflection(alpha, n) * np.exp(2j * k0 * 0.3)
        assert abs(data.r_left - expect) < 1e-6 * abs(expect)
        assert trace.winding == pytest.approx(n, abs=1e-12)

    def test_multi_winding_against_dynamical(self):
        for name, p in smooth_corpus().items():
            k = 1.0
            data, _ = s.s_curve_solve(p, k, 1e-11)
            ref = s.transfer_matrix_dynamical(p, k, 1e-10).amplitudes()
            assert abs(data.r_left - ref.r_left) < 1e-7, name
            assert abs(data.r_right - ref.r_right) < 1e-7, name
            assert abs(data.t - ref.t) < 1e-7, name


class TestEngineAgreement:
    def test_three_routes_pairwise(self):
        tol = 1e-9
        for name, p in corpus().items():
            floor = 5e-7 if p.interpolation_nodes().size > 1 else 0.0
            m_dyn = s.transfer_matrix_dynamical(p, K_TEST, tol)
            try:
                d_dyn = m_dyn.amplitudes()
            except s.SpectralSingularityError:
                continue
            res = s.ls_amplitudes(p, K_TEST, tol)
            bound = max(10 * tol, floor)
            assert abs(res.data.r_left - d_dyn.r_left) < bound * max(
                1, abs(d_dyn.r_left)
            ), name
            assert abs(res.data.t - d_dyn.t) < bound * max(1, abs(d_dyn.t)), name
            if not p.delta_terms():
                d_sc, _ = s.s_curve_solve(p, K_TEST, tol)
                bound_sc = max(100 * tol, floor)
                assert abs(d_sc.r_left - d_dyn.r_left) < bound_sc * max(
                    1, abs(d_dyn.r_left)
                ), name
                assert abs(d_sc.t - d_dyn.t) < bound_sc, name

    def test_real_potential_unitarity(self):
        p = s.PiecewiseConstant((0.0, 1.0), (1.5,))
        d = s.transfer_matrix_dynamical(p, 1.2, 1e-10).amplitudes()
        assert abs(abs(d.r_left) - abs(d.r_right)) < 1e-9
        assert abs(abs(d.r_left) ** 2 + abs(d.t) ** 2 - 1) < 1e-9

    REAL = {
        "barrier": s.PiecewiseConstant.barrier(1.5, 0.0, 1.0),
        "bilayer": s.PiecewiseConstant((-0.5, 0.0, 0.5), (2.0, -1.0)),
        "delta_comb": s.DeltaComb([(0.4, -1.0), (-0.6, 0.0), (0.3, 1.2)]),
        "cosine": s.FourierCell({1: 0.2, -1: 0.2}, 1.5),
    }
    ROUTES = [(name, route) for name in REAL for route in ("exact", "dynamical", "ls")
              if (name, route) != ("cosine", "exact")]   # a Fourier cell has no closed form

    @pytest.mark.parametrize("name, route", ROUTES)
    def test_real_potential_identities(self, name, route):
        # M11 = M22*, M12 = M21*, |R_l| = |R_r| and |R|^2 + |T|^2 = 1 for
        # real v, each within the route's tol
        p, tol = self.REAL[name], 1e-8
        for k in (0.7, 1.9):
            if route == "ls":
                d = s.ls_amplitudes(p, k, tol).data
            else:
                m = s.matrix_at(p, k, route, tol)
                scale = tol * max(1.0, m.norm())
                assert abs(m.m11 - np.conj(m.m22)) <= scale, (k, m.m11, m.m22)
                assert abs(m.m12 - np.conj(m.m21)) <= scale, (k, m.m12, m.m21)
                d = m.amplitudes()
            assert abs(abs(d.r_left) - abs(d.r_right)) <= tol, k
            for r in (d.r_left, d.r_right):
                assert abs(abs(r) ** 2 + abs(d.t) ** 2 - 1) <= tol, k
