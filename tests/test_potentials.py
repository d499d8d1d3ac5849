"""Potential variants: evaluation, supports, Fourier transforms, JSON schema."""

import json
import timeit

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scatter1d as s
from conftest import assert_close, corpus, smooth_corpus
from scatter1d.potentials import _edges, _per_cell, _spans, _start


class TestEvaluate:
    def test_barrier_midpoint(self):
        z = 0.7 - 0.3j
        p = s.PiecewiseConstant((0.0, 1.0), (z,))
        assert p.evaluate(0.5) == z

    def test_grating_half_period(self):
        z = 1.1 + 0.2j
        p = s.ExpGrating(z, 1, 2.0)
        assert_close(p.evaluate(1.0), -z, 1e-14, "exp(i*pi) flips sign")

    def test_time_reversed_barrier(self):
        p = s.TimeReversed(s.PiecewiseConstant((0.0, 1.0), (1 + 2j,)))
        assert p.evaluate(0.5) == 1 - 2j

    def test_time_reverse_involution(self):
        inner = s.ExpGrating(0.4 - 0.6j, 2, 1.3, 0.2)
        twice = s.TimeReversed(s.TimeReversed(inner))
        x = np.linspace(0.2, 1.5, 57)
        np.testing.assert_allclose(twice.evaluate(x), inner.evaluate(x), rtol=0, atol=0)

    def test_outside_support_is_zero(self):
        for name, p in corpus().items():
            a, b = p.support()
            width = max(b - a, 1.0)
            xs = np.array([a - 0.37 * width, b + 0.41 * width])
            np.testing.assert_array_equal(p.evaluate(xs), 0, err_msg=name)

    def test_delta_comb_smooth_part_zero(self):
        p = s.DeltaComb([(2j, 0.0), (1.0, 1.0)])
        assert p.evaluate(0.5) == 0
        assert p.delta_terms() == (s.DeltaTerm(2j, 0.0), s.DeltaTerm(1.0, 1.0))


class TestSupport:
    def test_translated_barrier(self):
        p = s.Translated(s.PiecewiseConstant((0.0, 2.0), (1.0,)), 0.7)
        assert p.support() == (0.7, 2.7)

    def test_sum_hull(self):
        p = s.Sum(
            [s.PiecewiseConstant((0.0, 1.0), (1.0,)), s.PiecewiseConstant((2.0, 3.0), (1.0,))]
        )
        assert p.support() == (0.0, 3.0)
        assert not p.overlapping

    def test_smis_support(self):
        p = s.SmisProfile(np.pi, 0.01, 2, 0.0)
        a, b = p.support()
        assert a == 0.0
        assert_close(b, 2.0, 1e-14)

    def test_translation_is_exact(self):
        p = s.ExpGrating(1.0, 1, 1.7, 0.3)
        a, b = p.support()
        q = s.Translated(p, 1.25)
        assert q.support() == (a + 1.25, b + 1.25)

    def test_overlap_flag(self):
        p = s.Sum(
            [s.PiecewiseConstant((0.0, 2.0), (1.0,)), s.PiecewiseConstant((1.0, 3.0), (1.0,))]
        )
        assert p.overlapping

    def test_locally_periodic_requires_room(self):
        cell = s.PiecewiseConstant((0.0, 1.0), (1.0,))
        with pytest.raises(ValueError):
            s.LocallyPeriodic(cell, 3, 0.8)
        s.LocallyPeriodic(cell, 3, 1.0)  # touching is allowed


class TestValidation:
    def test_delta_locations_increasing(self):
        with pytest.raises(ValueError):
            s.DeltaComb([(1.0, 1.0), (1.0, 0.0)])

    def test_delta_strengths_nonzero(self):
        with pytest.raises(ValueError):
            s.DeltaComb([(0.0, 0.0)])

    def test_smis_alpha_domain(self):
        with pytest.raises(ValueError):
            s.SmisProfile(1.0, -0.3, 1)

    def test_breakpoints(self):
        with pytest.raises(ValueError):
            s.PiecewiseConstant((0.0, 0.0), (1.0,))

    BARRIER = s.PiecewiseConstant.barrier(1.0, 0.0, 1.0)
    NON_FINITE = {
        "delta_comb": lambda: s.DeltaComb([(1.0, np.nan)]),
        "piecewise": lambda: s.PiecewiseConstant((0.0, np.nan, 1.0), (1.0, 1.0)),
        "exp_grating": lambda: s.ExpGrating(0.3, 1, np.inf),
        "exp_grating_harmonic": lambda: s.ExpGrating(0.3, np.inf, 1.0),
        "fourier_cell": lambda: s.FourierCell({1: complex(0.2, np.nan)}, 1.0),
        "smis": lambda: s.SmisProfile(1.0, np.nan, 2),
        "sampled": lambda: s.Sampled(0.0, np.nan, [1.0, 2.0]),
        "translated": lambda: s.Translated(TestValidation.BARRIER, np.nan),
        "locally_periodic": lambda: s.LocallyPeriodic(TestValidation.BARRIER, 3, np.nan),
        "permittivity_grid": lambda: s.from_permittivity([0.0, np.nan, 2.0], [1.0, 2.0, 1.0], 1.0),
        "permittivity_eps": lambda: s.from_permittivity([0.0, 1.0, 2.0], [1.0, np.nan, 1.0], 1.0),
    }

    @pytest.mark.parametrize("case", NON_FINITE)
    def test_non_finite_parameters(self, case):
        with pytest.raises(ValueError, match="must be finite"):
            self.NON_FINITE[case]()


class TestFourier:
    def test_single_delta_constant(self):
        z = 1.3 - 0.4j
        p = s.DeltaComb([(z, 0.0)])
        for kap in (0.0, 0.7, -3.0, 12.0):
            assert_close(p.fourier(kap), z, 1e-14)

    def test_grating_at_bragg(self):
        # at kappa = 2*pi*n/L the window integral is L exactly
        z, n, L = 0.9 + 0.1j, 2, 1.6
        p = s.ExpGrating(z, n, L)
        assert_close(p.fourier(2 * np.pi * n / L), z * L, 1e-12)

    def test_barrier_dc(self):
        z, L = 1.1 - 0.7j, 1.9
        p = s.PiecewiseConstant((0.0, L), (z,))
        assert_close(p.fourier(0.0), z * L, 1e-12)

    def test_conjugation_symmetry(self):
        # conj(v)~(kappa) = conj(v~(-kappa)) for real kappa
        for name, p in corpus().items():
            pbar = s.TimeReversed(p)
            for kap in (0.0, 1.1, -2.3):
                assert_close(
                    pbar.fourier(kap), np.conj(p.fourier(-kap)), 5e-9, f"{name} kap={kap}"
                )

    def test_sum_additivity(self):
        parts = [
            s.PiecewiseConstant((0.0, 1.0), (0.5 + 0.1j,)),
            s.ExpGrating(0.3, 1, 1.0, 2.0),
        ]
        total = s.Sum(parts)
        for kap in (0.4, -1.7):
            expect = sum(q.fourier(kap) for q in parts)
            assert_close(total.fourier(kap), expect, 1e-11)

    def test_analytic_matches_sampled_quadrature(self):
        # piecewise-constant: compare closed form against the Filon quadrature
        # of a finely sampled copy, 1e-6 relative (linear sampling smears each
        # jump over one cell, so the grid must be deep)
        p = s.PiecewiseConstant((-0.5, 0.2, 1.0), (1.2 - 0.3j, 0.4 + 0.8j))
        grid = np.linspace(-0.5, 1.0, 3_000_001)
        sampled = s.Sampled(-0.5, grid[1] - grid[0], p.evaluate(grid))
        for kap in (0.0, 2.6, 9.0):
            ana = p.fourier(kap)
            quad = sampled.fourier(kap)
            assert abs(ana - quad) <= 1e-6 * max(1.0, abs(ana))

    def test_delta_matches_mollified(self):
        # narrow gaussian of the same area approximates the comb transform
        z, a = 0.8 + 0.5j, 0.3
        comb = s.DeltaComb([(z, a)])
        sig = 1e-4
        grid = np.linspace(a - 8 * sig, a + 8 * sig, 4001)
        vals = z * np.exp(-((grid - a) ** 2) / (2 * sig**2)) / (sig * np.sqrt(2 * np.pi))
        moll = s.Sampled(grid[0], grid[1] - grid[0], vals)
        for kap in (0.0, 1.7):
            ana = comb.fourier(kap)
            assert abs(moll.fourier(kap) - ana) <= 1e-6 * abs(ana)

    def test_locally_periodic_equals_sum(self):
        lp = s.LocallyPeriodic(s.PiecewiseConstant((0.0, 0.4), (0.7j,)), 4, 0.6)
        expanded = lp.as_sum()
        for kap in (0.0, 1.3, 5.2):
            assert_close(lp.fourier(kap), expanded.fourier(kap), 1e-11)


class TestDoubleFourier:
    def test_two_deltas(self):
        z1, a1 = 0.4 + 0.2j, -0.3
        z2, a2 = -0.6j, 0.8
        p = s.DeltaComb([(z1, a1), (z2, a2)])
        k1, k2 = 1.2, -0.5
        expect = z1 * z2 * np.exp(-1j * (k1 * a1 + k2 * a2))
        assert_close(p.double_fourier(k1, k2), expect, 1e-14)

    def test_grating_degenerate_point(self):
        # both arguments at the grating harmonic: value is z^2 L^2 / 2
        z, n, L = 0.5 - 0.3j, 1, 1.3
        p = s.ExpGrating(z, n, L)
        q = 2 * np.pi * n / L
        assert_close(p.double_fourier(q, q), z * z * L * L / 2, 1e-12)

    def test_zero_potential(self):
        assert s.zero_potential().double_fourier(1.0, 2.0) == 0

    def test_against_nested_quadrature(self):
        p = s.ExpGrating(0.8 - 0.3j, 2, 1.7, 0.4)
        k1, k2 = 1.1, -0.7
        xs = np.linspace(0.4, 2.1, 20001)
        v = p.evaluate(xs)
        c = np.exp(-1j * k1 * xs) * v
        inner = np.concatenate([[0], np.cumsum(0.5 * (c[1:] + c[:-1]) * np.diff(xs))])
        brute = np.trapezoid(np.exp(-1j * k2 * xs) * v * inner, xs)
        assert_close(p.double_fourier(k1, k2), brute, 5e-7)

    def test_disjoint_sum_rule(self):
        left = s.PiecewiseConstant((0.0, 0.8), (0.5 + 0.2j,))
        right = s.ExpGrating(0.3, 1, 0.9, 1.5)
        total = s.Sum([left, right])
        k1, k2 = 0.9, 1.4
        expect = (
            left.double_fourier(k1, k2)
            + right.double_fourier(k1, k2)
            + left.fourier(k1) * right.fourier(k2)
        )
        assert_close(total.double_fourier(k1, k2), expect, 1e-10)

    def test_sampled_grid_route(self):
        p = s.Sampled.from_callable(lambda x: 0.4 * np.sin(np.pi * x) ** 2, 0.0, 1.0, 2048)
        xs = p.grid
        v = p.values
        k1, k2 = 2.0, -1.0
        c = np.exp(-1j * k1 * xs) * v
        inner = np.concatenate([[0], np.cumsum(0.5 * (c[1:] + c[:-1]) * np.diff(xs))])
        brute = np.trapezoid(np.exp(-1j * k2 * xs) * v * inner, xs)
        assert_close(p.double_fourier(k1, k2), brute, 1e-6)

    def test_overlapping_sum_with_delta_raises(self):
        p = s.Sum([s.PiecewiseConstant.barrier(0.5, 0.0, 1.0), s.DeltaComb([(0.7, 0.5)])])
        assert p.overlapping
        with pytest.raises(NotImplementedError):
            p.double_fourier(1.1, -0.7)


GL_X, GL_W = np.polynomial.legendre.leggauss(8)


def _gl_pieces(p, width=0.05):
    """Left ends and widths of pieces of at most `width` that tile the
    support, cut at its edges, internal boundaries and interpolation nodes."""
    a, b = p.support()
    inner = [x for x in (*p.internal_boundaries(), *p.interpolation_nodes()) if a < x < b]
    breaks = np.union1d([a, b], inner)
    counts = np.ceil(np.diff(breaks) / width).astype(int)
    piece = np.repeat(np.arange(counts.size), counts)
    j = np.arange(piece.size) - np.repeat(np.cumsum(counts) - counts, counts)
    h = np.diff(breaks)[piece] / counts[piece]
    return breaks[piece] + j * h, h


def _gl_nodes(lo, h):
    """Gauss-Legendre nodes and weights on [lo, lo + h], one row per piece."""
    return lo[..., None] + h[..., None] * (GL_X + 1) / 2, h[..., None] * GL_W / 2


def _weighted(p, x, w, kappa):
    return w * p.evaluate(x.ravel()).reshape(x.shape) * np.exp(-1j * kappa * x)


def reference_fourier(p, kappa):
    x, w = _gl_nodes(*_gl_pieces(p))
    return complex(_weighted(p, x, w, kappa).sum())


def reference_double_fourier(p, k1, k2):
    """Nested Gauss-Legendre: the pieces before x2 in full, and the piece of
    x2 from its left end up to x2."""
    lo, h = _gl_pieces(p)
    x2, w2 = _gl_nodes(lo, h)
    whole = _weighted(p, x2, w2, k1).sum(axis=1)
    x1, w1 = _gl_nodes(lo[:, None], x2 - lo[:, None])
    inner = (np.cumsum(whole) - whole)[:, None] + _weighted(p, x1, w1, k1).sum(axis=-1)
    return complex((_weighted(p, x2, w2, k2) * inner).sum())


def numeric_transform_cases():
    """Potentials with no closed-form transform, and whether their single
    transform is numeric too (a sampled one is exact for its interpolant)."""
    smooth = {**corpus(), **smooth_corpus()}
    cases = {name: (p, True) for name, p in smooth.items() if isinstance(p, s.SmisProfile)}
    cases.update({name: (smooth[name], False) for name in ("sampled_bump", "sampled_w1")})
    overlap = s.Sum([smooth["sampled_bump"], s.ExpGrating(0.2, 1, 1.0, 0.9)])
    cases["overlapping_sum"] = (overlap, True)
    # the README design output (scatter1d design --k0 1.0 --r-left 1.7320508@-45
    # --r-right 0,0 --t 0,1.4142136)
    readme_design = s.Sum([
        s.SmisProfile(1.0, 0.008154001370526576, 5, 0.8703573970321296, True),
        s.SmisProfile(1.0, 0.00832641276999646, 6, 18.456856839840036, False),
        s.SmisProfile(1.0, 0.009652497106174662, 6, 39.35486740350709, True),
    ])
    cases["readme_design"] = (readme_design, True)
    return cases


def dyson_pairs(kappa):
    """The (k1, k2) of dyson_order2's ordered transforms for k = kappa / 2."""
    return ((0.0, 0.0), (-kappa, kappa), (kappa, -kappa), (kappa, 0.0), (0.0, kappa),
            (-kappa, 0.0), (0.0, -kappa))


class TestNumericTransforms:
    """Numeric transforms keep tol against nested Gauss-Legendre, relative to
    max(1, |reference|), at the arguments of dyson_order2 for k = 1.15, and
    for k = 4.5 and 12.5, where the start count must grow with kappa."""

    K2 = 2.3
    PAIRS = dyson_pairs(K2)

    @pytest.mark.parametrize("name", sorted(numeric_transform_cases()))
    def test_within_tol_of_gauss_legendre(self, name):
        self.check(name, self.K2)

    @pytest.mark.parametrize("name", sorted(numeric_transform_cases()))
    @pytest.mark.parametrize("kappa", [9.0, 25.0])
    def test_within_tol_at_large_kappa(self, name, kappa):
        self.check(name, kappa)

    def test_slices_as_the_engine_never_at_an_edge(self, monkeypatch):
        # an overlapping sum whose parts jump at their ends: the transforms
        # take v at Gauss points only, one evaluation per Romberg level, and
        # level 0 has the engine's start count at k = |kappa| / 2
        smis = s.SmisProfile(1.0, 0.02, 1, 0.4)
        p = s.Sum([s.PiecewiseConstant.barrier(0.5 + 0.2j, 0.0, 1.0), smis])
        assert p.overlapping
        edges = _edges(p)
        calls = []
        evaluate = s.Potential.evaluate

        def recorded_evaluate(self, x):
            calls.append((self, np.array(x)))
            return evaluate(self, x)

        monkeypatch.setattr(s.Potential, "evaluate", recorded_evaluate)
        for leaf, transform, args in ((smis, p.fourier, (-self.K2,)),
                                      (p, p.double_fourier, (25.0, -self.K2))):
            calls.clear()
            transform(*args)
            assert not np.isin(np.concatenate([x for _, x in calls]), edges).any()
            spans = _spans(leaf)
            ms = _per_cell(spans, _start(spans, 0.5 * max(map(abs, args))))
            level0 = sum(m * (cells.size - 1) for cells, m in zip(spans, ms))
            sizes = [x.size for q, x in calls if q is leaf]
            assert len(sizes) >= 2 and sizes == [2 * level0 << j for j in range(len(sizes))]

    @staticmethod
    def check(name, kappa):
        p, single = numeric_transform_cases()[name]
        checks = [(p.double_fourier, args, reference_double_fourier(p, *args))
                  for args in dyson_pairs(kappa)]
        if single:
            checks += [(p.fourier, (kap,), reference_fourier(p, kap))
                       for kap in (0.0, kappa, -kappa)]
        for tol in (1e-8, 1e-10):
            for transform, args, ref in checks:
                err = abs(transform(*args, tol=tol) - ref) / max(1.0, abs(ref))
                assert err <= tol, f"{name} {transform.__name__}{args} tol={tol:g}: {err:.3e}"


def random_stack(cells, seed):
    rng = np.random.default_rng(seed)
    breakpoints = np.cumsum(rng.uniform(0.05, 0.6, cells + 1)) - 1.0
    return s.PiecewiseConstant(breakpoints, rng.normal(size=cells) + 1j * rng.normal(size=cells))


def pair_sum(own, first, second):
    """own + first[i] * second[j] over every i < j, pair by pair."""
    return own + sum(first[i] * second[j]
                     for i in range(len(first)) for j in range(i + 1, len(second)))


class TestOrderedSums:
    """Ordered double transforms of more than two pieces or terms, at the
    arguments of dyson_order2 for k = 1.15 and one generic pair, and of one
    window near the small-q1 branch, against references that share no code
    with the closed forms."""

    PAIRS = (*TestNumericTransforms.PAIRS, (1.1, -0.7))

    def test_stack_against_gauss_legendre(self):
        p = random_stack(7, 3)
        for args in self.PAIRS:
            ref = reference_double_fourier(p, *args)
            assert_close(p.double_fourier(*args), ref, 1e-12 * max(1.0, abs(ref)), str(args))

    def test_delta_comb_against_pair_sum(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=5) + 1j * rng.normal(size=5)
        a = np.cumsum(rng.uniform(0.2, 0.9, 5)) - 1.5
        comb = s.DeltaComb(list(zip(z, a)))
        for k1, k2 in self.PAIRS:
            ref = pair_sum(0.0, z * np.exp(-1j * k1 * a), z * np.exp(-1j * k2 * a))
            assert_close(comb.double_fourier(k1, k2), ref, 1e-13, str((k1, k2)))

    def test_disjoint_sum_of_three(self):
        parts = [
            s.ExpGrating(0.2 - 0.1j, 1, 1.0, 0.5),
            s.PiecewiseConstant.barrier(0.8j, -1.5, -0.7),
            s.Translated(s.FourierCell({1: 0.2 + 0.1j, -2: 0.1j}, 1.2), 1.8),
        ]
        total = s.Sum(parts)
        ordered = total.spatially_sorted()
        for k1, k2 in self.PAIRS:
            rule = pair_sum(sum(q.double_fourier(k1, k2) for q in ordered),
                            [q.fourier(k1) for q in ordered], [q.fourier(k2) for q in ordered])
            ref = reference_double_fourier(total, k1, k2)
            got = total.double_fourier(k1, k2)
            assert_close(got, rule, 1e-13 * max(1.0, abs(rule)), f"rule {k1, k2}")
            assert_close(got, ref, 1e-12 * max(1.0, abs(ref)), f"quadrature {k1, k2}")

    def test_fourier_cell_cross_harmonics(self):
        # against a nested trapezoid, as in test_against_nested_quadrature
        p = s.FourierCell({1: 0.2 + 0.1j, -2: 0.1j, 0: 0.05}, 1.5)
        xs = np.linspace(0.0, 1.5, 20001)
        v = p.evaluate(xs)
        for k1, k2 in self.PAIRS:
            c = np.exp(-1j * k1 * xs) * v
            inner = np.concatenate([[0], np.cumsum(0.5 * (c[1:] + c[:-1]) * np.diff(xs))])
            brute = np.trapezoid(np.exp(-1j * k2 * xs) * v * inner, xs)
            assert_close(p.double_fourier(k1, k2), brute, 5e-7, str((k1, k2)))

    def test_taylor_branch_off_its_centre(self):
        # 0 < |k1 - q| L < 1e-4 for the grating's q = 2 pi / L, where the
        # w1 terms of the Taylor expansion count
        p = s.ExpGrating(0.8 - 0.3j, 1, 1.7, 0.4)
        for shift in (-3e-5, 5e-5):
            k1 = 2 * np.pi / 1.7 + shift
            for k2 in (0.0, -2.3, k1):
                ref = reference_double_fourier(p, k1, k2)
                assert_close(p.double_fourier(k1, k2), ref, 1e-13 * max(1.0, abs(ref)))

    def test_stack_cost_is_not_quadratic(self):
        # one pass over the cells; the O(n^2) pair loop it replaced took over
        # a second at 200 cells
        p = random_stack(200, 5)
        best = min(timeit.repeat(lambda: p.double_fourier(1.1, -0.7), number=1, repeat=3))
        assert best < 0.5


class TestPermittivity:
    def test_uniform_is_zero(self):
        grid = np.linspace(-1, 1, 101)
        p = s.from_permittivity(grid, np.ones(101), 2.0)
        assert np.all(p.values == 0)

    def test_slab_maps_to_barrier(self):
        k, z, L = 2.0, 0.7 - 0.2j, 1.0
        grid = np.linspace(-0.5, L + 0.5, 2001)
        eps = np.ones_like(grid, dtype=complex)
        inside = (grid >= 0) & (grid <= L)
        eps[inside] = 1 - z / k**2
        p = s.from_permittivity(grid, eps, k)
        assert_close(p.evaluate(L / 2), z, 1e-12)

    def test_gain_slab(self):
        k = 2 * np.pi
        grid = np.linspace(-0.2, 1.2, 1401)
        eps = np.ones_like(grid, dtype=complex)
        inside = (grid >= 0) & (grid <= 1)
        eps[inside] = 1 + 1e-3j
        p = s.from_permittivity(grid, eps, k)
        assert_close(p.evaluate(0.5), -(2 * np.pi) ** 2 * 1e-3j, 1e-12)

    def test_rejects_nonunit_ends(self):
        grid = np.linspace(0, 1, 11)
        with pytest.raises(ValueError):
            s.from_permittivity(grid, np.full(11, 1.5), 1.0)


class TestJsonSchema:
    def test_roundtrip_all_variants(self):
        for name, p in corpus().items():
            d = s.potential_to_dict(p)
            assert d["schema"] == "v1"
            q = s.potential_from_dict(d)
            a, b = p.support()
            xs = np.linspace(a - 0.1, b + 0.1, 301)
            np.testing.assert_allclose(
                q.evaluate(xs), p.evaluate(xs), rtol=0, atol=1e-15, err_msg=name
            )
            assert q.delta_terms() == p.delta_terms(), name

    def test_json_serializable(self, tmp_path):
        p = corpus()["sum_disjoint"]
        path = tmp_path / "p.json"
        s.save_potential(p, path)
        loaded = s.load_potential(path)
        assert json.loads(path.read_text())["type"] == "sum"
        assert loaded.support() == p.support()

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            s.potential_from_dict({"type": "wormhole"})


@settings(max_examples=40, deadline=None)
@given(
    z=st.tuples(
        st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False)
    ).map(lambda t: complex(*t)),
    a=st.floats(-2, 2, allow_nan=False),
    kap=st.floats(-6, 6, allow_nan=False),
)
def test_translated_phase_property(z, a, kap):
    """Fourier transform of a translated potential picks up e^{-i kappa a}."""
    if z == 0:
        z = 1.0
    base = s.DeltaComb([(z, 0.0)])
    shifted = s.Translated(base, a)
    lhs = shifted.fourier(kap)
    rhs = np.exp(-1j * kap * a) * base.fourier(kap)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
