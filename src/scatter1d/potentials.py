"""Finite-range complex potentials for 1D scalar-wave scattering.

All potentials here have compact support [a_minus, a_plus].  A potential is
split into a smooth (function) part, returned by ``evaluate``, and a list of
symbolic delta terms z*delta(x - a), returned by ``delta_terms``.  Delta
terms are never sampled numerically; downstream solvers splice their exact
transfer matrices instead.

Fourier and ordered double transforms with no closed form take one route,
``_romberg_filon``: a Filon rule on the dynamical engine's slicing and
Romberg table, which live here, cut at the ``_edges`` (support ends,
internal boundaries, delta locations) and, through ``_cuts``, at every
interpolation node.  The closed forms take one route too: piecewise-constant
stacks, gratings and Fourier cells are windows of exponentials
(``_Windowed``) whose integrals come from one kernel, ``_g``, and the
ordered transform of disjoint pieces in spatial order, whether a stack's
cells, a comb's deltas or a sum's parts, is one rule, ``_ordered_sum``.

Units: hbar = 1, lengths dimensionless, wavenumbers in inverse length.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .transfer import _check_positive_finite

SCHEMA_VERSION = "v1"

__all__ = [
    "DeltaTerm",
    "Potential",
    "DeltaComb",
    "PiecewiseConstant",
    "ExpGrating",
    "FourierCell",
    "SmisProfile",
    "Sampled",
    "Sum",
    "Translated",
    "TimeReversed",
    "LocallyPeriodic",
    "zero_potential",
    "from_permittivity",
    "QuadratureError",
    "potential_to_dict",
    "potential_from_dict",
    "load_potential",
    "save_potential",
]


class QuadratureError(RuntimeError):
    """Oscillatory quadrature failed to reach the requested tolerance."""


class DeltaTerm(NamedTuple):
    strength: complex
    location: float


def _require_finite(name: str, *values) -> None:
    """Refuse NaN and infinite parameters: no solver can use them, and some
    would return a wrong answer instead of failing."""
    if not all(map(cmath.isfinite, values)):
        raise ValueError(f"{name} must be finite")


# ---------------------------------------------------------------------------
# Closed forms on windows.
#
# g_p(w) := integral_0^1 t^p e^{w t} dt.  The recurrence g_p = (e^w - p
# g_{p-1})/w from g_0 = (e^w - 1)/w cancels catastrophically as w -> 0, so
# below |w| = 1/4 the series sum_n w^n / (n! (n+p+1)) is used instead.
# ---------------------------------------------------------------------------

_SERIES_CUTOFF = 0.25
_SERIES_TERMS = 18
# n + p + 1 for term n of the series of g_p, p <= 3; complex, like the terms
_SERIES_DENOMINATORS = np.add.outer(np.arange(_SERIES_TERMS), np.arange(1, 5))[..., None] + 0j


def _g(w, top: int) -> np.ndarray:
    """g_0(w), ..., g_top(w), stacked on a new first axis; vectorized."""
    w = np.asarray(w, dtype=complex)
    out = np.empty((top + 1, *w.shape), dtype=complex)
    small = np.abs(w) < _SERIES_CUTOFF
    big = ~small
    ws = w[small]
    if ws.size:
        total = np.zeros((top + 1, ws.size), dtype=complex)
        term = np.ones_like(ws)  # w^n / n!
        for n, d in enumerate(_SERIES_DENOMINATORS[:, :top + 1]):
            total += term / d
            term = term * ws / (n + 1)
        out[:, small] = total
    wb = w[big]
    if wb.size:
        e = np.exp(wb)
        g = (e - 1.0) / wb
        out[0, big] = g
        for p in range(1, top + 1):
            g = (e - p * g) / wb
            out[p, big] = g
    return out


def _window_ft(q: float, L: float) -> complex:
    """integral_0^L e^{-i q u} du = L g_0(-iqL)."""
    return L * complex(_g(-1j * q * L, 0)[0])


def _ordered_window_ft(q1: float, q2: float, L: float) -> complex:
    """integral_0^L du2 e^{-i q2 u2} integral_0^{u2} du1 e^{-i q1 u1}.

    Equals [E(q2) - E(q1+q2)]/q1 with E(q) = (e^{-iqL}-1)/q = -iL g_0(-iqL);
    where |q1| L <= 1e-4 the Taylor expansion in q1 avoids the cancellation,
    with E'(q2) = -L^2 g_1, E'' = i L^3 g_2 and E''' = L^4 g_3 at -i q2 L.
    """
    far = abs(q1) * L > 1e-4
    g = _g([-1j * q2 * L, -1j * (q1 + q2) * L], 0 if far else 3).tolist()
    if far:
        return -1j * L * (g[0][0] - g[0][1]) / q1
    dE, d2E, d3E = -(L**2) * g[1][0], 1j * L**3 * g[2][0], L**4 * g[3][0]
    return -dE - q1 * d2E / 2.0 - q1 * q1 * d3E / 6.0


def _window_fts(windows, kappa: float) -> list[complex]:
    """Transform at kappa of each window (lo, L, ((c_j, q_j), ...))."""
    return [cmath.exp(-1j * kappa * lo) * sum(c * _window_ft(kappa - q, L) for c, q in terms)
            for lo, L, terms in windows]


def _ordered_sum(own, first, second) -> complex:
    """Ordered double transform of disjoint pieces in spatial order: ``own``,
    the sum of the pieces' own ordered transforms, plus first_i * second_j
    over i < j, by a running prefix.  ``first`` holds the pieces' transforms
    at k1 but the last's, ``second`` those at k2 but the first's."""
    total, prefix = complex(own), 0.0
    for f, s in zip(first, second):
        prefix += f
        total += prefix * s
    return total


def _filon_cells(lo, h, y0, dy, kappa: float) -> np.ndarray:
    """Integral over each cell [lo, lo + h] of e^{-i kappa x} times the line
    from y0 at lo to y0 + dy at lo + h.

    The oscillatory factor is integrated exactly, so accuracy is limited only
    by how well the lines follow the integrand, not by kappa.
    """
    g0, g1 = _g(-1j * kappa * h, 1)
    return np.exp(-1j * kappa * lo) * h * (y0 * g0 + dy * g1)


def _filon_linear(x: np.ndarray, y: np.ndarray, kappa: float) -> complex:
    """integral of the linear interpolant of (x, y) times e^{-i kappa x}."""
    return complex(_filon_cells(x[:-1], np.diff(x), y[:-1], np.diff(y), kappa).sum())


def _filon_prefix(x: np.ndarray, y: np.ndarray, kappa: float) -> np.ndarray:
    """Cumulative Filon integral: G[j] = integral_{x0}^{xj} e^{-i kappa t} y(t) dt.
    No transform calls it; bench/tracing.py counts its points by name."""
    out = np.zeros(np.size(x), dtype=complex)
    np.cumsum(_filon_cells(x[:-1], np.diff(x), y[:-1], np.diff(y), kappa), out=out[1:])
    return out


def _edges(p: Potential) -> np.ndarray:
    """Sorted unique support ends, internal boundaries inside the support,
    and delta locations: the points where every solver cuts p."""
    a, b = p.support()
    inside = [x for x in p.internal_boundaries() if a <= x <= b]
    return np.unique([a, b, *inside, *(t.location for t in p.delta_terms())])


def _cuts(edges, nodes: np.ndarray) -> np.ndarray:
    """The edges, sorted and unique, plus the interpolation nodes strictly
    between edges[0] and edges[-1], which must be the outermost two.

    Every slice, ODE step and quadrature cell is cut here, so none straddles
    a kink.
    """
    lo, hi = edges[0], edges[-1]
    gap = 1e-14 * max(abs(lo), abs(hi), 1.0)
    return np.union1d(edges, nodes[(nodes > lo + gap) & (nodes < hi - gap)])


# ---------------------------------------------------------------------------
# One slicing and Romberg rule for the numeric transforms and the engine
# ---------------------------------------------------------------------------

SLICE_CAP = 2**20   # slices of one leaf at one level
GAUSS = 0.5 / math.sqrt(3.0)   # a slice's Gauss points sit at its midpoint -+ GAUSS * width


def _spans(p: Potential) -> list[np.ndarray]:
    """The cells of each span of p that is longer than roundoff."""
    edges = _edges(p).tolist()
    scale = max(abs(edges[0]), abs(edges[-1]), 1.0)
    nodes = p.interpolation_nodes()
    return [_cuts([lo, hi], nodes)
            for lo, hi in zip(edges[:-1], edges[1:]) if hi - lo > 1e-14 * scale]


def _start(spans: list, k):
    """Level-0 slices of the spans at wavenumber k (scalar or array):
    max(64, ceil(8 k L / pi)), L their total length."""
    return np.maximum(64, np.ceil(8 * k * sum(c[-1] - c[0] for c in spans) / math.pi))


def _per_cell(spans: list, start) -> list[int]:
    """Level-0 slices per cell of each span: its share of ``start`` by
    length, at least 16, spread over its cells and rounded up."""
    total = sum(c[-1] - c[0] for c in spans)
    return [-(-max(16, math.ceil(start * (c[-1] - c[0]) / total)) // (c.size - 1)) for c in spans]


def _slices(cells: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Left and right edges of m equal slices in every cell."""
    left = (cells[:-1, None] + np.diff(cells)[:, None] * (np.arange(m) / m)).ravel()
    return left, np.append(left[1:], cells[-1])


def _level(spans: list, ms: list, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Left and right slice edges of every span at level j, m * 2**j slices
    per cell, span after span."""
    cut = [_slices(cells, m << j) for cells, m in zip(spans, ms)]
    return np.concatenate([left for left, _ in cut]), np.concatenate([right for _, right in cut])


def _gauss_points(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The two Gauss points of every slice, in order, never a cut: shape (2 * slices,)."""
    mid, half = 0.5 * (left + right), GAUSS * (right - left)
    return np.stack([mid - half, mid + half], axis=-1).ravel()


def _romberg_row(row: list, entry) -> list:
    """The next row of a Romberg table: ``entry``, the newest level's value,
    then each column's h^4, h^6, ... term removed (weights 1/15, 1/63, ...)."""
    new_row = [entry]
    for i, prev in enumerate(row):
        new_row.append(new_row[i] + (new_row[i] - prev) / (4 ** (i + 2) - 1))
    return new_row


def _gauss_filon(left, right, v: np.ndarray, kappa: float, tau) -> np.ndarray:
    """Integral of e^{-i kappa x} times the line through each slice's two
    Gauss values v (shape (slices, 2)), from the slice's left edge over each
    fraction tau of its width: shape (slices, len(tau))."""
    slope = (v[:, 1] - v[:, 0]) / (2 * GAUSS)   # per unit fraction of the width
    at_left = v[:, 0] - (0.5 - GAUSS) * slope
    return _filon_cells(left[:, None], (right - left)[:, None] * tau, at_left[:, None],
                        slope[:, None] * tau, kappa)


def _romberg_filon(p: Potential, k: float, rule, tol: float, name: str) -> complex:
    """A transform of p's smooth part by ``rule(left, right, v)`` on the
    slices of every level, v at their Gauss points and evaluated once a
    level, Romberg-refined and accepted as in the dynamical engine at k."""
    spans = _spans(p)
    ms = _per_cell(spans, _start(spans, k))
    row = []
    for j in itertools.count():
        left, right = _level(spans, ms, j)
        if left.size > SLICE_CAP:
            raise QuadratureError(f"{name} quadrature did not reach {tol:g} in {SLICE_CAP} slices")
        v = p.evaluate(_gauss_points(left, right)).reshape(-1, 2)
        new_row = _romberg_row(row, rule(left, right, v))
        if row and abs(new_row[-1] - new_row[-2]) <= tol * max(1.0, abs(new_row[-1])):
            return complex(new_row[-1])
        row = new_row


# ---------------------------------------------------------------------------
# Potential variants
# ---------------------------------------------------------------------------


class Potential:
    """Base class: a finite-range complex potential v(x)."""

    def support(self) -> tuple[float, float]:
        raise NotImplementedError

    def _smooth(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def delta_terms(self) -> tuple[DeltaTerm, ...]:
        return ()

    def internal_boundaries(self) -> tuple[float, ...]:
        """Points where the smooth part may jump (support-piece edges)."""
        return self.support()

    def evaluate(self, x):
        """Smooth part of v(x); delta terms are reported via delta_terms()."""
        arr = np.asarray(x, dtype=float)
        out = self._smooth(np.atleast_1d(arr))
        if arr.ndim == 0:
            return complex(out[0])
        return out

    # -- Fourier transforms -------------------------------------------------

    def fourier(self, kappa: float, tol: float = 1e-10) -> complex:
        """ṽ(kappa) = integral e^{-i kappa x} v(x) dx (delta terms included)."""
        _check_positive_finite(tol, "tol")
        smooth = self._fourier_smooth(kappa, tol)
        for z, a in self.delta_terms():
            smooth += z * np.exp(-1j * kappa * a)
        return smooth

    def double_fourier(self, k1: float, k2: float, tol: float = 1e-9) -> complex:
        """Ordered transform: integral over x1 < x2 of e^{-i(k1 x1 + k2 x2)} v(x1) v(x2)."""
        _check_positive_finite(tol, "tol")
        return self._double_fourier(k1, k2, tol)

    def _fourier_smooth(self, kappa: float, tol: float) -> complex:
        def rule(left, right, v):
            return _gauss_filon(left, right, v, kappa, (1.0,)).sum()

        return _romberg_filon(self, 0.5 * abs(kappa), rule, tol, "fourier")

    def _double_fourier(self, k1: float, k2: float, tol: float) -> complex:
        if self.delta_terms():
            raise NotImplementedError(
                "ordered double transform with delta terms has no generic quadrature"
            )
        def rule(left, right, v):
            # the k1 prefix at each Gauss point: at the slice's left edge, plus
            # the slice's line up to the point
            inner = _gauss_filon(left, right, v, k1, (0.5 - GAUSS, 0.5 + GAUSS, 1.0))
            prefix = np.concatenate([[0.0], np.cumsum(inner[:-1, 2])])
            return _gauss_filon(left, right, v * (prefix[:, None] + inner[:, :2]), k2, (1.0,)).sum()

        return _romberg_filon(self, 0.5 * max(abs(k1), abs(k2)), rule, tol, "double-fourier")

    # -- misc ---------------------------------------------------------------

    def interpolation_nodes(self) -> np.ndarray:
        """Sorted grid nodes where the interpolated smooth part has kinks.

        Empty for analytic potentials; between consecutive nodes the smooth
        part is as smooth as its analytic pieces.  Every engine cuts its
        slices and ODE steps at these nodes, so none straddles a kink.
        """
        return np.empty(0)

    def is_trivial(self) -> bool:
        """True when v is identically zero (no deltas, no smooth part)."""
        a, b = self.support()
        return not self.delta_terms() and (
            b <= a or not np.any(self.evaluate(np.linspace(a, b, 257)))
        )

    def to_dict(self) -> dict:
        raise NotImplementedError


class _Windowed(Potential):
    """A potential given by its windows (lo, L, ((c_j, q_j), ...)), disjoint
    and in spatial order, with v = sum_j c_j e^{i q_j (x - lo)} on [lo, lo + L]
    and zero elsewhere: both transforms are closed forms."""

    def _windows(self) -> tuple:
        raise NotImplementedError

    def _fourier_smooth(self, kappa, tol):
        return sum(_window_fts(self._windows(), kappa))

    def _double_fourier(self, k1, k2, tol):
        w = self._windows()
        own = sum(ca * cb * cmath.exp(-1j * (k1 + k2) * lo)
                  * _ordered_window_ft(k1 - qa, k2 - qb, L)
                  for lo, L, terms in w for ca, qa in terms for cb, qb in terms)
        return _ordered_sum(own, _window_fts(w[:-1], k1), _window_fts(w[1:], k2))


@dataclass(frozen=True)
class DeltaComb(Potential):
    """Sum of point scatterers: v(x) = sum_j z_j delta(x - a_j)."""

    terms: tuple[DeltaTerm, ...]

    def __init__(self, terms: Sequence[tuple[complex, float]]):
        parsed = tuple(DeltaTerm(complex(z), float(a)) for z, a in terms)
        _require_finite("delta strengths and locations", *(x for t in parsed for x in t))
        if not parsed:
            raise ValueError("DeltaComb needs at least one term")
        locs = [t.location for t in parsed]
        if any(b <= a for a, b in zip(locs, locs[1:])):
            raise ValueError("delta locations must be strictly increasing")
        if any(t.strength == 0 for t in parsed):
            raise ValueError("delta strengths must be nonzero")
        object.__setattr__(self, "terms", parsed)

    def support(self):
        return (self.terms[0].location, self.terms[-1].location)

    def _smooth(self, x):
        return np.zeros(x.shape, dtype=complex)

    def delta_terms(self):
        return self.terms

    def internal_boundaries(self):
        return ()

    def _fourier_smooth(self, kappa, tol):
        return 0.0 + 0.0j

    def _double_fourier(self, k1, k2, tol):
        # strictly ordered pairs only; equal-point products carry no weight
        return _ordered_sum(0.0, [z * cmath.exp(-1j * k1 * a) for z, a in self.terms[:-1]],
                            [z * cmath.exp(-1j * k2 * a) for z, a in self.terms[1:]])

    def to_dict(self):
        return {
            "type": "delta_comb",
            "terms": [
                {"strength": _cplx(t.strength), "location": t.location}
                for t in self.terms
            ],
        }


@dataclass(frozen=True)
class PiecewiseConstant(_Windowed):
    """Piecewise-constant potential: values[j] on [breakpoints[j], breakpoints[j+1])."""

    breakpoints: tuple[float, ...]
    values: tuple[complex, ...]

    def __init__(self, breakpoints: Sequence[float], values: Sequence[complex]):
        bp = tuple(float(b) for b in breakpoints)
        vals = tuple(complex(v) for v in values)
        _require_finite("breakpoints and values", *bp, *vals)
        if len(bp) < 2 or len(vals) != len(bp) - 1:
            raise ValueError("need m+1 breakpoints for m cell values, m >= 1")
        if any(b <= a for a, b in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @classmethod
    def barrier(cls, height: complex, a_minus: float, a_plus: float) -> "PiecewiseConstant":
        return cls((a_minus, a_plus), (height,))

    def support(self):
        return (self.breakpoints[0], self.breakpoints[-1])

    def internal_boundaries(self):
        return self.breakpoints

    def _smooth(self, x):
        out = np.zeros(x.shape, dtype=complex)
        bp = self.breakpoints
        for lo, hi, v in zip(bp[:-1], bp[1:], self.values):
            out[(x >= lo) & (x <= hi)] = v
        return out

    def _windows(self):
        bp = self.breakpoints
        return tuple((lo, hi - lo, ((v, 0.0),)) for lo, hi, v in zip(bp[:-1], bp[1:], self.values))

    def to_dict(self):
        return {
            "type": "piecewise",
            "breakpoints": list(self.breakpoints),
            "values": [_cplx(v) for v in self.values],
        }


@dataclass(frozen=True)
class ExpGrating(_Windowed):
    """Single-harmonic complex grating: v = z e^{2 pi i n (x-offset)/length} on its window."""

    strength: complex
    harmonic: int
    length: float
    offset: float = 0.0

    def __init__(self, strength: complex, harmonic: int, length: float, offset: float = 0.0):
        _require_finite("strength, harmonic, length and offset", strength, harmonic, length, offset)
        if length <= 0:
            raise ValueError("length must be positive")
        if int(harmonic) < 1:
            raise ValueError("harmonic must be a positive integer")
        object.__setattr__(self, "strength", complex(strength))
        object.__setattr__(self, "harmonic", int(harmonic))
        object.__setattr__(self, "length", float(length))
        object.__setattr__(self, "offset", float(offset))

    @property
    def wavevector(self) -> float:
        """Reciprocal-cell wavevector 2 pi / length."""
        return 2.0 * np.pi / self.length

    def support(self):
        return (self.offset, self.offset + self.length)

    def _smooth(self, x):
        u = x - self.offset
        out = self.strength * np.exp(2j * np.pi * self.harmonic * u / self.length)
        edge = 1e-12 * self.length  # tolerate 1-ulp support-endpoint roundoff
        out[(u < -edge) | (u > self.length + edge)] = 0.0
        return out

    def _windows(self):
        return ((self.offset, self.length, ((self.strength, self.harmonic * self.wavevector),)),)

    def to_dict(self):
        return {
            "type": "exp_grating",
            "strength": _cplx(self.strength),
            "harmonic": self.harmonic,
            "length": self.length,
            "offset": self.offset,
        }


@dataclass(frozen=True)
class FourierCell(_Windowed):
    """Finite Fourier series on the window [0, length]."""

    coefficients: tuple[tuple[int, complex], ...]
    length: float

    def __init__(self, coefficients, length: float):
        items = tuple(coefficients.items() if hasattr(coefficients, "items") else coefficients)
        _require_finite("coefficients and length", *(x for item in items for x in item), length)
        if length <= 0:
            raise ValueError("length must be positive")
        parsed = tuple(sorted((int(n), complex(z)) for n, z in items if complex(z) != 0))
        if not parsed:
            raise ValueError("need at least one nonzero coefficient")
        if len({n for n, _ in parsed}) != len(parsed):
            raise ValueError("duplicate harmonics")
        object.__setattr__(self, "coefficients", parsed)
        object.__setattr__(self, "length", float(length))

    @property
    def wavevector(self) -> float:
        return 2.0 * np.pi / self.length

    def support(self):
        return (0.0, self.length)

    def _smooth(self, x):
        out = np.zeros(x.shape, dtype=complex)
        edge = 1e-12 * self.length
        inside = (x >= -edge) & (x <= self.length + edge)
        for n, z in self.coefficients:
            out[inside] += z * np.exp(2j * np.pi * n * x[inside] / self.length)
        return out

    def _windows(self):
        K = self.wavevector
        return ((0.0, self.length, tuple((z, n * K) for n, z in self.coefficients)),)

    def to_dict(self):
        return {
            "type": "fourier_cell",
            "length": self.length,
            "coefficients": [
                {"harmonic": n, "value": _cplx(z)} for n, z in self.coefficients
            ],
        }


@dataclass(frozen=True)
class SmisProfile(Potential):
    """Exactly unidirectionally invisible profile generated from S(z) = z[alpha(z-1)^2 + 1].

    With u = x - translation and z = e^{-2i k0 u},

        v(x) = 8 alpha k0^2 (2 e^{2i k0 u} - 3) / [e^{4i k0 u} + alpha (e^{2i k0 u} - 1)^2]

    on [translation, translation + pi*winding/k0].  The unconjugated profile is
    right-invisible at k0 with left reflection -8 pi i n alpha e^{2i k0 a}/(1+alpha)^3;
    the conjugated profile is its time reversal (left-invisible).
    """

    k0: float
    alpha: float
    winding: int
    translation: float = 0.0
    conjugated: bool = False

    def __init__(self, k0, alpha, winding, translation=0.0, conjugated=False):
        _require_finite("k0, alpha, winding and translation", k0, alpha, winding, translation)
        if k0 <= 0:
            raise ValueError("k0 must be positive")
        if alpha <= -0.25:
            raise ValueError("alpha must exceed -1/4 (profile pole otherwise)")
        if int(winding) < 1:
            raise ValueError("winding must be a positive integer")
        object.__setattr__(self, "k0", float(k0))
        object.__setattr__(self, "alpha", float(alpha))
        object.__setattr__(self, "winding", int(winding))
        object.__setattr__(self, "translation", float(translation))
        object.__setattr__(self, "conjugated", bool(conjugated))

    @property
    def length(self) -> float:
        return np.pi * self.winding / self.k0

    def support(self):
        return (self.translation, self.translation + self.length)

    def _smooth(self, x):
        u = x - self.translation
        e2 = np.exp(2j * self.k0 * u)
        v = 8 * self.alpha * self.k0**2 * (2 * e2 - 3) / (e2 * e2 + self.alpha * (e2 - 1) ** 2)
        if self.conjugated:
            v = np.conj(v)
        v = np.asarray(v, dtype=complex)
        edge = 1e-12 * self.length
        v[(u < -edge) | (u > self.length + edge)] = 0.0
        return v

    def to_dict(self):
        return {
            "type": "smis",
            "k0": self.k0,
            "alpha": self.alpha,
            "winding": self.winding,
            "translation": self.translation,
            "conjugated": self.conjugated,
        }


@dataclass(frozen=True, eq=False)
class Sampled(Potential):
    """Uniform-grid samples with linear interpolation between nodes."""

    x0: float
    dx: float
    values: np.ndarray
    grid: np.ndarray = field(init=False, repr=False)

    def __init__(self, x0: float, dx: float, values):
        vals = np.asarray(values, dtype=complex)
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("need a 1D array of at least two samples")
        if not (np.isfinite(vals).all() and cmath.isfinite(x0) and cmath.isfinite(dx)):
            raise ValueError("x0, dx and values must be finite")
        if dx <= 0:
            raise ValueError("dx must be positive")
        object.__setattr__(self, "x0", float(x0))
        object.__setattr__(self, "dx", float(dx))
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "grid", self.x0 + self.dx * np.arange(vals.size))

    @classmethod
    def from_callable(cls, f, a: float, b: float, n: int = 2048) -> "Sampled":
        x = np.linspace(a, b, n + 1)
        return cls(a, x[1] - x[0], np.asarray(f(x), dtype=complex))

    def support(self):
        return (self.x0, self.x0 + self.dx * (self.values.size - 1))

    def _smooth(self, x):
        g = self.grid
        re = np.interp(x, g, self.values.real, left=0.0, right=0.0)
        im = np.interp(x, g, self.values.imag, left=0.0, right=0.0)
        return re + 1j * im

    def interpolation_nodes(self):
        return self.grid

    def _fourier_smooth(self, kappa, tol):
        return _filon_linear(self.grid, self.values, kappa)

    def to_dict(self):
        return {
            "type": "sampled",
            "x0": self.x0,
            "dx": self.dx,
            "values": [_cplx(v) for v in self.values],
        }


@dataclass(frozen=True)
class Sum(Potential):
    """Superposition of potentials.

    Overlapping supports are permitted for evaluation and Fourier transforms
    (``overlapping`` is set); composition-based exact solvers reject overlap.
    """

    parts: tuple[Potential, ...]
    overlapping: bool = field(init=False)

    def __init__(self, parts: Sequence[Potential]):
        object.__setattr__(self, "parts", tuple(parts))
        object.__setattr__(self, "overlapping", _overlapping(self.parts))

    def support(self):
        if not self.parts:
            return (0.0, 0.0)
        supports = [p.support() for p in self.parts]
        return (min(s[0] for s in supports), max(s[1] for s in supports))

    def _smooth(self, x):
        out = np.zeros(x.shape, dtype=complex)
        for p in self.parts:
            out += p._smooth(x)
        return out

    def delta_terms(self):
        terms = [t for p in self.parts for t in p.delta_terms()]
        return tuple(sorted(terms, key=lambda t: t.location))

    def internal_boundaries(self):
        pts: set[float] = set()
        for p in self.parts:
            pts.update(p.internal_boundaries())
        return tuple(sorted(pts))

    def spatially_sorted(self) -> tuple[Potential, ...]:
        return tuple(sorted(self.parts, key=lambda p: p.support()[0]))

    def interpolation_nodes(self):
        nodes = [q.interpolation_nodes() for q in self.parts]
        return np.unique(np.concatenate(nodes)) if nodes else np.empty(0)

    def _fourier_smooth(self, kappa, tol):
        return sum((p._fourier_smooth(kappa, tol) for p in self.parts), 0.0 + 0.0j)

    def _double_fourier(self, k1, k2, tol):
        if self.overlapping:
            return super()._double_fourier(k1, k2, tol)
        parts = self.spatially_sorted()
        own = sum((p._double_fourier(k1, k2, tol) for p in parts), 0.0 + 0.0j)
        return _ordered_sum(own, [p.fourier(k1, tol) for p in parts[:-1]],
                            [p.fourier(k2, tol) for p in parts[1:]])

    def to_dict(self):
        return {"type": "sum", "parts": [p.to_dict() for p in self.parts]}


def _overlapping(parts: Sequence[Potential]) -> bool:
    supports = sorted(p.support() for p in parts)
    for (a0, b0), (a1, _) in zip(supports, supports[1:]):
        span = max(abs(a0), abs(b0), abs(a1), 1.0)
        if a1 < b0 - 1e-12 * span:
            return True
    return False


@dataclass(frozen=True)
class Translated(Potential):
    """v(x - shift): support moves right by shift for positive shift."""

    inner: Potential
    shift: float

    def __post_init__(self):
        _require_finite("shift", self.shift)

    def support(self):
        a, b = self.inner.support()
        return (a + self.shift, b + self.shift)

    def _smooth(self, x):
        return self.inner._smooth(np.asarray(x) - self.shift)

    def delta_terms(self):
        return tuple(DeltaTerm(z, a + self.shift) for z, a in self.inner.delta_terms())

    def internal_boundaries(self):
        return tuple(b + self.shift for b in self.inner.internal_boundaries())

    def interpolation_nodes(self):
        return self.inner.interpolation_nodes() + self.shift

    def _fourier_smooth(self, kappa, tol):
        return np.exp(-1j * kappa * self.shift) * self.inner._fourier_smooth(kappa, tol)

    def _double_fourier(self, k1, k2, tol):
        return np.exp(-1j * (k1 + k2) * self.shift) * self.inner._double_fourier(k1, k2, tol)

    def to_dict(self):
        return {"type": "translated", "shift": self.shift, "inner": self.inner.to_dict()}


@dataclass(frozen=True)
class TimeReversed(Potential):
    """Complex conjugate of the wrapped potential (time-reversal transform)."""

    inner: Potential

    def support(self):
        return self.inner.support()

    def _smooth(self, x):
        return np.conj(self.inner._smooth(x))

    def delta_terms(self):
        return tuple(DeltaTerm(np.conj(z), a) for z, a in self.inner.delta_terms())

    def internal_boundaries(self):
        return self.inner.internal_boundaries()

    def interpolation_nodes(self):
        return self.inner.interpolation_nodes()

    def _fourier_smooth(self, kappa, tol):
        # real kappa: conj(v)~(kappa) = conj(v~(-kappa))
        return np.conj(self.inner._fourier_smooth(-kappa, tol))

    def _double_fourier(self, k1, k2, tol):
        return np.conj(self.inner._double_fourier(-k1, -k2, tol))

    def to_dict(self):
        return {"type": "time_reversed", "inner": self.inner.to_dict()}


@dataclass(frozen=True)
class LocallyPeriodic(Potential):
    """n translated copies of a cell potential with period ell:

        v(x) = sum_{j=1}^{n} v_cell(x - (j-1) ell),   ell >= cell support length.
    """

    cell: Potential
    copies: int
    period: float
    _sum: Sum = field(init=False, repr=False, compare=False)

    def __init__(self, cell: Potential, copies: int, period: float):
        _require_finite("copies and period", copies, period)
        a, b = cell.support()
        if period < b - a - 1e-12 * max(1.0, abs(b), abs(a)):
            raise ValueError("period must be at least the cell support length")
        if int(copies) < 1:
            raise ValueError("copies must be a positive integer")
        object.__setattr__(self, "cell", cell)
        object.__setattr__(self, "copies", int(copies))
        object.__setattr__(self, "period", float(period))
        shifted = [Translated(cell, j * self.period) for j in range(1, self.copies)]
        object.__setattr__(self, "_sum", Sum([cell, *shifted]))

    def as_sum(self) -> Sum:
        return self._sum

    def support(self):
        a, b = self.cell.support()
        return (a, b + (self.copies - 1) * self.period)

    def _smooth(self, x):
        return self.as_sum()._smooth(x)

    def delta_terms(self):
        return self.as_sum().delta_terms()

    def internal_boundaries(self):
        return self.as_sum().internal_boundaries()

    def interpolation_nodes(self):
        return self.as_sum().interpolation_nodes()

    def _fourier_smooth(self, kappa, tol):
        return self.as_sum()._fourier_smooth(kappa, tol)

    def _double_fourier(self, k1, k2, tol):
        return self.as_sum()._double_fourier(k1, k2, tol)

    def to_dict(self):
        return {
            "type": "locally_periodic",
            "copies": self.copies,
            "period": self.period,
            "cell": self.cell.to_dict(),
        }


def zero_potential() -> Sum:
    return Sum(())


def from_permittivity(grid, eps_hat, k: float, tol: float = 1e-6) -> Sampled:
    """Optical map: v(x) = k^2 (1 - eps_hat(x)) for a sampled permittivity profile.

    The profile must return to 1 at both ends of the grid (within tol), so the
    resulting potential has finite range.
    """
    grid = np.asarray(grid, dtype=float)
    eps = np.asarray(eps_hat, dtype=complex)
    if grid.ndim != 1 or grid.size != eps.size or grid.size < 2:
        raise ValueError("grid and eps_hat must be 1D arrays of equal length >= 2")
    steps = np.diff(grid)
    if np.any(steps <= 0) or abs(steps.max() - steps.min()) > 1e-9 * steps.mean():
        raise ValueError("grid must be uniform and increasing")
    if abs(eps[0] - 1.0) > tol or abs(eps[-1] - 1.0) > tol:
        raise ValueError("permittivity must equal 1 at both grid ends")
    _check_positive_finite(k, "k")
    return Sampled(grid[0], float(steps.mean()), k * k * (1.0 - eps))


# ---------------------------------------------------------------------------
# JSON schema ("v1"): complex numbers as [re, im]
# ---------------------------------------------------------------------------


def _cplx(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _uncplx(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    return complex(v[0], v[1])


def potential_to_dict(p: Potential) -> dict:
    """``p.to_dict()`` under the schema version."""
    return {"schema": SCHEMA_VERSION, **p.to_dict()}


def potential_from_dict(d: dict) -> Potential:
    kind = d.get("type")
    if kind == "delta_comb":
        return DeltaComb([(_uncplx(t["strength"]), t["location"]) for t in d["terms"]])
    if kind == "piecewise":
        return PiecewiseConstant(d["breakpoints"], [_uncplx(v) for v in d["values"]])
    if kind == "exp_grating":
        return ExpGrating(
            _uncplx(d["strength"]), d["harmonic"], d["length"], d.get("offset", 0.0)
        )
    if kind == "fourier_cell":
        return FourierCell(
            [(c["harmonic"], _uncplx(c["value"])) for c in d["coefficients"]],
            d["length"],
        )
    if kind == "smis":
        return SmisProfile(
            d["k0"], d["alpha"], d["winding"], d.get("translation", 0.0),
            d.get("conjugated", False),
        )
    if kind == "sampled":
        return Sampled(d["x0"], d["dx"], [_uncplx(v) for v in d["values"]])
    if kind == "sum":
        return Sum([potential_from_dict(q) for q in d["parts"]])
    if kind == "translated":
        return Translated(potential_from_dict(d["inner"]), d["shift"])
    if kind == "time_reversed":
        return TimeReversed(potential_from_dict(d["inner"]))
    if kind == "locally_periodic":
        return LocallyPeriodic(potential_from_dict(d["cell"]), d["copies"], d["period"])
    raise ValueError(f"unknown potential type {kind!r}")


def save_potential(p: Potential, path) -> None:
    with open(path, "w") as fh:
        json.dump(potential_to_dict(p), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_potential(path) -> Potential:
    with open(path) as fh:
        return potential_from_dict(json.load(fh))
