"""Finite-range complex potentials for 1D scalar-wave scattering.

All potentials here have compact support [a_minus, a_plus].  A potential is
split into a smooth (function) part, returned by ``evaluate``, and a list of
symbolic delta terms z*delta(x - a), returned by ``delta_terms``.  Delta
terms are never sampled numerically; downstream solvers splice their exact
transfer matrices instead.

Units: hbar = 1, lengths dimensionless, wavenumbers in inverse length.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

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


# ---------------------------------------------------------------------------
# Stable window integrals for e^{-i q x} against polynomial weights.
#
# g_p(w) := integral_0^1 t^p e^{w t} dt, evaluated in closed form for
# moderate |w| and by series for small |w| (the closed forms cancel
# catastrophically as w -> 0).
# ---------------------------------------------------------------------------

_SERIES_CUTOFF = 0.25
_SERIES_TERMS = 18


def _g_series(w: complex, p: int) -> complex:
    # integral_0^1 t^p e^{wt} dt = sum_n w^n / (n! (n+p+1))
    total = 0.0 + 0.0j
    term = 1.0 + 0.0j  # w^n / n!
    for n in range(_SERIES_TERMS):
        total += term / (n + p + 1)
        term = term * w / (n + 1)
    return total


def _g1(w):
    """(e^w - 1)/w, stable near w = 0; vectorized."""
    w = np.asarray(w, dtype=complex)
    out = np.empty_like(w)
    small = np.abs(w) < _SERIES_CUTOFF
    ws = w[small]
    if ws.size:
        total = np.zeros_like(ws)
        term = np.ones_like(ws)
        for n in range(_SERIES_TERMS):
            total += term / (n + 1)
            term = term * ws / (n + 1)
        out[small] = total
    wb = w[~small]
    if wb.size:
        out[~small] = (np.exp(wb) - 1.0) / wb
    return out


def _g2(w):
    """integral_0^1 t e^{wt} dt = (e^w (w-1) + 1)/w^2, stable; vectorized."""
    w = np.asarray(w, dtype=complex)
    out = np.empty_like(w)
    small = np.abs(w) < _SERIES_CUTOFF
    ws = w[small]
    if ws.size:
        total = np.zeros_like(ws)
        term = np.ones_like(ws)
        for n in range(_SERIES_TERMS):
            total += term / (n + 2)
            term = term * ws / (n + 1)
        out[small] = total
    wb = w[~small]
    if wb.size:
        out[~small] = (np.exp(wb) * (wb - 1.0) + 1.0) / wb**2
    return out


def _g3(w: complex) -> complex:
    """integral_0^1 t^2 e^{wt} dt."""
    if abs(w) < _SERIES_CUTOFF:
        return _g_series(w, 2)
    return (np.exp(w) * (w * w - 2 * w + 2) - 2) / w**3


def _g4(w: complex) -> complex:
    """integral_0^1 t^3 e^{wt} dt."""
    if abs(w) < _SERIES_CUTOFF:
        return _g_series(w, 3)
    return (np.exp(w) * (w**3 - 3 * w * w + 6 * w - 6) + 6) / w**4


def _window_ft(q, L):
    """integral_0^L e^{-i q u} du = L * g1(-iqL)."""
    return L * _g1(-1j * np.asarray(q, dtype=complex) * L)


def _ordered_window_ft(q1: complex, q2: complex, L: float) -> complex:
    """integral_0^L du2 e^{-i q2 u2} integral_0^{u2} du1 e^{-i q1 u1}.

    Equals [E(q2) - E(q1+q2)]/q1 with E(q) = (e^{-iqL}-1)/q; the small-q1
    branch uses the Taylor expansion in q1 to avoid cancellation.
    """

    def E(q: complex) -> complex:
        return -1j * L * complex(_g1(-1j * q * L))

    if abs(q1) * L > 1e-4:
        return (E(q2) - E(q1 + q2)) / q1
    w2 = -1j * q2 * L
    # E'(k) = -L^2 g2(-ikL), E'' = i L^3 g3, E''' = L^4 g4
    dE = -(L**2) * complex(_g2(w2))
    d2E = 1j * L**3 * _g3(w2)
    d3E = L**4 * _g4(w2)
    return -dE - q1 * d2E / 2.0 - q1 * q1 * d3E / 6.0


def _filon_linear(x: np.ndarray, y: np.ndarray, kappa: float) -> complex:
    """integral of the linear interpolant of (x, y) times e^{-i kappa x}.

    The oscillatory factor is integrated exactly per cell, so accuracy is
    limited only by the interpolation error of y, not by kappa.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=complex)
    h = np.diff(x)
    w = -1j * kappa * h
    g1 = _g1(w)
    g2 = _g2(w)
    y0 = y[:-1]
    dy = np.diff(y)
    cells = np.exp(-1j * kappa * x[:-1]) * h * (y0 * g1 + dy * g2)
    return complex(cells.sum())


def _filon_prefix(x: np.ndarray, y: np.ndarray, kappa: float) -> np.ndarray:
    """Cumulative Filon integral: G[j] = integral_{x0}^{xj} e^{-i kappa t} y(t) dt."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=complex)
    h = np.diff(x)
    w = -1j * kappa * h
    cells = np.exp(-1j * kappa * x[:-1]) * h * (y[:-1] * _g1(w) + np.diff(y) * _g2(w))
    out = np.empty(x.size, dtype=complex)
    out[0] = 0.0
    np.cumsum(cells, out=out[1:])
    return out


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
        smooth = self._fourier_smooth(kappa, tol)
        for z, a in self.delta_terms():
            smooth += z * np.exp(-1j * kappa * a)
        return smooth

    def double_fourier(self, k1: float, k2: float, tol: float = 1e-9) -> complex:
        """Ordered transform: integral over x1 < x2 of e^{-i(k1 x1 + k2 x2)} v(x1) v(x2)."""
        return self._double_fourier(k1, k2, tol)

    def _fourier_smooth(self, kappa: float, tol: float) -> complex:
        return _fourier_by_quadrature(self, kappa, tol)

    def _double_fourier(self, k1: float, k2: float, tol: float) -> complex:
        if self.delta_terms():
            raise NotImplementedError(
                "ordered double transform with delta terms has no generic quadrature"
            )
        return _double_fourier_by_quadrature(self, k1, k2, tol)

    # -- misc ---------------------------------------------------------------

    def interpolation_scale(self) -> float | None:
        """Smallest spacing of the interpolation nodes, or None if there are none."""
        nodes = self.interpolation_nodes()
        return float(np.diff(nodes).min()) if nodes.size > 1 else None

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


def _sampling_grid(p: Potential, n: int) -> np.ndarray:
    a, b = p.support()
    edges = sorted(set(p.internal_boundaries()) | {a, b})
    grid = [np.array([a])]
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi <= lo:
            continue
        m = max(8, int(round(n * (hi - lo) / max(b - a, 1e-300))))
        grid.append(np.linspace(lo, hi, m + 1)[1:])
    return np.concatenate(grid)


def _fourier_by_quadrature(p: Potential, kappa: float, tol: float) -> complex:
    n = 1024
    prev = None
    while n <= 2**20:
        x = _sampling_grid(p, n)
        val = _filon_linear(x, p.evaluate(x), kappa)
        if prev is not None and abs(val - prev) <= tol * max(1.0, abs(val)):
            return val
        prev = val
        n *= 2
    raise QuadratureError(
        f"fourier quadrature did not converge to {tol:g} (last value {prev})"
    )


def _double_fourier_by_quadrature(p: Potential, k1: float, k2: float, tol: float) -> complex:
    n = 1024
    prev = None
    while n <= 2**18:
        x = _sampling_grid(p, n)
        v = p.evaluate(x)
        inner = _filon_prefix(x, v, k1)
        val = _filon_linear(x, v * inner, k2)
        if prev is not None and abs(val - prev) <= tol * max(1.0, abs(val)):
            return val
        prev = val
        n *= 2
    raise QuadratureError(
        f"double-fourier quadrature did not converge to {tol:g} (last value {prev})"
    )


@dataclass(frozen=True)
class DeltaComb(Potential):
    """Sum of point scatterers: v(x) = sum_j z_j delta(x - a_j)."""

    terms: tuple[DeltaTerm, ...]

    def __init__(self, terms: Sequence[tuple[complex, float]]):
        parsed = tuple(DeltaTerm(complex(z), float(a)) for z, a in terms)
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
        total = 0.0 + 0.0j
        for i, (zi, ai) in enumerate(self.terms):
            for zj, aj in self.terms[i + 1:]:
                total += zi * zj * np.exp(-1j * (k1 * ai + k2 * aj))
        return total

    def to_dict(self):
        return {
            "type": "delta_comb",
            "terms": [
                {"strength": _cplx(t.strength), "location": t.location}
                for t in self.terms
            ],
        }


@dataclass(frozen=True)
class PiecewiseConstant(Potential):
    """Piecewise-constant potential: values[j] on [breakpoints[j], breakpoints[j+1])."""

    breakpoints: tuple[float, ...]
    values: tuple[complex, ...]

    def __init__(self, breakpoints: Sequence[float], values: Sequence[complex]):
        bp = tuple(float(b) for b in breakpoints)
        vals = tuple(complex(v) for v in values)
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

    def _fourier_smooth(self, kappa, tol):
        total = 0.0 + 0.0j
        for lo, hi, v in zip(self.breakpoints[:-1], self.breakpoints[1:], self.values):
            total += v * np.exp(-1j * kappa * lo) * complex(_window_ft(kappa, hi - lo))
        return total

    def _double_fourier(self, k1, k2, tol):
        bp = self.breakpoints
        cells = list(zip(bp[:-1], bp[1:], self.values))
        total = 0.0 + 0.0j
        for lo, hi, v in cells:
            h = hi - lo
            total += v * v * np.exp(-1j * (k1 + k2) * lo) * _ordered_window_ft(k1, k2, h)
        for i, (lo_i, hi_i, vi) in enumerate(cells):
            fi = vi * np.exp(-1j * k1 * lo_i) * complex(_window_ft(k1, hi_i - lo_i))
            for lo_j, hi_j, vj in cells[i + 1:]:
                fj = vj * np.exp(-1j * k2 * lo_j) * complex(_window_ft(k2, hi_j - lo_j))
                total += fi * fj
        return total

    def to_dict(self):
        return {
            "type": "piecewise",
            "breakpoints": list(self.breakpoints),
            "values": [_cplx(v) for v in self.values],
        }


@dataclass(frozen=True)
class ExpGrating(Potential):
    """Single-harmonic complex grating: v = z e^{2 pi i n (x-offset)/length} on its window."""

    strength: complex
    harmonic: int
    length: float
    offset: float = 0.0

    def __init__(self, strength: complex, harmonic: int, length: float, offset: float = 0.0):
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

    def _fourier_smooth(self, kappa, tol):
        q = kappa - self.harmonic * self.wavevector
        return (
            self.strength
            * np.exp(-1j * kappa * self.offset)
            * complex(_window_ft(q, self.length))
        )

    def _double_fourier(self, k1, k2, tol):
        K = self.wavevector
        return (
            self.strength**2
            * np.exp(-1j * (k1 + k2) * self.offset)
            * _ordered_window_ft(k1 - self.harmonic * K, k2 - self.harmonic * K, self.length)
        )

    def to_dict(self):
        return {
            "type": "exp_grating",
            "strength": _cplx(self.strength),
            "harmonic": self.harmonic,
            "length": self.length,
            "offset": self.offset,
        }


@dataclass(frozen=True)
class FourierCell(Potential):
    """Finite Fourier series on the window [0, length]."""

    coefficients: tuple[tuple[int, complex], ...]
    length: float

    def __init__(self, coefficients, length: float):
        if length <= 0:
            raise ValueError("length must be positive")
        if hasattr(coefficients, "items"):
            items = coefficients.items()
        else:
            items = coefficients
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

    def _fourier_smooth(self, kappa, tol):
        K = self.wavevector
        total = 0.0 + 0.0j
        for n, z in self.coefficients:
            total += z * complex(_window_ft(kappa - n * K, self.length))
        return total

    def _double_fourier(self, k1, k2, tol):
        K = self.wavevector
        total = 0.0 + 0.0j
        for p, zp in self.coefficients:
            for q, zq in self.coefficients:
                total += zp * zq * _ordered_window_ft(k1 - p * K, k2 - q * K, self.length)
        return total

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

    def _double_fourier(self, k1, k2, tol):
        g = self.grid
        inner = _filon_prefix(g, self.values, k1)
        return _filon_linear(g, self.values * inner, k2)

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
        if not self.parts:
            return 0.0 + 0.0j
        if self.overlapping:
            return _double_fourier_by_quadrature(self, k1, k2, tol)
        parts = self.spatially_sorted()
        total = sum((p._double_fourier(k1, k2, tol) for p in parts), 0.0 + 0.0j)
        fts1 = [p.fourier(k1, tol) for p in parts]
        fts2 = [p.fourier(k2, tol) for p in parts]
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                total += fts1[i] * fts2[j]
        return total

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
    if k <= 0:
        raise ValueError("k must be positive")
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


def potential_to_dict(p: Potential, with_version: bool = True) -> dict:
    d = p.to_dict()
    if with_version:
        d = {"schema": SCHEMA_VERSION, **d}
    return d


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
