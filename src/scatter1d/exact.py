"""Closed-form transfer matrices: deltas, barriers, stacks, periodic repeats.

The locally periodic formula reduces an n-cell repeat to Chebyshev-type
coefficients U_m(gamma) built from the trace of L = M1 T(ell):

    M = U_{n+1}(gamma) T((1-n) ell) M1 - U_n(gamma) T(-n ell),
    gamma = arccos(tr L / 2),
    U_m(z) = sin((m-1)z)/sin(z), or (-1)^{mz/pi} (m-1) at integer z/pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .potentials import (
    DeltaComb,
    LocallyPeriodic,
    PiecewiseConstant,
    Potential,
    Sum,
    TimeReversed,
    Translated,
)
from .transfer import (
    IDENTITY,
    TransferMatrix,
    _check_positive_finite,
    chain_product,
    time_reverse_stack,
    translate_stack,
)

__all__ = [
    "delta_matrix",
    "delta_matrices",
    "barrier_matrix",
    "UnimodularPower",
    "unimodular_power",
    "locally_periodic_matrix",
    "structural_matrix",
    "numeric_leaf_copies",
    "exact_matrix",
    "NotExactlySolvable",
]

JORDAN_TOL = 1e-10  # |tr L / 2 -+ 1| below this uses the integer-z/pi branch
MAGNUS_4 = math.sqrt(3.0) / 12.0   # weight of the commutator in a fourth-order Magnus slice


class NotExactlySolvable(ValueError):
    """No closed-form transfer matrix is known for this potential."""


def delta_matrix(strength: complex, location: float, k: float) -> TransferMatrix:
    """Transfer matrix of z*delta(x - a):

    M = (1/2k) [[2k - iz, -iz e^{-2iak}], [iz e^{2iak}, 2k + iz]].
    """
    _check_positive_finite(k, "k")
    return TransferMatrix(delta_matrices(strength, location, k), k)


def delta_matrices(strengths, locations, k) -> np.ndarray:
    """``delta_matrix`` with strengths, locations and k broadcast together;
    returns the stack of shape (..., 2, 2)."""
    z = np.asarray(strengths, dtype=complex)
    k = np.asarray(k, dtype=float)
    ph = np.exp(2j * k * np.asarray(locations, dtype=float))
    out = np.empty(np.broadcast_shapes(z.shape, ph.shape) + (2, 2), dtype=complex)
    out[..., 0, 0] = (2 * k - 1j * z) / (2 * k)
    out[..., 0, 1] = -1j * z / ph / (2 * k)
    out[..., 1, 0] = 1j * z * ph / (2 * k)
    out[..., 1, 1] = (2 * k + 1j * z) / (2 * k)
    return out


def barrier_slice_matrices(heights, left_edges, right_edges, k, tilt=0.0) -> np.ndarray:
    """Stack of exact rectangular-barrier transfer matrices, shape (..., 2, 2)
    with heights, edges, k and tilt broadcast together.

    For height z on [a_-, a_+] with L = a_+ - a_-, zh = z/2k^2,
    nn = sqrt(1 - z/k^2), c = cos(kL nn), s = sin(kL nn)/nn:

        M = [[e^{-ikL}(c - i(zh-1)s),      -i e^{-ik(a_+ + a_-)} zh s],
             [ i e^{+ik(a_+ + a_-)} zh s,   e^{+ikL}(c + i(zh-1)s)]].

    Either branch of the square root gives the same M (c and s are even in nn).

    ``tilt`` makes each matrix a fourth-order Magnus slice of a smooth v: with
    z the mean of v at the two Gauss points a_m -+ L/(2 sqrt 3) of the slice
    and tilt = v(a_m + L/(2 sqrt 3)) - v(a_m - L/(2 sqrt 3)), the commutator
    [H_s(x2), H_s(x1)] = tilt sigma1 adds g kL sigma1, g = -(sqrt 3/12) L tilt/k,
    to the slice exponent.  Then nn = sqrt(1 - z/k^2 - g^2) and the
    off-diagonal entries gain e^{-+ik(a_+ + a_-)} g s.  tilt=0, the default,
    is the barrier.
    """
    z = np.asarray(heights, dtype=complex)
    lo = np.asarray(left_edges, dtype=float)
    hi = np.asarray(right_edges, dtype=float)
    k = np.asarray(k, dtype=float)
    kh = k * (hi - lo)
    kc = k * (lo + hi)
    zh = z / (2 * k * k)
    g = (-MAGNUS_4 * (hi - lo) / k) * np.asarray(tilt, dtype=complex)
    w = kh * np.sqrt(1.0 - z / (k * k) - g * g)
    # cos w and sin w from real sines, cosines and hyperbolic functions of the
    # real and imaginary parts: several times cheaper than complex cos and sin
    sin_re, cos_re = np.sin(w.real), np.cos(w.real)
    sinh_im, cosh_im = np.sinh(w.imag), np.cosh(w.imag)
    c = cos_re * cosh_im - 1j * (sin_re * sinh_im)
    # s = kh sin(w)/w, finite at nn -> 0: 4-term Taylor for the sinc near w = 0
    small = np.abs(w) < 1e-6
    s = (sin_re * cosh_im + 1j * (cos_re * sinh_im)) / np.where(small, 1.0, w)
    if small.any():
        w2 = w[small] ** 2
        s[small] = 1.0 - w2 / 6.0 + w2 * w2 / 120.0 - w2 * w2 * w2 / 5040.0
    s *= kh
    phase_l = np.cos(kh) - 1j * np.sin(kh)   # e^{-ikL}
    phase_c = np.cos(kc) - 1j * np.sin(kc)   # e^{-ik(a_+ + a_-)}
    t = 1j * (zh - 1.0) * s
    izs = 1j * zh * s
    out = np.empty(w.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = phase_l * (c - t)
    gs = g * s
    out[..., 0, 1] = phase_c * (gs - izs)
    out[..., 1, 0] = (gs + izs) / phase_c
    out[..., 1, 1] = (c + t) / phase_l
    return out


def barrier_matrix(height: complex, a_minus: float, a_plus: float, k: float) -> TransferMatrix:
    """Exact transfer matrix of a rectangular barrier of given height on [a_minus, a_plus]."""
    _check_positive_finite(k, "k")
    if not a_minus < a_plus:
        raise ValueError("need a_minus < a_plus")
    m = barrier_slice_matrices(
        np.array([height]), np.array([a_minus]), np.array([a_plus]), k
    )[0]
    return TransferMatrix(m, k)


# ---------------------------------------------------------------------------
# Unimodular powers (Chebyshev/Jordan closed form)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class UnimodularPower:
    """Closed-form L^n for a unit-determinant 2x2 matrix."""

    base: np.ndarray
    exponent: int
    gamma: complex
    u_n: complex       # U_n(gamma)
    u_n1: complex      # U_{n+1}(gamma)
    value: np.ndarray  # L^n


def _u_pair(trace, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(gamma, U_n, U_{n+1}) for unit-det matrices with the given traces.

    Degenerate traces +-2 use the Jordan-branch values; otherwise the ratio
    sin(m gamma)/sin(gamma) is evaluated directly with the real part of
    m*gamma reduced mod 2pi (recurrences amplify error for complex gamma).
    """
    half = np.asarray(trace, dtype=complex) / 2.0
    gamma = np.arccos(half)
    small = np.abs(gamma) < 1e-6
    m = np.array([n - 1, n]).reshape((2,) + (1,) * gamma.ndim)
    # sin(m gamma)/sin(gamma) for m = n - 1 and n, the real part of m gamma
    # reduced exactly to [-pi, pi] (the IEEE remainder, as math.remainder)
    re = np.fmod(m * gamma.real, 2.0 * math.pi)
    re -= np.where(np.abs(re) > math.pi, np.copysign(2.0 * math.pi, re), 0.0)
    u = np.sin(re + 1j * (m * gamma.imag)) / np.where(small, 1.0, np.sin(gamma))
    if small.any():
        ms = np.array([[n - 1], [n]])
        g2, mg2 = gamma[small] ** 2, (ms * gamma[small]) ** 2
        u[:, small] = ms * (1.0 - mg2 / 6.0 + mg2 * mg2 / 120.0) / (1.0 - g2 / 6.0 + g2 * g2 / 120.0)
    at_zero = np.abs(half - 1.0) < JORDAN_TOL   # gamma = 0
    at_pi = np.abs(half + 1.0) < JORDAN_TOL     # gamma = pi
    if at_zero.any() or at_pi.any():
        sign = np.where(at_pi, -1.0 if n % 2 else 1.0, 1.0)
        gamma = np.where(at_zero, 0.0, np.where(at_pi, np.pi, gamma))
        jordan = at_zero | at_pi
        u[0] = np.where(jordan, sign * (n - 1), u[0])
        u[1] = np.where(jordan, np.where(at_pi, -sign * n, n), u[1])
    return gamma, u[0], u[1]


def unimodular_power(base, n: int) -> UnimodularPower:
    """L^n = U_{n+1}(gamma) L - U_n(gamma) I for det L = 1 and n >= 1."""
    L = np.asarray(base, dtype=complex)
    if L.shape != (2, 2):
        raise ValueError("base must be 2x2")
    if int(n) < 1:
        raise ValueError("exponent must be a positive integer")
    n = int(n)
    det = L[0, 0] * L[1, 1] - L[0, 1] * L[1, 0]
    if abs(det - 1.0) > 1e-8:
        raise ValueError(f"matrix is not unimodular: |det - 1| = {abs(det - 1.0):.3e}")
    gamma, u_n, u_n1 = (complex(x) for x in _u_pair(L[0, 0] + L[1, 1], n))
    value = u_n1 * L - u_n * IDENTITY
    return UnimodularPower(L, n, gamma, u_n, u_n1, value)


def locally_periodic_matrix(cell_matrix: TransferMatrix, ell: float, n: int) -> TransferMatrix:
    """Transfer matrix of n copies of a cell repeated with period ell, at the
    cell matrix's wavenumber.

    cell_matrix is the transfer matrix of the generator cell in place (first
    copy); subsequent copies sit at +ell, +2 ell, ...  Equivalent to composing
    n translated copies, but O(1) in n.
    """
    if int(n) < 1:
        raise ValueError("n must be a positive integer")
    k = cell_matrix.k
    return TransferMatrix(_repeat(cell_matrix.m, k, ell, int(n)), k)


def _repeat(m1: np.ndarray, k, ell: float, n: int) -> np.ndarray:
    """``locally_periodic_matrix`` on a stack of cell matrices (..., 2, 2)
    with wavenumbers k of shape (...)."""
    if n == 1:
        return m1
    k = np.asarray(k, dtype=float)
    # L = M1 T(ell), T(x) = diag(e^{ikx}, e^{-ikx})
    trace = m1[..., 0, 0] * np.exp(1j * k * ell) + m1[..., 1, 1] * np.exp(-1j * k * ell)
    _, u_n, u_n1 = _u_pair(trace, n)
    up, down = np.exp(1j * k * ((1 - n) * ell)), np.exp(-1j * k * ((1 - n) * ell))
    out = np.empty(np.shape(m1), dtype=complex)
    out[..., 0, 0] = u_n1 * (up * m1[..., 0, 0]) - u_n * np.exp(-1j * k * (n * ell))
    out[..., 0, 1] = u_n1 * (up * m1[..., 0, 1])
    out[..., 1, 0] = u_n1 * (down * m1[..., 1, 0])
    out[..., 1, 1] = u_n1 * (down * m1[..., 1, 1]) - u_n * np.exp(1j * k * (n * ell))
    return out


# ---------------------------------------------------------------------------
# Structural solver
# ---------------------------------------------------------------------------


def structural_matrix(p: Potential, k, leaf: Callable | None) -> np.ndarray:
    """Transfer matrices by one walk over the potential tree: closed forms at
    delta combs and piecewise stacks; the translation, time-reversal,
    disjoint-sum and Chebyshev repeat rules (for any cell) above them.  A leaf
    with no closed form, an overlapping sum included, goes to ``leaf(p)``,
    or raises NotExactlySolvable when ``leaf`` is None.

    k is a batch axis: an array of wavenumbers gives the stack of matrices,
    shape k.shape + (2, 2), and ``leaf(p)`` must return the same shape.
    """
    k = np.asarray(k, dtype=float)
    if isinstance(p, DeltaComb):
        z, a = zip(*p.terms)
        return chain_product(delta_matrices(z, a, k[..., None]))
    if isinstance(p, PiecewiseConstant):
        bp = p.breakpoints
        return chain_product(barrier_slice_matrices(p.values, bp[:-1], bp[1:], k[..., None]))
    if isinstance(p, Translated):
        return translate_stack(structural_matrix(p.inner, k, leaf), k, p.shift)
    if isinstance(p, TimeReversed):
        return time_reverse_stack(structural_matrix(p.inner, k, leaf))
    if isinstance(p, LocallyPeriodic):
        return _repeat(structural_matrix(p.cell, k, leaf), k, p.period, p.copies)
    if isinstance(p, Sum) and not p.overlapping:
        if not p.parts:
            return np.broadcast_to(IDENTITY, k.shape + (2, 2)).copy()
        parts = [structural_matrix(q, k, leaf) for q in p.spatially_sorted()]
        return chain_product(np.stack(parts, axis=-3))
    if leaf is not None:
        return leaf(p)
    if isinstance(p, Sum):
        raise NotExactlySolvable(
            "sum has overlapping supports; composition requires disjoint pieces"
        )
    raise NotExactlySolvable(f"no closed form for {type(p).__name__}")


def numeric_leaf_copies(p: Potential) -> int:
    """Leaves ``structural_matrix`` hands to ``leaf``, a repeat's counted once per copy."""
    if isinstance(p, (DeltaComb, PiecewiseConstant)):
        return 0
    if isinstance(p, (Translated, TimeReversed)):
        return numeric_leaf_copies(p.inner)
    if isinstance(p, LocallyPeriodic):
        return p.copies * numeric_leaf_copies(p.cell)
    if isinstance(p, Sum) and not p.overlapping:
        return sum(numeric_leaf_copies(q) for q in p.parts)
    return 1


def exact_matrix(p: Potential, k: float) -> TransferMatrix:
    """Closed-form transfer matrix: ``structural_matrix`` with no numeric leaf.

    Raises NotExactlySolvable at the first leaf with no closed form.
    """
    _check_positive_finite(k, "k")
    return TransferMatrix(structural_matrix(p, k, None), k)
