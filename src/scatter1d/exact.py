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
    compose_chain,
    propagation_matrix,
    time_reverse_matrix,
    translate_matrix,
)

__all__ = [
    "delta_matrix",
    "multi_delta_matrix",
    "barrier_matrix",
    "piecewise_matrix",
    "UnimodularPower",
    "unimodular_power",
    "locally_periodic_matrix",
    "structural_matrix",
    "numeric_leaf_copies",
    "exact_matrix",
    "NotExactlySolvable",
]

JORDAN_TOL = 1e-10  # |tr L / 2 -+ 1| below this uses the integer-z/pi branch


class NotExactlySolvable(ValueError):
    """No closed-form transfer matrix is known for this potential."""


def delta_matrix(strength: complex, location: float, k: float) -> TransferMatrix:
    """Transfer matrix of z*delta(x - a):

    M = (1/2k) [[2k - iz, -iz e^{-2iak}], [iz e^{2iak}, 2k + iz]].
    """
    if k <= 0:
        raise ValueError("k must be positive")
    z = complex(strength)
    ph = np.exp(2j * k * location)
    m = np.array(
        [[2 * k - 1j * z, -1j * z / ph], [1j * z * ph, 2 * k + 1j * z]], dtype=complex
    ) / (2 * k)
    return TransferMatrix(m, k)


def multi_delta_matrix(comb: DeltaComb, k: float) -> TransferMatrix:
    """Composition of single-delta matrices in spatial order (one per term)."""
    return compose_chain([delta_matrix(z, a, k) for z, a in comb.terms])


def _stable_sinc(w: np.ndarray) -> np.ndarray:
    """sin(w)/w for complex w, 4-term Taylor near 0 to avoid cancellation."""
    w = np.asarray(w, dtype=complex)
    out = np.empty_like(w)
    small = np.abs(w) < 1e-6
    ws = w[small]
    if ws.size:
        w2 = ws * ws
        out[small] = 1.0 - w2 / 6.0 + w2 * w2 / 120.0 - w2 * w2 * w2 / 5040.0
    wb = w[~small]
    if wb.size:
        out[~small] = np.sin(wb) / wb
    return out


def barrier_slice_matrices(heights, left_edges, right_edges, k: float) -> np.ndarray:
    """Stack of exact rectangular-barrier transfer matrices (vectorized).

    For height z on [a_-, a_+] with L = a_+ - a_-, zh = z/2k^2,
    nn = sqrt(1 - z/k^2), c = cos(kL nn), s = sin(kL nn)/nn:

        M = [[e^{-ikL}(c - i(zh-1)s),      -i e^{-ik(a_+ + a_-)} zh s],
             [ i e^{+ik(a_+ + a_-)} zh s,   e^{+ikL}(c + i(zh-1)s)]].

    Either branch of the square root gives the same M (c and s are even in nn).
    """
    z = np.asarray(heights, dtype=complex)
    lo = np.asarray(left_edges, dtype=float)
    hi = np.asarray(right_edges, dtype=float)
    h = hi - lo
    zh = z / (2 * k * k)
    nn = np.sqrt(1.0 - z / (k * k))
    w = k * h * nn
    c = np.cos(w)
    s = k * h * _stable_sinc(w)  # = sin(k h nn)/nn, finite at nn -> 0
    phase_l = np.exp(-1j * k * h)
    phase_c = np.exp(-1j * k * (lo + hi))
    out = np.empty(z.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = phase_l * (c - 1j * (zh - 1.0) * s)
    out[..., 0, 1] = -1j * phase_c * zh * s
    out[..., 1, 0] = 1j * zh * s / phase_c
    out[..., 1, 1] = (c + 1j * (zh - 1.0) * s) / phase_l
    return out


def barrier_matrix(height: complex, a_minus: float, a_plus: float, k: float) -> TransferMatrix:
    """Exact transfer matrix of a rectangular barrier of given height on [a_minus, a_plus]."""
    if k <= 0:
        raise ValueError("k must be positive")
    if not a_minus < a_plus:
        raise ValueError("need a_minus < a_plus")
    m = barrier_slice_matrices(
        np.array([height]), np.array([a_minus]), np.array([a_plus]), k
    )[0]
    return TransferMatrix(m, k)


def piecewise_matrix(p: PiecewiseConstant, k: float) -> TransferMatrix:
    """Cell-by-cell composition of exact barrier matrices, left to right."""
    pieces = [
        barrier_matrix(v, lo, hi, k)
        for lo, hi, v in zip(p.breakpoints[:-1], p.breakpoints[1:], p.values)
    ]
    return compose_chain(pieces)


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


def _u_pair(trace: complex, n: int) -> tuple[complex, complex, complex]:
    """(gamma, U_n, U_{n+1}) for a unit-det matrix with the given trace.

    Degenerate traces +-2 use the Jordan-branch values; otherwise the ratio
    sin(m gamma)/sin(gamma) is evaluated directly with the real part of
    m*gamma reduced mod 2pi (recurrences amplify error for complex gamma).
    """
    half = trace / 2.0
    if abs(half - 1.0) < JORDAN_TOL:  # gamma = 0
        return 0.0, complex(n - 1), complex(n)
    if abs(half + 1.0) < JORDAN_TOL:  # gamma = pi
        sign_n = -1.0 if n % 2 else 1.0
        return np.pi, sign_n * (n - 1), -sign_n * n
    gamma = complex(np.arccos(complex(half)))

    def ratio(m: int) -> complex:
        # sin(m*gamma)/sin(gamma)
        if abs(gamma) < 1e-6:
            mg2 = (m * gamma) ** 2
            g2 = gamma * gamma
            num = 1.0 - mg2 / 6.0 + mg2 * mg2 / 120.0
            den = 1.0 - g2 / 6.0 + g2 * g2 / 120.0
            return m * num / den
        gr, gi = gamma.real, gamma.imag
        arg = complex(math.remainder(m * gr, 2.0 * math.pi), m * gi)
        return complex(np.sin(arg)) / complex(np.sin(gamma))

    return gamma, ratio(n - 1), ratio(n)


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
    gamma, u_n, u_n1 = _u_pair(L[0, 0] + L[1, 1], n)
    value = u_n1 * L - u_n * IDENTITY
    return UnimodularPower(L, n, gamma, u_n, u_n1, value)


def locally_periodic_matrix(
    cell_matrix: TransferMatrix, ell: float, n: int, k: float | None = None
) -> TransferMatrix:
    """Transfer matrix of n copies of a cell repeated with period ell.

    cell_matrix is the transfer matrix of the generator cell in place (first
    copy); subsequent copies sit at +ell, +2 ell, ...  Equivalent to composing
    n translated copies, but O(1) in n.
    """
    if int(n) < 1:
        raise ValueError("n must be a positive integer")
    n = int(n)
    k = cell_matrix.k if k is None else k
    if k != cell_matrix.k:
        raise ValueError("cell matrix wavenumber disagrees with k")
    if n == 1:
        return cell_matrix
    m1 = cell_matrix.m
    L = m1 @ propagation_matrix(k, ell)
    gamma, u_n, u_n1 = _u_pair(L[0, 0] + L[1, 1], n)
    out = u_n1 * (propagation_matrix(k, (1 - n) * ell) @ m1) - u_n * propagation_matrix(
        k, -n * ell
    )
    return TransferMatrix(out, k)


# ---------------------------------------------------------------------------
# Structural solver
# ---------------------------------------------------------------------------


def structural_matrix(p: Potential, k: float, leaf: Callable | None) -> TransferMatrix:
    """Transfer matrix by one walk over the potential tree: closed forms at
    delta combs and piecewise stacks; the translation, time-reversal,
    disjoint-sum and Chebyshev repeat rules (for any cell) above them.  A leaf
    with no closed form, an overlapping sum included, goes to ``leaf(p)``,
    or raises NotExactlySolvable when ``leaf`` is None.
    """
    if isinstance(p, DeltaComb):
        return multi_delta_matrix(p, k)
    if isinstance(p, PiecewiseConstant):
        return piecewise_matrix(p, k)
    if isinstance(p, Translated):
        return translate_matrix(structural_matrix(p.inner, k, leaf), p.shift)
    if isinstance(p, TimeReversed):
        return time_reverse_matrix(structural_matrix(p.inner, k, leaf))
    if isinstance(p, LocallyPeriodic):
        return locally_periodic_matrix(structural_matrix(p.cell, k, leaf), p.period, p.copies, k)
    if isinstance(p, Sum) and not p.overlapping:
        if not p.parts:
            return TransferMatrix(IDENTITY, k)
        return compose_chain([structural_matrix(q, k, leaf) for q in p.spatially_sorted()])
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
    return structural_matrix(p, k, None)
