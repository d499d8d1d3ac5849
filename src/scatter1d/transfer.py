"""Transfer matrices, scattering amplitudes, and the exact maps between them.

A transfer matrix M at wavenumber k > 0 relates the plane-wave coefficients
on the two sides of a finite-range potential,

    (A_+, B_+)^T = M (A_-, B_-)^T,    psi -> A e^{ikx} + B e^{-ikx},

and has unit determinant.  The amplitude dictionary is

    R_left = -M21/M22,   R_right = M12/M22,   T = 1/M22,

with the inverse map M11 = T - R_l R_r / T, M12 = R_r/T, M21 = -R_l/T,
M22 = 1/T.  Real positive zeros of the entries mark the physical effects
handled by ``classify``.

A wavenumber grid is a batch axis: ``chain_product``, ``translate_stack`` and
``time_reverse_stack`` act on stacks of shape (..., 2, 2) whose leading axes
index k, so a whole grid goes through one array pass.  ``TransferMatrix`` is
one matrix at one k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "SIGMA1",
    "SIGMA2",
    "SIGMA3",
    "KMAT",
    "IDENTITY",
    "propagation_matrix",
    "TransferMatrix",
    "ScatteringData",
    "Classification",
    "SpectralSingularityError",
    "WavenumberMismatchError",
    "amplitudes_from_matrix",
    "matrix_from_amplitudes",
    "compose",
    "compose_chain",
    "translate_matrix",
    "translate_stack",
    "time_reverse_matrix",
    "time_reverse_stack",
    "classify",
    "flag_stack",
    "chain_product",
]

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
KMAT = SIGMA3 + 1j * SIGMA2  # [[1, 1], [-1, -1]]; KMAT @ KMAT = 0
IDENTITY = np.eye(2, dtype=complex)

DEFAULT_ZERO_TOL = 1e-8          # classification threshold, relative to ||M||
AMPLITUDE_ZERO_TOL = 1e-12       # |M22| threshold below which amplitudes are refused
ENTRY_NAMES = ("M11", "M12", "M21", "M22")
ENTRY_INDEX = {"M11": (0, 0), "M12": (0, 1), "M21": (1, 0), "M22": (1, 1)}


def propagation_matrix(k: float, x: float) -> np.ndarray:
    """Free propagation phase matrix T(x) = diag(e^{ikx}, e^{-ikx})."""
    return np.array([[np.exp(1j * k * x), 0.0], [0.0, np.exp(-1j * k * x)]], dtype=complex)


class SpectralSingularityError(ArithmeticError):
    """Amplitudes requested at (or too close to) a zero of M22."""

    def __init__(self, k: float, m22: complex):
        super().__init__(f"M22 = {m22} at k = {k}: amplitudes diverge (spectral singularity)")
        self.k = k
        self.m22 = m22


class WavenumberMismatchError(ValueError):
    """Operations mixing transfer matrices at different wavenumbers."""


@dataclass(frozen=True, eq=False)
class TransferMatrix:
    """2x2 complex matrix with its wavenumber.

    Exact constructors produce |det - 1| <= 1e-10; numerical engines are bound
    by their own tolerance.  The determinant is not re-validated here so that
    truncated (Dyson) matrices can share the type; use ``det_residual``.
    """

    m: np.ndarray
    k: float

    def __init__(self, m, k: float):
        arr = np.asarray(m, dtype=complex)
        if arr.shape != (2, 2):
            raise ValueError("transfer matrix must be 2x2")
        if not 0 < k < np.inf:
            raise ValueError("k must be positive and finite")
        object.__setattr__(self, "m", arr)
        object.__setattr__(self, "k", float(k))

    @property
    def m11(self) -> complex:
        return complex(self.m[0, 0])

    @property
    def m12(self) -> complex:
        return complex(self.m[0, 1])

    @property
    def m21(self) -> complex:
        return complex(self.m[1, 0])

    @property
    def m22(self) -> complex:
        return complex(self.m[1, 1])

    def det(self) -> complex:
        return self.m11 * self.m22 - self.m12 * self.m21

    def det_residual(self) -> float:
        return abs(self.det() - 1.0)

    def norm(self) -> float:
        return float(np.linalg.norm(self.m))

    def entry(self, name: str) -> complex:
        try:
            return complex(self.m[ENTRY_INDEX[name]])
        except KeyError:
            raise ValueError(f"unknown entry {name!r}; use M11/M12/M21/M22") from None

    def amplitudes(self, zero_tol: float = AMPLITUDE_ZERO_TOL) -> "ScatteringData":
        return amplitudes_from_matrix(self, zero_tol)

    def translated(self, a: float) -> "TransferMatrix":
        return translate_matrix(self, a)

    def time_reversed(self) -> "TransferMatrix":
        return time_reverse_matrix(self)

    def classify(self, zero_tol: float = DEFAULT_ZERO_TOL) -> "Classification":
        return classify(self, zero_tol)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "M11": [self.m11.real, self.m11.imag],
            "M12": [self.m12.real, self.m12.imag],
            "M21": [self.m21.real, self.m21.imag],
            "M22": [self.m22.real, self.m22.imag],
        }


@dataclass(frozen=True)
class ScatteringData:
    """Reflection/transmission amplitudes (R_left, R_right, T) at wavenumber k."""

    r_left: complex
    r_right: complex
    t: complex
    k: float

    def __init__(self, r_left, r_right, t, k):
        object.__setattr__(self, "r_left", complex(r_left))
        object.__setattr__(self, "r_right", complex(r_right))
        object.__setattr__(self, "t", complex(t))
        object.__setattr__(self, "k", float(k))

    def to_matrix(self) -> TransferMatrix:
        return matrix_from_amplitudes(self)

    def translated(self, a: float) -> "ScatteringData":
        """Amplitudes of the potential translated right by a."""
        ph = np.exp(2j * self.k * a)
        return ScatteringData(self.r_left * ph, self.r_right / ph, self.t, self.k)

    def time_reversed(self) -> "ScatteringData":
        """Amplitudes of the complex-conjugated potential."""
        d = np.conj(self.t**2 - self.r_left * self.r_right)
        return ScatteringData(
            -np.conj(self.r_right) / d, -np.conj(self.r_left) / d, np.conj(self.t) / d, self.k
        )

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "R_left": [self.r_left.real, self.r_left.imag],
            "R_right": [self.r_right.real, self.r_right.imag],
            "T": [self.t.real, self.t.imag],
        }


def amplitudes_from_matrix(m: TransferMatrix, zero_tol: float = AMPLITUDE_ZERO_TOL) -> ScatteringData:
    """(R_left, R_right, T) = (-M21/M22, M12/M22, 1/M22).

    Raises SpectralSingularityError when |M22| < zero_tol * ||M||, so a caller can
    record a singularity instead of propagating huge finite values.
    """
    amplitudes = _amplitude_dictionary(m.m12, m.m21, m.m22, m.norm(), zero_tol)
    if amplitudes is None:
        raise SpectralSingularityError(m.k, m.m22)
    return ScatteringData(*amplitudes, m.k)


def _amplitude_dictionary(
    m12: complex, m21: complex, m22: complex, norm: float, zero_tol: float = AMPLITUDE_ZERO_TOL
) -> tuple[complex, complex, complex] | None:
    """(R_left, R_right, T) of one matrix in Python complex arithmetic, or None
    where |M22| < zero_tol * norm and the amplitudes are refused."""
    if abs(m22) < zero_tol * max(norm, 1e-300):
        return None
    return -m21 / m22, m12 / m22, 1.0 / m22


def matrix_from_amplitudes(d: ScatteringData) -> TransferMatrix:
    """Inverse amplitude map; unit determinant by construction."""
    if d.t == 0:
        raise ValueError("zero transmission is unrealizable for a short-range potential")
    t, rl, rr = d.t, d.r_left, d.r_right
    return TransferMatrix(
        [[t - rl * rr / t, rr / t], [-rl / t, 1.0 / t]], d.k
    )


def compose(m_right_piece: TransferMatrix, m_left_piece: TransferMatrix) -> TransferMatrix:
    """Transfer matrix of the union of two potentials, left piece traversed first."""
    if m_right_piece.k != m_left_piece.k:
        raise WavenumberMismatchError(
            f"cannot compose matrices at k = {m_left_piece.k} and k = {m_right_piece.k}"
        )
    return TransferMatrix(m_right_piece.m @ m_left_piece.m, m_left_piece.k)


def compose_chain(pieces_left_to_right: Sequence[TransferMatrix]) -> TransferMatrix:
    """Compose pieces given in spatial order: M = M_n ... M_2 M_1."""
    pieces = list(pieces_left_to_right)
    if not pieces:
        raise ValueError("nothing to compose")
    k = pieces[0].k
    for p in pieces[1:]:
        if p.k != k:
            raise WavenumberMismatchError("all pieces must share one wavenumber")
    stack = np.stack([p.m for p in pieces])
    return TransferMatrix(chain_product(stack), k)


def _pair(m11, m12, m21, m22) -> tuple:
    """One level of ``chain_product``'s tree on the four entry arrays: the
    products M[2i+1] @ M[2i] of every pair (the last matrix of an odd count
    is left out)."""
    n = m11.shape[-1]
    left, right = slice(0, n - 1, 2), slice(1, n, 2)
    r11, r12, r21, r22 = m11[..., right], m12[..., right], m21[..., right], m22[..., right]
    l11, l12, l21, l22 = m11[..., left], m12[..., left], m21[..., left], m22[..., left]
    return (r11 * l11 + r12 * l21, r11 * l12 + r12 * l22,
            r21 * l11 + r22 * l21, r21 * l12 + r22 * l22)


def _pair_products(a: np.ndarray, out: np.ndarray) -> None:
    """The first level of ``chain_product``'s tree on a stack ``a`` of shape
    (..., 2n, 2, 2): the products M[2i+1] @ M[2i], written to ``out``, shape
    (..., n, 2, 2).  ``chain_product`` of them is ``chain_product`` of the
    stack, operation for operation."""
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = _pair(
        a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1])


def chain_product(mats: np.ndarray) -> np.ndarray:
    """Product M[n-1] @ ... @ M[1] @ M[0] of a stack (..., n, 2, 2).

    Leading axes are batch axes (a wavenumber axis, say): the result has shape
    (..., 2, 2).  The reduction is a pairwise tree of elementwise products on
    the four entry arrays; log depth keeps the rounding chain short, and on
    long stacks it is several times faster than ``np.matmul`` on 2x2 blocks.
    """
    a = np.asarray(mats)
    if a.ndim < 3 or a.shape[-2:] != (2, 2) or a.shape[-3] == 0:
        raise ValueError("expected a nonempty stack of 2x2 matrices")
    batch = a.shape[:-3]
    # one flat batch axis, and none for a batch of one: ufuncs and slicing
    # cost less per call on fewer dimensions
    a = a.reshape((-1,) + a.shape[-3:])
    if a.shape[0] == 1:
        a = a[0]
    m11, m12, m21, m22 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    while m11.shape[-1] > 1:
        n = m11.shape[-1]
        if n % 2:   # the last matrix waits for the next level
            t11, t12, t21, t22 = m11[..., -1:], m12[..., -1:], m21[..., -1:], m22[..., -1:]
        m11, m12, m21, m22 = _pair(m11, m12, m21, m22)
        if n % 2:
            m11, m12 = np.concatenate([m11, t11], -1), np.concatenate([m12, t12], -1)
            m21, m22 = np.concatenate([m21, t21], -1), np.concatenate([m22, t22], -1)
    out = np.empty(batch + (2, 2), dtype=a.dtype)
    out[..., 0, 0], out[..., 0, 1] = m11[..., 0].reshape(batch), m12[..., 0].reshape(batch)
    out[..., 1, 0], out[..., 1, 1] = m21[..., 0].reshape(batch), m22[..., 0].reshape(batch)
    return out


def translate_matrix(m: TransferMatrix, a: float) -> TransferMatrix:
    """Matrix of the potential translated right by a: T(a)^{-1} M T(a).

    M11, M22 unchanged; M12 -> e^{-2ika} M12; M21 -> e^{2ika} M21.
    """
    return TransferMatrix(translate_stack(m.m, m.k, a), m.k)


def translate_stack(m: np.ndarray, k, a: float) -> np.ndarray:
    """``translate_matrix`` on a stack (..., 2, 2) with wavenumbers k of shape (...)."""
    ph = np.exp(2j * np.asarray(k) * a)
    out = np.array(m, dtype=complex)
    out[..., 0, 1] /= ph
    out[..., 1, 0] *= ph
    return out


def time_reverse_matrix(m: TransferMatrix) -> TransferMatrix:
    """Matrix of the conjugated potential: sigma1 M* sigma1 (entrywise swap + conj)."""
    return TransferMatrix(time_reverse_stack(m.m), m.k)


def time_reverse_stack(m: np.ndarray) -> np.ndarray:
    """``time_reverse_matrix`` on a stack (..., 2, 2)."""
    return np.conj(np.asarray(m)[..., ::-1, ::-1])


FLAG_NAMES = (   # the Classification flags, in output order
    "spectral_singularity", "time_reversed_ss", "self_dual", "left_reflectionless",
    "right_reflectionless", "left_invisible", "right_invisible",
)


@dataclass(frozen=True)
class Classification:
    """Real-k zero structure of the transfer-matrix entries.

    spectral_singularity:  M22 = 0  (lasing threshold; amplitudes diverge)
    time_reversed_ss:      M11 = 0  (coherent perfect absorption); the required
                           two-sided incident amplitude ratio B_+/A_- is M21
    self_dual:             both diagonal entries vanish (laser-antilaser point)
    left/right_reflectionless: M21 = 0 / M12 = 0
    left/right_invisible:  reflectionless with T = 1 as well
    """

    spectral_singularity: bool
    time_reversed_ss: bool
    self_dual: bool
    left_reflectionless: bool
    right_reflectionless: bool
    left_invisible: bool
    right_invisible: bool
    cpa_ratio: complex | None
    zero_tol: float

    def flags(self) -> tuple[str, ...]:
        return tuple(n for n in FLAG_NAMES if getattr(self, n))

    def to_dict(self) -> dict:
        d = {n: bool(getattr(self, n)) for n in FLAG_NAMES}
        d["cpa_ratio"] = (
            None if self.cpa_ratio is None else [self.cpa_ratio.real, self.cpa_ratio.imag]
        )
        return d


def classify(m: TransferMatrix, zero_tol: float = DEFAULT_ZERO_TOL) -> Classification:
    flags = dict(zip(FLAG_NAMES, flag_stack(m.m, zero_tol).tolist()))
    cpa_ratio = m.m21 if flags["time_reversed_ss"] else None
    return Classification(**flags, cpa_ratio=cpa_ratio, zero_tol=zero_tol)


def flag_stack(m: np.ndarray, zero_tol: float = DEFAULT_ZERO_TOL) -> np.ndarray:
    """The ``Classification`` flags of a stack (..., 2, 2), shape
    (..., len(FLAG_NAMES)) in FLAG_NAMES order: an entry is zero where its
    modulus is below zero_tol * ||M||, and invisibility needs T = 1/M22 within
    zero_tol as well.  A NaN matrix raises no flag."""
    m = np.asarray(m, dtype=complex)
    thresh = zero_tol * np.maximum(np.linalg.norm(m, axis=(-2, -1)), 1e-300)
    ss, trss, left_rl, right_rl = (
        np.abs(m[..., i, j]) < thresh for i, j in ((1, 1), (0, 0), (1, 0), (0, 1))
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        t = 1.0 / m[..., 1, 1]
        unit_t = ~ss & (np.abs(t - 1.0) < zero_tol * np.maximum(1.0, np.abs(t)))
    return np.stack(
        [ss, trss, ss & trss, left_rl, right_rl, left_rl & unit_t, right_rl & unit_t], axis=-1
    )
