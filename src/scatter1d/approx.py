"""Born and Dyson-truncation approximations, and Born-level inverse scattering.

The order-N truncation of the time-ordered-exponential series for the
transfer matrix gives, at N = 1,

    M^(1) = I - (i/2k) [[v~(0), v~(2k)], [-v~(-2k), -v~(0)]],

and at N = 2 the additional ordered double transforms
v~(k1, k2) = integral over x1 < x2 of e^{-i(k1 x1 + k2 x2)} v(x1) v(x2):

    M11 += [v~(-2k,2k) - v~(0,0)]/4k^2,   M12 -= [v~(2k,0) - v~(0,2k)]/4k^2,
    M21 -= [v~(-2k,0) - v~(0,-2k)]/4k^2,  M22 += [v~(2k,-2k) - v~(0,0)]/4k^2.

Amplitudes are always read off the truncated matrix through the exact
dictionary (R_l, R_r, T) = (-M21/M22, M12/M22, 1/M22); this reproduces the
exact amplitudes of any double-delta comb at order 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .potentials import Potential, Sampled
from .transfer import (
    ScatteringData,
    SpectralSingularityError,
    TransferMatrix,
    _check_positive_finite,
    amplitudes_from_matrix,
)

__all__ = [
    "ApproxReport",
    "born_first",
    "dyson_order1",
    "dyson_order2",
    "born_inverse",
    "exp_grating_reference",
    "DysonSingularError",
    "GridTooCoarseError",
]


class DysonSingularError(ArithmeticError):
    """The truncated matrix has (near-)zero M22; amplitudes undefined."""


class GridTooCoarseError(ValueError):
    """Born-inverse derivative estimate is noise-dominated on this grid."""


@dataclass(frozen=True)
class ApproxReport:
    """A truncated-series estimate: matrix plus derived amplitudes.

    The truncated matrix is not exactly unimodular; det_residual records by
    how much (it is O((||v||_1/k)^2) at order 1).
    """

    order: int
    method: str
    matrix: TransferMatrix
    data: ScatteringData

    @property
    def det_residual(self) -> float:
        return self.matrix.det_residual()


def born_first(p: Potential, k: float, tol: float = 1e-10) -> ScatteringData:
    """First Born approximation:

    R_l = v~(-2k)/2ik,  R_r = v~(2k)/2ik,  T = 1 + v~(0)/2ik.
    """
    _check_positive_finite(k, "k")
    _check_positive_finite(tol, "tol")
    two_ik = 2j * k
    return ScatteringData(
        p.fourier(-2 * k, tol) / two_ik,
        p.fourier(2 * k, tol) / two_ik,
        1.0 + p.fourier(0.0, tol) / two_ik,
        k,
    )


def dyson_order1(p: Potential, k: float, tol: float = 1e-10) -> ApproxReport:
    """First-order truncation M^(1); exact for a single delta term."""
    return _dyson(p, k, tol, 1)


def dyson_order2(p: Potential, k: float, tol: float = 1e-10) -> ApproxReport:
    """Second-order truncation M^(2); exact for double-delta combs."""
    return _dyson(p, k, tol, 2)


def _dyson(p: Potential, k: float, tol: float, order: int) -> ApproxReport:
    """The order-1 or order-2 truncation of the module docstring, its
    amplitudes read through the exact dictionary."""
    _check_positive_finite(k, "k")
    _check_positive_finite(tol, "tol")
    v0, vp, vm = (p.fourier(kappa, tol) for kappa in (0.0, 2 * k, -2 * k))
    c = -1j / (2 * k)
    m = [[1.0 + c * v0, c * vp], [-c * vm, 1.0 - c * v0]]
    if order == 2:
        d00, dmp, dpm, dp0, d0p, dm0, d0m = (
            p.double_fourier(k1, k2, tol) for k1, k2 in (
                (0.0, 0.0), (-2 * k, 2 * k), (2 * k, -2 * k), (2 * k, 0.0), (0.0, 2 * k),
                (-2 * k, 0.0), (0.0, -2 * k)))
        q = 1.0 / (4 * k * k)
        m[0][0] += q * (dmp - d00)
        m[0][1] -= q * (dp0 - d0p)
        m[1][0] -= q * (dm0 - d0m)
        m[1][1] += q * (dpm - d00)
    matrix = TransferMatrix(m, k)
    try:
        data = amplitudes_from_matrix(matrix)
    except SpectralSingularityError as exc:
        raise DysonSingularError(f"truncated {exc}") from exc
    return ApproxReport(order, "dyson", matrix, data)


def born_inverse(
    k_samples,
    r_samples,
    side: str = "right",
    window: float | None = None,
    npoints: int = 4096,
) -> Sampled:
    """Recover v from first-Born reflection data sampled on a two-sided k grid.

    v(x) ~ 2 d/dx F^{-1}_{2x}{R_r(k)}  (right data), or
    v(x) ~ -2 d/dx F^{-1}_{-2x}{R_l(k)}  (left data),

    with F^{-1}_x{g} = (1/2pi) integral e^{ikx} g(k) dk evaluated by the
    trapezoid rule over the sampled band and differentiated by centered
    differences on the output grid.  Callers must supply data for both signs
    of k (no analytic continuation is attempted here).  v is returned on
    npoints points spanning ``window`` (8/k_max by default), centred on x = 0.
    """
    k_arr = np.asarray(k_samples, dtype=float)
    r_arr = np.asarray(r_samples, dtype=complex)
    if k_arr.ndim != 1 or k_arr.shape != r_arr.shape or k_arr.size < 8:
        raise ValueError("need matching 1D sample arrays with at least 8 points")
    if np.any(np.diff(k_arr) <= 0):
        raise ValueError("k samples must be strictly increasing")
    if k_arr[0] >= 0 or k_arr[-1] <= 0:
        raise ValueError("samples must cover both signs of k")
    spacing = np.diff(k_arr).mean()
    if abs(k_arr[0] + k_arr[-1]) > 2 * spacing:
        raise ValueError("sample grid should be (approximately) symmetric about 0")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")

    k_max = float(k_arr[-1])
    width = 8.0 / k_max if window is None else float(window)
    x = np.linspace(-width / 2, width / 2, npoints)
    sign = 1.0 if side == "right" else -1.0
    # g(x) = (1/2pi) sum w_j e^{2 i sign k_j x} R(k_j)
    weights = np.empty_like(k_arr)
    weights[1:-1] = 0.5 * (k_arr[2:] - k_arr[:-2])
    weights[0] = 0.5 * (k_arr[1] - k_arr[0])
    weights[-1] = 0.5 * (k_arr[-1] - k_arr[-2])
    phases = np.exp(2j * sign * np.outer(x, k_arr))
    g = phases @ (weights * r_arr) / (2 * np.pi)

    def centered(values: np.ndarray, stride: int) -> np.ndarray:
        h = (x[1] - x[0]) * stride
        out = np.zeros_like(values)
        out[stride:-stride] = (values[2 * stride:] - values[:-2 * stride]) / (2 * h)
        return out

    d1 = centered(g, 1)
    d2 = centered(g, 2)
    scale = np.abs(d1).max()
    if scale > 0 and np.abs(d1 - d2).max() > 0.25 * scale:
        raise GridTooCoarseError(
            "derivative estimates at h and 2h disagree strongly; refine the k grid "
            "or enlarge npoints"
        )
    v = 2.0 * sign * d1
    return Sampled(float(x[0]), float(x[1] - x[0]), v)


def exp_grating_reference(
    strength: complex, harmonic: int, length: float, m: int
) -> ScatteringData:
    """Closed-form second-order prediction for the single-harmonic grating
    v = z e^{2 pi i n x / L} at the probe wavenumber k = m pi / L.

    With zhat = z L^2 / (2 pi n), through O(zhat^2):

        R_left  = 0                          (suppressed side for n > 0)
        R_right = -(i n / m) [ delta_{mn} zhat
                               + (1/(pi m)) (delta_{m,2n} - delta_{mn}) zhat^2 ]
        T       = 1 + i zhat^2 n^2 delta_{mn} / (2 pi m^2 (m + n))

    Away from m in {n, 2n} every entry is invisible at this order.
    """
    n = int(harmonic)
    m = int(m)
    if n < 1 or m < 1:
        raise ValueError("harmonic and probe index must be positive integers")
    if length <= 0:
        raise ValueError("length must be positive")
    z = complex(strength)
    zhat = z * length**2 / (2 * np.pi * n)
    k = m * np.pi / length
    d_mn = 1.0 if m == n else 0.0
    d_m2n = 1.0 if m == 2 * n else 0.0
    r_right = -(1j * n / m) * (d_mn * zhat + (d_m2n - d_mn) * zhat**2 / (np.pi * m))
    t = 1.0 + 1j * zhat**2 * n**2 * d_mn / (2 * np.pi * m**2 * (m + n))
    return ScatteringData(0.0, r_right, t, k)
