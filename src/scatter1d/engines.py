"""Numerical transfer-matrix engines.

Three independent routes to the same scattering data:

* ``transfer_matrix_dynamical`` treats the transfer matrix as the propagator
  of an effective two-level system, i d/dx M_x = H(x) M_x, and advances it by
  piecewise-constant slicing with the exact per-slice barrier propagator;
  delta terms are spliced in exactly.  The midpoint slice product is
  symmetric, so its error is even in the slice width and one Richardson step
  (4 M_2n - M_n)/3 makes it 4th order.  The error is estimated from
  successive Richardson values, and sampled data are sliced on whole
  interpolation cells, so no slice straddles a kink and no two slice counts
  can agree by aliasing.
* ``scattering_solution``/``ls_amplitudes`` integrate the stationary wave
  equation psi'' = (v - k^2) psi with outgoing boundary data and read the
  amplitudes from the asymptotics and from the reflection/transmission
  quadratures accumulated along the solve.
* ``s_curve_solve`` integrates the second-order equation for S(z) on the
  unit-circle arc z = e^{-2ikx}, parameterized by x so that multi-winding
  curves stay single-valued, with the left-reflection contour integral
  accumulated by the same stepper.

Both ODE routes keep their own equations and read-outs but step through one
driver, ``_integrate_pieces``: DOP853 from each cut to the next, with a hook
at every cut for delta jumps and per-piece bookkeeping.  The cuts include
every interpolation node: adaptive error control underestimates the error of
a step that strides a kink of sampled data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .exact import barrier_slice_matrices, delta_matrix
from .potentials import Potential
from .transfer import (
    IDENTITY,
    KMAT,
    SIGMA3,
    ScatteringData,
    TransferMatrix,
    chain_product,
)

__all__ = [
    "EffectiveHamiltonian",
    "WaveSolution",
    "LsResult",
    "SCurveTrace",
    "transfer_matrix_dynamical",
    "scattering_solution",
    "ls_amplitudes",
    "s_curve_solve",
    "ToleranceNotReached",
    "InconsistentTransmission",
    "SCurvePoleError",
]


class ToleranceNotReached(RuntimeError):
    """The dynamical engine cannot vouch for its tolerance.

    Raised when slice refinement hits the cap before two successive
    Richardson values agree within tol.
    """


class InconsistentTransmission(RuntimeError):
    """The two transmission quadratures disagree beyond tolerance."""


class SCurvePoleError(RuntimeError):
    """S or S' passed within tolerance of zero on the integration contour."""


@dataclass(frozen=True)
class EffectiveHamiltonian:
    """Generator of the dynamical formulation for a given potential and k.

    Interaction picture: H(x) = (v(x)/2k) e^{-ikx sigma3} K e^{ikx sigma3},
    traceless and nilpotent-valued (K^2 = 0); Schroedinger picture:
    H_s(x) = (v(x)/2k) K - k sigma3 with free part H0 = -k sigma3.
    """

    potential: Potential
    k: float

    def interaction(self, x: float) -> np.ndarray:
        v = self.potential.evaluate(x)
        ph = np.exp(2j * self.k * x)
        w = v / (2 * self.k)
        return np.array([[w, w / ph], [-w * ph, -w]], dtype=complex)

    def schroedinger(self, x: float) -> np.ndarray:
        v = self.potential.evaluate(x)
        return (v / (2 * self.k)) * KMAT - self.k * SIGMA3

    def free(self) -> np.ndarray:
        return -self.k * SIGMA3


# ---------------------------------------------------------------------------
# Segmentation shared by the engines
# ---------------------------------------------------------------------------


def _segments(p: Potential) -> tuple[list[tuple[float, float]], list]:
    """Smooth spans (between support edges/breakpoints/deltas) and sorted deltas."""
    a, b = p.support()
    deltas = sorted(p.delta_terms(), key=lambda t: t.location)
    cuts = {a, b}
    cuts.update(x for x in p.internal_boundaries() if a <= x <= b)
    cuts.update(t.location for t in deltas)
    edges = sorted(cuts)
    scale = max(abs(a), abs(b), 1.0)
    spans = [
        (lo, hi) for lo, hi in zip(edges[:-1], edges[1:]) if hi - lo > 1e-14 * scale
    ]
    return spans, deltas


def _span_is_active(p: Potential, lo: float, hi: float) -> bool:
    probe = np.linspace(lo, hi, 9)[1:-1]
    return bool(np.any(p.evaluate(probe) != 0))


# ---------------------------------------------------------------------------
# Dynamical engine
# ---------------------------------------------------------------------------


def transfer_matrix_dynamical(
    p: Potential, k: float, tol: float = 1e-8, max_slices: int = 2**20
) -> TransferMatrix:
    """Transfer matrix by piecewise-constant slicing with Richardson extrapolation.

    Each slice is advanced with the exact barrier propagator evaluated at the
    midpoint value of v.  Per smooth span the slice count doubles, each
    product M_n is extrapolated to R_n = (4 M_2n - M_n)/3, and the span is
    accepted once two successive Richardson values agree within tol (shared
    out over the spans); the later, more accurate value is returned.  A
    span on which v is constant is one exact barrier.  Sampled data are
    sliced on whole interpolation cells (every node inside a span is a slice
    edge), since a kink inside a slice breaks the even error expansion that
    Richardson relies on.  Delta terms are spliced in via their exact
    matrices.  det M = 1 holds to within tol, not exactly.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    spans, deltas = _segments(p)
    active = [(lo, hi) for lo, hi in spans if _span_is_active(p, lo, hi)]
    total_len = sum(hi - lo for lo, hi in active)
    n_pieces = len(active) + len(deltas)
    if n_pieces == 0:
        return TransferMatrix(IDENTITY, k)
    nodes = p.interpolation_nodes()
    seg_tol = tol / max(1, len(active))
    n_start_total = max(64, math.ceil(8 * k * total_len / math.pi)) if total_len else 0

    pieces: list[tuple[float, np.ndarray]] = []
    for z, a in deltas:
        pieces.append((a, delta_matrix(z, a, k).m))
    for lo, hi in active:
        share = max(16, math.ceil(n_start_total * (hi - lo) / total_len))
        cells = _cuts([lo, hi], nodes)
        pieces.append((lo, _refine_span(p, cells, k, seg_tol, share, max_slices)))
    pieces.sort(key=lambda item: item[0])
    stack = np.stack([m for _, m in pieces])
    return TransferMatrix(chain_product(stack), k)


def _cuts(edges, nodes: np.ndarray) -> np.ndarray:
    """The edges, sorted and unique, plus the interpolation nodes strictly
    between edges[0] and edges[-1], which must be the outermost two.

    Every engine cuts here, so no slice and no ODE step straddles a kink.
    """
    lo, hi = edges[0], edges[-1]
    gap = 1e-14 * max(abs(lo), abs(hi), 1.0)
    return np.union1d(edges, nodes[(nodes > lo + gap) & (nodes < hi - gap)])


def _integrate_pieces(rhs, cuts, y0, tol: float, at_cut) -> tuple[np.ndarray, np.ndarray]:
    """Integrate y' = rhs(x, y) with DOP853 from each cut to the next.

    ``at_cut(x, y)`` returns the state to continue from at every cut, the
    first and the last included (the value at the first cut is y0).  Returns
    the concatenated steps (x, Y) of all pieces, Y of shape (len(y0), n);
    empty when there is a single cut.
    """
    y = at_cut(cuts[0], np.asarray(y0))
    xs, ys = [np.empty(0)], [np.empty((len(y0), 0))]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        sol = solve_ivp(rhs, (lo, hi), y, method="DOP853", rtol=tol, atol=tol * 1e-3)
        if not sol.success:
            raise RuntimeError(f"integration failed: {sol.message}")
        xs.append(sol.t)
        ys.append(sol.y)
        y = at_cut(hi, sol.y[:, -1])
    return np.concatenate(xs), np.concatenate(ys, axis=1)


def _slices(cells: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Left and right edges of m equal slices in every cell."""
    left = (cells[:-1, None] + np.diff(cells)[:, None] * (np.arange(m) / m)).ravel()
    return left, np.append(left[1:], cells[-1])


def _refine_span(
    p: Potential, cells: np.ndarray, k: float, tol: float, n_start: int, cap: int
) -> np.ndarray:
    lo, hi = float(cells[0]), float(cells[-1])
    n_cells = cells.size - 1
    m = -(-n_start // n_cells)
    prev_prod = prev_rich = None
    while n_cells * m <= cap:
        left, right = _slices(cells, m)
        v = p.evaluate(0.5 * (left + right))
        if prev_prod is None and np.all(v == v[0]):
            # flat at the midpoints of two levels: one exact barrier covers the span
            l2, r2 = _slices(cells, 2 * m)
            if np.all(p.evaluate(0.5 * (l2 + r2)) == v[0]):
                return barrier_slice_matrices(v[:1], [lo], [hi], k)[0]
        prod = chain_product(barrier_slice_matrices(v, left, right, k))
        if prev_prod is not None:
            rich = (4 * prod - prev_prod) / 3
            scale = max(1.0, float(np.linalg.norm(rich)))
            if prev_rich is not None and np.abs(rich - prev_rich).max() <= tol * scale:
                return rich
            prev_rich = rich
        prev_prod = prod
        m *= 2
    raise ToleranceNotReached(
        f"slice refinement on [{lo}, {hi}] ({n_cells} cells) did not reach "
        f"tol={tol:g} within {cap} slices"
    )


# ---------------------------------------------------------------------------
# Stationary wave-equation engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class WaveSolution:
    """psi and psi' along the support plus asymptotic plane-wave coefficients.

    ``quad_minus``/``quad_plus`` hold integral e^{-+iky} v(y) psi(y) dy over the
    support (delta contributions included), used by the Lippmann-Schwinger
    amplitude formulas.
    """

    k: float
    side: str
    x: np.ndarray
    psi: np.ndarray
    dpsi: np.ndarray
    a_minus: complex
    b_minus: complex
    a_plus: complex
    b_plus: complex
    r: complex
    t: complex
    quad_minus: complex
    quad_plus: complex


def _schrodinger_rhs(p: Potential, k: float):
    def rhs(x, y):
        psi = y[0] + 1j * y[1]
        dpsi = y[2] + 1j * y[3]
        v = p.evaluate(x)
        dd = (v - k * k) * psi
        w = v * psi
        qm = np.exp(-1j * k * x) * w
        qp = np.exp(1j * k * x) * w
        return [dpsi.real, dpsi.imag, dd.real, dd.imag, qm.real, qm.imag, qp.real, qp.imag]

    return rhs


def scattering_solution(
    p: Potential, k: float, side: str = "left", tol: float = 1e-10
) -> WaveSolution:
    """Integrate psi'' = (v - k^2) psi from the transmission side inward.

    side='left': left-incident wave; starts at the right edge with the
    outgoing unit-amplitude wave e^{ikx} and integrates to the left edge.
    Delta terms impose the derivative jump psi'(a+) = psi'(a-) + z psi(a).
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    a, b = p.support()
    spans, deltas = _segments(p)

    # merged delta strengths by location (a Sum may stack terms at one point)
    delta_at: dict[float, complex] = {}
    for t in deltas:
        delta_at[t.location] = delta_at.get(t.location, 0.0) + t.strength

    edges = [a, *(lo for lo, _ in spans), *(hi for _, hi in spans), *delta_at, b]
    checkpoints = _cuts(edges, p.interpolation_nodes()).tolist()
    backward = side == "left"
    if backward:
        checkpoints = checkpoints[::-1]
        psi = np.exp(1j * k * b)
        dpsi = 1j * k * psi
    else:
        psi = np.exp(-1j * k * a)
        dpsi = -1j * k * psi

    quad_smooth = np.zeros(2, dtype=complex)  # (int e^{-iky} v psi, int e^{+iky} v psi)
    quad_delta = np.zeros(2, dtype=complex)

    def at_cut(x: float, y: np.ndarray) -> list:
        # collect the piece's quadratures, splice a delta, restart them at zero
        nonlocal psi, dpsi, quad_smooth
        psi = y[0] + 1j * y[1]
        dpsi = y[2] + 1j * y[3]
        quad_smooth += np.array([y[4] + 1j * y[5], y[6] + 1j * y[7]])
        z = delta_at.get(x)
        if z is not None:
            quad_delta[0] += np.exp(-1j * k * x) * z * psi
            quad_delta[1] += np.exp(1j * k * x) * z * psi
            dpsi = dpsi - z * psi if backward else dpsi + z * psi
        return [psi.real, psi.imag, dpsi.real, dpsi.imag, 0.0, 0.0, 0.0, 0.0]

    y0 = [psi.real, psi.imag, dpsi.real, dpsi.imag, 0.0, 0.0, 0.0, 0.0]
    x_all, y_all = _integrate_pieces(_schrodinger_rhs(p, k), checkpoints, y0, tol, at_cut)

    if backward:
        quad_smooth = -quad_smooth  # traversal accumulated int_b^a
    quad = quad_smooth + quad_delta

    # at a spectral singularity the denominators vanish; keep the coefficients
    # finite and let r, t go to inf rather than raising
    with np.errstate(divide="ignore", invalid="ignore"):
        if backward:
            a_m = 0.5 * np.exp(-1j * k * a) * (psi + dpsi / (1j * k))
            b_m = 0.5 * np.exp(1j * k * a) * (psi - dpsi / (1j * k))
            coeffs = dict(a_minus=a_m, b_minus=b_m, a_plus=1.0 + 0j, b_plus=0.0 + 0j)
            r, t_amp = b_m / a_m, 1.0 / a_m
        else:
            a_p = 0.5 * np.exp(-1j * k * b) * (psi + dpsi / (1j * k))
            b_p = 0.5 * np.exp(1j * k * b) * (psi - dpsi / (1j * k))
            coeffs = dict(a_minus=0.0 + 0j, b_minus=1.0 + 0j, a_plus=a_p, b_plus=b_p)
            r, t_amp = a_p / b_p, 1.0 / b_p

    if x_all.size:
        order = np.argsort(x_all)
        x_all = x_all[order]
        psi_all = (y_all[0] + 1j * y_all[1])[order]
        dpsi_all = (y_all[2] + 1j * y_all[3])[order]
    else:
        x_all = np.array([a if backward else b])
        psi_all = np.array([psi])
        dpsi_all = np.array([dpsi])

    return WaveSolution(
        k=k,
        side=side,
        x=x_all,
        psi=psi_all,
        dpsi=dpsi_all,
        r=complex(r),
        t=complex(t_amp),
        quad_minus=complex(quad[0]),
        quad_plus=complex(quad[1]),
        **{key: complex(val) for key, val in coeffs.items()},
    )


@dataclass(frozen=True)
class LsResult:
    """Amplitudes from the Lippmann-Schwinger quadratures, with both T routes."""

    data: ScatteringData
    t_from_left: complex
    t_from_right: complex


def ls_amplitudes(p: Potential, k: float, tol: float = 1e-10) -> LsResult:
    """R^{l,r} and T from integral e^{-+iky} v(y) psihat(y) dy / 2ik.

    Runs both one-sided solves; the two independent transmission evaluations
    must agree within 10*tol.
    """
    left = scattering_solution(p, k, "left", tol)
    right = scattering_solution(p, k, "right", tol)
    two_ik = 2j * k
    # normalize by the incident amplitudes (unit transmitted convention inside)
    r_l = left.quad_plus / (two_ik * left.a_minus)
    t_l = 1.0 + left.quad_minus / (two_ik * left.a_minus)
    r_r = right.quad_minus / (two_ik * right.b_plus)
    t_r = 1.0 + right.quad_plus / (two_ik * right.b_plus)
    if abs(t_l - t_r) > 10 * tol * max(1.0, abs(t_l)):
        raise InconsistentTransmission(
            f"T from left {t_l} vs right {t_r}: |diff| = {abs(t_l - t_r):.3e}"
        )
    return LsResult(ScatteringData(r_l, r_r, t_l, k), complex(t_l), complex(t_r))


# ---------------------------------------------------------------------------
# S-curve engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SCurveTrace:
    """S and S' sampled along the parameterized curve z = e^{-2ikx}."""

    x: np.ndarray
    z: np.ndarray
    s: np.ndarray         # S(z(x))
    s_prime: np.ndarray   # dS/dz along the curve
    winding: float        # k (a_+ - a_-) / pi
    min_abs_s: float
    min_abs_s_prime: float


def s_curve_solve(
    p: Potential, k: float, tol: float = 1e-10, pole_tol: float = 1e-8
) -> tuple[ScatteringData, SCurveTrace]:
    """Amplitudes from the unit-circle initial-value problem.

    In the x chart (z = e^{-2ikx}, s(x) = S(z)) the curve equation
    z^2 S'' + (v/4k^2) S = 0 becomes s'' + 2ik s' - v s = 0 with
    s(a_-) = z_-, s'(a_-) = -2ik z_-; this stays single-valued for any
    winding number (k L >= pi), which is why the parameterization is by x.
    Endpoint values give T = -2ik z_+/s'(a_+) and R^r = T s(a_+) - z_+;
    the left reflection is the simultaneously accumulated quadrature
    R^l = integral 2ik z v / s'^2 dx (the contour integral of
    -S''/(S S'^2) dz in the z chart).
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if p.delta_terms():
        raise ValueError("delta terms are not supported by the S-curve method")
    a, b = p.support()
    if p.is_trivial():
        trace = SCurveTrace(
            x=np.array([a, b]),
            z=np.exp(-2j * k * np.array([a, b])),
            s=np.exp(-2j * k * np.array([a, b])),
            s_prime=np.ones(2, dtype=complex),
            winding=k * (b - a) / np.pi,
            min_abs_s=1.0,
            min_abs_s_prime=1.0,
        )
        return ScatteringData(0.0, 0.0, 1.0, k), trace

    def rhs(x, y):
        s = y[0] + 1j * y[1]
        sp = y[2] + 1j * y[3]
        v = p.evaluate(x)
        spp = v * s - 2j * k * sp
        dr = 2j * k * np.exp(-2j * k * x) * v / (sp * sp)
        return [sp.real, sp.imag, spp.real, spp.imag, dr.real, dr.imag]

    z_minus = np.exp(-2j * k * a)
    y0 = [z_minus.real, z_minus.imag, (-2j * k * z_minus).real, (-2j * k * z_minus).imag, 0.0, 0.0]
    edges = [a, *(x for x in p.internal_boundaries() if a < x < b), b]
    cuts = _cuts(edges, p.interpolation_nodes()).tolist()
    x_all, y_all = _integrate_pieces(rhs, cuts, y0, tol, lambda x, y: y)
    s_end, sp_end, r_left = (y_all[j, -1] + 1j * y_all[j + 1, -1] for j in (0, 2, 4))
    s_all = y_all[0] + 1j * y_all[1]
    sp_all = y_all[2] + 1j * y_all[3]
    z_all = np.exp(-2j * k * x_all)
    s_prime_z = sp_all / (-2j * k * z_all)
    min_s = float(np.abs(s_all).min())
    min_sp = float(np.abs(s_prime_z).min())
    scale_s = float(np.abs(s_all).max())
    scale_sp = float(np.abs(s_prime_z).max())
    if min_s < pole_tol * scale_s or min_sp < pole_tol * scale_sp:
        which = "S" if min_s < pole_tol * scale_s else "S'"
        raise SCurvePoleError(
            f"{which} passed within {pole_tol:g} (relative) of zero on the contour; "
            "the left-reflection integrand has a pole there - fall back to the "
            "dynamical engine"
        )

    z_plus = np.exp(-2j * k * b)
    t = -2j * k * z_plus / sp_end
    r_right = t * s_end - z_plus
    trace = SCurveTrace(
        x=x_all,
        z=z_all,
        s=s_all,
        s_prime=s_prime_z,
        winding=k * (b - a) / np.pi,
        min_abs_s=min_s,
        min_abs_s_prime=min_sp,
    )
    return ScatteringData(r_left, r_right, t, k), trace
