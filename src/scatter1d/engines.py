"""Numerical transfer-matrix engines.

Three independent routes to the same scattering data:

* ``transfer_matrix_dynamical`` treats the transfer matrix as the propagator
  of an effective two-level system, i d/dx M_x = H(x) M_x, and advances it by
  fourth-order Magnus slices: v at the two Gauss points of each slice, the
  exact barrier propagator of their mean plus the one sigma1 commutator term
  of their difference, at the cost of a barrier; delta terms are spliced in
  exactly.  The slice product is symmetric, so its error is even in the
  slice width, and a Romberg table over the doubling levels eliminates the
  h^4, h^6, ... terms.  A leaf (the potential the engine is given) has one
  table per k over all its spans: each pass slices every span, evaluates v
  once and multiplies the leaf's whole stack, the first pass holds the
  first two levels, since a table needs two rows, and the leaf's tol is not
  shared out over its spans.  The error is estimated from the table's
  newest diagonal entry and its left neighbour, and sampled data are sliced
  on whole interpolation cells, so no slice straddles a kink and no two
  slice counts can agree by aliasing.  k is a batch axis: an array of k is
  solved in array passes that share the slicing and the values of v among
  the k at the same start count, each k keeping its own acceptance.
* ``scattering_solution``/``ls_amplitudes`` integrate the stationary wave
  equation psi'' = (v - k^2) psi with outgoing boundary data and read the
  amplitudes from the asymptotics and from the reflection/transmission
  quadratures accumulated along the solve.  ``transfer_matrix_wave`` reads
  all of M from one backward solve of the same equation for both outgoing
  columns, at an array of k in one pass: the scan's independent check of
  its zeros.  It holds its steps to tol/20, so that M, not each step, is
  within tol.
* ``s_curve_solve`` integrates the second-order equation for S(z) on the
  unit-circle arc z = e^{-2ikx}, parameterized by x so that multi-winding
  curves stay single-valued, with the left-reflection contour integral
  accumulated by the same stepper.

Every engine cuts p at the same points: ``potentials._edges`` (support ends,
internal boundaries, delta locations), which bound the dynamical engine's
spans, plus every interpolation node, added by ``_cuts``.  No slice or step
strides a kink: adaptive error control underestimates the error of a step
that does, and a kink inside a slice breaks the even error expansion that
the Romberg table relies on.  The slicing and the table (``potentials``) are
one rule, shared by the dynamical engine and the numeric transforms.

Both ODE routes keep their own equations and read-outs but step through one
driver, ``_integrate_pieces``: DOP853 from each cut to the next, with a hook
at every cut for delta jumps and per-piece bookkeeping.  The stepper takes
scipy's DOP853 steps exactly, with scipy's tableau and step control, but the
right-hand sides take v as an argument: v depends on x alone, so each step
attempt evaluates it once, at all of its stage abscissae.  The scalar
right-hand sides compute on Python scalars, since numpy's cost per call
would dominate on 8 floats, and round bit for bit as numpy's scalars do (the
S-curve quotient stays numpy's).  k is a batch axis of the driver: the state
is one equal part per k, v is shared by all of them, and the error norm and
the initial step take the worst of the parts' own norms, so every k keeps
its own tol and a part gone nan fails the batch; one part takes scipy's
steps exactly.  Only a batch of several k has a numpy right-hand side.

Every engine refuses a tol that is not positive and finite before it solves
anything.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np
from scipy.integrate import DOP853

from .exact import barrier_slice_matrices, delta_matrices
from .potentials import (SLICE_CAP, Potential, _cuts, _edges, _gauss_points, _level, _per_cell,
                         _romberg_row, _spans, _start)
from .transfer import (
    IDENTITY,
    ScatteringData,
    TransferMatrix,
    _check_positive_finite,
    _flat_k,
    _pair_products,
    _shaped_like_k,
    chain_product,
)

__all__ = [
    "WaveSolution",
    "LsResult",
    "SCurveTrace",
    "transfer_matrix_dynamical",
    "transfer_matrix_wave",
    "scattering_solution",
    "ls_amplitudes",
    "s_curve_solve",
    "ToleranceNotReached",
    "InconsistentTransmission",
    "SCurvePoleError",
]


class ToleranceNotReached(RuntimeError):
    """The dynamical engine cannot vouch for its tolerance.

    Raised when the next level of a leaf's slices would pass the cap
    (``max_slices`` over the whole leaf at one level) before the newest
    diagonal entry of the leaf's Romberg table agrees with its left
    neighbour within tol.  The message names the leaf.
    """


class InconsistentTransmission(RuntimeError):
    """The two transmission quadratures disagree beyond tolerance."""


class SCurvePoleError(RuntimeError):
    """S or S' passed within tolerance of zero on the integration contour."""


def _active(p: Potential, spans: list) -> list:
    """The spans on which v is nonzero, by one evaluation: each is probed at
    7 even points, at every interpolation node inside it and at the midpoint
    of every node cell, which decides a linear interpolant exactly."""
    if not spans:
        return []
    probes = [
        np.concatenate([np.linspace(c[0], c[-1], 9)[1:-1], c[1:-1], 0.5 * (c[:-1] + c[1:])])
        for c in spans
    ]
    starts = np.cumsum([0] + [q.size for q in probes[:-1]])
    hit = np.logical_or.reduceat(p.evaluate(np.concatenate(probes)) != 0, starts)
    return [cells for cells, h in zip(spans, hit) if h]


# ---------------------------------------------------------------------------
# Dynamical engine
# ---------------------------------------------------------------------------


def transfer_matrix_dynamical(
    p: Potential, k, tol: float = 1e-8, max_slices: int = SLICE_CAP
) -> TransferMatrix | np.ndarray:
    """Transfer matrix by fourth-order Magnus slicing with Romberg extrapolation.

    Each slice is advanced by ``barrier_slice_matrices`` with v at its two
    Gauss points: their mean is the slice height and their difference the
    tilt of the Magnus commutator term.  No Gauss point is ever a cut.  The
    leaf (all of p) has one Romberg table per k: every level doubles the
    slice count of every span, the leaf's product at that level enters the
    table, whose columns remove the h^4, h^6, ... error terms (weights 1/15,
    1/63, ...), and the leaf is accepted once the newest diagonal entry
    differs from its left neighbour by no more than tol, which is not shared
    out over the spans; that diagonal entry is returned.  A pass slices
    every span once and evaluates v once at all their Gauss points; the
    first pass holds the first two levels, since a table needs two rows.  A
    span on which v is constant at the Gauss points of both is one exact
    barrier.  Sampled data are sliced on whole interpolation cells (every
    node inside a span is a slice edge), since a kink inside a slice breaks
    the even error expansion the table relies on.  Delta terms are spliced
    in via their exact matrices.  det M = 1 holds to within tol, not
    exactly.  ``max_slices`` caps the leaf's slices at one level.

    k is a batch axis: a scalar k gives a TransferMatrix, an array of k the
    stack of matrices, shape k.shape + (2, 2).  Every k keeps its own start
    count and its own acceptance level, so each matrix is the one a batch of
    one would give.
    """
    ks = _flat_k(k)
    _check_positive_finite(tol, "tol")
    spans = _active(p, _spans(p))
    deltas = [(a, delta_matrices(z, a, ks)) for z, a in p.delta_terms()]
    if spans:
        out = np.empty(ks.shape + (2, 2), dtype=complex)
        n_start = _start(spans, ks)
        for start in np.unique(n_start):
            group = np.flatnonzero(n_start == start)
            out[group] = _refine_leaf(p, spans, _per_cell(spans, start),
                                      [(a, m[group]) for a, m in deltas], ks[group], tol, max_slices)
    elif deltas:
        deltas.sort(key=lambda item: item[0])
        out = chain_product(np.stack([m for _, m in deltas], axis=-3))
    else:
        out = np.broadcast_to(IDENTITY, ks.shape + (2, 2)).copy()
    return _shaped_like_k(out, k)


PASS_SLICES = 2**12   # slice matrices held by one pass over a batch of k


def _refine_leaf(
    p: Potential, spans: list, ms: list, deltas: list, k: np.ndarray, tol: float, cap: int
) -> np.ndarray:
    """Romberg-refined matrices (K, 2, 2) of a leaf for k that share their
    start counts (``ms`` slices per cell of each span at level 0): each pass
    slices every span once and evaluates v once for all the k, and a k
    leaves the batch once its table converges."""
    at = np.cumsum([0] + [(cells.size - 1) * m for cells, m in zip(spans, ms)])   # level 0 offsets
    lo, hi = float(spans[0][0]), float(spans[-1][-1])

    def capped() -> ToleranceNotReached:
        return ToleranceNotReached(
            f"slice refinement of the leaf on [{lo}, {hi}] ({len(spans)} spans) did not "
            f"reach tol={tol:g} within {cap} slices"
        )

    if at[-1] > cap:
        raise capped()
    left, right = (np.concatenate(edges) for edges in zip(_level(spans, ms, 0), _level(spans, ms, 1)))
    v = p.evaluate(_gauss_points(left, right)).reshape(-1, 2)
    pieces, keep = list(deltas), np.ones(len(spans), dtype=bool)
    for i, cells in enumerate(spans):
        first = v[at[i], 0]
        level1 = v[at[-1] + 2 * at[i]:at[-1] + 2 * at[i + 1]]
        if np.all(v[at[i]:at[i + 1]] == first) and np.all(level1 == first):
            # flat at the Gauss points of two levels: one exact barrier covers the span
            flat = barrier_slice_matrices(v[at[i]:at[i] + 1, 0], [cells[0]], [cells[-1]], k[:, None])
            pieces.append((cells[0], flat[:, 0]))
            keep[i] = False
        else:
            pieces.append((cells[0], None))
    pieces = [m for _, m in sorted(pieces, key=lambda item: item[0])]
    if not keep.any():
        return chain_product(np.stack(pieces, axis=-3))
    if not keep.all():
        counts = np.diff(at)
        sliced = np.concatenate([np.repeat(keep, counts), np.repeat(keep, 2 * counts)])
        left, right, v = left[sliced], right[sliced], v[sliced]
        spans = [cells for cells, kept in zip(spans, keep) if kept]
        ms = [m for m, kept in zip(ms, keep) if kept]
        at = np.cumsum(np.append(0, counts[keep]))
    if 2 * at[-1] > cap:
        raise capped()

    out = np.empty(k.shape + (2, 2), dtype=complex)
    todo = np.arange(k.size)
    row = []   # the previous row of the Romberg table, one stack per column
    levels = [0, 1]   # the levels of the pass
    while True:
        for entry in _leaf_products(pieces, at, levels, left, right, v, k, todo):
            new_row = _romberg_row(row, entry)
            if row:
                best = new_row[-1]
                scale = np.maximum(1.0, np.linalg.norm(best, axis=(-2, -1)))
                done = np.abs(best - new_row[-2]).max(axis=(-2, -1)) <= tol * scale
                out[todo[done]] = best[done]
                todo, new_row = todo[~done], [entry[~done] for entry in new_row]
                if not todo.size:
                    return out
            row = new_row
        levels = [levels[-1] + 1]
        if at[-1] << levels[0] > cap:
            raise capped()
        left, right = _level(spans, ms, levels[0])
        v = p.evaluate(_gauss_points(left, right)).reshape(-1, 2)


def _leaf_products(
    pieces: list, at: np.ndarray, levels: list, left: np.ndarray, right: np.ndarray,
    v: np.ndarray, k: np.ndarray, todo: np.ndarray,
) -> np.ndarray:
    """The leaf's products at the levels of one pass for k[todo], shape
    (len(levels), len(todo), 2, 2).

    The pass's slices (edges ``left``, ``right`` and v at their Gauss points)
    run level after level and span after span; ``at`` holds the spans'
    offsets at level 0.  ``pieces`` lists the leaf's delta and flat-span
    matrices in spatial order, None where a sliced span goes.  One
    ``barrier_slice_matrices`` call per chunk of k makes the slices of every
    level, and a chunk holds at most PASS_SLICES slice matrices.  A second
    level is first multiplied out in pairs, which stay within the spans; it
    then has the first level's layout, and one ``chain_product`` call takes
    both.
    """
    height, tilt = 0.5 * (v[:, 0] + v[:, 1]), v[:, 1] - v[:, 0]
    offsets = at << levels[0]
    per_pass = max(1, PASS_SLICES // height.size)
    out = []
    for c in range(0, todo.size, per_pass):
        rows = todo[c:c + per_pass]
        mats = barrier_slice_matrices(height, left, right, k[rows, None], tilt)
        if len(levels) == 2:
            both = np.empty((2, rows.size, offsets[-1], 2, 2), dtype=complex)
            both[0] = mats[:, :offsets[-1]]
            _pair_products(mats[:, offsets[-1]:], both[1])
            mats = both
        else:
            mats = mats[None]
        if any(m is not None for m in pieces):   # splice in the delta and flat-span matrices
            spans = iter(zip(offsets[:-1], offsets[1:]))
            mats = np.concatenate([
                mats[:, :, slice(*next(spans))] if m is None
                else np.broadcast_to(m[rows, None], mats.shape[:2] + (1, 2, 2))
                for m in pieces
            ], axis=2)
        out.append(chain_product(mats))
    return np.concatenate(out, axis=1)


# ---------------------------------------------------------------------------
# DOP853 driver shared by the two ODE engines
# ---------------------------------------------------------------------------


def _integrate_pieces(
    rhs, p: Potential, cuts, y0, tol: float, at_cut, groups: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate y' = rhs(x, y, v(x)) with DOP853 from each cut to the next.

    ``at_cut(x, y)`` returns the state to continue from at every cut, the
    first and the last included (the value at the first cut is y0).  Returns
    the concatenated steps (x, Y) of all pieces, Y of shape (len(y0), n);
    empty when there is a single cut.  The state is ``groups`` equal parts,
    one per k, each held to tol (see ``_dop853_steps``).
    """
    rtol, atol = max(tol, 100 * np.finfo(float).eps), tol * 1e-3   # scipy's rtol floor
    y = at_cut(cuts[0], np.asarray(y0))
    xs, ys = [], []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        y = np.asarray(y, dtype=float)
        if not np.isfinite(y).all():
            raise ValueError("All components of the initial state `y0` must be finite.")
        xs.append(lo)
        ys.append(y)
        for x, y in _dop853_steps(rhs, p, float(lo), float(hi), y, rtol, atol, groups):
            xs.append(x)
            ys.append(y)
        y = at_cut(hi, y)
    return np.array(xs, dtype=float), np.array(ys, dtype=float).reshape(-1, len(y0)).T


# scipy's DOP853: its tableau, and the constants of its step-size control
_A, _B, _C, _E3, _E5 = DOP853.A, DOP853.B, DOP853.C, DOP853.E3, DOP853.E5
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10
ERROR_EXPONENT = -1 / (DOP853.error_estimator_order + 1)
_C_STEP = np.append(_C[1:], 1.0)   # a step's stage abscissae over h, then its end
_A_ROWS = [a[:s] for s, a in enumerate(_A[1:], start=1)]   # the tableau row each stage uses


def _norms(a: np.ndarray, groups: int) -> np.ndarray:
    """The 2-norm of each of the ``groups`` equal parts of a flat state,
    each rounded as np.linalg.norm rounds it."""
    return np.sqrt([part.dot(part) for part in a.reshape(groups, -1)])


def _rms(a: np.ndarray, groups: int) -> np.ndarray:
    return _norms(a, groups) / (a.size // groups) ** 0.5


def _error_norm(h_abs, err5_2, err3_2, size: int):
    """scipy's DOP853 error norm of one part, from its squared 5th- and
    3rd-order error norms."""
    if err5_2 == 0 and err3_2 == 0:
        return 0.0
    return h_abs * err5_2 / np.sqrt((err5_2 + 0.01 * err3_2) * size)


def _dop853_steps(rhs, p: Potential, lo: float, hi: float, y: np.ndarray, rtol, atol,
                  groups: int = 1):
    """Yield the accepted steps (x, y) of scipy's DOP853 from lo to hi.

    Step for step what scipy's DOP853 solver takes at rtol, atol, but v
    depends on x alone, so each step attempt evaluates it once at all its
    stage abscissae instead of once per stage.  The flat state y is
    ``groups`` equal parts (one per k) that share x and v; a step is accepted
    by the largest of the parts' own error norms and the initial step is the
    smallest of their own choices, so one part takes scipy's steps exactly.
    np.max and np.min keep a nan of any part, so a part that goes non-finite
    fails the batch as it would fail alone.
    """
    def f(x, y, v):
        return np.asarray(rhs(x, y, v), dtype=float)

    direction = np.sign(hi - lo)
    t, f_t = lo, f(lo, y, p.evaluate(lo))
    # initial step (Hairer, Norsett & Wanner II.4), as scipy's select_initial_step
    length = abs(hi - lo)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale, groups), _rms(f_t / scale, groups)
    h0 = min(np.min([1e-6 if a < 1e-5 or b < 1e-5 else 0.01 * a / b for a, b in zip(d0, d1)]),
             length)
    x1 = lo + h0 * direction
    d2 = _rms((f(x1, y + h0 * direction * f_t, p.evaluate(x1)) - f_t) / scale, groups) / h0
    h1 = np.min([max(1e-6, h0 * 1e-3) if a <= 1e-15 and b <= 1e-15
                 else (0.01 / max(a, b)) ** -ERROR_EXPONENT for a, b in zip(d1, d2)])
    h_abs = min(100 * h0, h1, length)
    size = y.size // groups

    K = np.empty((len(_C) + 1, y.size))
    while direction * (t - hi) < 0:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise RuntimeError(
                    "integration failed: Required step size is less than spacing between numbers."
                )
            t_new = t + h_abs * direction
            if direction * (t_new - hi) > 0:
                t_new = hi
            h = t_new - t
            h_abs = np.abs(h)
            xs = t + _C_STEP * h
            vs = p.evaluate(xs).tolist()
            xs = xs.tolist()
            K[0] = f_t
            for s, (a, x, v) in enumerate(zip(_A_ROWS, xs, vs), start=1):
                K[s] = rhs(x, y + np.dot(K[:s].T, a) * h, v)
            y_new = y + h * np.dot(K[:-1].T, _B)
            K[-1] = f_new = rhs(xs[-1], y_new, vs[-1])

            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5 = _norms(np.dot(K.T, _E5) / scale, groups)
            err3 = _norms(np.dot(K.T, _E3) / scale, groups)
            error_norm = np.max([_error_norm(h_abs, a ** 2, b ** 2, size)
                                 for a, b in zip(err5, err3)])
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        t, y, f_t = t_new, y_new, f_new
        yield t, y


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


def _schrodinger_rhs(k: float):
    def rhs(x, y, v):
        y0, y1, y2, y3 = y[:4].tolist()
        psi = y0 + 1j * y1
        dpsi = y2 + 1j * y3
        dd = (v - k * k) * psi
        w = v * psi
        qm = cmath.exp(-1j * k * x) * w
        qp = cmath.exp(1j * k * x) * w
        return [dpsi.real, dpsi.imag, dd.real, dd.imag, qm.real, qm.imag, qp.real, qp.imag]

    return rhs


def _plane_waves(psi, dpsi, k, x) -> tuple:
    """(A, B) of psi = A e^{ikx} + B e^{-ikx}, psi' = ik (A e^{ikx} - B e^{-ikx})
    from psi and psi' at x: A = e^{-ikx}(psi + psi'/ik)/2, B = e^{ikx}(psi - psi'/ik)/2."""
    ik = 1j * k
    return 0.5 * np.exp(-1j * k * x) * (psi + dpsi / ik), 0.5 * np.exp(ik * x) * (psi - dpsi / ik)


def _delta_strengths(p: Potential) -> dict[float, complex]:
    """Delta strengths by location, merged (a Sum may stack terms at one point)."""
    delta_at: dict[float, complex] = {}
    for z, x in p.delta_terms():
        delta_at[x] = delta_at.get(x, 0.0) + z
    return delta_at


def scattering_solution(
    p: Potential, k: float, side: str = "left", tol: float = 1e-10
) -> WaveSolution:
    """Integrate psi'' = (v - k^2) psi from the transmission side inward.

    side='left': left-incident wave; starts at the right edge with the
    outgoing unit-amplitude wave e^{ikx} and integrates to the left edge.
    side='right' starts at the left edge with e^{-ikx} and integrates to the
    right edge.  Delta terms impose the derivative jump psi'(a+) = psi'(a-) +
    z psi(a).
    """
    _check_positive_finite(k, "k")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    _check_positive_finite(tol, "tol")
    a, b = p.support()
    delta_at = _delta_strengths(p)

    checkpoints = _cuts(_edges(p), p.interpolation_nodes()).tolist()
    backward = side == "left"
    if backward:
        checkpoints = checkpoints[::-1]
    start, end, ik = (b, a, 1j * k) if backward else (a, b, -1j * k)
    psi = np.exp(ik * start)   # the outgoing wave e^{+-ikx} and its derivative
    dpsi = ik * psi

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
    x_all, y_all = _integrate_pieces(_schrodinger_rhs(k), p, checkpoints, y0, tol, at_cut)

    if backward:
        quad_smooth = -quad_smooth  # traversal accumulated int_b^a
    quad = quad_smooth + quad_delta

    # at a spectral singularity the denominators vanish; keep the coefficients
    # finite and let r, t go to inf rather than raising
    with np.errstate(divide="ignore", invalid="ignore"):
        a_end, b_end = _plane_waves(psi, dpsi, k, end)
        # the incident and reflected amplitudes: (A_-, B_-) from the left, (B_+, A_+) from the right
        incident, reflected = (a_end, b_end) if backward else (b_end, a_end)
        r, t_amp = reflected / incident, 1.0 / incident
    if backward:
        coeffs = dict(a_minus=a_end, b_minus=b_end, a_plus=1.0 + 0j, b_plus=0.0 + 0j)
    else:
        coeffs = dict(a_minus=0.0 + 0j, b_minus=1.0 + 0j, a_plus=a_end, b_plus=b_end)

    if x_all.size:
        order = np.argsort(x_all)
        x_all = x_all[order]
        psi_all = (y_all[0] + 1j * y_all[1])[order]
        dpsi_all = (y_all[2] + 1j * y_all[3])[order]
    else:
        x_all = np.array([end])
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


def _fundamental_rhs(k: np.ndarray):
    """psi'' = (v - k^2) psi for two columns at every k: per k, the flat
    state holds psi, psi' of column 1, then of column 2, as complex pairs."""
    k2 = np.repeat(k * k, 2)   # one per psi of the state

    def rhs(x, y, v):
        z = y.view(complex)
        out = np.empty_like(z)
        out[0::2] = z[1::2]
        np.multiply(v - k2, z[0::2], out=out[1::2])
        return out.view(float)

    return rhs


def _fundamental_rhs_one(k: float):
    """``_fundamental_rhs`` at one k on Python scalars, as the other
    right-hand sides: numpy's cost per call would dominate on 8 floats."""
    k2 = k * k

    def rhs(x, y, v):
        psi1, dpsi1, psi2, dpsi2 = y.view(complex).tolist()
        dd1, dd2 = (v - k2) * psi1, (v - k2) * psi2
        return [dpsi1.real, dpsi1.imag, dd1.real, dd1.imag,
                dpsi2.real, dpsi2.imag, dd2.real, dd2.imag]

    return rhs


def transfer_matrix_wave(p: Potential, k, tol: float = 1e-10) -> TransferMatrix | np.ndarray:
    """All of M from one backward solve of psi'' = (v - k^2) psi.

    Integrates from b to a both outgoing columns, (A_+, B_+) = (1, 0) and
    (0, 1), on the ODE driver with no quadratures; a delta term imposes
    psi'(x-) = psi'(x+) - z psi(x).  Since (A_-, B_-) = M^-1 (A_+, B_+) and
    det M = 1, column 1 ends at (M22, -M21) and column 2 at (-M12, M11).  No
    slicing and no composition: an independent check of the other routes.

    k is a batch axis: a scalar k gives a TransferMatrix, an array of k the
    stack of matrices, shape k.shape + (2, 2), from one pass that evaluates v
    once per step attempt for all the k and holds each k to its own tol.

    tol bounds the error of M over the whole pass, tol max(1, ||M||), so each
    DOP853 step is held to tol/20 (rtol, and atol = rtol/1000): the steps'
    errors add up over the pass.  Over ``corpus()`` and ``smooth_corpus()``
    at k from 0.7 to 4 and tol 1e-8 and 1e-10, one k alone or four in a
    batch, the error of M grows as the step tol and reached 0.51 tol
    (``bilayer_w2`` at k = 0.7); steps held to tol itself reached 9.9 tol.
    """
    ks = _flat_k(k)
    _check_positive_finite(tol, "tol")
    a, b = p.support()
    delta_at = _delta_strengths(p)
    ik = 1j * ks[:, None]
    out_b = np.exp(ik * b), np.exp(-ik * b)
    end = np.stack([out_b[0], ik * out_b[0], out_b[1], -ik * out_b[1]], axis=-1)   # (k, 4) at b

    def at_cut(x: float, y: np.ndarray) -> np.ndarray:
        nonlocal end
        end = y.view(complex).reshape(-1, 2, 2)
        z = delta_at.get(x)
        if z is not None:
            end = end.copy()
            end[..., 1] -= z * end[..., 0]
        return end.reshape(-1).view(float)

    cuts = _cuts(_edges(p), p.interpolation_nodes()).tolist()[::-1]
    rhs = _fundamental_rhs_one(float(ks[0])) if ks.size == 1 else _fundamental_rhs(ks)
    _integrate_pieces(rhs, p, cuts, end.reshape(-1).view(float), tol / 20, at_cut, ks.size)
    a_minus, b_minus = _plane_waves(end[..., 0], end[..., 1], ks[:, None], a)   # (k, column)
    m = np.stack([b_minus[:, 1], -a_minus[:, 1], -b_minus[:, 0], a_minus[:, 0]], axis=-1)
    return _shaped_like_k(m.reshape(-1, 2, 2), k)


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
    _check_positive_finite(tol, "tol")
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


def _s_curve_rhs(k: float):
    def rhs(x, y, v):
        y0, y1, y2, y3 = y[:4].tolist()
        s = y0 + 1j * y1
        sp = y2 + 1j * y3
        spp = v * s - 2j * k * sp
        # numpy's complex quotient: it rounds unlike Python's
        dr = 2j * k * cmath.exp(-2j * k * x) * v / np.complex128(sp * sp)
        return [sp.real, sp.imag, spp.real, spp.imag, dr.real, dr.imag]

    return rhs


POLE_TOL = 1e-8   # |S| or |S'| below this times its largest value on the contour is a pole


def s_curve_solve(p: Potential, k: float, tol: float = 1e-10) -> tuple[ScatteringData, SCurveTrace]:
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
    _check_positive_finite(k, "k")
    if p.delta_terms():
        raise ValueError("delta terms are not supported by the S-curve method")
    _check_positive_finite(tol, "tol")
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

    z_minus = np.exp(-2j * k * a)
    y0 = [z_minus.real, z_minus.imag, (-2j * k * z_minus).real, (-2j * k * z_minus).imag, 0.0, 0.0]
    cuts = _cuts(_edges(p), p.interpolation_nodes()).tolist()
    x_all, y_all = _integrate_pieces(_s_curve_rhs(k), p, cuts, y0, tol, lambda x, y: y)
    s_end, sp_end, r_left = (y_all[j, -1] + 1j * y_all[j + 1, -1] for j in (0, 2, 4))
    s_all = y_all[0] + 1j * y_all[1]
    sp_all = y_all[2] + 1j * y_all[3]
    z_all = np.exp(-2j * k * x_all)
    s_prime_z = sp_all / (-2j * k * z_all)
    min_s = float(np.abs(s_all).min())
    min_sp = float(np.abs(s_prime_z).min())
    scale_s = float(np.abs(s_all).max())
    scale_sp = float(np.abs(s_prime_z).max())
    if min_s < POLE_TOL * scale_s or min_sp < POLE_TOL * scale_sp:
        which = "S" if min_s < POLE_TOL * scale_s else "S'"
        raise SCurvePoleError(
            f"{which} passed within {POLE_TOL:g} (relative) of zero on the contour; "
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
