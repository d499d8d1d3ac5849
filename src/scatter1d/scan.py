"""Wavenumber scans: locate and classify real zeros of transfer-matrix entries.

Zeros of M22 mark spectral singularities (lasing), zeros of M11 their
time-reversal (coherent perfect absorption), zeros of the off-diagonal
entries one-sided reflectionlessness.  Zeros are polished from the grid's
local minima of |entry|/||M|| by Newton on real k, one batched three-point
stencil per step; complex-k resonance tracking is out of scope.  Every
accepted zero is checked against the wave-equation engine, which reads all of
M without slicing or composition: a scan checks all its zeros in one batched
``transfer_matrix_wave`` pass.

k is a batch axis of ``matrix_at``: ``scan`` solves its whole grid in one
call, and a grid on which some k fails is solved again point by point, so
that each point records its own error.  A scan's results are arrays over its
grid: the matrix stack, the classification flags and the errors; objects
are built only for the refined singular points.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, replace
from itertools import chain

import numpy as np

from ._g17 import format_rows
from .engines import transfer_matrix_dynamical, transfer_matrix_wave
from .exact import numeric_leaf_copies, structural_matrix
from .potentials import Potential
from .transfer import (
    DEFAULT_ZERO_TOL,
    ENTRY_INDEX,
    ENTRY_NAMES,
    FLAG_NAMES,
    Classification,
    TransferMatrix,
    _amplitude_dictionary,
    _check_positive_finite,
    _flat_k,
    _shaped_like_k,
    classify,
    flag_stack,
)

__all__ = [
    "matrix_at",
    "scan",
    "refine_zero",
    "ScanResult",
    "SingularPoint",
    "NoZeroFound",
    "default_scan_points",
    "write_scan_csv",
    "singular_summary",
]

REFINE_TRIGGER = 1e-2  # refine local minima with |entry| below this times ||M||
STENCIL = 0.01   # refine_zero's difference step, as a share of the bracket
MAX_STEPS = 12   # refine_zero's Newton steps at most
SCAN_DENSITY = 512   # default_scan_points' grid points per 2 pi of k L


class NoZeroFound(RuntimeError):
    """The |entry| minimum in the bracket stays above the zero threshold."""

    def __init__(self, entry: str, k_min_pos: float, residual: float, threshold: float):
        super().__init__(
            f"|{entry}| has a local minimum {residual:.3e} at k = {k_min_pos}, above "
            f"the zero threshold {threshold:.3e}: near-miss resonance, not a real zero"
        )
        self.k = k_min_pos
        self.residual = residual
        self.threshold = threshold


def matrix_at(
    p: Potential, k, solver: str = "auto", tol: float = 1e-9
) -> TransferMatrix | np.ndarray:
    """Transfer matrix via the requested solver ('exact', 'dynamical', 'auto').

    'auto' is ``structural_matrix`` with the dynamical engine at the leaves
    that have no closed form, each at tol over the number of such leaf copies
    (a cell repeated n times is solved once, at tol/n).

    k is a batch axis: a scalar k gives a TransferMatrix, an array of k the
    stack of matrices, shape k.shape + (2, 2), from one pass of the solver.
    """
    if solver not in ("exact", "dynamical", "auto"):
        raise ValueError(f"unknown solver {solver!r}")
    _check_positive_finite(tol, "tol")
    ks = _flat_k(k)
    if solver == "dynamical":
        m = transfer_matrix_dynamical(p, ks, tol)
    elif solver == "exact":
        m = structural_matrix(p, ks, None)
    else:
        leaf_tol = tol / max(1, numeric_leaf_copies(p))
        m = structural_matrix(p, ks, lambda q: transfer_matrix_dynamical(q, ks, leaf_tol))
    return _shaped_like_k(m, k)


def default_scan_points(p: Potential, k_min: float, k_max: float) -> int:
    """Grid size from the spec density: SCAN_DENSITY points per 2 pi of k*L.

    Real zeros of the analytic entries are isolated but their spacing is not
    known a priori; this heuristic respects the support length.
    """
    _check_finite(k_min, k_max)
    a, b = p.support()
    span = max(b - a, 1e-12)
    return max(2, math.ceil(SCAN_DENSITY * (k_max - k_min) * span / (2 * math.pi)))


def _check_finite(k_min: float, k_max: float) -> None:
    if not (math.isfinite(k_min) and math.isfinite(k_max)):
        raise ValueError("k must be positive and finite")


@dataclass(frozen=True)
class SingularPoint:
    entry: str
    k_star: float
    residual: float
    matrix: TransferMatrix
    classification: Classification
    cpa_ratio: complex | None
    bracket: tuple[float, float]
    verified_residual: float | None = None
    self_dual_partner: float | None = None

    def to_dict(self) -> dict:
        return {
            "entry": self.entry,
            "k_star": self.k_star,
            "residual": self.residual,
            "verified_residual": self.verified_residual,
            "flags": list(self.classification.flags()),
            "cpa_ratio": None
            if self.cpa_ratio is None
            else [self.cpa_ratio.real, self.cpa_ratio.imag],
            "self_dual_partner": self.self_dual_partner,
        }


@dataclass
class ScanResult:
    """A scan's results as arrays over its grid of n wavenumbers ``k``:
    ``matrices`` (n, 2, 2), NaN where the solve failed; ``flags``
    (n, len(FLAG_NAMES)), the ``flag_stack`` of the matrices; ``errors``, the
    failure of each point or None."""

    k: np.ndarray
    matrices: np.ndarray
    flags: np.ndarray
    errors: list[str | None]
    singular_points: list[SingularPoint] = field(default_factory=list)
    solver: str = "auto"


def scan(
    p: Potential,
    k_min: float,
    k_max: float,
    points: int,
    solver: str = "auto",
    tol: float = 1e-9,
    zero_tol: float = DEFAULT_ZERO_TOL,
    refine: bool = True,
) -> ScanResult:
    """Sweep [k_min, k_max], recording M(k) and its classification flags.

    Solver failures are recorded per point and the sweep continues.  When
    ``refine`` is set, promising local minima of each |entry| are polished
    with ``refine_zero`` and the accepted singular points are attached, each
    checked by ``transfer_matrix_wave`` at tol: all of them in one batched
    pass, or one at a time if that pass fails, so that a zero whose own check
    fails is dropped and the others keep theirs.
    """
    _check_finite(k_min, k_max)
    _check_positive_finite(zero_tol, "zero_tol")
    if not (0 < k_min < k_max):
        raise ValueError("need 0 < k_min < k_max")
    if points < 2:
        raise ValueError("need at least two grid points")
    grid = np.linspace(k_min, k_max, points)
    errors: list[str | None] = [None] * points
    try:
        mats = matrix_at(p, grid, solver, tol)
    except Exception:  # some k failed: each point records its own error alone
        mats = np.full((points, 2, 2), np.nan, dtype=complex)
        for i in range(points):
            try:
                mats[i] = matrix_at(p, grid[i:i + 1], solver, tol)[0]
            except Exception as exc:  # recorded, scan continues
                errors[i] = f"{type(exc).__name__}: {exc}"
    result = ScanResult(grid, mats, flag_stack(mats, zero_tol), errors, solver=solver)
    if refine:
        result.singular_points = _refine_from_grid(p, grid, mats, solver, tol, zero_tol)
    return result


def _refine_from_grid(
    p: Potential, grid: np.ndarray, mats: np.ndarray, solver: str, tol: float, zero_tol: float
) -> list[SingularPoint]:
    """Refine the local minima of |entry|/||M|| on the grid, then check the
    zeros found in one batched wave-equation pass; a failed point (NaN matrix)
    is never a minimum, and a minimum whose refinement or check fails is
    skipped like one that holds no zero."""
    found: list[SingularPoint] = []
    norms = np.maximum(np.linalg.norm(mats, axis=(-2, -1)), 1e-300)
    for entry in ENTRY_NAMES:
        row, col = ENTRY_INDEX[entry]
        vals = np.abs(mats[:, row, col]) / norms
        vals[np.isnan(vals)] = np.inf
        for i in range(1, len(grid) - 1):
            if not (vals[i] <= vals[i - 1] and vals[i] <= vals[i + 1]):
                continue
            if vals[i] > REFINE_TRIGGER:
                continue
            try:
                sp = refine_zero(p, entry, (float(grid[i - 1]), float(grid[i + 1])), zero_tol,
                                 solver, tol, verify=False)
            except RuntimeError:   # NoZeroFound, or a solver failure inside the bracket
                continue
            if all(abs(sp.k_star - other.k_star) > 1e-12 * sp.k_star or other.entry != entry
                   for other in found):
                found.append(sp)
    dk = float(grid[1] - grid[0]) if len(grid) > 1 else 0.0
    return _pair_self_dual(_verified(p, found, tol), dk)


def _verified(p: Potential, points: list[SingularPoint], tol: float) -> list[SingularPoint]:
    """The points with their entries' moduli from ``transfer_matrix_wave`` at
    tol, all in one pass; if it fails, each point is checked alone and those
    whose own check fails are dropped."""
    if not points:
        return []
    ks = np.array([sp.k_star for sp in points])
    try:
        mats = transfer_matrix_wave(p, ks, tol)
    except Exception:   # some k failed: each point is checked alone
        mats = [None] * len(points)
        for i in range(len(points)):
            try:
                mats[i] = transfer_matrix_wave(p, ks[i:i + 1], tol)[0]
            except RuntimeError:   # a solver failure at this zero: skipped
                pass
    return [replace(sp, verified_residual=float(abs(m[ENTRY_INDEX[sp.entry]])))
            for sp, m in zip(points, mats) if m is not None]


def _pair_self_dual(points: list[SingularPoint], dk: float) -> list[SingularPoint]:
    """Mark M11/M22 zeros that coincide within the grid resolution as self-dual."""
    out = list(points)
    for i, a in enumerate(out):
        if a.entry != "M22":
            continue
        for j, b in enumerate(out):
            if b.entry != "M11":
                continue
            if abs(a.k_star - b.k_star) <= max(dk, 1e-9 * a.k_star):
                out[i] = replace(a, self_dual_partner=b.k_star)
                out[j] = replace(b, self_dual_partner=a.k_star)
    return out


def refine_zero(
    p: Potential,
    entry: str,
    bracket: tuple[float, float],
    tol: float = DEFAULT_ZERO_TOL,
    solver: str = "auto",
    solver_tol: float = 1e-10,
    verify: bool = True,
) -> SingularPoint:
    """Polish a real zero of one entry by Newton from the bracket's midpoint.

    Each step solves the stencil k - h, k, k + h (h a hundredth of the
    bracket) in one batched ``matrix_at`` call for f, f' and f'' by central
    differences, and steps by Re(f f' / (f'^2 - f f'')), Newton's step on
    f/f', which converges at double zeros too (SMIS's M12 is quadratic at
    k0) and, near a complex zero, to about its real part.  A step is clamped
    to the bracket, and the polish stops once |f| stops falling.

    Accepts the best point as a zero iff the residual falls below tol times
    the local matrix norm; otherwise raises NoZeroFound (near-miss
    resonance).  With ``verify``, an accepted zero is checked independently:
    ``verified_residual`` is |entry| from ``transfer_matrix_wave`` at
    solver_tol.  ``scan`` refines without it and checks all its zeros in one
    batched pass.
    """
    if entry not in ENTRY_NAMES:
        raise ValueError(f"entry must be one of {ENTRY_NAMES}")
    _check_positive_finite(tol, "tol")
    _check_positive_finite(solver_tol, "solver_tol")
    k_lo, k_hi = bracket
    if not (0 < k_lo < k_hi < math.inf):
        raise ValueError("bracket must satisfy 0 < k_lo < k_hi < inf")
    row, col = ENTRY_INDEX[entry]
    h = min(STENCIL * (k_hi - k_lo), 0.5 * k_lo)
    k, k_star, m = 0.5 * (k_lo + k_hi), None, None
    for _ in range(MAX_STEPS):
        stencil = matrix_at(p, np.array([k - h, k, k + h]), solver, solver_tol)
        below, f, above = stencil[:, row, col].tolist()
        if m is not None and not abs(f) < abs(m.entry(entry)):
            break   # |f| stopped falling: keep the best point
        k_star, m = k, TransferMatrix(stencil[1], k)
        df, ddf = (above - below) / (2 * h), (above - 2 * f + below) / (h * h)
        denom = df * df - f * ddf
        if f == 0 or denom == 0:
            break
        k = min(max(k - (f * df / denom).real, k_lo), k_hi)
        if not math.isfinite(k) or k == k_star:
            break
    residual = abs(m.entry(entry))
    threshold = tol * m.norm()
    if not residual < threshold:
        raise NoZeroFound(entry, k_star, residual, threshold)
    cls = classify(m, tol)
    verified = None
    if verify:
        verified = abs(transfer_matrix_wave(p, k_star, solver_tol).entry(entry))
    return SingularPoint(
        entry=entry,
        k_star=k_star,
        residual=residual,
        matrix=m,
        classification=cls,
        cpa_ratio=m.m21 if entry == "M11" else None,
        bracket=(k_lo, k_hi),
        verified_residual=verified,
    )


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

_CSV_HEADER = (
    ["k"]
    + [f"{part}_{name}" for name in ENTRY_NAMES for part in ("re", "im")]
    + ["re_R_left", "im_R_left", "re_R_right", "im_R_right", "re_T", "im_T"]
    + ["flags", "error"]
)


def write_scan_csv(result: ScanResult, path) -> None:
    """One row per grid point: k, the matrix, then the amplitudes unless
    refused, fields left blank where missing.  All numbers of the file are
    formatted as ``'%.17g'`` in one ``_g17.format_rows`` call; the amplitudes
    come from ``_amplitude_dictionary``, one matrix at a time.  The flags and
    error columns go through ``csv.writer``, which quotes them where needed,
    once per distinct pair."""
    n = len(result.k)
    entries = result.matrices.reshape(n, 4)
    values = np.zeros((n, 15))
    values[:, 0] = result.k
    values[:, 1:9:2], values[:, 2:9:2] = entries.real, entries.imag
    norms = np.linalg.norm(result.matrices, axis=(-2, -1)).tolist()
    amplitudes = [None if error else _amplitude_dictionary(*row[1:], norm)
                  for row, norm, error in zip(entries.tolist(), norms, result.errors)]
    refused = np.array([amps is None for amps in amplitudes])
    kept = np.fromiter(chain.from_iterable(a for a in amplitudes if a is not None), complex)
    values[~refused, 9:] = kept.reshape(-1, 3).view(float)
    blank = np.zeros((n, 15), dtype=bool)
    blank[:, 1:9] = np.array([bool(error) for error in result.errors])[:, None]
    blank[:, 9:] = refused[:, None]
    keys = list(zip(map(tuple, result.flags.tolist()), result.errors))
    tails: dict[tuple, str] = {}
    for flags, error in set(keys):
        line = io.StringIO(newline="")
        csv.writer(line).writerow(["|".join(name for name, f in zip(FLAG_NAMES, flags) if f),
                                   error or ""])
        tails[flags, error] = "," + line.getvalue()
    rows = format_rows(values, "," * 14 + "\n", blank).split("\n")
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(_CSV_HEADER)
        fh.write("".join(map(str.__add__, rows, [tails[key] for key in keys])))


def singular_summary(result: ScanResult) -> dict:
    return {
        "schema": "v1",
        "solver": result.solver,
        "k_min": float(result.k[0]),
        "k_max": float(result.k[-1]),
        "points": len(result.k),
        "errors": sum(1 for error in result.errors if error),
        "singular_points": [sp.to_dict() for sp in result.singular_points],
    }
