"""Wavenumber scans: locate and classify real zeros of transfer-matrix entries.

Zeros of M22 mark spectral singularities (lasing), zeros of M11 their
time-reversal (coherent perfect absorption), zeros of the off-diagonal
entries one-sided reflectionlessness.  Zeros are located by minimizing
|entry|^2 over real k only; complex-k resonance tracking is out of scope.

k is a batch axis of ``matrix_at``: ``scan`` solves its whole grid in one
call, and a grid on which some k fails is solved again point by point, so
that each point records its own error.  A scan's results are arrays over its
grid: the matrix stack, the classification flags and the errors; objects
are built only for the refined singular points.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import minimize_scalar

from .engines import scattering_solution, transfer_matrix_dynamical
from .exact import numeric_leaf_copies, structural_matrix
from .potentials import Potential, TimeReversed
from .transfer import (
    DEFAULT_ZERO_TOL,
    ENTRY_INDEX,
    ENTRY_NAMES,
    FLAG_NAMES,
    Classification,
    TransferMatrix,
    _amplitude_dictionary,
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
    ks = np.atleast_1d(np.asarray(k, dtype=float)).ravel()
    if not np.all((ks > 0) & (ks < np.inf)):
        raise ValueError("k must be positive and finite")
    if solver == "dynamical":
        m = transfer_matrix_dynamical(p, ks, tol)
    elif solver == "exact":
        m = structural_matrix(p, ks, None)
    else:
        leaf_tol = tol / max(1, numeric_leaf_copies(p))
        m = structural_matrix(p, ks, lambda q: transfer_matrix_dynamical(q, ks, leaf_tol))
    if np.ndim(k) == 0:
        return TransferMatrix(m[0], k)
    return m.reshape(np.shape(k) + (2, 2))


def default_scan_points(p: Potential, k_min: float, k_max: float, density: int = 512) -> int:
    """Grid size from the spec density: `density` points per unit of k*L.

    Real zeros of the analytic entries are isolated but their spacing is not
    known a priori; this heuristic respects the support length.
    """
    _check_finite(k_min, k_max)
    a, b = p.support()
    span = max(b - a, 1e-12)
    return max(2, math.ceil(density * (k_max - k_min) * span / (2 * math.pi)))


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
    with ``refine_zero`` and accepted singular points are attached.
    """
    _check_finite(k_min, k_max)
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
    """Refine the local minima of |entry|/||M|| on the grid; a failed point
    (NaN matrix) is never a minimum, and a minimum whose refinement fails is
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
                sp = refine_zero(
                    p, entry, (float(grid[i - 1]), float(grid[i + 1])), zero_tol, solver, tol
                )
            except RuntimeError:   # NoZeroFound, or a solver failure inside the bracket
                continue
            if all(abs(sp.k_star - other.k_star) > 1e-12 * sp.k_star or other.entry != entry
                   for other in found):
                found.append(sp)
    dk = float(grid[1] - grid[0]) if len(grid) > 1 else 0.0
    return _pair_self_dual(found, dk)


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
    """Polish a real zero of one entry by bounded minimization of |entry|^2.

    Accepts the minimum as a zero iff the residual falls below tol times the
    local matrix norm; otherwise raises NoZeroFound (near-miss resonance).
    Accepted zeros are re-verified through an independent wave-equation solve.
    """
    if entry not in ENTRY_NAMES:
        raise ValueError(f"entry must be one of {ENTRY_NAMES}")
    k_lo, k_hi = bracket
    if not (0 < k_lo < k_hi):
        raise ValueError("bracket must satisfy 0 < k_lo < k_hi")

    solved: dict[float, TransferMatrix] = {}

    def at(k: float) -> TransferMatrix:
        # Newton revisits accepted steps and the final k_star: solve each k once
        if k not in solved:
            solved[k] = matrix_at(p, k, solver, solver_tol)
        return solved[k]

    def entry_at(k: float) -> complex:
        return at(k).entry(entry)

    def objective(k: float) -> float:
        return abs(entry_at(k)) ** 2

    res = minimize_scalar(
        objective,
        bounds=(k_lo, k_hi),
        method="bounded",
        options={"xatol": 1e-13 * max(1.0, k_hi), "maxiter": 200},
    )
    k_star = float(res.x)
    row, col = ENTRY_INDEX[entry]
    # the entries are analytic in k, so polish a genuine real zero with Newton
    # (projected to the real axis); golden-section alone stalls near sqrt(eps)
    for _ in range(8):
        val = entry_at(k_star)
        if abs(val) == 0.0:
            break
        h = 1e-7 * max(1.0, k_star)
        below, above = matrix_at(p, np.array([k_star - h, k_star + h]), solver, solver_tol)
        dval = (complex(above[row, col]) - complex(below[row, col])) / (2 * h)
        if dval == 0:
            break
        step = float(np.real(val / dval))
        k_new = min(max(k_star - step, k_lo), k_hi)
        if not math.isfinite(k_new) or abs(k_new - k_star) < 1e-16 * max(1.0, k_star):
            k_star = k_new
            break
        if abs(entry_at(k_new)) >= abs(val):
            break
        k_star = k_new
    m = at(k_star)
    residual = abs(m.entry(entry))
    threshold = tol * m.norm()
    if residual >= threshold:
        raise NoZeroFound(entry, k_star, residual, threshold)
    cls = classify(m, tol)
    verified = None
    if verify:
        verified = abs(_entry_independent(p, k_star, entry, solver_tol))
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


def _entry_independent(p: Potential, k: float, entry: str, tol: float) -> complex:
    """Entry value from outgoing-wave ODE solves (no transfer-matrix composition).

    The unnormalized one-sided solves expose entries directly:
    left solve (unit transmitted): A_- = M22, B_- = -M21;
    right solve: B_+ = M22, A_+ = M12; M11 is conj(M22) of the conjugated
    potential.
    """
    if entry == "M22":
        return scattering_solution(p, k, "left", tol).a_minus
    if entry == "M21":
        return -scattering_solution(p, k, "left", tol).b_minus
    if entry == "M12":
        return scattering_solution(p, k, "right", tol).a_plus
    return np.conj(scattering_solution(TimeReversed(p), k, "left", tol).a_minus)


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
    """One row per grid point, floats at 17 significant digits: the matrix,
    then the amplitudes unless refused, fields left blank where missing.  The
    numbers of a row are formatted at once from Python floats; the flags and
    error columns go through ``csv.writer``, which quotes them where needed."""
    norms = np.linalg.norm(result.matrices, axis=(-2, -1)).tolist()
    rows = zip(result.k.tolist(), result.matrices.reshape(-1, 4).tolist(), norms,
               result.flags.tolist(), result.errors)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for k, entries, norm, flags, error in rows:
            zs = [] if error else entries + list(_amplitude_dictionary(*entries[1:], norm) or ())
            parts = [x for z in zs for x in (z.real, z.imag)]
            fh.write(("%.17g" + ",%.17g" * len(parts)) % (k, *parts) + "," * (15 - len(parts)))
            writer.writerow(["|".join(n for n, f in zip(FLAG_NAMES, flags) if f), error or ""])


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
