"""Wavenumber scans: locate and classify real zeros of transfer-matrix entries.

Zeros of M22 mark spectral singularities (lasing), zeros of M11 their
time-reversal (coherent perfect absorption), zeros of the off-diagonal
entries one-sided reflectionlessness.  Zeros are located by minimizing
|entry|^2 over real k only; complex-k resonance tracking is out of scope.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

from .engines import scattering_solution, transfer_matrix_dynamical
from .exact import exact_matrix, numeric_leaf_copies, structural_matrix
from .potentials import Potential, TimeReversed
from .transfer import (
    Classification,
    ScatteringData,
    SpectralSingularityError,
    TransferMatrix,
    classify,
)

__all__ = [
    "matrix_at",
    "scan",
    "refine_zero",
    "check_real_potential_identities",
    "ScanPoint",
    "ScanResult",
    "SingularPoint",
    "IdentityReport",
    "NoZeroFound",
    "default_scan_points",
    "write_scan_csv",
    "singular_summary",
]

ENTRY_NAMES = ("M11", "M12", "M21", "M22")
DEFAULT_ZERO_TOL = 1e-8
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


def matrix_at(p: Potential, k: float, solver: str = "auto", tol: float = 1e-9) -> TransferMatrix:
    """Transfer matrix via the requested solver ('exact', 'dynamical', 'auto').

    'auto' is ``structural_matrix`` with the dynamical engine at the leaves
    that have no closed form, each at tol over the number of such leaf copies
    (a cell repeated n times is solved once, at tol/n).
    """
    if solver == "exact":
        return exact_matrix(p, k)
    if solver == "dynamical":
        return transfer_matrix_dynamical(p, k, tol)
    if solver == "auto":
        leaf_tol = tol / max(1, numeric_leaf_copies(p))
        return structural_matrix(p, k, lambda q: transfer_matrix_dynamical(q, k, leaf_tol))
    raise ValueError(f"unknown solver {solver!r}")


def default_scan_points(p: Potential, k_min: float, k_max: float, density: int = 512) -> int:
    """Grid size from the spec density: `density` points per unit of k*L.

    Real zeros of the analytic entries are isolated but their spacing is not
    known a priori; this heuristic respects the support length.
    """
    a, b = p.support()
    span = max(b - a, 1e-12)
    return max(2, math.ceil(density * (k_max - k_min) * span / (2 * math.pi)))


@dataclass(frozen=True)
class ScanPoint:
    k: float
    matrix: TransferMatrix | None
    data: ScatteringData | None
    classification: Classification | None
    error: str | None = None


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
    k: np.ndarray
    points: list[ScanPoint]
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
    """Sweep [k_min, k_max], recording M(k), amplitudes and classifications.

    Solver failures are recorded per point and the sweep continues.  When
    ``refine`` is set, promising local minima of each |entry| are polished
    with ``refine_zero`` and accepted singular points are attached.
    """
    if not (0 < k_min < k_max):
        raise ValueError("need 0 < k_min < k_max")
    if points < 2:
        raise ValueError("need at least two grid points")
    grid = np.linspace(k_min, k_max, points)

    def one(k: float) -> ScanPoint:
        try:
            m = matrix_at(p, float(k), solver, tol)
        except Exception as exc:  # recorded, scan continues
            return ScanPoint(float(k), None, None, None, f"{type(exc).__name__}: {exc}")
        cls = classify(m, zero_tol)
        try:
            data = m.amplitudes()
        except SpectralSingularityError:
            data = None
        return ScanPoint(float(k), m, data, cls)

    result = ScanResult(grid, [one(k) for k in grid], solver=solver)
    if refine:
        result.singular_points = _refine_from_grid(p, result, solver, tol, zero_tol)
    return result


def _refine_from_grid(
    p: Potential, result: ScanResult, solver: str, tol: float, zero_tol: float
) -> list[SingularPoint]:
    found: list[SingularPoint] = []
    grid = result.k
    for entry in ENTRY_NAMES:
        vals = np.array(
            [
                abs(pt.matrix.entry(entry)) / max(pt.matrix.norm(), 1e-300)
                if pt.matrix is not None
                else np.inf
                for pt in result.points
            ]
        )
        for i in range(1, len(grid) - 1):
            if not (vals[i] <= vals[i - 1] and vals[i] <= vals[i + 1]):
                continue
            if vals[i] > REFINE_TRIGGER:
                continue
            try:
                sp = refine_zero(
                    p, entry, (float(grid[i - 1]), float(grid[i + 1])), zero_tol, solver, tol
                )
            except NoZeroFound:
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
                out[i] = _with_partner(a, b.k_star)
                out[j] = _with_partner(b, a.k_star)
    return out


def _with_partner(sp: SingularPoint, partner: float) -> SingularPoint:
    return SingularPoint(
        sp.entry, sp.k_star, sp.residual, sp.matrix, sp.classification,
        sp.cpa_ratio, sp.bracket, sp.verified_residual, partner,
    )


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

    def entry_at(k: float) -> complex:
        return matrix_at(p, k, solver, solver_tol).entry(entry)

    def objective(k: float) -> float:
        return abs(entry_at(k)) ** 2

    res = minimize_scalar(
        objective,
        bounds=(k_lo, k_hi),
        method="bounded",
        options={"xatol": 1e-13 * max(1.0, k_hi), "maxiter": 200},
    )
    k_star = float(res.x)
    # the entries are analytic in k, so polish a genuine real zero with Newton
    # (projected to the real axis); golden-section alone stalls near sqrt(eps)
    for _ in range(8):
        val = entry_at(k_star)
        if abs(val) == 0.0:
            break
        h = 1e-7 * max(1.0, k_star)
        dval = (entry_at(k_star + h) - entry_at(k_star - h)) / (2 * h)
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
    m = matrix_at(p, k_star, solver, solver_tol)
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


@dataclass(frozen=True)
class IdentityReport:
    """Violations of the real-potential identities at one wavenumber."""

    k: float
    m11_conj_m22: float      # |M11 - M22*|
    m12_conj_m21: float      # |M12 - M21*|
    reflection_reciprocity: float  # ||R_l| - |R_r||
    unitarity: float         # ||R|^2 + |T|^2 - 1| (max over sides)

    @property
    def max_violation(self) -> float:
        return max(
            self.m11_conj_m22,
            self.m12_conj_m21,
            self.reflection_reciprocity,
            self.unitarity,
        )

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "m11_conj_m22": self.m11_conj_m22,
            "m12_conj_m21": self.m12_conj_m21,
            "reflection_reciprocity": self.reflection_reciprocity,
            "unitarity": self.unitarity,
            "max_violation": self.max_violation,
        }


def check_real_potential_identities(
    p: Potential, k: float, solver: str = "auto", tol: float = 1e-10
) -> IdentityReport:
    """Measure M11 = M22*, M12 = M21*, |R_l| = |R_r|, |R|^2 + |T|^2 = 1.

    These hold for real-valued potentials; for complex ones the report simply
    records the (expected) violations.
    """
    m = matrix_at(p, k, solver, tol)
    data = m.amplitudes()
    uni = max(
        abs(abs(data.r_left) ** 2 + abs(data.t) ** 2 - 1.0),
        abs(abs(data.r_right) ** 2 + abs(data.t) ** 2 - 1.0),
    )
    return IdentityReport(
        k=k,
        m11_conj_m22=abs(m.m11 - np.conj(m.m22)),
        m12_conj_m21=abs(m.m12 - np.conj(m.m21)),
        reflection_reciprocity=abs(abs(data.r_left) - abs(data.r_right)),
        unitarity=uni,
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


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_scan_csv(result: ScanResult, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for pt in result.points:
            row: list[str] = [_fmt(pt.k)]
            if pt.matrix is not None:
                for name in ENTRY_NAMES:
                    z = pt.matrix.entry(name)
                    row += [_fmt(z.real), _fmt(z.imag)]
            else:
                row += [""] * 8
            if pt.data is not None:
                for z in (pt.data.r_left, pt.data.r_right, pt.data.t):
                    row += [_fmt(z.real), _fmt(z.imag)]
            else:
                row += [""] * 6
            row.append(
                "|".join(pt.classification.flags()) if pt.classification else ""
            )
            row.append(pt.error or "")
            writer.writerow(row)


def singular_summary(result: ScanResult) -> dict:
    return {
        "schema": "v1",
        "solver": result.solver,
        "k_min": float(result.k[0]),
        "k_max": float(result.k[-1]),
        "points": len(result.points),
        "errors": sum(1 for pt in result.points if pt.error),
        "singular_points": [sp.to_dict() for sp in result.singular_points],
    }
