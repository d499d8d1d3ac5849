"""Single-mode inverse scattering via tunable unidirectionally invisible blocks.

A right-invisible block at design wavenumber k0 has the triangular transfer
matrix [[1, 0], [-R_l, 1]]; a left-invisible one [[1, R_r], [0, 1]].  Any
target amplitude triple (R_l0, R_r0, T0) with T0 != 0 factors into at most
four such matrices, so placing matching blocks with disjoint supports in the
right order realizes the target exactly at k0.

Block profiles come from the curve function S(z) = z[alpha(z-1)^2 + 1]:
untranslated, the profile is right-invisible with
R_l(k0) = -8 pi i n alpha / (1+alpha)^3, so the magnitude map inverts the
cubic 2 c (beta-1) = beta^3 with beta = 1+alpha, c = 4 pi n / |R_l| (real
solutions with beta > 1 need c > 27/8), and a translation by
a = (phi0 + pi/2 + 2 pi m) / (2 k0) rotates the phase onto the target.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._g17 import format_rows
from .potentials import Potential, SmisProfile, Sum
from .scan import matrix_at
from .transfer import (
    ScatteringData, TransferMatrix, _check_positive_finite, chain_product, matrix_from_amplitudes,
    time_reverse_stack,
)

__all__ = [
    "DesignSpec",
    "InvisibleBlock",
    "DesignResult",
    "DesignError",
    "TargetUnreachableError",
    "DesignVerificationError",
    "alpha_for_reflection",
    "default_winding",
    "build_right_invisible",
    "build_left_invisible",
    "factor_matrices",
    "solve_single_mode",
    "residue_reflection",
]

C_MIN = 27.0 / 8.0          # below this the magnitude cubic has no usable root
DEFAULT_ALPHA_MAX = 1e-2    # optics-friendly profile amplitude ceiling
DEFAULT_VERIFY_TOL = 1e-6
PROFILE_POINTS = 2048       # samples of write_profile_csv over the support


class DesignError(RuntimeError):
    pass


class TargetUnreachableError(DesignError):
    """The requested reflection magnitude needs a larger winding number."""


class DesignVerificationError(DesignError):
    def __init__(self, message: str, residuals: dict[str, float]):
        super().__init__(f"{message}: {residuals}")
        self.residuals = residuals


@dataclass(frozen=True)
class DesignSpec:
    """Target amplitudes (r_left, r_right, t) at the design wavenumber k0."""

    k0: float
    r_left: complex
    r_right: complex
    t: complex

    def __init__(self, k0, r_left, r_right, t):
        if not math.isfinite(k0):
            raise ValueError("k0 must be finite")
        if k0 <= 0:
            raise ValueError("k0 must be positive")
        if not all(cmath.isfinite(complex(z)) for z in (r_left, r_right, t)):
            raise ValueError("target amplitudes must be finite")
        if complex(t) == 0:
            raise ValueError("zero transmission unrealizable (T never vanishes)")
        object.__setattr__(self, "k0", float(k0))
        object.__setattr__(self, "r_left", complex(r_left))
        object.__setattr__(self, "r_right", complex(r_right))
        object.__setattr__(self, "t", complex(t))

    def target_matrix(self) -> TransferMatrix:
        return matrix_from_amplitudes(
            ScatteringData(self.r_left, self.r_right, self.t, self.k0)
        )


@dataclass(frozen=True)
class InvisibleBlock:
    """One unidirectionally invisible building block, with the residuals of
    its amplitudes at k0 from the dynamical engine."""

    orientation: str            # 'right_invisible' | 'left_invisible'
    reflection: complex         # the realized nonzero amplitude at k0
    profile: SmisProfile
    factor: np.ndarray          # its 2x2 transfer matrix at k0
    residuals: dict[str, float]

    @property
    def support(self) -> tuple[float, float]:
        return self.profile.support()


def _factor_for(orientation: str, reflection: complex) -> np.ndarray:
    if orientation == "right_invisible":
        return np.array([[1.0, 0.0], [-reflection, 1.0]], dtype=complex)
    return np.array([[1.0, reflection], [0.0, 1.0]], dtype=complex)


def residue_reflection(alpha: float, winding: int) -> complex:
    """Left reflection of the untranslated block: -8 pi i n alpha/(1+alpha)^3.

    Exact for every alpha > -1/4 (the contour integrand reduces to -1/S^2 up
    to a total derivative, leaving only the pole at z = 0).
    """
    return -8j * np.pi * winding * alpha / (1.0 + alpha) ** 3


def alpha_for_reflection(magnitude: float, winding: int) -> float:
    """Smallest alpha > 0 with 8 pi n alpha/(1+alpha)^3 = magnitude.

    Solves the cubic beta^3 = 2 c (beta - 1), beta = 1 + alpha,
    c = 4 pi n/magnitude; no real root with beta > 1 exists for c <= 27/8.
    """
    if magnitude <= 0:
        raise ValueError("target reflection magnitude must be positive")
    c = 4.0 * np.pi * winding / magnitude
    if c <= C_MIN:
        raise TargetUnreachableError(
            f"|R| = {magnitude:g} needs 4*pi*n/|R| > 27/8; raise the winding "
            f"number above {magnitude * C_MIN / (4 * np.pi):.3f}"
        )
    roots = np.roots([1.0, 0.0, -2.0 * c, 2.0 * c])
    real = sorted(float(r.real) for r in roots if abs(r.imag) < 1e-9 * max(1.0, abs(r)))
    usable = [b for b in real if b > 1.0]
    if not usable:
        raise TargetUnreachableError(f"no usable root for c = {c:g}")
    return usable[0] - 1.0


def default_winding(magnitude: float) -> int:
    """Smallest winding keeping the profile amplitude parameter <= DEFAULT_ALPHA_MAX."""
    c_needed = (1.0 + DEFAULT_ALPHA_MAX) ** 3 / (2.0 * DEFAULT_ALPHA_MAX)
    return max(1, math.ceil(c_needed * magnitude / (4.0 * np.pi)))


def _block_residuals(
    m: TransferMatrix, expect: ScatteringData, verify_tol: float
) -> dict[str, float]:
    """Residuals of the amplitudes of a block's matrix m against its target;
    DesignVerificationError past verify_tol (relative to |R| above 1) or on NaN."""
    got = m.amplitudes()
    residuals = {
        "r_left": abs(got.r_left - expect.r_left),
        "r_right": abs(got.r_right - expect.r_right),
        "t": abs(got.t - expect.t),
    }
    limits = {
        "r_left": verify_tol * max(1.0, abs(expect.r_left)),
        "r_right": verify_tol * max(1.0, abs(expect.r_right)),
        "t": verify_tol,
    }
    if not all(v <= limits[k] for k, v in residuals.items()):
        raise DesignVerificationError("block verification failed", residuals)
    return residuals


def build_right_invisible(
    k0: float,
    r_left_target: complex,
    winding: int | None = None,
    m: int = 0,
    verify_tol: float = DEFAULT_VERIFY_TOL,
) -> InvisibleBlock:
    """Block with R_r(k0) = 0, T(k0) = 1 and the prescribed nonzero R_l(k0).

    The translation a = (phi0 + pi/2 + 2 pi m)/(2 k0) turns the block's
    intrinsic -i phase onto the target phase phi0; integer m relocates the
    support in whole periods ell = pi/k0 without touching the amplitudes.
    The block is checked on the amplitudes of
    ``matrix_at(profile, k0, "auto", verify_tol / 50)``, the dynamical engine.
    """
    return _build_block(k0, r_left_target, winding, m, verify_tol, conjugated=False)


def build_left_invisible(
    k0: float,
    r_right_target: complex,
    winding: int | None = None,
    m: int = 0,
    verify_tol: float = DEFAULT_VERIFY_TOL,
) -> InvisibleBlock:
    """Block with R_l(k0) = 0, T(k0) = 1 and the prescribed nonzero R_r(k0).

    Built as the time reversal (pointwise conjugate) of the right-invisible
    block for R_l = -conj(R_r_target), which maps (R_l, 0, 1) to (0, -R_l*, 1).
    The block is checked on the amplitudes of
    ``matrix_at(profile, k0, "auto", verify_tol / 50)``, the dynamical engine.
    """
    return _build_block(k0, r_right_target, winding, m, verify_tol, conjugated=True)


def _build_block(
    k0: float, reflection: complex, winding: int | None, m: int, verify_tol: float,
    conjugated: bool,
) -> InvisibleBlock:
    """The checked block of ``_invisible_profile``, solved by ``matrix_at``."""
    _check_positive_finite(verify_tol, "verify_tol")
    profile = _invisible_profile(k0, reflection, winding, m, conjugated)
    return _checked_block(profile, reflection, matrix_at(profile, k0, "auto", verify_tol / 50),
                          verify_tol)


def _translation(k0: float, reflection: complex, m: int, conjugated: bool) -> float:
    """Shift a = (phi0 + pi/2 + 2 pi m)/(2 k0) that puts the block's
    reflection phase on the target's (on -conj(target) when conjugated)."""
    phase = -np.conj(reflection) if conjugated else reflection
    phi0 = math.atan2(phase.imag, phase.real) % (2 * math.pi)
    return (phi0 + math.pi / 2 + 2 * math.pi * m) / (2 * k0)


def _invisible_profile(
    k0: float, reflection: complex, winding: int | None, m: int, conjugated: bool
) -> SmisProfile:
    """The right-invisible profile for R_l = reflection, or (conjugated) the
    left-invisible profile for R_r = reflection, its time reversal."""
    target = complex(reflection)
    if target == 0:
        raise ValueError(f"target {'right' if conjugated else 'left'} reflection must be nonzero")
    n = default_winding(abs(target)) if winding is None else int(winding)
    alpha = alpha_for_reflection(abs(target), n)
    return SmisProfile(k0, alpha, n, _translation(k0, target, m, conjugated), conjugated)


def _checked_block(
    profile: SmisProfile, reflection: complex, m: TransferMatrix, verify_tol: float
) -> InvisibleBlock:
    """The block of a profile whose transfer matrix at k0 is m, checked
    against (reflection, 0, 1) when right-invisible, (0, reflection, 1) when left."""
    target = complex(reflection)
    orientation = "left_invisible" if profile.conjugated else "right_invisible"
    r_left, r_right = (0.0, target) if profile.conjugated else (target, 0.0)
    residuals = _block_residuals(m, ScatteringData(r_left, r_right, 1.0, m.k), verify_tol)
    return InvisibleBlock(orientation, target, profile, _factor_for(orientation, target), residuals)


# ---------------------------------------------------------------------------
# Factorization into triangular matrices
# ---------------------------------------------------------------------------


def factor_matrices(spec: DesignSpec) -> list[np.ndarray]:
    """Triangular factors, in spatial order, whose right-to-left product is
    the target transfer matrix at k0.

    General case (R_r0 != 0, T0 != 1) with rho* = (T0-1)/R_r0:

        F1 = [[1, 0], [rho* T0 - R_l0, 1]],
        F2 = [[1, R_r0/T0], [0, 1]],
        F3 = [[1, 0], [-rho*, 1]].

    T0 = 1 collapses to [[1,0],[-R_l0,1]] then [[1,R_r0],[0,1]]; R_r0 = 0 !=
    R_l0 takes the time reversals (sigma1 F* sigma1, so lower and upper swap)
    of the factors of the time-reversed target, whose R_r is nonzero; the
    doubly reflectionless case uses the four-factor split with rho = 1/T0;
    factors equal to the identity are dropped.
    """
    t0, rl0, rr0 = spec.t, spec.r_left, spec.r_right
    unit_t = abs(t0 - 1.0) < 1e-14

    def lower(c: complex) -> np.ndarray:
        return np.array([[1.0, 0.0], [c, 1.0]], dtype=complex)

    def upper(b: complex) -> np.ndarray:
        return np.array([[1.0, b], [0.0, 1.0]], dtype=complex)

    factors: list[np.ndarray]
    if rr0 != 0:
        if unit_t:
            factors = [lower(-rl0), upper(rr0)]
        else:
            rho_star = (t0 - 1.0) / rr0
            factors = [lower(rho_star * t0 - rl0), upper(rr0 / t0), lower(-rho_star)]
    elif rl0 != 0:
        factors = [time_reverse_stack(f) for f in factor_matrices(_time_reversed_spec(spec))]
    else:
        if unit_t:
            return []
        rho_v = 1.0 / t0
        factors = [
            lower(rho_v * t0),
            upper((t0 - 1.0) / (rho_v * t0)),
            lower(-rho_v),
            upper((1.0 - t0) / rho_v),
        ]
    return [f for f in factors if np.abs(f - np.eye(2)).max() > 0]


def _time_reversed_spec(spec: DesignSpec) -> DesignSpec:
    d = ScatteringData(spec.r_left, spec.r_right, spec.t, spec.k0).time_reversed()
    return DesignSpec(spec.k0, d.r_left, d.r_right, d.t)


# ---------------------------------------------------------------------------
# Composer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DesignResult:
    spec: DesignSpec
    potential: Potential
    blocks: tuple[InvisibleBlock, ...]
    target: np.ndarray
    achieved: np.ndarray
    matrix_residual: float

    def report(self) -> dict:
        return {
            "k0": self.spec.k0,
            "blocks": [
                {
                    "orientation": b.orientation,
                    "reflection": [b.reflection.real, b.reflection.imag],
                    "alpha": b.profile.alpha,
                    "winding": b.profile.winding,
                    "support": list(b.support),
                    "residuals": b.residuals,
                }
                for b in self.blocks
            ],
            "matrix_residual": self.matrix_residual,
        }


def _place_blocks(
    k0: float,
    factors: list[np.ndarray],
    start: float,
    gap: float,
    winding: int | None,
) -> list[tuple[SmisProfile, complex]]:
    """One (profile, reflection) per factor, left to right, each support
    starting at least gap after the previous one ends."""
    ell = math.pi / k0
    placed: list[tuple[SmisProfile, complex]] = []
    cursor = start
    for f in factors:
        lower = abs(f[1, 0]) > 0  # lower triangular -> right-invisible block
        target = -complex(f[1, 0]) if lower else complex(f[0, 1])
        # a block's support starts at its translation a0 + m_shift * ell
        a0 = _translation(k0, target, 0, conjugated=not lower)
        m_shift = max(0, math.ceil((cursor + gap - a0) / ell))
        profile = _invisible_profile(k0, target, winding, m_shift, conjugated=not lower)
        placed.append((profile, target))
        cursor = profile.support()[1]
    return placed


def _product(factors: list[np.ndarray]) -> np.ndarray:
    """Right-to-left product of 2x2 matrices given in spatial order; the
    identity when there are none."""
    return chain_product(np.stack(factors)) if factors else np.eye(2, dtype=complex)


def solve_single_mode(
    spec: DesignSpec,
    winding: int | None = None,
    gap: float | None = None,
    start: float = 0.0,
    verify_tol: float = DEFAULT_VERIFY_TOL,
) -> DesignResult:
    """Emit a finite-range potential realizing the target amplitudes at k0.

    One block per factor of ``factor_matrices``: a right-invisible block for
    each lower-triangular factor, a left-invisible one for each upper.  Blocks
    are placed left to right with positive gaps (whole-period translations
    keep each block's amplitudes on target).  Each block is solved once, by
    ``matrix_at(block, k0, "auto", verify_tol / 50 / len(blocks))``, and
    checked on that matrix.  The product of the blocks' matrices, which is
    ``matrix_at(potential, k0, "auto", verify_tol / 50)``, forward-verifies
    the composed potential.
    """
    _check_positive_finite(verify_tol, "verify_tol")
    k0 = spec.k0
    ell = math.pi / k0
    gap = ell / 4 if gap is None else float(gap)
    if gap <= 0:
        raise ValueError("gap must be positive (supports must stay disjoint)")

    placed = _place_blocks(k0, factor_matrices(spec), start, gap, winding)
    potential = Sum([profile for profile, _ in placed])
    target = spec.target_matrix().m
    scale = max(1.0, float(np.abs(target).max()))
    mats = [matrix_at(profile, k0, "auto", verify_tol / 50 / len(placed)) for profile, _ in placed]
    blocks = [_checked_block(p, r, m, verify_tol) for (p, r), m in zip(placed, mats)]

    alg_residual = float(np.abs(_product([b.factor for b in blocks]) - target).max())
    if not alg_residual <= 1e-10 * scale:
        raise DesignError(
            f"factorization does not reproduce the target matrix: {alg_residual:.3e}"
        )
    achieved = _product([m.m for m in mats])
    residual = float(np.abs(achieved - target).max())
    if blocks and not residual <= 5 * verify_tol * scale:
        raise DesignVerificationError(
            "composed potential failed forward verification",
            {"matrix_residual": residual},
        )

    return DesignResult(
        spec=spec,
        potential=potential,
        blocks=tuple(blocks),
        target=target,
        achieved=achieved,
        matrix_residual=residual,
    )


def write_profile_csv(potential: Potential, path) -> None:
    """Sampled profile export (x, Re v, Im v) for plotting or fabrication,
    every number as ``'%.17g'`` from one ``_g17.format_rows`` call."""
    a, b = potential.support()
    if b <= a:
        x = np.array([a, a + 1.0])
    else:
        x = np.linspace(a, b, PROFILE_POINTS)
    v = np.atleast_1d(potential.evaluate(x))
    with open(path, "w") as fh:
        fh.write("x,re_v,im_v\n")
        fh.write(format_rows(np.column_stack([x, v.real, v.imag]), ",,\n"))
