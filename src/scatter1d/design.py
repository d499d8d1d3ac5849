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

import math
from dataclasses import dataclass

import numpy as np

from .engines import s_curve_solve
from .potentials import Potential, SmisProfile, Sum
from .scan import matrix_at
from .transfer import ScatteringData, TransferMatrix, chain_product, matrix_from_amplitudes

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
        if k0 <= 0:
            raise ValueError("k0 must be positive")
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
    """One unidirectionally invisible building block, forward-verified."""

    orientation: str            # 'right_invisible' | 'left_invisible'
    reflection: complex         # the realized nonzero amplitude at k0
    profile: SmisProfile
    factor: np.ndarray          # its 2x2 transfer matrix at k0
    residuals: dict[str, float]

    @property
    def support(self) -> tuple[float, float]:
        return self.profile.support()

    def conjugated(self) -> "InvisibleBlock":
        """Time-reversed block: orientation flips, reflection maps to -conj(R)."""
        prof = SmisProfile(
            self.profile.k0,
            self.profile.alpha,
            self.profile.winding,
            self.profile.translation,
            not self.profile.conjugated,
        )
        flip = (
            "left_invisible"
            if self.orientation == "right_invisible"
            else "right_invisible"
        )
        refl = -np.conj(self.reflection)
        return InvisibleBlock(flip, refl, prof, _factor_for(flip, refl), self.residuals)


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


def default_winding(magnitude: float, alpha_max: float = DEFAULT_ALPHA_MAX) -> int:
    """Smallest winding keeping the profile amplitude parameter <= alpha_max."""
    c_needed = (1.0 + alpha_max) ** 3 / (2.0 * alpha_max)
    return max(1, math.ceil(c_needed * magnitude / (4.0 * np.pi)))


def _verify_block(
    profile: SmisProfile, k0: float, expect: ScatteringData, verify_tol: float
) -> dict[str, float]:
    got, _ = s_curve_solve(profile, k0, tol=min(1e-11, verify_tol * 1e-3))
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
    bad = {k: v for k, v in residuals.items() if v > limits[k]}
    if bad:
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
    """
    return _build_invisible(k0, r_left_target, winding, m, verify_tol, conjugated=False)


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
    """
    return _build_invisible(k0, r_right_target, winding, m, verify_tol, conjugated=True)


def _translation(k0: float, reflection: complex, m: int, conjugated: bool) -> float:
    """Shift a = (phi0 + pi/2 + 2 pi m)/(2 k0) that puts the block's
    reflection phase on the target's (on -conj(target) when conjugated)."""
    phase = -np.conj(reflection) if conjugated else reflection
    phi0 = math.atan2(phase.imag, phase.real) % (2 * math.pi)
    return (phi0 + math.pi / 2 + 2 * math.pi * m) / (2 * k0)


def _build_invisible(
    k0: float,
    reflection: complex,
    winding: int | None,
    m: int,
    verify_tol: float,
    conjugated: bool,
) -> InvisibleBlock:
    """The right-invisible block for R_l = reflection, or (conjugated) the
    left-invisible block for R_r = reflection, its time reversal."""
    target = complex(reflection)
    if target == 0:
        raise ValueError(f"target {'right' if conjugated else 'left'} reflection must be nonzero")
    n = default_winding(abs(target)) if winding is None else int(winding)
    alpha = alpha_for_reflection(abs(target), n)
    profile = SmisProfile(k0, alpha, n, _translation(k0, target, m, conjugated), conjugated)
    orientation = "left_invisible" if conjugated else "right_invisible"
    r_left, r_right = (0.0, target) if conjugated else (target, 0.0)
    residuals = _verify_block(profile, k0, ScatteringData(r_left, r_right, 1.0, k0), verify_tol)
    return InvisibleBlock(orientation, target, profile, _factor_for(orientation, target), residuals)


# ---------------------------------------------------------------------------
# Factorization into triangular matrices
# ---------------------------------------------------------------------------


def factor_matrices(spec: DesignSpec, rho: complex | None = None) -> list[np.ndarray]:
    """Triangular factors, in spatial order, whose right-to-left product is
    the target transfer matrix at k0.

    General case (R_r0 != 0, T0 != 1) with rho* = (T0-1)/R_r0:

        F1 = [[1, 0], [rho* T0 - R_l0, 1]],
        F2 = [[1, R_r0/T0], [0, 1]],
        F3 = [[1, 0], [-rho*, 1]].

    T0 = 1 collapses to [[1,0],[-R_l0,1]] then [[1,R_r0],[0,1]]; the doubly
    reflectionless case uses the four-factor split with rho = 1/T0; factors
    equal to the identity are dropped.
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
            rho_star = (t0 - 1.0) / rr0 if rho is None else complex(rho)
            factors = [lower(rho_star * t0 - rl0), upper(rr0 / t0), lower(-rho_star)]
    elif rl0 != 0:
        # handled by time reversal in solve_single_mode; factor for reference
        reversed_spec = _time_reversed_spec(spec)
        factors = [_conj_factor(f) for f in factor_matrices(reversed_spec, rho)]
    else:
        if unit_t:
            return []
        rho_v = (1.0 / t0) if rho is None else complex(rho)
        factors = [
            lower(rho_v * t0),
            upper((t0 - 1.0) / (rho_v * t0)),
            lower(-rho_v),
            upper((1.0 - t0) / rho_v),
        ]
    return [f for f in factors if np.abs(f - np.eye(2)).max() > 0]


def _conj_factor(f: np.ndarray) -> np.ndarray:
    # time reversal maps a factor F to sigma1 F* sigma1 (swap + conjugate)
    return np.array(
        [[np.conj(f[1, 1]), np.conj(f[1, 0])], [np.conj(f[0, 1]), np.conj(f[0, 0])]]
    )


def _time_reversed_spec(spec: DesignSpec) -> DesignSpec:
    d = np.conj(spec.t**2 - spec.r_left * spec.r_right)
    return DesignSpec(
        spec.k0,
        -np.conj(spec.r_right) / d,
        -np.conj(spec.r_left) / d,
        np.conj(spec.t) / d,
    )


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
    spec: DesignSpec,
    factors: list[np.ndarray],
    start: float,
    gap: float,
    winding: int | None,
    verify_tol: float,
    conjugate_all: bool,
) -> list[InvisibleBlock]:
    k0 = spec.k0
    ell = math.pi / k0
    blocks: list[InvisibleBlock] = []
    cursor = start
    for f in factors:
        lower = abs(f[1, 0]) > 0  # lower triangular -> right-invisible block
        target = -complex(f[1, 0]) if lower else complex(f[0, 1])
        builder = build_right_invisible if lower else build_left_invisible
        # a block's support starts at its translation a0 + m_shift * ell
        a0 = _translation(k0, target, 0, conjugated=not lower)
        m_shift = max(0, math.ceil((cursor + gap - a0) / ell))
        block = builder(k0, target, winding, m_shift, verify_tol)
        blocks.append(block)
        cursor = block.support[1]
    if conjugate_all:
        blocks = [b.conjugated() for b in blocks]
    return blocks


def solve_single_mode(
    spec: DesignSpec,
    winding: int | None = None,
    gap: float | None = None,
    start: float = 0.0,
    verify_tol: float = DEFAULT_VERIFY_TOL,
    forward_verify: bool = True,
) -> DesignResult:
    """Emit a finite-range potential realizing the target amplitudes at k0.

    Case split: R_r0 != 0 uses the three-factor (or two-factor at T0 = 1)
    decomposition directly; R_r0 = 0 != R_l0 designs the time-reversed target
    and conjugates the result; doubly reflectionless targets use the
    four-factor split.  Blocks are placed left to right with positive gaps
    (whole-period translations keep each block's amplitudes on target), and
    the composed potential is forward-verified block by block with ``matrix_at``.
    """
    k0 = spec.k0
    ell = math.pi / k0
    gap = ell / 4 if gap is None else float(gap)
    if gap <= 0:
        raise ValueError("gap must be positive (supports must stay disjoint)")

    conjugate_all = spec.r_right == 0 and spec.r_left != 0
    working = _time_reversed_spec(spec) if conjugate_all else spec
    factors = factor_matrices(working)
    blocks = _place_blocks(
        working, factors, start, gap, winding, verify_tol, conjugate_all
    )
    potential = Sum([b.profile for b in blocks])
    target = spec.target_matrix().m

    if blocks:
        achieved_alg = chain_product(np.stack([b.factor for b in blocks]))
    else:
        achieved_alg = np.eye(2, dtype=complex)
    alg_residual = float(np.abs(achieved_alg - target).max())
    if alg_residual > 1e-10 * max(1.0, float(np.abs(target).max())):
        raise DesignError(
            f"factorization does not reproduce the target matrix: {alg_residual:.3e}"
        )

    if forward_verify and blocks:
        m = matrix_at(potential, k0, "auto", verify_tol / 50)
        achieved = m.m
        residual = float(np.abs(achieved - target).max())
        if residual > 5 * verify_tol * max(1.0, float(np.abs(target).max())):
            raise DesignVerificationError(
                "composed potential failed forward verification",
                {"matrix_residual": residual},
            )
    else:
        achieved = achieved_alg
        residual = alg_residual

    return DesignResult(
        spec=spec,
        potential=potential,
        blocks=tuple(blocks),
        target=target,
        achieved=achieved,
        matrix_residual=residual,
    )


def write_profile_csv(potential: Potential, path, npoints: int = 2048) -> None:
    """Sampled profile export (x, Re v, Im v) for plotting or fabrication."""
    a, b = potential.support()
    if b <= a:
        x = np.array([a, a + 1.0])
    else:
        x = np.linspace(a, b, npoints)
    v = np.atleast_1d(potential.evaluate(x))
    with open(path, "w") as fh:
        fh.write("x,re_v,im_v\n")
        for xi, vi in zip(x, v):
            fh.write(f"{xi:.17g},{vi.real:.17g},{vi.imag:.17g}\n")
