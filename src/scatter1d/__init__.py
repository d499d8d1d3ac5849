"""scatter1d: 1D scalar-wave scattering by complex finite-range potentials.

Transfer-matrix computation (closed forms, a dynamical slicing engine, a
wave-equation engine, and the unit-circle S-curve method), Born/Dyson
approximations, spectral-singularity scans, and exact single-mode inverse
design from unidirectionally invisible building blocks.
"""

from .potentials import (
    DeltaComb,
    DeltaTerm,
    ExpGrating,
    FourierCell,
    LocallyPeriodic,
    PiecewiseConstant,
    Potential,
    QuadratureError,
    Sampled,
    SmisProfile,
    Sum,
    TimeReversed,
    Translated,
    from_permittivity,
    load_potential,
    potential_from_dict,
    potential_to_dict,
    save_potential,
    zero_potential,
)
from .transfer import (
    Classification,
    ScatteringData,
    SpectralSingularityError,
    TransferMatrix,
    WavenumberMismatchError,
    amplitudes_from_matrix,
    classify,
    compose,
    compose_chain,
    matrix_from_amplitudes,
    time_reverse_matrix,
    translate_matrix,
)
from .exact import (
    NotExactlySolvable,
    UnimodularPower,
    barrier_matrix,
    delta_matrix,
    exact_matrix,
    locally_periodic_matrix,
    multi_delta_matrix,
    piecewise_matrix,
    unimodular_power,
)
from .engines import (
    EffectiveHamiltonian,
    InconsistentTransmission,
    LsResult,
    SCurvePoleError,
    SCurveTrace,
    ToleranceNotReached,
    WaveSolution,
    ls_amplitudes,
    s_curve_solve,
    scattering_solution,
    transfer_matrix_dynamical,
)
from .approx import (
    ApproxReport,
    DysonSingularError,
    GridTooCoarseError,
    born_first,
    born_inverse,
    dyson_order1,
    dyson_order2,
    exp_grating_reference,
)
from .scan import (
    NoZeroFound,
    ScanResult,
    SingularPoint,
    default_scan_points,
    matrix_at,
    refine_zero,
    scan,
    singular_summary,
    write_scan_csv,
)
from .design import (
    DesignError,
    DesignResult,
    DesignSpec,
    DesignVerificationError,
    InvisibleBlock,
    TargetUnreachableError,
    alpha_for_reflection,
    build_left_invisible,
    build_right_invisible,
    default_winding,
    factor_matrices,
    residue_reflection,
    solve_single_mode,
    write_profile_csv,
)

__version__ = "0.1.0"
