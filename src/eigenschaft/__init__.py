"""Hermitian involutions and what they buy you in measurement terms.

The package centers on operators that are simultaneously self-adjoint and
unitary, hence square to the identity.  It provides closed-form
constructions in dimensions 2 to 4, conversion to and from projector
families, the mean/dispersion decomposition of a Hermitian operator on a
state, density-matrix purity diagnostics, two-level phase dynamics, and an
interferometer simulator that recovers arm magnitudes and relative phase
from a single fringe sweep.
"""

from .dynamics import BeatSample, TwoLevelSystem, beat_trace, evolve_h2
from .errors import (
    ConstructionError,
    ConvergenceError,
    DomainError,
    EigenschaftError,
    FitError,
    SerializationError,
    ShapeError,
)
from .interferometer import (
    FitDiagnostics,
    FringeRecord,
    HolographicReport,
    InterferometerConfig,
    RecoveredState,
    RecoveryResult,
    TruthError,
    holographic_report,
    recover_state,
    run_interferometer,
    uniform_sweep,
)
from .linalg import (
    MAX_MAGNITUDE,
    Spectrum,
    TOL_HERM,
    TOL_INV,
    TOL_ORTHO,
    TOL_RECON,
    hermitian_eig,
    hermiticity_residual,
    involution_residual,
    max_abs,
    unitarity_residual,
)
from .operators import (
    AlgebraTable,
    DiagSpec,
    EigenschaftOp,
    H2Elements,
    H2Params,
    ProductExpansion,
    ProjectorDecomposition,
    ProjectorSet,
    ValidationReport,
    algebra_table,
    build_from_diag,
    build_h2,
    build_kron_family,
    complement_family,
    from_projector_flip,
    h2_elements,
    hadamard,
    to_projectors,
    validate,
    wrap_phase,
)
from .states import (
    Classification,
    Decomposition,
    DensityMatrix,
    DISPERSION_EPS,
    StateVector,
    TOL_NORM,
    classify,
    decompose_state,
    diagonal_truncate,
    outer_product,
    superpose,
)

__version__ = "0.25.0"
