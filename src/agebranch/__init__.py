"""Branch continuation of positive equilibria for age-structured populations
with density-dependent diffusion and renewal birth conditions."""

from .errors import (
    CoefficientBoundError,
    ConfigError,
    NoPositiveEigenvalueError,
    PositivityError,
    SingularSystemError,
    StepFailureError,
)
from .model import (
    AgeSpaceField,
    FAMILY_NAMES,
    Grid,
    ModelSpec,
    SpatialField,
    build_grid,
    field_norm,
    make_spec,
    total_population,
    trace_norm,
    weighted_inner,
)
from .operators import (
    EllipticOperator,
    assemble_elliptic,
    birth_functional,
    evolve,
    next_generation_operator,
)
from .solver import (
    AffineConstraint,
    Branch,
    BranchPoint,
    InvariantReport,
    PointDiagnostics,
    branch_invariant_check,
    continue_branch,
    full_residual,
    jacobian,
    newton_correct,
)
from .spectral import (
    BifurcationPoint,
    PerronResult,
    SimplicityCertificate,
    bifurcation_point,
    check_simplicity,
    perron_eigenpair,
)
from .validate import (
    KernelReport,
    TransientState,
    kernel_dimension,
    simulate_transient,
)

__version__ = "0.1.0"
