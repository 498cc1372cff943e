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

__all__ = [
    "AffineConstraint",
    "AgeSpaceField",
    "BifurcationPoint",
    "Branch",
    "BranchPoint",
    "CoefficientBoundError",
    "ConfigError",
    "EllipticOperator",
    "FAMILY_NAMES",
    "Grid",
    "InvariantReport",
    "KernelReport",
    "ModelSpec",
    "NoPositiveEigenvalueError",
    "PerronResult",
    "PointDiagnostics",
    "PositivityError",
    "SimplicityCertificate",
    "SingularSystemError",
    "SpatialField",
    "StepFailureError",
    "TransientState",
    "assemble_elliptic",
    "bifurcation_point",
    "birth_functional",
    "branch_invariant_check",
    "build_grid",
    "check_simplicity",
    "continue_branch",
    "evolve",
    "field_norm",
    "full_residual",
    "jacobian",
    "kernel_dimension",
    "make_spec",
    "newton_correct",
    "next_generation_operator",
    "perron_eigenpair",
    "simulate_transient",
    "total_population",
    "trace_norm",
    "weighted_inner",
]
