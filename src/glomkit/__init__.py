"""Exact-arithmetic analysis of coupled Volterra-gyrostat low-order models.

The package constructs coupled-gyrostat models, counts and reconstructs
their quadratic invariants, decides non-canonical Hamiltonian structure
via the Jacobi condition, extracts Casimirs from the nullspace of the
skew matrix J, builds Hamiltonian model hierarchies, and verifies
conservation numerically with a fixed-step RK4 integrator.
"""

from .errors import (
    ConfigError,
    ConsistencyError,
    ContractViolation,
    EnergyViolation,
    IntegrationError,
)
from .exactmath import (
    Poly,
    PolyMatrix,
    VarTable,
    generic_rank,
    nullspace_exact,
    nullspace_symbolic,
    proportional,
)
from .hamiltonian import CasimirSet, JacobiReport, build_J, casimirs, jacobi
from .hierarchy import (
    HierarchyReport,
    HierarchySpec,
    check_recurrence,
    generate,
    hierarchy_report,
    incremental_jacobi,
    projection_consistency,
)
from .invariants import (
    InvariantReport,
    InvariantSystem,
    QuadraticForm,
    build_system,
    count_invariants,
    enumerate_subclasses,
    monotonicity_check,
    sparse_invariants,
)
from .models import (
    EnergyReport,
    Glom,
    Gyrostat,
    ParamSpec,
    SignSymmetry,
    VectorField,
    assemble_field,
    builtin_model,
    check_energy,
    find_sign_symmetries,
    no_linear_feedback,
)
from .simulate import DriftReport, SimConfig, dimension_probe, integrate

__version__ = "0.1.0"

__all__ = [
    "CasimirSet",
    "ConfigError",
    "ConsistencyError",
    "ContractViolation",
    "DriftReport",
    "EnergyReport",
    "EnergyViolation",
    "Glom",
    "Gyrostat",
    "HierarchyReport",
    "HierarchySpec",
    "IntegrationError",
    "InvariantReport",
    "InvariantSystem",
    "JacobiReport",
    "ParamSpec",
    "Poly",
    "PolyMatrix",
    "QuadraticForm",
    "SignSymmetry",
    "SimConfig",
    "VarTable",
    "VectorField",
    "assemble_field",
    "build_J",
    "build_system",
    "builtin_model",
    "casimirs",
    "check_energy",
    "check_recurrence",
    "count_invariants",
    "dimension_probe",
    "enumerate_subclasses",
    "find_sign_symmetries",
    "generate",
    "generic_rank",
    "hierarchy_report",
    "incremental_jacobi",
    "integrate",
    "jacobi",
    "monotonicity_check",
    "no_linear_feedback",
    "nullspace_exact",
    "nullspace_symbolic",
    "projection_consistency",
    "proportional",
    "sparse_invariants",
]
