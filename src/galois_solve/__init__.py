"""Inversion of finite functional Galois connections.

Decide whether the equation "forward transform of f equals g" has a
solution, whether it is unique, and produce the minimal solution with a
set-covering certificate; plus grid experiments for the classical
conjugacy families.
"""

from .covering import (
    CoverFamily,
    CoverReport,
    check_cover,
    irredundant_subcover,
    smallest_subcover,
)
from .engine import (
    DomainReport,
    FunctionOnSpace,
    SubdiffMap,
    apply_adjoint,
    apply_forward,
    domain_report,
    projector,
    subdiff,
    subdiff_inverse,
)
from .errors import (
    InternalError,
    LimitExceeded,
    NoSolutionError,
    NonMonotoneError,
    NotACoverError,
    NotLipschitzError,
    ValidationError,
)
from .extreal import (
    DEFAULT_TOL,
    NEG_INF,
    POS_INF,
    ExtReal,
    add_hi,
    add_lo,
    approx_eq,
)
from .extreal import inf as einf
from .extreal import sup as esup
from .kernel import (
    FenchelDot,
    GridSpec,
    Kernel,
    OmegaLipschitz,
    Quadratic,
    WeightedPower,
    build_grid_kernel,
    build_moreau,
    build_table,
)
from .lab import (
    GridFunction,
    LabResult,
    exgeom_experiment,
    fenchel_conjugate,
    fenchel_experiment,
    lipschitz_fixed_point,
    quadratic_reduction_check,
    run_experiment,
    weighted_power_domain,
)
from .scalar import (
    Affine,
    DualPair,
    Off,
    ScalarConnection,
    SignedPower,
    TabulatedDecreasing,
    make_affine,
    numeric_adjoint,
)
from .solver import (
    Problem,
    Solution,
    Status,
    StructureReport,
    oracle_check,
    solution_structure,
    solve,
    verify,
)

__version__ = "0.1.0"
