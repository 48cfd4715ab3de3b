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
    NotACoverError,
    NotLipschitzError,
    ValidationError,
)
from .extreal import DEFAULT_TOL, NEG_INF, POS_INF, ExtReal
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
