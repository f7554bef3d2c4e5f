"""Toolkit for piecewise-affine financial network dynamics.

Models equity propagation with cross-holdings, external assets and
threshold-triggered failure costs; enumerates equilibria, certifies
invariant regions and regions of attraction, bounds behavior under
interval-uncertain holdings, detects periodic orbits, and computes
minimal cash injections and asset reallocations.
"""

from .netmodel import (
    FinancialNetwork,
    ShiftedModel,
    Trajectory,
    indicator,
    orthant_of,
    orthant_phi,
    positivity_holds,
    simulate,
    validate,
)
from .equilibria import (
    DimensionTooLargeError,
    EquilibriumRecord,
    ExistenceReport,
    candidate_equilibrium,
    enumerate_equilibria,
    existence_conditions,
)
from .invariance import (
    InvarianceReport,
    NotDeterminedError,
    Polyhedron,
    finite_determination_index,
    intermediate_not_invariant,
    invariance_report,
    last_orthant_invariant,
    maximal_invariant_region,
    orthant0_invariant,
    polyhedra_equivalent,
    prune_redundant,
    region_of_attraction,
    stable_region,
)
from .robust import (
    IntervalNetwork,
    NoPositiveEquilibriumError,
    RobustReport,
    extremal_fixed_points,
    last_hope_membership,
    robust_invariant_set,
    robust_report,
    sandwich_bounds,
)
from .cycles import (
    CycleHit,
    InsufficientLengthError,
    LimitClassification,
    detect_cycle,
    periodic_points,
    verify_no_period2,
)
from .intervene import (
    InjectionProblem,
    InterventionPlan,
    IterationCapReached,
    ReallocationProblem,
    asset_reallocation,
    drive_to_invariant,
    minimal_injection,
)
from .numerics import (
    InfeasibleError,
    LinearProgram,
    SingularMatrixError,
    UnboundedError,
    lp_solve,
    solve_linear,
)

__version__ = "0.1.0"
