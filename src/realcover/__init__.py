"""Coverings of the real projective line by real curves: admissibility,
certified construction plans, and piecewise-linear verification."""

from .arcs import FULL_CIRCLE, Arc, FullCircle
from .brill_noether import dims, expected_pencil_dim, facts, lookup_fact, rho
from .constructions import (
    BaseSeed,
    ConstructionStep,
    GenericPencil,
    GenericR0Pencil,
    Hyperelliptic,
    HyperellipticToR0,
    LabeledState,
    PreconditionViolated,
    SeedNotInCatalog,
    StepKind,
    Variant,
    apply_step,
    seed_state,
)
from .covering4 import CoveringNumberTarget, InfeasibleTarget, build_covnum, covering_number
from .planner import Infeasible, Plan, plan, verify_plan
from .plsim import (
    BudgetExceeded,
    PLCover,
    PLMap,
    fiber_profile,
    image_arcs,
    realize,
    surgery,
)
from .topology import (
    CoverSpec,
    CoverTarget,
    DegreeVector,
    TopType,
    enumerate_admissible,
    target_admissible,
    weichold_admissible,
)

__version__ = "0.1.0"
