"""Restricted Chebyshev centers in finite sup-norm spaces.

Compute the best sup-norm radius achievable from a constrained set (the unit
ball of a kernel subspace, a scaled ball, or the subspace itself), describe
the full center and near-center sets as polytopes, build centers explicitly
from the functional supports, repair near-centers without moving far, and
certify the stability story empirically (scaling identities, perturbation
bounds, stability moduli, and a renormed-ball model with the half-ball
projection property).
"""

__version__ = "0.1.0"

from .centers import (
    CenterProblem,
    CenterReport,
    ball_problem,
    center_set,
    check_scaling_identity,
    check_threshold_equality,
    near_center_set,
    perturbation_slack_bound,
    perturb_toward_center,
    restricted_radius,
    subspace_problem,
)
from .constraints import (
    Functional,
    Polytope,
    Subspace,
    enumerate_vertices,
)
from .construct import (
    RepairInput,
    SlackChoice,
    SupportReduction,
    admissible_slack,
    constructive_center,
    finite_reduction,
    repair_near_center,
    simplex_mode,
)
from .errors import (
    ConstructionError,
    DimensionMismatchError,
    EmptyFamilyError,
    EnumerationError,
    InfeasiblePolytopeError,
    InstanceError,
    LPNumericalError,
    ModelBuildError,
    PreconditionError,
    SupCenterError,
    UnboundedPolytopeError,
)
from .garkavi import (
    GarkaviModel,
    build_model,
    center_trend,
    gauge_norm,
    half_ball_check,
    metric_projection,
    subspace_gauge_distance,
)
from .instances import CenterInstance, RenormInstance, load_corpus, load_instance
from .space import (
    FunctionFamily,
    farthest_radius,
    hausdorff,
    sup_norm,
)
from .stability import (
    ModulusReport,
    p1_modulus,
    worst_near_center_distance,
)

__all__ = [name for name in dir() if not name.startswith("_")]
