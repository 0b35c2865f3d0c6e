"""vincl: a proximal-point workbench for set-valued variational inclusions.

Solves omega in F(v, w) + M(f(u), g(u)) by resolvent iteration and
numerically certifies every operator-property constant the convergence
theory consumes.
"""

from .space import (
    SpaceConfig,
    DimensionMismatchError,
    InvalidExponentError,
    as_vector,
    characteristic_inequality_check,
    duality_map,
    inner,
    norm,
)
from .operators import (
    AdditiveBiSlot,
    AffineMap,
    AffinePairMap,
    ConstantSetMap,
    Constants,
    DifferenceCoupling,
    EmptySetError,
    IdentitySetMap,
    InclusionInstance,
    MissingConstantsError,
    NearestNodeSetMap,
    ResidualReport,
    SingletonSetMap,
    eval_H_on_point,
    eval_M_on_point,
    h_composite,
    hausdorff_distance,
    inclusion_residual,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    dump_instance,
    m_composite,
    ordering_flags,
)
from .certify import (
    Certificate,
    CertificateBundle,
    InsufficientEvidenceError,
    SamplePlan,
    certify_F_properties,
    certify_d_lipschitz,
    certify_expansive,
    certify_generalized_mixed_accretive,
    certify_instance,
    certify_lipschitz,
    certify_m_slot_accretive,
    certify_mixed_lipschitz,
    certify_relaxed_accretive,
    certify_strong_accretive,
    certify_symmetric_mixed_cocoercive,
)
from .resolvent import (
    AuditReport,
    NonSurjectiveError,
    Resolvent,
    ResolventConfig,
    ResolventIterationError,
    audit_lipschitz,
    forward,
    resolve,
    theoretical_r_m,
)
from .solver import (
    ConditionReport,
    DivergenceError,
    GeometricErrors,
    SolveTrace,
    SolverConfig,
    check_condition_vi,
    contraction_factor_bound,
    nadler_select,
    solve,
    theta,
)
from .instances import (
    NamedInstance,
    builtin_names,
    example_3_2,
    example_3_3,
    example_4_7,
    get_instance,
    reduction_constructors,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
