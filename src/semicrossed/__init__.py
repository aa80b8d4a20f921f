"""Semicrossed products of one-sided dynamical systems.

The package models a compact system (circle multiplication, shifts of finite
type, finite permutations) together with its minimal invertible extension,
builds finitely supported operator elements over it, realizes them in
concrete matrix families, and certifies operator norm brackets that are tight
enough to compare the one-sided algebra with the two-sided one.
"""

from .corpus import (
    Budgets,
    canonical_ext_samples,
    cosine_element,
    default_samples,
    doubling_map,
    golden_mean_shift,
    orbit_representatives,
    periodic_points,
    periodic_rationals,
    random_crossed_element,
    random_semicrossed_element,
    seeded_aperiodic_rationals,
    seeded_lifts,
)
from .checks import ALL_CHECKS, CheckReport, CheckRow
from .elements import (
    Element,
    RightFormElement,
    add,
    adjoint,
    compose_shift_element,
    constant_element,
    element,
    from_base,
    from_right_form,
    is_semicrossed,
    l1_upper_bound,
    multiply,
    require_semicrossed,
    scale,
    shift_element,
    times_shift_power,
    to_right_form,
)
from .errors import (
    BadLambda,
    ConfigError,
    DepthTooLarge,
    InvalidMatrix,
    KindMismatch,
    NonFinite,
    NotPeriodic,
    NotSemicrossed,
    OrbitCollision,
    SemicrossedError,
    SeparationImpossible,
    WindowTooSmall,
    WrongForm,
)
from .extension import (
    AlwaysMin,
    ExplicitTail,
    LazyLift,
    PeriodicLift,
    SeededRandom,
    classify_lift,
    ext_points_equal,
    lift_point,
    periodic_lift,
    project,
    shift,
    shift_inverse,
    shift_power,
    two_sided_sft_properties,
    verify_transfer,
)
from .functions import (
    CylinderFunction,
    ExtFunction,
    NormBracket,
    TabularFunction,
    TrigPoly,
    base_add,
    base_conj,
    base_mul,
    base_scale,
    compose_map,
    compose_shift,
    compose_shift_inverse,
    compose_shift_power,
    constant_base,
    constant_ext,
    evaluate,
    evaluate_base,
    ext,
    ext_add,
    ext_conj,
    ext_equal,
    ext_mul,
    ext_scale,
    ext_sup_norm,
    lift_to_depth,
    sup_norm,
    validate_base,
)
from .norms import (
    NormEstimate,
    bilateral_orbit_check,
    embed_periodic_vector,
    embedding_check,
    orbit_norm_estimate,
    periodic_norm_estimate,
    periodic_vector_check,
    semicrossed_norm,
    spectral_norm,
    twisted_periodic_matrix,
)
from .reps import (
    BackwardOrbitRep,
    BilateralWindowRep,
    OrbitTruncation,
    PeriodicOrbitRep,
    backward_matrix,
    bilateral_matrix,
    covariance_defect,
    invariant_subspaces_are_tails,
    orbit_matrix,
    periodic_ext_matrix,
    periodic_matrix,
    rep_matrix,
)
from .systems import (
    CircleTimesK,
    Classification,
    PermutationSystem,
    RationalPoint,
    ShiftOfFiniteType,
    StatePoint,
    System,
    WordPoint,
    admissible_words,
    apply_map,
    classify,
    forward_orbit,
    point_key,
    preimages,
    rational,
    separating_function,
    sft_properties,
    validate_transition,
)

__version__ = "0.1.0"

# every public name bound above, submodules excepted
import types as _types

__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
del _types
