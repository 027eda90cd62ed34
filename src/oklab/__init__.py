"""oklab: exact Newton-Okounkov bodies on small toric testbeds.

Everything runs in exact rational arithmetic (no floats): convex bodies,
Minkowski sums, mixed volumes, toric divisor classes and their positivity
cones, Newton-Okounkov bodies with exactness certificates, and the
verification suites for body additivity and the associated
intersection-number inequalities.
"""

__version__ = "0.1.0"

from .exactgeom import (  # noqa: F401
    FormalBody,
    Polytope,
    convex_hull,
    equals,
    minkowski_sum,
    mixed_volume,
    scale,
    slice_at,
    volume,
)
from .toric import (  # noqa: F401
    AdmissibleFlag,
    CurveModel,
    Fan,
    TDivisor,
    boundary_membership,
    flag_corresponds,
    flag_valuation,
    intersection_number,
    mu,
    polytope_of_divisor,
    testbed,
    testbed_names,
)
from .okounkov import (  # noqa: F401
    NOBody,
    nef_body,
    no_body_rational,
    restricted_body,
    slice_formula_check,
    mu_endpoint_check,
)
from .additivity import (  # noqa: F401
    AdditivityVerdict,
    ConeCLM,
    InclusionViolationError,
    check_additivity,
    in_cone,
    necessary_condition_check,
    slice_decomposition_replay,
    strict_search,
)
from .inequalities import (  # noqa: F401
    DeltaMap,
    InequalityRecord,
    check_cor13,
    cor15_check,
    delta_map,
    injectivity_check,
    lehmann_xiao_check,
    lemma61_check,
    mixed_volume_derivative_check,
)
