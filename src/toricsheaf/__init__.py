"""Exact cohomology and multigraded Hilbert functions of equivariant
reflexive sheaves on smooth complete toric varieties, described by their
ray filtrations."""

import types as _types

from .cohomology import (
    CharacterBox,
    SheafCohomology,
    enumeration_box,
    euler_characteristic,
    sigma_piece,
)
from .config import JobConfig, build_variety, load_config, parse_config
from .errors import (
    ConfigError,
    InternalConsistencyError,
    UnboundedSystemError,
    UnsupportedVarietyError,
)
from .filtration import (
    EquivariantReflexiveSheaf,
    KlyachkoFiltration,
    PresentationDegrees,
    delta_normalization,
    jump_bounds_from_presentation,
    line_bundle,
    structure_sheaf,
    twist,
    validate,
)
from .hilbert import (
    HalfPlane,
    SupportRegion,
    hilbert_function,
    hilbert_polynomial,
    in_support_lower_bound,
    in_support_upper_bound,
    lower_support_region,
    mobius_weights,
    rank1_hilbert_polynomial,
    regularity_region,
    regularity_thresholds,
    upper_support_regions,
)
from .monomial import MonomialIdeal, sigma_piece_dim
from .polynomials import (
    RationalPolynomial,
    bernoulli_number,
    bernoulli_polynomial,
    faulhaber_sum,
    format_polynomial,
    simplex_sum,
)
from .polytopes import (
    IntervalConstraintSystem,
    assemble_slices,
    feasible_metasystem,
    feasible_system1,
    omega_system,
    psi_m_sliced,
    psi_n,
    psi_points,
)
from .rational_linalg import Subspace, intersect, span, subspace_sum
from .toric import (
    Cone,
    ToricVariety,
    hirzebruch,
    projective_space,
    split_bundle,
    split_data,
)

# the public names, without the submodules the imports above also bind
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
__version__ = "0.1.0"
