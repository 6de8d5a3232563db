"""Exact classification of weak contact conics of two-node one-cusp quartics.

The package works over the number field Q(sqrt(2), i) with exact
arithmetic throughout: plane-curve geometry (singularities, intersection
multiplicities, the standard quadratic transformation), the elliptic
surface attached to a quartic with a distinguished tangency at infinity,
the height pairing on its sections, and the finite lattice enumeration
that counts contact conics by the singular points they pass through.

A worked example (a specific quartic, its contact conics, and the
sections they come from) is bundled and re-verified on load; the
``contactconics`` command line exposes every capability.
"""

from types import ModuleType as _ModuleType

from .curves import (
    CASE_B,
    CASE_S,
    CASE_SC,
    CASE_SN,
    CUSP,
    NODE,
    OTHER,
    SMOOTH,
    ContactCertificate,
    ContactClass,
    InfinityContact,
    PlaneCurve,
    PlanePoint,
    arrangement_fingerprint,
    classify_tangent_case,
    contact_conic_type,
    cremona_point,
    cremona_transform,
    intersection_multiplicity,
    is_weak_contact,
)
from .errors import (
    ContactConicsError,
    InfiniteMultiplicityError,
    IntegrityError,
    NotKRationalError,
    ParseError,
    PreconditionError,
    UnsupportedSectionError,
)
from .field import ONE, ZERO, FieldElem
from .fixtures import (
    ARRANGEMENT_NAMES,
    ARRANGEMENTS,
    SECTION_NAMES,
    WorkedExample,
    build_worked_example,
    load_worked_example,
)
from .heights import component_contribution, gram_matrix, height
from .lattice import (
    CASE_I,
    CASE_II,
    CASE_III,
    CASE_IV,
    CASE_NAMES,
    CASES,
    CONIC_TYPES,
    PAIR_NAMES,
    CaseFiber,
    CaseLattice,
    ZariskiReport,
    count_by_type,
    enumerate_height_vectors,
    main_theorem_rows,
    smith_invariants,
    target_height,
    vectors_for_type,
    zariski_pair_report,
)
from .parsing import (
    parse_bipoly,
    parse_field_elem,
    parse_point,
    parse_poly,
    parse_ratfunc,
    parse_section,
    parse_triform,
)
from .poly import BiPoly, Poly, RatFunc, TriForm
from .surface import (
    INFINITY,
    FiberInfo,
    Section,
    WeierstrassModel,
    classify_fibers,
    combine,
    component_index,
    from_quartic,
    plane_curve_to_sections,
    section_to_plane_curve,
)

# Every public name imported above that is not a module.
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
