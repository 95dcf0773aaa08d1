"""Exact-arithmetic anticanonical geometry of surfaces.

Build a surface as iterated blow-ups of a minimal base with a declared
curve catalog, then compute Zariski decompositions, contraction
discrepancies, and log del Pezzo pair classifications — all over exact
rationals, all relative to the catalog.
"""

from .errors import (
    CatalogInsufficient,
    DegenerateConfiguration,
    GeometryError,
    IncompatibleSurfaces,
    InternalInconsistency,
    InvalidSurfaceData,
    NotContractible,
    NotSimpleNormalCrossings,
    PreconditionFailure,
    RedundancyViolation,
)
from .lattice import (
    DivisorClass,
    IntersectionMatrix,
    PicardLattice,
    Q,
    format_rational,
    intersect,
    is_negative_definite,
    rational,
    solve_linear,
)
from .pairs import (
    AnticanonicalAnalysis,
    BoundaryDivisor,
    ClassVerdict,
    KLT_CLASSES,
    WEAK_CLASSES,
    WitnessParams,
    certify_class_equalities,
    check_EP_condition,
    check_EP_for_contraction,
    classify_nonrational,
    construct_good_boundary,
    construct_klt_boundary,
    construct_klt_boundary_via_cone,
    cox_finitely_generated,
    decide_klt_pair_exists,
    decide_weak_lc_pair_exists,
    find_redundant_points,
    pushforward_pair,
    redundant_blow_up,
)
from .singular import (
    ContractionData,
    SingularityVerdict,
    contract,
    discrepancies_with_boundary,
    dual_graph,
    is_snc_configuration,
)
from .surface import (
    BaseSurface,
    BlowUpRecord,
    CurveRecord,
    SurfaceModel,
    arithmetic_genus,
    blow_up,
    build_base,
    declare_curve,
    dumps,
    extend_to,
    from_description,
    loads,
    to_description,
)
from .zariski import (
    CATALOG_CAVEAT,
    CurveSet,
    ZariskiDecomposition,
    ample_on_catalog,
    big_test,
    nef_on_catalog,
    null_locus,
    zariski_decompose,
)

__version__ = "0.1.0"
