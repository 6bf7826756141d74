"""Exact-arithmetic toolkit for the degree-64 Fano threefold classification.

Submodules:

* lattice: lattice vectors as int triples; det3, solve3 and vec_str
* surfaces: divisor arithmetic on the plane and Hirzebruch surfaces
* bundles: Chern-class calculus on projectivized bundles, and the
  anticanonical degree of rank-3 scrolls
* wps: weighted projective 3-space invariants
* toric: fans, cone singularities and anticanonical polytopes
* ledger: degree/genus bookkeeping under blow-ups and projections
* elimination: the case-analysis engine, built at degree 64, and the
  classification summary
* cli: the `fano64` command-line tool
"""

from .bundles import (
    BundleClass,
    RankTwoBundle,
    Scroll,
    c1_nef_dominated,
    chi_rank2,
    degree_p1_bundle,
    kg2_integral,
    p1_bundle_anticanonical,
    rr_dim_anticanonical,
    scroll_degree,
    solve_c2_for_degree,
    split_gap_bound_holds,
    triple_intersection,
    twist,
)
from .elimination import (
    ArithmeticContradiction,
    CaseRecord,
    GeometricArgument,
    Survives,
    check_ledger,
    classification_summary,
    eliminate_p1_bundles,
    filter_quadric_bundle_degrees,
    record_from_payload,
    record_to_payload,
    requirement_holds,
    surviving_constructions,
    sweep_twisted_bundles,
    verify_record,
)
from .lattice import det3, solve3
from .ledger import (
    FanoRecord,
    blowup_curve_degree,
    genus_of_degree,
    project_from_center,
)
from .surfaces import (
    BaseSurface,
    F0,
    F1,
    F2,
    F3,
    F4,
    P2,
    SurfaceClass,
    anticanonical_class,
    canonical_class,
    intersect,
    k_squared,
    nef_cone_generators,
    plane_class,
    ruled_class,
)
from .toric import (
    ConeSingularity,
    ConeSingularityKind,
    Fan,
    FanReport,
    RationalPolytope,
    anticanonical_polytope,
    classify_index2_cone,
    cone_lattice_index,
    fan_from_json,
    gorenstein_support,
    polytope_degree,
    validate_fan,
)
from .wps import (
    QuotientType,
    Weights,
    wps_anticanonical_index,
    wps_degree,
    wps_edge_singularity,
    wps_is_gorenstein,
    wps_vertex_singularity,
)

__version__ = "0.1.0"
