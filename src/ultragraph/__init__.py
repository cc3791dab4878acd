"""Combinatorial machinery of ultragraph algebras, exact and finite.

Vertex-set lattices, ultrapaths and lasso paths, the tight inverse
semigroup, the boundary-path groupoid with its slices and cylinder
sets, symbolic Cuntz-Krieger families, and the structural criteria that
feed simplicity verdicts.  Everything is decided exactly on finite
ultragraphs at desk scale.
"""

from .analysis import (
    CofinalityReport,
    KReport,
    Loop,
    StructureReport,
    check_singular_equivalence,
    condition_2,
    condition_K,
    count_first_return_loops,
    is_cofinal,
    is_loop_free,
    loops_at,
    simplicity_verdict,
    skew_product,
)
from .core import (
    GraphStructureError,
    LatticeG0,
    SizeLimitError,
    Ultragraph,
    ValidationReport,
    edge_adjacency,
    emitted_edges,
    format_set,
    generate_lattice,
    reachable_from,
    reaches,
    require_no_sinks,
    sinks,
    validate,
)
from .fileformat import ParseError, emit, emit_file, parse, parse_file
from .fixtures import gw, gx, gy
from .groupoid import (
    CheckReport,
    CheckResult,
    CKFamily,
    CylinderSet,
    GroupoidElement,
    bisection_member,
    build_elements,
    check_bisection_homomorphism,
    check_family,
    check_groupoid_laws,
    check_hausdorff,
    check_orbit_density,
    ck_family,
    compose,
    cylinder_member,
    groupoid_element,
    inverse,
    make_cylinder,
    refine_words,
    unit_at,
    verify_ck,
    witness,
)
from .paths import (
    LassoPath,
    Ultrapath,
    concat,
    concat_lasso,
    count_lassos,
    count_paths,
    edge_path,
    enumerate_lassos,
    enumerate_paths,
    initial_segment,
    lasso_source,
    make_lasso,
    make_path,
    shift_n,
    strip_lasso,
    unroll,
    vertex_path,
)
from .semigroup import (
    OMEGA,
    OMEGA_CHARACTER,
    Semicharacter,
    SGElement,
    eval_char,
    filter_of,
    generate_elements,
    idempotent,
    idempotent_leq,
    idempotent_leq_by_shape,
    is_idempotent,
    pair,
    product,
    star,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
