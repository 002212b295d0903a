"""Exact solver and verifier for half-monochromatic colorings of plane
graphs with even polygonal faces.

Every record the package returns (PlaneGraph, SearchResult and the rest)
is an immutable typing.NamedTuple: `_replace` copies one with fields
changed, `_fields` names its fields, and it compares equal to a plain
tuple of the same values.
"""

from .coloring import (
    Coloring,
    baseline_coloring,
    check_half_monochromatic,
    check_proper,
    coloring_from_regions,
)
from .dividing import (
    Cycle,
    RegionDecomposition,
    assemble_dividing_system,
    build_division_tree,
    decompose_regions,
    extract_cycles,
)
from .independence import MatchingResult, alpha_bruteforce, maximum_matching
from .instance_io import (
    InstanceFile,
    build,
    cycle_instance,
    generate_instance,
    grid_instance,
    parse_instance_text,
    prism_instance,
    render_svg,
    serialize_instance,
    subdivide_edge,
    tutte_embedding,
)
from .medial import MedialGraph, build_medial_graph
from .oracle import OracleResult, chi_f_bruteforce
from .plane_graph import (
    PlaneGraph,
    ValidationReport,
    build_plane_graph,
    compute_bipartition,
    validate_even_polygonal,
)
from .search import (
    AuditReport,
    SearchResult,
    exact_chi_f,
    sweep_dividing_systems,
)

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "Coloring",
    "Cycle",
    "InstanceFile",
    "MatchingResult",
    "MedialGraph",
    "OracleResult",
    "PlaneGraph",
    "RegionDecomposition",
    "SearchResult",
    "ValidationReport",
    "alpha_bruteforce",
    "assemble_dividing_system",
    "baseline_coloring",
    "build",
    "build_division_tree",
    "build_medial_graph",
    "build_plane_graph",
    "check_half_monochromatic",
    "check_proper",
    "chi_f_bruteforce",
    "coloring_from_regions",
    "compute_bipartition",
    "cycle_instance",
    "decompose_regions",
    "exact_chi_f",
    "extract_cycles",
    "generate_instance",
    "grid_instance",
    "maximum_matching",
    "parse_instance_text",
    "prism_instance",
    "render_svg",
    "serialize_instance",
    "subdivide_edge",
    "sweep_dividing_systems",
    "tutte_embedding",
    "validate_even_polygonal",
]
