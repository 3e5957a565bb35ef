"""Embeddability of 2-dimensional complexes in 3-space.

Combinatorial machinery: directed complexes, link graphs, rotation
systems, traced link complexes, local surfaces, dual complexes, exact
F_p and integral homology, and the search procedures that combine them
into an embeddability verdict.
"""

from .complexes import (
    DirectedComplex,
    FaceBoundary,
    PreComplex,
    SignedEdgeRef,
    Violation,
    validate,
)
from .documents import (
    emit_complex,
    parse_complex,
    parse_precomplex,
    parse_sigma,
)
from .homology import (
    EulerReport,
    HomologySummary,
    euler_identity_report,
    h1_integral,
    homology_summary,
    integral_summary,
    is_p_nullhomologous,
)
from .links import attached_complexes, cut_vertices
from .presentation import Pi1Verdict, pi1_trivial_heuristic
from .randgen import GenParams, generate_random_complex
from .rotation import (
    RotationSystem,
    canonical_rotation_system,
    enumerate_rotation_systems,
    total_search_space,
)
from .search import (
    GprsSearchResult,
    PrsSearchResult,
    search_generalized_prs,
    search_planar_rotation_system,
)
from .surfaces import (
    DualComplex,
    LocalSurface,
    OrientedFace,
    dual_complex,
    iota_check,
    local_surfaces,
    surface_duality_check,
)
from .tracing import (
    CellComplex,
    LinkGraph,
    induced_rotator,
    is_locally_connected,
    is_planar_rotation_system,
    is_sphere_union,
    link_graph,
    link_graphs,
    surface_dual,
    trace_link_complex,
)
from .verdict import EmbedVerdict, verdict
from .words import klein_word_admissible

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
