"""The two-pass trail check, kept as the oracle of ``PreComplex._check_trail``.

The first pass raises an unknown edge, a direction other than +1 or -1
or a repeated edge, in trail order; the second raises the first ref,
in index order, that does not start where the one before it ends, ref
0 following the last.  ``test_complexes.py`` requires the library's one
pass to raise the same exception type with the same message.
"""

from __future__ import annotations

from rotsys.complexes import EdgeId, FaceId, SignedEdgeRef, Trail, VertexId
from rotsys.errors import NonClosedTrailError, UnknownReferenceError


def ref_start(edges: dict[EdgeId, tuple[VertexId, VertexId]], ref: SignedEdgeRef) -> VertexId:
    """Vertex where the traversal described by ``ref`` begins."""
    tail, head = edges[ref.edge]
    return tail if ref.sign == 1 else head


def ref_end(edges: dict[EdgeId, tuple[VertexId, VertexId]], ref: SignedEdgeRef) -> VertexId:
    """Vertex where the traversal described by ``ref`` ends."""
    tail, head = edges[ref.edge]
    return head if ref.sign == 1 else tail


def check_trail(
    edges: dict[EdgeId, tuple[VertexId, VertexId]], f: FaceId, trail: Trail
) -> None:
    if not trail:
        raise NonClosedTrailError(f"face {f!r}: empty boundary")
    seen_e = set()
    for ref in trail:
        if ref.edge not in edges:
            raise UnknownReferenceError(f"face {f!r}: unknown edge {ref.edge!r}")
        if ref.sign not in (1, -1):
            raise UnknownReferenceError(
                f"face {f!r}: bad direction {ref.sign!r} at edge {ref.edge!r}"
            )
        if ref.edge in seen_e:
            raise NonClosedTrailError(
                f"face {f!r}: edge {ref.edge!r} traversed twice (not a trail)"
            )
        seen_e.add(ref.edge)
    for i, ref in enumerate(trail):
        prev = trail[i - 1]
        if ref_end(edges, prev) != ref_start(edges, ref):
            raise NonClosedTrailError(
                f"face {f!r}: refs {prev.edge!r} and {ref.edge!r} do not meet"
            )
