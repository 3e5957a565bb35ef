"""A reference link graph read off the corners of every face.

Kept apart from ``rotsys.tracing``'s one walk, with link vertices as
(edge, end) pairs and link edges as tuples, so that ``test_links.py``
can compare ``link_graphs`` with it field by field and
``test_tracing.py`` can check the planarity precheck against networkx
run on it.
"""

from __future__ import annotations

from typing import NamedTuple

from rotsys.complexes import SignedEdgeRef
from rotsys.tracing import HEAD, TAIL, LinkGraph


class Corner(NamedTuple):
    """A traversal of a vertex by a face boundary: corner ``pos`` of
    ``face`` sits between trail refs ``pos - 1`` and ``pos``, and
    ``vertex`` is where they meet."""

    face: str
    pos: int
    vertex: str
    prev_ref: SignedEdgeRef
    next_ref: SignedEdgeRef


def reference_corners(c, f):
    trail = c.faces[f].trail
    return [Corner(f, i, c.ref_start(ref), trail[i - 1], ref) for i, ref in enumerate(trail)]


def reference_face_vertices(c, f):
    return frozenset(corner.vertex for corner in reference_corners(c, f))


def reference_link(c, v):
    """The link at ``v`` by edge-ends: the edge-ends at ``v`` in id
    order, head before tail at a loop, and per corner at ``v``, in (face
    id, position) order, its face, its position, its corner id (its
    place among all corners in that order) and the edge-ends it arrives
    at and leaves from."""
    vertices = []
    for e in sorted(e for e, ends in c.edges.items() if v in ends):
        tail, head = c.edges[e]
        if head == v:
            vertices.append((e, HEAD))
        if tail == v:
            vertices.append((e, TAIL))
    edges = []
    corner_id = 0
    for f in sorted(c.faces):
        for corner in reference_corners(c, f):
            if corner.vertex == v:
                prev, nxt = corner.prev_ref, corner.next_ref
                u = (prev.edge, HEAD if prev.sign == 1 else TAIL)
                w = (nxt.edge, TAIL if nxt.sign == 1 else HEAD)
                edges.append((f, corner.pos, corner_id, u, w))
            corner_id += 1
    return vertices, edges


def reference_link_graph(c, v):
    """``reference_link(c, v)`` as a ``LinkGraph`` with its labels: link
    vertex i is the i-th edge-end, named by its edge, with the end
    appended at a loop, and link edge k the k-th corner, named
    ``face#pos``, its darts 2k and 2k + 1 at the edge-ends it arrives at
    and leaves from."""
    vertices, edges = reference_link(c, v)
    index = {end: i for i, end in enumerate(vertices)}
    darts = [{} for _ in vertices]
    dart_vertex = []
    for k, (f, _, _, u, w) in enumerate(edges):
        dart_vertex += (index[u], index[w])
        darts[index[u]][f] = 2 * k
        darts[index[w]][f] = 2 * k + 1
    graph = LinkGraph(
        v,
        [(e, end == TAIL, table) for (e, end), table in zip(vertices, darts)],
        dart_vertex,
        [f for f, *_ in edges],
        [pos for _, pos, *_ in edges],
        [corner_id for _, _, corner_id, _, _ in edges],
    )
    loops = {e for e, (tail, head) in c.edges.items() if tail == head}
    vertex_labels = [f"{e}:{end}" if e in loops else e for e, end in vertices]
    edge_labels = [f"{f}#{pos}" for f, pos, *_ in edges]
    return graph, vertex_labels, edge_labels
