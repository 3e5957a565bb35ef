"""Link graphs, cut vertices, and splitting at cut vertices.

The link graph at a vertex v has one vertex per edge-end at v and one
edge per traversal of v by a face boundary.  Distinguishing the two
ends of a loop edge follows the double-counting convention for dual
complexes: a loop contributes two link vertices.  For loop-free
complexes the link vertices are simply the edges at v.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import networkx as nx

from .complexes import EdgeId, FaceId, PreComplex, VertexId, connected_classes
from .errors import NotACutVertexError, UnknownVertexError

HEAD = "h"
TAIL = "t"


class LinkVertex(NamedTuple):
    """An edge-end at the link's center vertex."""

    edge: EdgeId
    end: str  # HEAD or TAIL

    def label(self, is_loop: bool) -> str:
        return f"{self.edge}:{self.end}" if is_loop else self.edge


class LinkEdge(NamedTuple):
    """One traversal of the center vertex by a face boundary.

    ``u`` is the edge-end the traversal arrives on, ``w`` the one it
    leaves on (with respect to the stored face orientation).
    """

    face: FaceId
    pos: int
    u: LinkVertex
    w: LinkVertex


@dataclass(frozen=True)
class LinkGraph:
    center: VertexId
    vertices: tuple[LinkVertex, ...]
    edges: tuple[LinkEdge, ...]
    loops: frozenset[EdgeId]

    def vertex_labels(self) -> list[str]:
        return [lv.label(lv.edge in self.loops) for lv in self.vertices]

    def degree(self, lv: LinkVertex) -> int:
        return sum((le.u == lv) + (le.w == lv) for le in self.edges)

    def component_partition(self) -> list[set[LinkVertex]]:
        """Connected components over link vertices, least label first.
        Isolated link vertices (only possible for faceless edges of a
        PreComplex) form their own components."""
        index = {lv: i for i, lv in enumerate(self.vertices)}
        classes = connected_classes(
            len(self.vertices), ((index[le.u], index[le.w]) for le in self.edges)
        )
        groups = [{self.vertices[i] for i in members} for members in classes]
        return sorted(groups, key=min)

    def is_connected(self) -> bool:
        return len(self.component_partition()) <= 1


def _end_of_arrival(corner_prev_sign: int) -> str:
    # the previous ref ends at the center: at the edge's head when
    # traversed forwards, at its tail when traversed backwards
    return HEAD if corner_prev_sign == 1 else TAIL


def _end_of_departure(corner_next_sign: int) -> str:
    return TAIL if corner_next_sign == 1 else HEAD


def link_graph(c: PreComplex, v: VertexId) -> LinkGraph:
    """The link graph of ``c`` at ``v``.

    Vertices are the edge-ends at v (in id order, head end before tail
    end for loops); edges are the face traversals of v in (face id,
    position) order, which fixes the dart ordering used everywhere else.
    """
    if v not in c.vertices:
        raise UnknownVertexError(f"unknown vertex {v!r}")
    vertices: list[LinkVertex] = []
    loops = set()
    for e in c.incident_edges(v):
        tail, head = c.edges[e]
        if tail == head:
            loops.add(e)
            vertices.append(LinkVertex(e, HEAD))
            vertices.append(LinkVertex(e, TAIL))
        elif head == v:
            vertices.append(LinkVertex(e, HEAD))
        else:
            vertices.append(LinkVertex(e, TAIL))
    edges: list[LinkEdge] = []
    for f in sorted(c.faces):
        for corner in c.corners(f):
            if corner.vertex != v:
                continue
            u = LinkVertex(corner.prev_ref.edge, _end_of_arrival(corner.prev_ref.sign))
            w = LinkVertex(corner.next_ref.edge, _end_of_departure(corner.next_ref.sign))
            edges.append(LinkEdge(f, corner.pos, u, w))
    return LinkGraph(v, tuple(vertices), tuple(edges), frozenset(loops))


def is_locally_connected(c: PreComplex) -> tuple[bool, VertexId | None]:
    """Whether every link graph is connected; on failure also the least
    vertex with a disconnected link."""
    for v in sorted(c.vertices):
        if not link_graph(c, v).is_connected():
            return False, v
    return True, None


def _skeleton_nx(c: PreComplex) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(c.vertices)
    for tail, head in c.edges.values():
        if tail != head:
            g.add_edge(tail, head)
    return g


def cut_vertices(c: PreComplex) -> set[VertexId]:
    """Vertices whose removal disconnects their own component of the
    1-skeleton."""
    return set(nx.articulation_points(_skeleton_nx(c)))


def attached_complexes(c: PreComplex, v: VertexId) -> list[PreComplex]:
    """Split ``c`` at the cut vertex ``v``.

    Returns one PreComplex per component K of the 1-skeleton of v's own
    connected component with v removed: vertex set K + v, and exactly
    the edges and faces all of whose incident vertices lie in K + v.
    Loops at v and faces touching only v (possible only in general
    complexes) go to the least component so the face sets stay
    pairwise disjoint.  Components are ordered by least vertex.
    """
    if v not in c.vertices:
        raise UnknownVertexError(f"unknown vertex {v!r}")
    if v not in cut_vertices(c):
        raise NotACutVertexError(f"{v!r} is not a cut vertex")
    return _split_at_cut_vertex(c, v)


def _split_at_cut_vertex(c: PreComplex, v: VertexId) -> list[PreComplex]:
    """``attached_complexes(c, v)`` for a ``v`` the caller already knows
    to be a cut vertex of ``c``, without computing the cut vertices."""
    own_component = next(comp for comp in c.components() if v in comp)
    adj = c.skeleton_adjacency()
    remaining = own_component - {v}
    parts: list[set[VertexId]] = []
    seen: set[VertexId] = set()
    for start in sorted(remaining):
        if start in seen:
            continue
        part = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w != v and w not in part and w in remaining:
                    part.add(w)
                    stack.append(w)
        seen |= part
        parts.append(part)

    out: list[PreComplex] = []
    for idx, part in enumerate(parts):
        allowed = part | {v}
        edges = {}
        for e, (tail, head) in c.edges.items():
            if tail not in allowed or head not in allowed:
                continue
            if tail == v and head == v and idx != 0:
                continue
            edges[e] = (tail, head)
        faces = {}
        for f, boundary in c.faces.items():
            support = c.face_vertices(f)
            if not support <= allowed:
                continue
            if support == {v} and idx != 0:
                continue
            faces[f] = boundary
        vertex_order = tuple(x for x in c.vertices if x in allowed)
        out.append(PreComplex(c.kind, vertex_order, edges, faces))
    return out
