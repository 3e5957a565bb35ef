"""Link graphs, cut vertices, and splitting at cut vertices.

The link graph at a vertex v has one vertex per edge-end at v and one
edge per traversal of v by a face boundary.  Distinguishing the two
ends of a loop edge follows the double-counting convention for dual
complexes: a loop contributes two link vertices.  For loop-free
complexes the link vertices are simply the edges at v.  A face arrives
at an edge's head when it runs along the edge, at its tail when it runs
against it, and leaves from the other end.  ``walk_links`` reads every
link in one walk over integers that deals each edge-end and each
corner to its vertex; ``tracing.link_tracers`` builds a complex's link
tracers from it, and ``link_graphs`` spells it as ``LinkGraph``
objects.  Rotators, link counts and local connectivity are read from
the tracers.

Cut vertices are those of the complex as a space: splits run on vertex
sets over ``space_adjacency``.  Without its vertices the space falls
into open pieces, and each edge or face lies in one; its support is
the set of vertices that piece touches.  A face's open disk joins its
vertices, and a loop's open arc joins the faces through it, so a loop,
the faces through it and their loops share one support; any other
edge's support is its two ends.  ``blocks`` gives the vertex sets of
the blocks from one lowpoint pass; the cut vertices and the complexes
attached at one are read off them, and ``subcomplexes`` builds
complexes on vertex sets, giving each edge and face to the first set
that holds its support and dropping it when none does.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .complexes import EdgeId, FaceId, PreComplex, VertexId, connected_classes
from .errors import NotACutVertexError, UnknownVertexError

HEAD = "h"
TAIL = "t"


class LinkVertex(NamedTuple):
    """An edge-end at the link's center vertex."""

    edge: EdgeId
    end: str  # HEAD or TAIL


class LinkEdge(NamedTuple):
    """One traversal of the center vertex by a face boundary.

    ``u`` is the edge-end the traversal arrives on, ``w`` the one it
    leaves on (with respect to the stored face orientation).
    """

    face: FaceId
    pos: int
    u: LinkVertex
    w: LinkVertex

    def label(self) -> str:
        return f"{self.face}#{self.pos}"


@dataclass(frozen=True)
class LinkGraph:
    center: VertexId
    vertices: tuple[LinkVertex, ...]
    edges: tuple[LinkEdge, ...]
    loops: frozenset[EdgeId]

    def label_of(self, lv: LinkVertex) -> str:
        """The label of link vertex ``lv``: its edge id, with the end
        appended for a loop."""
        return f"{lv.edge}:{lv.end}" if lv.edge in self.loops else lv.edge

    def vertex_labels(self) -> list[str]:
        return [self.label_of(lv) for lv in self.vertices]


class LinkWalk(NamedTuple):
    """The link at ``center`` over integers, as ``walk_links`` builds it.

    ``ends`` holds per link vertex its edge, whether it is the edge's
    tail end, and its darts by face.  Link edge k, a corner of a face at
    the center, has darts 2k (arriving at its ``u``) and 2k + 1 (leaving
    its ``w``), ``dart_vertex`` giving each dart's link vertex; per link
    edge, ``faces`` and ``positions`` hold its face and its position
    there, and ``corner_ids`` the corner's id, its place among all
    corners of the complex in (face id, position) order, as
    ``PolygonTable`` numbers them.  A corner is kept as ids in flat lists,
    not as a pair, so a walk makes no object per corner.
    """

    center: VertexId
    ends: list[tuple[EdgeId, bool, dict[FaceId, int]]]
    dart_vertex: list[int]
    faces: list[FaceId]
    positions: list[int]
    corner_ids: list[int]


def walk_links(c: PreComplex) -> dict[VertexId, LinkWalk]:
    """The link of ``c`` at every vertex, in ``c``'s vertex order, from
    one pass over the edges and one over the face trails.

    Link vertices are the edge-ends at v (in id order, head end before
    tail end for loops); link edges are the face traversals of v in
    (face id, position) order, which fixes the dart ordering used
    everywhere else.
    """
    walks = {v: LinkWalk(v, [], [], [], [], []) for v in c.vertices}
    # per edge, its tail end and its head end, each with the lists of
    # the link at its vertex, its link vertex there and that one's darts
    ends = {}
    for e in sorted(c.edges):
        tail, head = c.edges[e]
        pair = []
        for v, at_tail in ((head, False), (tail, True)):
            _, vertices, dart_vertex, faces, positions, corner_ids = walks[v]
            darts: dict[FaceId, int] = {}
            pair.append((dart_vertex, faces, positions, corner_ids, len(vertices), darts))
            vertices.append((e, at_tail, darts))
        ends[e] = (pair[1], pair[0])
    corner = 0
    for f in sorted(c.faces):
        trail = c.faces[f].trail
        # corner pos, between refs pos - 1 and pos: the face arrives over
        # its previous ref, at the edge's head when it runs along the
        # edge, and leaves over its next ref, from the edge's tail when it
        # runs along it; u is the end it arrives at
        _, _, _, _, u, arrived = ends[trail[-1].edge][trail[-1].sign == 1]
        for pos, ref in enumerate(trail):
            pair = ends[ref.edge]
            dart_vertex, faces, positions, corner_ids, w, leaves = pair[ref.sign != 1]
            k = len(dart_vertex)
            dart_vertex += (u, w)
            arrived[f] = k
            leaves[f] = k + 1
            faces.append(f)
            positions.append(pos)
            corner_ids.append(corner)
            corner += 1
            _, _, _, _, u, arrived = pair[ref.sign == 1]
    return walks


def link_view(walk: LinkWalk) -> LinkGraph:
    """The link graph that ``walk`` spells in integers.  Its link vertices
    and edges are made by ``tuple.__new__``, as ``NamedTuple._make``
    makes them, without a Python call each: every search builds a view
    of each link for its planarity precheck."""
    new, ends = tuple.__new__, walk.ends
    vertices = tuple([new(LinkVertex, (e, TAIL if at_tail else HEAD)) for e, at_tail, _ in ends])
    uw = walk.dart_vertex
    edges = tuple(
        [
            new(LinkEdge, (f, pos, vertices[uw[2 * k]], vertices[uw[2 * k + 1]]))
            for k, (f, pos) in enumerate(zip(walk.faces, walk.positions))
        ]
    )
    # the walk deals a loop's two ends to its vertex one after the other
    loops = frozenset([a[0] for a, b in zip(ends, ends[1:]) if a[0] == b[0]])
    return LinkGraph(walk.center, vertices, edges, loops)


def link_graphs(c: PreComplex) -> dict[VertexId, LinkGraph]:
    """The link graph of ``c`` at every vertex, in ``c``'s vertex order,
    read off ``walk_links``."""
    return {v: link_view(walk) for v, walk in walk_links(c).items()}


def link_graph(c: PreComplex, v: VertexId) -> LinkGraph:
    """The link graph of ``c`` at ``v``, as ``link_graphs`` builds it."""
    if v not in c.vertices:
        raise UnknownVertexError(f"unknown vertex {v!r}")
    return link_view(walk_links(c)[v])


def _supports(
    c: PreComplex,
) -> tuple[dict[EdgeId, frozenset[VertexId]], dict[FaceId, frozenset[VertexId]]]:
    """The supports of the loops and of the faces (see the module
    docstring): the loops and the faces are joined in classes through
    the loops on each face's trail, each class supported by all its
    vertices.  Any other edge's support is its two ends."""
    faces = {f: c.face_vertices(f) for f in c.faces}
    loops = [e for e, (tail, head) in c.edges.items() if tail == head]
    if not loops:
        return {}, faces
    cells = [frozenset(c.edges[e]) for e in loops] + list(faces.values())
    index = {e: i for i, e in enumerate(loops)}
    pairs = [
        (index[ref.edge], len(loops) + k)
        for k, boundary in enumerate(c.faces.values())
        for ref in boundary.trail
        if ref.edge in index
    ]
    for members in connected_classes(len(cells), pairs):
        joined = frozenset().union(*(cells[i] for i in members))
        for i in members:
            cells[i] = joined
    return dict(zip(loops, cells)), dict(zip(faces, cells[len(loops):]))


def space_adjacency(c: PreComplex) -> dict[VertexId, set[VertexId]]:
    """The skeleton adjacency of ``c`` plus an edge between any two
    vertices of the support of each loop and of each face with fewer
    support vertices than corners (a face whose trail is a simple cycle
    joins its vertices along the skeleton, and the loops of a face
    through a loop join its support)."""
    adj: dict[VertexId, set[VertexId]] = {v: set() for v in c.vertices}
    for tail, head in c.edges.values():
        adj[tail].add(head)
        adj[head].add(tail)
    loop_support, face_support = _supports(c)
    joins = list(loop_support.values())
    joins += [vs for f, vs in face_support.items() if len(vs) < len(c.faces[f].trail)]
    for vs in joins:
        for u in vs:
            adj[u] |= vs
    return adj


def blocks(c: PreComplex) -> list[set[VertexId]]:
    """The blocks of ``c`` as a space: the vertex sets of the maximal
    connected pieces of ``space_adjacency`` that no one vertex of their
    own disconnects; a vertex with no neighbour is a block alone.

    Hopcroft and Tarjan's lowpoint pass on an explicit stack, so the
    recursion limit does not bound the size of a complex: a child no
    subtree of which reaches above its parent makes a block with the
    parent and what the vertex stack holds from the child on."""
    adj = space_adjacency(c)
    order = list(adj)
    index = {v: i for i, v in enumerate(order)}
    neighbours = [[index[w] for w in adj[v] if w != v] for v in order]
    disc = [-1] * len(order)  # discovery time, -1 while unvisited
    low = [0] * len(order)
    found: list[set[VertexId]] = []
    clock = 0
    for root in range(len(order)):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        visited: list[VertexId] = []  # the vertex stack, without the root
        stack = [(root, -1, 0, iter(neighbours[root]))]
        while stack:
            u, parent, at, untried = stack[-1]
            for w in untried:
                if disc[w] < 0:
                    disc[w] = low[w] = clock
                    clock += 1
                    stack.append((w, u, len(visited), iter(neighbours[w])))
                    visited.append(order[w])
                    break
                if w != parent and disc[w] < low[u]:
                    low[u] = disc[w]
            else:
                stack.pop()
                if parent >= 0:
                    low[parent] = min(low[parent], low[u])
                    if low[u] >= disc[parent]:
                        found.append({order[parent], *visited[at:]})
                        del visited[at:]
        if not neighbours[root]:
            found.append({order[root]})
    return found


def cut_vertices(c: PreComplex) -> set[VertexId]:
    """Vertices whose removal disconnects the other vertices of their
    own component, joined by the edges and open faces left: the
    vertices in two or more blocks."""
    counts = Counter(u for block in blocks(c) for u in block)
    return {u for u, k in counts.items() if k > 1}


def attached_complexes(c: PreComplex, v: VertexId) -> list[PreComplex]:
    """Split ``c`` at the cut vertex ``v``.

    Returns one PreComplex per part K of v's own connected component
    with v removed (its vertices joined by the edges and open faces
    left): vertex set K + v, and exactly the edges and faces whose
    support lies in K + v.  A bare loop at v and the cells on v alone
    (possible only in general complexes) go to the least component so
    the face sets stay pairwise disjoint.  Components are ordered by
    least vertex.
    """
    if v not in c.vertices:
        raise UnknownVertexError(f"unknown vertex {v!r}")
    found = blocks(c)
    if sum(v in block for block in found) < 2:
        raise NotACutVertexError(f"{v!r} is not a cut vertex")
    first: dict[VertexId, int] = {}
    pairs = [(first.setdefault(u, i), i) for i, block in enumerate(found) for u in block - {v}]
    parts = [
        set().union(*(found[i] for i in members))
        for members in connected_classes(len(found), pairs)
        if any(v in found[i] for i in members)
    ]
    return subcomplexes(c, sorted(parts, key=lambda part: min(part - {v})))


def subcomplexes(c: PreComplex, vertex_sets: list[set[VertexId]]) -> list[PreComplex]:
    """One complex per vertex set, its vertices in ``c``'s order.

    Each edge and face of ``c`` goes to the first set that holds its
    support, and to none when no set does.  Splitting at a cut vertex
    and then splitting the pieces again puts every edge and face where
    this rule puts it among the final vertex sets.
    """
    holders: dict[VertexId, list[int]] = {}
    for i, vs in enumerate(vertex_sets):
        for u in vs:
            holders.setdefault(u, []).append(i)

    def first_holder(support: frozenset[VertexId]) -> int | None:
        candidates = min((holders.get(u, ()) for u in support), key=len)
        return next((i for i in candidates if support <= vertex_sets[i]), None)

    vertices: list[list[VertexId]] = [[] for _ in vertex_sets]
    for u in c.vertices:
        for i in holders.get(u, ()):
            vertices[i].append(u)
    loop_support, face_support = _supports(c)
    edges: list[dict] = [{} for _ in vertex_sets]
    for e, ends in c.edges.items():
        i = first_holder(loop_support.get(e) or frozenset(ends))
        if i is not None:
            edges[i][e] = ends
    faces: list[dict] = [{} for _ in vertex_sets]
    for f, boundary in c.faces.items():
        i = first_holder(face_support[f])
        if i is not None:
            faces[i][f] = boundary
    return [
        PreComplex(c.kind, tuple(vs), es, fs)
        for vs, es, fs in zip(vertices, edges, faces)
    ]
