"""Cut vertices, blocks, and splitting at cut vertices.

The link graphs themselves, walked once per complex and kept in its
table, live in ``tracing`` with their readers; ``link_graph`` is
re-exported here.

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

from .complexes import EdgeId, FaceId, PreComplex, VertexId, connected_classes
from .errors import NotACutVertexError, UnknownVertexError
from .tracing import link_graph  # re-exported


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
        for k, trail in enumerate(c.faces.values())
        for ref in trail
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
    joins += [vs for f, vs in face_support.items() if len(vs) < len(c.faces[f])]
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
    for f, trail in c.faces.items():
        i = first_holder(face_support[f])
        if i is not None:
            faces[i][f] = trail
    return [
        PreComplex(c.kind, tuple(vs), es, fs)
        for vs, es, fs in zip(vertices, edges, faces)
    ]
