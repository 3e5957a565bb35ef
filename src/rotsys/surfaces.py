"""Local surfaces of a rotation system and the dual complex.

Each orientation of a face is a polygon; the rotation system glues
polygon sides in pairs (an orientation traversing an edge forwards to
the next orientation traversing it backwards).  The classes of that
gluing are closed oriented surfaces, and their vertices are the orbits
of one permutation of the corners, the corner walk: cross the gluing
at a corner's outgoing side and go on at the corner after the side
entered.  The dual complex has one vertex per local surface, one edge
per face of the primal complex, and one face per primal edge whose
boundary follows the cyclic order at that edge.  Dual edge f lies in
the dual faces of the edges of f's trail, once each, in trail order,
so f's trail is the dual's cyclic order at f.

The polygons, their sides and corners, and the sides over each face's
traversal of an edge (an incidence) are sigma-independent: they are
read from the complex's table (``PolygonTable``, compiled once per
complex), which maps each cyclic order of faces to incidence ids, so
the work per rotation system runs on integer ids and builds only the
values it returns.  The identity checks build once what does not
depend on sigma either: the bijection check reads each link edge's
corner id from its link tracer, which computes them on first use, and
the duality check traces each local surface once, reading its surface
dual's successors straight off the traced cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .complexes import (
    DirectedComplex,
    EdgeId,
    FaceBoundary,
    FaceId,
    GENERAL,
    OrientedFace,
    PolygonTable,
    PreComplex,
    SignedEdgeRef,
    VertexId,
    connected_classes,
)
from .errors import BijectionFailureError, NotClosedSurfaceError
from .rotation import RotationSystem
from .tracing import (
    CellComplex,
    LinkTracer,
    link_tracers,
    maps_isomorphism,
    orbits_of,
    successors,
    surface_dual_successors,
)

class Gluing(NamedTuple):
    """One glued edge of a local surface: the primal edge, the two
    oriented faces it joins (positive traversal first), their polygon
    side positions, and the position in sigma(edge) it came from."""

    edge: EdgeId
    seq: int
    pos_member: OrientedFace
    pos_side: int
    neg_member: OrientedFace
    neg_side: int

    def label(self) -> str:
        return f"{self.edge}@{self.seq}"


class SurfaceVertex(NamedTuple):
    """A vertex of a local surface: a corner orbit cloned from a vertex
    of the primal complex.  ``corners`` lists (member index, polygon
    position) in walk order; ``rotator`` the gluing darts crossed."""

    label: str
    c_vertex: VertexId
    corners: tuple[tuple[int, int], ...]
    rotator: tuple[int, ...]


def polygon_refs(c: PreComplex, member: OrientedFace) -> tuple[SignedEdgeRef, ...]:
    p = c.table.polygons
    return p.polygon_refs[p.member_id[member]]


def _glue(p: PolygonTable, sigma: RotationSystem) -> list[tuple[EdgeId, int, int, int]]:
    """The gluings induced by sigma: the edge, the position in sigma(e)
    and the two sides joined, positive side first.

    For an edge in d >= 2 faces, consecutive entries of sigma(e) are
    related (d gluings); an edge in one face relates the two
    orientations of that face (one gluing), which is the same rule read
    on its one-entry order.
    """
    pos_side, neg_side = p.pos_side, p.neg_side
    gluings = []
    for e, ids in p.glued_edges:
        if len(ids) > 1:
            ids = p.order_ids(e, sigma.sigma[e])
        d = len(ids)
        gluings += [(e, t, pos_side[ids[t]], neg_side[ids[(t + 1) % d]]) for t in range(d)]
    return gluings


@dataclass(frozen=True)
class LocalSurface:
    """One equivalence class of oriented faces, assembled into a closed
    oriented surface."""

    id: str
    members: tuple[OrientedFace, ...]
    gluings: tuple[Gluing, ...]
    vertices: tuple[SurfaceVertex, ...]
    chi: int
    genus: int
    polygon_lengths: tuple[int, ...]

    def cell_complex(self) -> CellComplex:
        """The surface as a traced cell complex: vertices are the corner
        orbits, edges the gluings (dart 2k on the positive side), cells
        the member polygons."""
        cc = CellComplex.from_rotators([sv.rotator for sv in self.vertices])
        # cells trace out exactly the member polygons, each once
        index = {m: i for i, m in enumerate(self.members)}
        dart_member = []
        for g in self.gluings:
            dart_member += (index[g.pos_member], index[g.neg_member])
        traced = []
        for orbit in cc.cells:
            owners = {dart_member[d] for d in orbit}
            if len(owners) != 1:
                raise NotClosedSurfaceError(
                    f"traced cell mixes polygons in local surface {self.id}"
                )
            traced.append(owners.pop())
        if sorted(traced) != list(range(len(self.members))):
            raise NotClosedSurfaceError(
                f"traced cells do not match member polygons in {self.id}"
            )
        return cc

    def as_complex(self) -> DirectedComplex:
        """The surface as a general directed complex: vertices are the
        corner orbits, edges the gluings (directed like the primal
        edge), faces the member polygons."""
        vertex_of_corner: dict[tuple[int, int], str] = {}
        for sv in self.vertices:
            for corner in sv.corners:
                vertex_of_corner[corner] = sv.label
        index = {m: i for i, m in enumerate(self.members)}
        edges: dict[str, tuple[str, str]] = {}
        for g in self.gluings:
            m = index[g.pos_member]
            k = self.polygon_lengths[m]
            # positive side runs tail -> head of the primal edge
            tail_clone = vertex_of_corner[(m, g.pos_side)]
            head_clone = vertex_of_corner[(m, (g.pos_side + 1) % k)]
            edges[g.label()] = (tail_clone, head_clone)
        side_gluing: dict[tuple[int, int], tuple[Gluing, int]] = {}
        for g in self.gluings:
            side_gluing[(index[g.pos_member], g.pos_side)] = (g, 1)
            side_gluing[(index[g.neg_member], g.neg_side)] = (g, -1)
        faces: dict[str, FaceBoundary] = {}
        for m, member in enumerate(self.members):
            refs = []
            for j in range(self.polygon_lengths[m]):
                g, sign = side_gluing[(m, j)]
                refs.append(SignedEdgeRef(g.label(), sign))
            faces[member.label()] = FaceBoundary(member.label(), tuple(refs))
        return DirectedComplex(
            GENERAL,
            tuple(sv.label for sv in self.vertices),
            edges,
            faces,
        )


def local_surfaces(c: PreComplex, sigma: RotationSystem) -> list[LocalSurface]:
    """The local surfaces of ``(c, sigma)``, ordered by least member.

    A cyclic order that lists a face not meeting its edge raises
    InvalidRotationSystemError.  Then each surface in turn is checked for
    a side glued twice, an unglued side, a corner walk that leaves its
    primal vertex and an impossible Euler characteristic; the first
    failure of the first surface that fails raises NotClosedSurfaceError.
    Every gluing joins two sides over one edge, so a walk returns to the
    vertex it left, and a gluing that passes the other checks makes
    closed surfaces: the last two checks guard the construction.
    """
    p = c.table.polygons
    gluings = _glue(p, sigma)
    member, side_pos = p.side_member, p.side_pos
    classes = connected_classes(
        len(p.members), ((member[a], member[b]) for _, _, a, b in gluings)
    )
    surface_of = [0] * len(p.members)
    local = [0] * len(p.members)  # index among the members of its surface
    for si, members in enumerate(classes):
        for i, m in enumerate(members):
            surface_of[m] = si
            local[m] = i

    # per side, the side glued to it and that side's dart: 2k and 2k + 1
    # for the k-th gluing of its surface; per surface, its gluings and
    # the first check it fails
    glued = [-1] * len(member)
    dart = [0] * len(member)
    own: list[list[Gluing]] = [[] for _ in classes]
    failure: list[str | None] = [None] * len(classes)
    for e, t, a, b in gluings:
        si = surface_of[member[a]]
        k = len(own[si])
        pos, neg = p.members[member[a]], p.members[member[b]]
        own[si].append(Gluing(e, t, pos, side_pos[a], neg, side_pos[b]))
        for side, d, other in ((a, 2 * k, b), (b, 2 * k + 1, a)):
            if glued[side] >= 0 and not failure[si]:
                named = (local[member[side]], side_pos[side])
                failure[si] = f"side {named} glued twice in s{si}"
            glued[side], dart[side] = other, d
    for side, other in enumerate(glued):
        si = surface_of[member[side]]
        if other < 0 and not failure[si]:
            failure[si] = f"unglued polygon side in s{si}"

    # the surface vertices are the orbits of the corner walk, which come
    # by least corner, so a primal vertex's orbits in a surface are
    # labeled in that order; the sides of a failed surface stay put, so
    # the walk is a permutation
    next_corner, corner_vertex = p.next_corner, p.corner_vertex
    walk = [
        side if failure[surface_of[member[side]]] else next_corner[other]
        for side, other in enumerate(glued)
    ]
    vertices: list[list[SurfaceVertex]] = [[] for _ in classes]
    orbits_at: dict[tuple[int, VertexId], int] = {}
    for orbit in orbits_of(walk):
        start = orbit[0]
        si = surface_of[member[start]]
        if failure[si]:
            continue
        home = corner_vertex[start]
        if any(corner_vertex[x] != home for x in orbit):
            failure[si] = f"corner walk left vertex {home!r} in s{si}"
            continue
        n = orbits_at.get((si, home), 0)
        orbits_at[si, home] = n + 1
        corners = tuple([(local[member[x]], side_pos[x]) for x in orbit])
        rotator = tuple([dart[glued[x]] for x in orbit])
        vertices[si].append(SurfaceVertex(f"{home}.{n}", home, corners, rotator))

    surfaces = []
    for si, members in enumerate(classes):
        chi = len(vertices[si]) - len(own[si]) + len(members)
        if not failure[si] and (chi % 2 != 0 or chi > 2):
            failure[si] = f"impossible Euler characteristic {chi} in s{si}"
        if failure[si]:
            raise NotClosedSurfaceError(failure[si])
        surfaces.append(
            LocalSurface(
                f"s{si}",
                tuple(p.members[m] for m in members),
                tuple(own[si]),
                tuple(sorted(vertices[si], key=lambda sv: sv.label)),
                chi,
                (2 - chi) // 2,
                tuple(len(p.polygon_refs[m]) for m in members),
            )
        )
    return surfaces


@dataclass(frozen=True)
class DualComplex:
    """The dual of ``(c, sigma)`` with its inherited rotation system."""

    complex: DirectedComplex
    sigma_c: RotationSystem
    surfaces: tuple[LocalSurface, ...]
    class_of: dict[OrientedFace, str]


def dual_complex(
    c: PreComplex,
    sigma: RotationSystem,
    surfaces: list[LocalSurface] | None = None,
) -> DualComplex:
    """Vertices: local surfaces.  Edges: faces of ``c``, directed toward
    the class holding the stored orientation.  Faces: edges of ``c``,
    their boundary following sigma; the traversal of dual edge f is
    forward exactly when the stored orientation of f runs along e.  The
    dual's cyclic order at f is the trail of f.
    """
    if surfaces is None:
        surfaces = local_surfaces(c, sigma)
    p = c.table.polygons
    class_of: dict[OrientedFace, str] = {}
    for s in surfaces:
        for m in s.members:
            class_of[m] = s.id

    vertices = tuple(s.id for s in surfaces)
    members = p.members
    edges = {
        f: (class_of[members[2 * r + 1]], class_of[members[2 * r]])
        for f, r in p.face_rank.items()
    }
    dual_ref = p.dual_ref
    faces: dict[str, FaceBoundary] = {}
    for e, entries in c.table.incidences.items():
        if not entries:
            continue  # faceless edges of a PreComplex have no dual face
        order = sigma.sigma[e] if len(entries) >= 2 else entries
        faces[e] = FaceBoundary(e, tuple(dual_ref[i] for i in p.order_ids(e, order)))
    dual = DirectedComplex.valid_by_construction(GENERAL, vertices, edges, faces)
    sigma_map: dict[FaceId, tuple[EdgeId, ...]] = {
        f: tuple(ref.edge for ref in b.trail) if len(b.trail) >= 2 else ()
        for f, b in c.faces.items()
    }
    return DualComplex(dual, RotationSystem(sigma_map), tuple(surfaces), class_of)


# -- executable identities ----------------------------------------------------


@dataclass(frozen=True)
class IotaReport:
    """Result of matching local-surface vertices with link-complex cells."""

    surface_vertices: int
    link_cells: int
    matched: int


def _canon_word(word: tuple) -> tuple:
    """The least rotation of either reading of a cyclic word, that is
    ``min(canonical_cycle(word), canonical_cycle(word[::-1]))``: both
    start at an occurrence of the least letter, so one pass over those
    occurrences compares the forward and backward reading from each."""
    least = min(word)
    first = word.index(least)
    best = min(word[first:] + word[:first], word[first::-1] + word[:first:-1])
    for i in range(first + 1, len(word)):
        if word[i] == least:
            best = min(best, word[i:] + word[:i], word[i::-1] + word[:i:-1])
    return best


def iota_check(
    c: PreComplex,
    sigma: RotationSystem,
    surfaces: list[LocalSurface] | None = None,
    tracers: dict[VertexId, LinkTracer] | None = None,
) -> IotaReport:
    """Match every vertex of every local surface to a cell of the link
    complex at the vertex it was cloned from, by equality of the cyclic
    corner word with the cell boundary word.

    Raises BijectionFailureError when the matching is not perfect; such
    a failure indicates an implementation bug, not bad data.  The
    optional arguments let callers reuse per-complex structures when
    sweeping many rotation systems.  Words are spelled in corner ids
    of the complex's table, which follow the (face, position) order.
    """
    if surfaces is None:
        surfaces = local_surfaces(c, sigma)
    p = c.table.polygons
    face_corner = p.face_corner
    corner_words: dict[VertexId, list[tuple[int, ...]]] = {v: [] for v in c.vertices}
    total_vertices = 0
    for s in surfaces:
        bases = [p.side_start[p.member_id[m]] for m in s.members]
        for sv in s.vertices:
            word = tuple([face_corner[bases[m] + j] for m, j in sv.corners])
            corner_words[sv.c_vertex].append(word)
            total_vertices += 1

    if tracers is None:
        tracers = link_tracers(c)
    total_cells = 0
    matched = 0
    for v in sorted(c.vertices):
        tracer = tracers[v]
        corner = tracer.corners(p.face_start)
        cells = tracer.cells(sigma)
        total_cells += len(cells)
        pool: dict[tuple[int, ...], int] = {}
        for orbit in cells:
            key = _canon_word(tuple([corner[d >> 1] for d in orbit]))
            pool[key] = pool.get(key, 0) + 1
        for w in corner_words[v]:
            key = _canon_word(w)
            if pool.get(key, 0) <= 0:
                raise BijectionFailureError(
                    f"surface vertex at {v!r} with corner word {_spelled(p, w)} "
                    "has no matching link cell"
                )
            pool[key] -= 1
            matched += 1
        leftovers = [k for k, n in pool.items() if n > 0]
        if leftovers:
            raise BijectionFailureError(
                f"link cell at {v!r} unmatched: {_spelled(p, leftovers[0])}"
            )
    if total_vertices != total_cells:
        raise BijectionFailureError(
            f"{total_vertices} surface vertices vs {total_cells} link cells"
        )
    return IotaReport(total_vertices, total_cells, matched)


def _spelled(p: PolygonTable, word: tuple[int, ...]) -> tuple[tuple[FaceId, int], ...]:
    """A word of corner ids as the (face, position) pairs they number."""
    spelled = []
    for i in word:
        first, f = max((first, f) for f, first in p.face_start.items() if first <= i)
        spelled.append((f, i - first))
    return tuple(spelled)


def surface_duality_check(
    c: PreComplex, sigma: RotationSystem, dual: DualComplex | None = None
) -> dict[str, str]:
    """Verify that the link complex of the dual at each of its vertices
    is the surface dual of the matching local surface.

    Builds the natural dart bijection (corner t of dual face e at a
    class corresponds to the gluing made from the adjacent entries of
    sigma(e)) and checks it intertwines the rotator structure.  Returns
    {surface id: "direct" | "mirror"}; raises on failure.
    """
    if dual is None:
        dual = dual_complex(c, sigma)
    incidences = c.table.incidences
    glue_start = c.table.polygons.glue_start
    tracers = link_tracers(dual.complex)
    out: dict[str, str] = {}
    for s in dual.surfaces:
        tracer = tracers[s.id]
        succ = successors(tracer.rotators(dual.sigma_c), len(tracer.dart_vertex))
        b_succ = surface_dual_successors(s.cell_complex())
        gluing_index = {glue_start[g.edge] + g.seq: k for k, g in enumerate(s.gluings)}
        dart_map = [-1] * len(succ)
        for k, le in enumerate(tracer.link.edges):
            # dual face = primal edge e, corner t: the gluing of sigma(e)'s
            # entries t - 1 and t
            e, t = le.face, le.pos
            g_idx = gluing_index[glue_start[e] + (t - 1) % len(incidences[e])]
            dart_map[2 * k] = 2 * g_idx       # u side <-> positive side
            dart_map[2 * k + 1] = 2 * g_idx + 1
        verdict = maps_isomorphism(succ, b_succ, dart_map)
        if verdict is None:
            raise BijectionFailureError(
                f"dual link at {s.id} is not the surface dual of its local surface"
            )
        out[s.id] = verdict
    return out
