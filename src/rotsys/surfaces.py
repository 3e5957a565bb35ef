"""Local surfaces of a rotation system and the dual complex.

Each orientation of a face is a polygon; the rotation system glues
polygon sides in pairs (an orientation traversing an edge forwards to
the next orientation traversing it backwards), and the equivalence
classes of that gluing assemble into closed oriented surfaces.  The
dual complex has one vertex per local surface, one edge per face of the
primal complex, and one face per primal edge whose boundary follows the
cyclic order at that edge.

The polygons, their sides and corners, and each incidence's sides are
sigma-independent: they are read from the complex's table
(``PolygonTable``, compiled once per complex), so the work per rotation
system runs on integer ids and builds only the values it returns.  The
identity checks build once what does not depend on sigma either: the
bijection check reads each link edge's corner id from its link tracer,
which computes them on first use, and the duality check traces each
local surface once, reading its surface dual's successors straight off
the traced cells.
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
    Incidence,
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


def _glue(
    p: PolygonTable, sigma: RotationSystem
) -> tuple[list[Gluing], list[tuple[int, int]]]:
    """The gluings induced by sigma, with the two sides each one joins
    (positive side first).

    For an edge with d >= 2 incidences, consecutive entries of sigma(e)
    are related (d gluings); a single-incidence edge relates the two
    orientations of its one face (one gluing), which is the same rule
    read on its one-entry order.
    """
    start, members = p.face_start, p.members
    side_member, side_pos = p.side_member, p.side_pos
    pos_side, neg_side = p.pos_side, p.neg_side
    gluings: list[Gluing] = []
    sides: list[tuple[int, int]] = []
    for e, ids in p.glued_edges:
        if len(ids) > 1:
            ids = [start[inc.face] + inc.pos for inc in sigma.sigma[e]]
        d = len(ids)
        for t in range(d):
            a, b = pos_side[ids[t]], neg_side[ids[(t + 1) % d]]
            gluings.append(
                Gluing(
                    e,
                    t,
                    members[side_member[a]],
                    side_pos[a],
                    members[side_member[b]],
                    side_pos[b],
                )
            )
            sides.append((a, b))
    return gluings, sides


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
    """The local surfaces of ``(c, sigma)``, ordered by least member."""
    p = c.table.polygons
    gluings, sides = _glue(p, sigma)
    member = p.side_member
    classes = connected_classes(
        len(p.members), ((member[a], member[b]) for a, b in sides)
    )
    surface_of = [0] * len(p.members)
    for si, members in enumerate(classes):
        for m in members:
            surface_of[m] = si
    own: list[list[int]] = [[] for _ in classes]
    for k, (a, _) in enumerate(sides):
        own[surface_of[member[a]]].append(k)
    return [
        _assemble(
            p, f"s{si}", members, [gluings[k] for k in ks], [sides[k] for k in ks]
        )
        for si, (members, ks) in enumerate(zip(classes, own))
    ]


def _assemble(
    p: PolygonTable,
    sid: str,
    members: list[int],
    gluings: list[Gluing],
    sides: list[tuple[int, int]],
) -> LocalSurface:
    """The surface of one class: ``members`` ascending, ``gluings`` those
    whose positive side lies in the class, with their sides."""
    local = {m: i for i, m in enumerate(members)}
    side_member, side_pos = p.side_member, p.side_pos
    lengths = tuple(len(p.polygon_refs[m]) for m in members)

    # each polygon side lies in exactly one gluing
    side_to: dict[int, int] = {}
    dart_of_side: dict[int, int] = {}
    for k, (a, b) in enumerate(sides):
        if side_member[b] not in local:
            raise NotClosedSurfaceError("gluing leaves its equivalence class")
        for side, dart, other in ((a, 2 * k, b), (b, 2 * k + 1, a)):
            if side in side_to:
                named = (local[side_member[side]], side_pos[side])
                raise NotClosedSurfaceError(f"side {named} glued twice in {sid}")
            side_to[side] = other
            dart_of_side[side] = dart
    if len(side_to) != sum(lengths):
        raise NotClosedSurfaceError(f"unglued polygon side in {sid}")

    # walk corners around each surface vertex; crossing the gluing at
    # the outgoing side enters the matched side of the neighbour polygon
    # and continues at the corner after it.  Each walk starts at the
    # least corner not yet walked, which is the least of its orbit, so
    # a primal vertex's orbits come in the order of their least corners
    # and are labeled by it
    corner_vertex, next_corner = p.corner_vertex, p.next_corner
    seen: set[int] = set()
    orbits_at: dict[VertexId, int] = {}
    vertices: list[SurfaceVertex] = []
    for m in members:
        first = p.side_start[m]
        for start in range(first, first + len(p.polygon_refs[m])):
            if start in seen:
                continue
            orbit: list[int] = []
            rotator: list[int] = []
            cur = start
            while True:
                orbit.append(cur)
                seen.add(cur)
                entered = side_to[cur]
                rotator.append(dart_of_side[entered])
                cur = next_corner[entered]
                if cur == start:
                    break
            home = corner_vertex[start]
            if any(corner_vertex[x] != home for x in orbit):
                raise NotClosedSurfaceError(f"corner walk left vertex {home!r} in {sid}")
            n = orbits_at.get(home, 0)
            orbits_at[home] = n + 1
            corners = tuple((local[side_member[x]], side_pos[x]) for x in orbit)
            vertices.append(SurfaceVertex(f"{home}.{n}", home, corners, tuple(rotator)))
    vertices.sort(key=lambda sv: sv.label)

    chi = len(vertices) - len(gluings) + len(members)
    if chi % 2 != 0 or chi > 2:
        raise NotClosedSurfaceError(f"impossible Euler characteristic {chi} in {sid}")
    return LocalSurface(
        sid,
        tuple(p.members[m] for m in members),
        tuple(gluings),
        tuple(vertices),
        chi,
        (2 - chi) // 2,
        lengths,
    )


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
    forward exactly when the stored orientation of f runs along e.
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
    start, dual_ref = p.face_start, p.dual_ref
    # per incidence, its position in the dual face of its edge
    position = [0] * len(dual_ref)
    faces: dict[str, FaceBoundary] = {}
    for e, entries in c.table.incidences.items():
        if not entries:
            continue  # faceless edges of a PreComplex have no dual face
        order = sigma.sigma[e] if len(entries) >= 2 else entries
        ids = [start[inc.face] + inc.pos for inc in order]
        for t, i in enumerate(ids):
            position[i] = t
        faces[e] = FaceBoundary(e, tuple(dual_ref[i] for i in ids))
    dual = DirectedComplex.valid_by_construction(GENERAL, vertices, edges, faces)

    # sigma of the dual: the boundary trail of each primal face, as
    # incidences into the dual faces it traverses
    dual_incidences = p.dual_incidences
    sigma_map: dict[FaceId, tuple[Incidence, ...]] = {}
    for f, boundary in c.faces.items():
        first = start[f]
        seq = tuple(
            dual_incidences[i][position[i]]
            for i in range(first, first + len(boundary.trail))
        )
        sigma_map[f] = seq if len(seq) >= 2 else ()
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
