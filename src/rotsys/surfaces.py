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
complex), which reads each cyclic order of faces as incidence ids or
as dual face steps, so the work per rotation system runs on integer
ids and builds only the values it returns.  The dual's rotation system
does not depend on sigma either: it is built once per complex and kept
in the table, and every dual shares it.  Per rotation system, each
pass is one walk: ``local_surfaces`` walks each corner orbit once,
reading its corners and rotator on the way; the bijection check traces
each link graph kept in the table once and spells each cell in the
corner ids the graph holds as it walks the tracing map, files each cell under its least
corner id, and matches each surface vertex to an unused cell filed
under the least letter of its corner word, reading the cell forwards
or backwards from each occurrence of that letter (canonical words
spell only the message of a failed match); and the duality check
traces each local surface and each link of the dual once, its surface
dual's successors being the surface's own tracing map, and reads each
dual link edge's face and position from the dual's link graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .complexes import (
    DirectedComplex,
    EdgeId,
    FaceId,
    GENERAL,
    OrientedFace,
    PolygonTable,
    PreComplex,
    SignedEdgeRef,
    Trail,
    VertexId,
    connected_classes,
)
from .errors import BijectionFailureError, NotClosedSurfaceError
from .rotation import RotationSystem, canonical_cycle
from .tracing import (
    CellComplex,
    LinkGraph,
    link_graphs,
    maps_isomorphism,
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
    pos_side, neg_side, incidence_id = p.pos_side, p.neg_side, p.incidence_id
    orders = sigma.sigma
    gluings = []
    for e, ids in p.glued_edges:
        if len(ids) > 1:
            ids = p.read_order(e, orders[e], incidence_id[e])
            if not ids:
                continue  # an empty order glues nothing
        # entry t is glued to entry t + 1, the last entry to the first
        a = ids[0]
        for t, b in enumerate(ids[1:]):
            gluings.append((e, t, pos_side[a], neg_side[b]))
            a = b
        gluings.append((e, len(ids) - 1, pos_side[a], neg_side[ids[0]]))
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
        # cells trace out exactly the member polygons, each once: the
        # tracing map keeps every dart on its polygon, and the cells
        # start on distinct polygons, one per member
        index = {m: i for i, m in enumerate(self.members)}
        dart_member = []
        for g in self.gluings:
            dart_member += (index[g.pos_member], index[g.neg_member])
        if [dart_member[s ^ 1] for s in cc.succ] != dart_member:
            raise NotClosedSurfaceError(
                f"traced cell mixes polygons in local surface {self.id}"
            )
        members = len(self.members)
        if len(cc.cells) != members or len({dart_member[o[0]] for o in cc.cells}) != members:
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
        faces: dict[str, Trail] = {}
        for m, member in enumerate(self.members):
            refs = []
            for j in range(self.polygon_lengths[m]):
                g, sign = side_gluing[(m, j)]
                refs.append(SignedEdgeRef(g.label(), sign))
            faces[member.label()] = tuple(refs)
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
    member, side_pos, all_members = p.side_member, p.side_pos, p.members
    classes = connected_classes(
        len(all_members), [(member[a], member[b]) for _, _, a, b in gluings]
    )
    surface_of = [0] * len(all_members)
    local = [0] * len(all_members)  # index among the members of its surface
    for si, members in enumerate(classes):
        for i, m in enumerate(members):
            surface_of[m] = si
            local[m] = i
    side_surface = [surface_of[m] for m in member]

    # per side, the side glued to it and that side's dart: 2k and 2k + 1
    # for the k-th gluing of its surface; per surface, its gluings and
    # the first check it fails
    glued = [-1] * len(member)
    dart = [0] * len(member)
    own: list[list[Gluing]] = [[] for _ in classes]
    failure: list[str | None] = [None] * len(classes)
    for e, t, a, b in gluings:
        si = side_surface[a]
        k = 2 * len(own[si])
        own[si].append(
            Gluing(e, t, all_members[member[a]], side_pos[a], all_members[member[b]], side_pos[b])
        )
        if (glued[a] >= 0 or glued[b] >= 0) and not failure[si]:
            side = a if glued[a] >= 0 else b
            failure[si] = f"side {(local[member[side]], side_pos[side])} glued twice in s{si}"
        glued[a], dart[a], glued[b], dart[b] = b, k, a, k + 1
    if -1 in glued:
        for side, other in enumerate(glued):
            si = side_surface[side]
            if other < 0 and not failure[si]:
                failure[si] = f"unglued polygon side in s{si}"

    # the surface vertices are the orbits of the corner walk (cross the
    # gluing at a corner's side, go on at the corner after the side
    # entered), walked by least corner, so a primal vertex's orbits in a
    # surface are labeled in that order; the walk of a surface that
    # passed the gluing checks is a permutation of its corners
    next_corner, corner_vertex = p.next_corner, p.corner_vertex
    vertices: list[list[SurfaceVertex]] = [[] for _ in classes]
    orbits_at: dict[tuple[int, VertexId], int] = {}
    walked = [False] * len(member)
    for start, si in enumerate(side_surface):
        if walked[start] or failure[si]:
            continue
        home = corner_vertex[start]
        left = False
        corners, rotator = [], []
        x = start
        while not walked[x]:
            walked[x] = True
            left = left or corner_vertex[x] != home
            corners.append((local[member[x]], side_pos[x]))
            other = glued[x]
            rotator.append(dart[other])
            x = next_corner[other]
        if left:
            failure[si] = f"corner walk left vertex {home!r} in s{si}"
            continue
        n = orbits_at.get((si, home), 0)
        orbits_at[si, home] = n + 1
        vertices[si].append(SurfaceVertex(f"{home}.{n}", home, tuple(corners), tuple(rotator)))

    surfaces = []
    polygon_refs = p.polygon_refs
    for si, members in enumerate(classes):
        chi = len(vertices[si]) - len(own[si]) + len(members)
        if not failure[si] and (chi % 2 != 0 or chi > 2):
            failure[si] = f"impossible Euler characteristic {chi} in s{si}"
        if failure[si]:
            raise NotClosedSurfaceError(failure[si])
        # labels are unique in a surface and come first in a vertex
        surfaces.append(
            LocalSurface(
                f"s{si}",
                tuple([all_members[m] for m in members]),
                tuple(own[si]),
                tuple(sorted(vertices[si])),
                chi,
                (2 - chi) // 2,
                tuple([len(polygon_refs[m]) for m in members]),
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
    # faceless edges of a PreComplex have no dual face
    orders = sigma.sigma
    faces: dict[str, Trail] = {}
    for e, refs in p.dual_refs.items():
        order = orders[e] if len(refs) >= 2 else refs
        faces[e] = tuple(p.read_order(e, order, refs))
    dual = DirectedComplex.valid_by_construction(GENERAL, vertices, edges, faces)
    if p.dual_sigma is None:
        p.dual_sigma = RotationSystem(
            {
                f: tuple(ref.edge for ref in trail) if len(trail) >= 2 else ()
                for f, trail in c.faces.items()
            }
        )
    return DualComplex(dual, p.dual_sigma, tuple(surfaces), class_of)


# -- executable identities ----------------------------------------------------


@dataclass(frozen=True)
class IotaReport:
    """Result of matching local-surface vertices with link-complex cells."""

    surface_vertices: int
    link_cells: int
    matched: int


def _canon_word(word: tuple) -> tuple:
    """The least rotation of either reading of a cyclic word."""
    return min(canonical_cycle(word), canonical_cycle(word[::-1]))


def _same_cycle(a: list[int], b: list[int]) -> bool:
    """Whether ``b`` reads the cyclic word ``a``, forwards or backwards,
    from some letter on: ``_canon_word(a) == _canon_word(b)``.  Such a
    reading puts ``a``'s least letter on an occurrence of that letter in
    ``b``, so only readings from those occurrences are compared."""
    if len(b) != len(a):
        return False
    least = min(a)
    i = a.index(least)
    ahead = a[i:] + a[:i]
    for j, x in enumerate(b):
        if x == least and (b[j:] + b[:j] == ahead or b[j::-1] + b[:j:-1] == ahead):
            return True
    return False


def iota_check(
    c: PreComplex,
    sigma: RotationSystem,
    surfaces: list[LocalSurface] | None = None,
    links: dict[VertexId, LinkGraph] | None = None,
) -> IotaReport:
    """Match every vertex of every local surface to a cell of the link
    complex at the vertex it was cloned from, by equality of the cyclic
    corner word with the cell boundary word.

    Raises BijectionFailureError when the matching is not perfect; such
    a failure indicates an implementation bug, not bad data.  The
    optional arguments let callers reuse per-complex structures when
    sweeping many rotation systems.  Words are spelled in corner ids
    of the complex's table, which follow the (face, position) order.
    Each surface vertex takes the first unused cell that reads its word;
    which one does not matter, since cells reading one word are
    interchangeable, and a failure names the word or the cell class as
    canonical words would.
    """
    if surfaces is None:
        surfaces = local_surfaces(c, sigma)
    p = c.table.polygons
    face_corner = p.face_corner
    corner_words: dict[VertexId, list[list[int]]] = {v: [] for v in c.vertices}
    total_vertices = 0
    for s in surfaces:
        bases = [p.side_start[p.member_id[m]] for m in s.members]
        for sv in s.vertices:
            corner_words[sv.c_vertex].append([face_corner[bases[m] + j] for m, j in sv.corners])
            total_vertices += 1

    if links is None:
        links = link_graphs(c)
    total_cells = 0
    matched = 0
    for v in sorted(c.vertices):
        lg = links[v]
        corner = lg.corner_ids
        trace = lg.trace(sigma)
        # the cells, the orbits of the tracing map from the least unused
        # dart, spelled straight in corner ids, each filed under its
        # least corner id: a surface vertex's word has the same least
        # letter as the cell it reads
        cells: list[list[int]] = []
        by_least: dict[int, list[int]] = {}
        for start in range(len(trace)):
            if trace[start] < 0:
                continue
            word = []
            d = start
            while trace[d] >= 0:
                word.append(corner[d >> 1])
                trace[d], d = -1, trace[d]  # d is walked; step on
            by_least.setdefault(min(word), []).append(len(cells))
            cells.append(word)
        total_cells += len(cells)
        used = [False] * len(cells)
        for w in corner_words[v]:
            for i in by_least.get(min(w), ()):
                if not used[i] and _same_cycle(w, cells[i]):
                    used[i] = True
                    break
            else:
                raise BijectionFailureError(
                    f"surface vertex at {v!r} with corner word {_spelled(p, w)} "
                    "has no matching link cell"
                )
            matched += 1
        if not all(used):
            # the first cell left over is of the class that a pool of
            # canonical words names first: a corner id is on the two
            # darts of one link edge, so at most two cells read one word,
            # and the second is walked right after the first (it holds
            # the mate of the first one's least dart)
            unmatched = _canon_word(tuple(cells[used.index(False)]))
            raise BijectionFailureError(f"link cell at {v!r} unmatched: {_spelled(p, unmatched)}")
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
    links = link_graphs(dual.complex)
    out: dict[str, str] = {}
    for s in dual.surfaces:
        lg = links[s.id]
        succ = [d ^ 1 for d in lg.trace(dual.sigma_c)]
        b_succ = surface_dual_successors(s.cell_complex())
        gluing_index = {glue_start[g.edge] + g.seq: k for k, g in enumerate(s.gluings)}
        dart_map = []
        for e, t in zip(lg.faces, lg.positions):
            # dual face = primal edge e, corner t: the gluing of sigma(e)'s
            # entries t - 1 and t; the u side is the positive side
            k = gluing_index[glue_start[e] + (t - 1) % len(incidences[e])]
            dart_map += (2 * k, 2 * k + 1)
        verdict = maps_isomorphism(succ, b_succ, dart_map)
        if verdict is None:
            raise BijectionFailureError(
                f"dual link at {s.id} is not the surface dual of its local surface"
            )
        out[s.id] = verdict
    return out
