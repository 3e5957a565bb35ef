"""Reference local surfaces, dual complex, iota and duality checks.

Dict-based implementations kept as an oracle for ``rotsys.surfaces``:
they rebuild incidences, polygon refs and positive orientations per
rotation system, as ``OrientedFace``/``_Incidence`` tuples and
tuple-keyed dicts.  A rotation system lists face ids; each is mapped to
the edge's incidence it names, and a face that does not meet the edge
raises the library's error.  ``test_surfaces_oracle.py`` compares the
library with them.
"""

from __future__ import annotations

from typing import NamedTuple

from rotsys.complexes import (
    GENERAL,
    DirectedComplex,
    EdgeId,
    FaceBoundary,
    FaceId,
    PreComplex,
    SignedEdgeRef,
    VertexId,
    connected_classes,
)
from rotsys.errors import (
    BijectionFailureError,
    InvalidRotationSystemError,
    NotClosedSurfaceError,
)
from rotsys.rotation import RotationSystem, canonical_cycle
from rotsys.surfaces import (
    DualComplex,
    Gluing,
    IotaReport,
    LocalSurface,
    OrientedFace,
    SurfaceVertex,
)
from rotsys.tracing import LinkGraph, link_graphs, maps_isomorphism, surface_dual


class _Incidence(NamedTuple):
    """One traversal of an edge by a face: the face id and the position
    of the traversal in the face's stored trail."""

    face: FaceId
    pos: int


def _edge_incidences(c: PreComplex) -> dict[EdgeId, list[_Incidence]]:
    out: dict[EdgeId, list[_Incidence]] = {e: [] for e in c.edges}
    for f in sorted(c.faces):
        for i, ref in enumerate(c.faces[f].trail):
            out[ref.edge].append(_Incidence(f, i))
    return out


def _order_incidences(
    e: EdgeId, order: tuple[FaceId, ...], entries: list[_Incidence]
) -> list[_Incidence]:
    """The incidences at ``e`` of the faces ``order`` lists."""
    by_face = {inc.face: inc for inc in entries}
    out = []
    for f in order:
        if f not in by_face:
            raise InvalidRotationSystemError(
                f"edge {e!r}: sigma lists face {f!r}, which does not meet it"
            )
        out.append(by_face[f])
    return out


def polygon_refs(c: PreComplex, member: OrientedFace) -> tuple[SignedEdgeRef, ...]:
    trail = c.faces[member.face].trail
    if member.sense == 1:
        return trail
    return tuple(ref.reversed() for ref in reversed(trail))


def _positive_member(c: PreComplex, inc: _Incidence) -> OrientedFace:
    """The orientation of the face that traverses the edge of ``inc``
    along its chosen direction."""
    sign = c.faces[inc.face].trail[inc.pos].sign
    return OrientedFace(inc.face, sign)


def _side_of_edge(c: PreComplex, member: OrientedFace, trail_pos: int) -> int:
    """Polygon position of the side over the trail ref at ``trail_pos``."""
    if member.sense == 1:
        return trail_pos
    return len(c.faces[member.face].trail) - 1 - trail_pos


def related_pairs(c: PreComplex, sigma: RotationSystem) -> list[Gluing]:
    """All gluings induced by sigma, over every equivalence class.

    For an edge with d >= 2 incidences, consecutive entries of sigma(e)
    are related (d gluings); a single-incidence edge relates the two
    orientations of its one face (one gluing).
    """
    incidences = _edge_incidences(c)
    out: list[Gluing] = []
    for e in sorted(incidences):
        entries = incidences[e]
        if not entries:
            continue  # faceless edge of a PreComplex: nothing to glue
        if len(entries) == 1:
            inc = entries[0]
            pos = _positive_member(c, inc)
            neg = OrientedFace(inc.face, -pos.sense)
            out.append(
                Gluing(
                    e,
                    0,
                    pos,
                    _side_of_edge(c, pos, inc.pos),
                    neg,
                    _side_of_edge(c, neg, inc.pos),
                )
            )
            continue
        order = _order_incidences(e, sigma.sigma[e], entries)
        for t, inc in enumerate(order):
            nxt = order[(t + 1) % len(order)]
            pos = _positive_member(c, inc)
            neg_pos_member = _positive_member(c, nxt)
            neg = OrientedFace(nxt.face, -neg_pos_member.sense)
            out.append(
                Gluing(
                    e,
                    t,
                    pos,
                    _side_of_edge(c, pos, inc.pos),
                    neg,
                    _side_of_edge(c, neg, nxt.pos),
                )
            )
    return out


def local_surfaces(c: PreComplex, sigma: RotationSystem) -> list[LocalSurface]:
    """The local surfaces of ``(c, sigma)``, ordered by least member."""
    members_all = sorted(
        (OrientedFace(f, s) for f in c.faces for s in (1, -1)),
        key=OrientedFace.sort_key,
    )
    index = {m: i for i, m in enumerate(members_all)}
    pairs = related_pairs(c, sigma)
    classes = connected_classes(
        len(members_all), ((index[g.pos_member], index[g.neg_member]) for g in pairs)
    )
    return [
        _assemble(c, f"s{si}", [members_all[i] for i in members], pairs)
        for si, members in enumerate(classes)
    ]


def _assemble(
    c: PreComplex, sid: str, members: list[OrientedFace], all_pairs: list[Gluing]
) -> LocalSurface:
    member_set = set(members)
    member_index = {m: i for i, m in enumerate(members)}
    gluings = [g for g in all_pairs if g.pos_member in member_set]
    for g in gluings:
        if g.neg_member not in member_set:
            raise NotClosedSurfaceError("gluing leaves its equivalence class")
    poly = [polygon_refs(c, m) for m in members]
    lengths = tuple(len(p) for p in poly)

    # each polygon side lies in exactly one gluing
    side_to: dict[tuple[int, int], tuple[int, int]] = {}
    dart_of_side: dict[tuple[int, int], int] = {}
    for k, g in enumerate(gluings):
        pa = (member_index[g.pos_member], g.pos_side)
        pb = (member_index[g.neg_member], g.neg_side)
        for side, dart, other in ((pa, 2 * k, pb), (pb, 2 * k + 1, pa)):
            if side in side_to:
                raise NotClosedSurfaceError(f"side {side} glued twice in {sid}")
            side_to[side] = other
            dart_of_side[side] = dart
    if len(side_to) != sum(lengths):
        raise NotClosedSurfaceError(f"unglued polygon side in {sid}")

    # walk corners around each surface vertex; crossing the gluing at
    # the outgoing side enters the matched side of the neighbour polygon
    # and continues at the corner after it
    corners = [(m, j) for m in range(len(members)) for j in range(lengths[m])]
    corner_vertex = {
        (m, j): c.ref_start(poly[m][j]) for (m, j) in corners
    }
    unvisited = set(corners)
    vertices: list[SurfaceVertex] = []
    for start in corners:
        if start not in unvisited:
            continue
        orbit: list[tuple[int, int]] = []
        rotator: list[int] = []
        cur = start
        while True:
            orbit.append(cur)
            unvisited.discard(cur)
            out_side = cur
            entered = side_to[out_side]
            rotator.append(dart_of_side[entered])
            m2, j2 = entered
            cur = (m2, (j2 + 1) % lengths[m2])
            if cur == start:
                break
        home = corner_vertex[start]
        if any(corner_vertex[x] != home for x in orbit):
            raise NotClosedSurfaceError(f"corner walk left vertex {home!r} in {sid}")
        vertices.append(SurfaceVertex("", home, tuple(orbit), tuple(rotator)))

    # deterministic labels: per primal vertex, orbits by least corner
    by_home: dict[VertexId, list[SurfaceVertex]] = {}
    for sv in vertices:
        by_home.setdefault(sv.c_vertex, []).append(sv)
    labeled = []
    for sv in vertices:
        group = sorted(by_home[sv.c_vertex], key=lambda x: min(x.corners))
        n = group.index(sv)
        labeled.append(
            SurfaceVertex(f"{sv.c_vertex}.{n}", sv.c_vertex, sv.corners, sv.rotator)
        )
    labeled.sort(key=lambda sv: sv.label)

    chi = len(labeled) - len(gluings) + len(members)
    if chi % 2 != 0 or chi > 2:
        raise NotClosedSurfaceError(f"impossible Euler characteristic {chi} in {sid}")
    return LocalSurface(
        sid,
        tuple(members),
        tuple(gluings),
        tuple(labeled),
        chi,
        (2 - chi) // 2,
        lengths,
    )


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
    class_of: dict[OrientedFace, str] = {}
    for s in surfaces:
        for m in s.members:
            class_of[m] = s.id

    vertices = tuple(s.id for s in surfaces)
    edges = {
        f: (class_of[OrientedFace(f, -1)], class_of[OrientedFace(f, 1)])
        for f in c.faces
    }
    incidences = _edge_incidences(c)
    faces: dict[str, FaceBoundary] = {}
    for e in c.edges:
        entries = incidences[e]
        if not entries:
            continue  # faceless edges of a PreComplex have no dual face
        order = entries
        if len(entries) >= 2:
            order = _order_incidences(e, sigma.sigma[e], entries)
        refs = tuple(
            SignedEdgeRef(inc.face, c.faces[inc.face].trail[inc.pos].sign)
            for inc in order
        )
        faces[e] = FaceBoundary(e, refs)
    dual = DirectedComplex(GENERAL, vertices, edges, faces)

    # sigma of the dual: the boundary trail of each primal face, as
    # incidences into the dual faces it traverses, listed by dual face
    pos_in_dual_face: dict[tuple[EdgeId, FaceId], int] = {}
    for e, boundary in faces.items():
        for t, ref in enumerate(boundary.trail):
            pos_in_dual_face[(e, ref.edge)] = t
    sigma_map: dict[FaceId, tuple[EdgeId, ...]] = {}
    for f, boundary in c.faces.items():
        seq = tuple(
            _Incidence(ref.edge, pos_in_dual_face[(ref.edge, f)])
            for ref in boundary.trail
        )
        sigma_map[f] = tuple(inc.face for inc in seq) if len(seq) >= 2 else ()
    return DualComplex(dual, RotationSystem(sigma_map), tuple(surfaces), class_of)


def _canon_word(word: tuple) -> tuple:
    return min(canonical_cycle(word), canonical_cycle(tuple(reversed(word))))


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
    sweeping many rotation systems.
    """
    if surfaces is None:
        surfaces = local_surfaces(c, sigma)
    corner_words: dict[VertexId, list[tuple]] = {v: [] for v in c.vertices}
    total_vertices = 0
    for s in surfaces:
        trail_lens = {m.face: len(c.faces[m.face].trail) for m in s.members}
        for sv in s.vertices:
            word = []
            for (m, j) in sv.corners:
                member = s.members[m]
                k = trail_lens[member.face]
                trail_pos = j if member.sense == 1 else (k - j) % k
                word.append((member.face, trail_pos))
            corner_words[sv.c_vertex].append(tuple(word))
            total_vertices += 1

    if links is None:
        links = link_graphs(c)
    total_cells = 0
    matched = 0
    for v in sorted(c.vertices):
        lg = links[v]
        cc = lg.cell_complex(sigma)
        cell_words = []
        for orbit in cc.cells:
            cell_words.append(
                tuple((lg.faces[d >> 1], lg.positions[d >> 1]) for d in orbit)
            )
        total_cells += len(cell_words)
        pool: dict[tuple, int] = {}
        for w in cell_words:
            key = _canon_word(w)
            pool[key] = pool.get(key, 0) + 1
        for w in corner_words[v]:
            key = _canon_word(w)
            if pool.get(key, 0) <= 0:
                raise BijectionFailureError(
                    f"surface vertex at {v!r} with corner word {w} "
                    "has no matching link cell"
                )
            pool[key] -= 1
            matched += 1
        leftovers = [k for k, n in pool.items() if n > 0]
        if leftovers:
            raise BijectionFailureError(
                f"link cell at {v!r} unmatched: {leftovers[0]}"
            )
    if total_vertices != total_cells:
        raise BijectionFailureError(
            f"{total_vertices} surface vertices vs {total_cells} link cells"
        )
    return IotaReport(total_vertices, total_cells, matched)


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
    d = dual.complex
    links = link_graphs(d)
    out: dict[str, str] = {}
    for s in dual.surfaces:
        lg = links[s.id]
        a = lg.cell_complex(dual.sigma_c)
        b = surface_dual(s.cell_complex())
        gluing_index = {(g.edge, g.seq): k for k, g in enumerate(s.gluings)}
        dart_map = [-1] * len(a.dart_vertex)
        for k, (e, t) in enumerate(zip(lg.faces, lg.positions)):
            # dual face = primal edge, corner position
            deg = len(d.faces[e].trail)
            g_idx = gluing_index[(e, (t - 1) % deg)]
            dart_map[2 * k] = 2 * g_idx       # u side <-> positive side
            dart_map[2 * k + 1] = 2 * g_idx + 1
        verdict = maps_isomorphism(a.succ, b.succ, dart_map)
        if verdict is None:
            raise BijectionFailureError(
                f"dual link at {s.id} is not the surface dual of its local surface"
            )
        out[s.id] = verdict
    return out
