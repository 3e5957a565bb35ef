"""Face tracing of cell complexes and link complexes.

Darts come in mate pairs (two per edge) and each dart "arrives" at one
vertex.  A rotator assigns every vertex the cyclic order of its
arriving darts; the tracing map sends a dart to the mate of its
successor in the rotator at its arrival vertex, and the orbits of that
map are the cells.  Each connected component realizes a closed oriented
surface, so its Euler characteristic V - E + cells is even and at most
2, with 2 exactly for spheres.

The link graph at a vertex v has one vertex per edge-end at v and one
edge per traversal of v by a face boundary.  Distinguishing the two
ends of a loop edge follows the double-counting convention for dual
complexes: a loop contributes two link vertices.  For loop-free
complexes the link vertices are simply the edges at v.  A face arrives
at an edge's head when it runs along the edge, at its tail when it runs
against it, and leaves from the other end.  ``link_graphs`` reads every
link in one walk over integers that deals each edge-end and each corner
to its vertex, and keeps them in the complex's table: one ``LinkGraph``
per vertex, a link vertex an index there and a link edge a dart pair.
That one object per link is also its tracer: rotators, cells, sphere
unions and the component count are read from it, and its labels are
spelled only when asked.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .complexes import EdgeId, FaceId, PreComplex, VertexId, connected_classes
from .errors import NotClosedSurfaceError, NotIncidentError, UnknownVertexError
from .rotation import RotationSystem, check_rotation_system, not_listed_once

HEAD = "h"
TAIL = "t"


def orbits_of(trace: Sequence[int]) -> list[tuple[int, ...]]:
    """Cycles of a permutation, each starting at its least element,
    enumerated from the least unused dart."""
    seen = [False] * len(trace)
    orbits = []
    for start in range(len(trace)):
        if seen[start]:
            continue
        orbit = [start]
        seen[start] = True
        d = trace[start]
        while d != start:
            orbit.append(d)
            seen[d] = True
            d = trace[d]
        orbits.append(tuple(orbit))
    return orbits


def traces_sphere_union(trace: Sequence[int], cells: int) -> bool:
    """Whether the tracing map ``trace`` (a dart to the mate of its
    rotator successor) has exactly ``cells`` orbits.

    Each connected component of a traced graph is a closed orientable
    surface, so it has at most 2 - V + E cells, with equality exactly
    for a sphere.  A graph is a sphere union iff its orbits reach the
    sum of these bounds over its components (an isolated vertex needs
    one cell and traces none, so it never does).
    """
    seen = [False] * len(trace)
    orbits = 0
    for start in range(len(trace)):
        if seen[start]:
            continue
        orbits += 1
        seen[start] = True
        d = trace[start]
        while d != start:
            seen[d] = True
            d = trace[d]
    return orbits == cells


@dataclass(frozen=True)
class CellComplex:
    """A traced multigraph: ``vertex_count`` vertices, edges (dart pairs
    2k / 2k+1), a rotator system encoded as the successor permutation,
    and the traced cells."""

    vertex_count: int
    dart_vertex: tuple[int, ...]
    succ: tuple[int, ...]
    cells: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_rotators(rotators: Sequence[Sequence[int]]) -> "CellComplex":
        """One vertex per rotator, so a vertex without darts counts.  The
        rotators must hold the darts 0..n-1 of whole edges, each once:
        n darts, each in range and none twice, in one pass."""
        not_a_partition = "rotators do not partition the darts"
        n = sum(len(rot) for rot in rotators)
        if n % 2:
            raise ValueError(not_a_partition)
        dart_vertex = [-1] * n
        succ = [-1] * n
        try:
            for vi, rot in enumerate(rotators):
                # a rotator's last dart is written to before its own turn
                prev = rot[-1] if rot else 0
                for d in rot:
                    if d < 0 or dart_vertex[d] >= 0:
                        raise ValueError(not_a_partition)
                    dart_vertex[d] = vi
                    succ[prev] = d
                    prev = d
        except IndexError:  # a dart past the last one
            raise ValueError(not_a_partition) from None
        trace = [s ^ 1 for s in succ]
        return CellComplex(len(rotators), tuple(dart_vertex), tuple(succ), tuple(orbits_of(trace)))

    # -- structure ----------------------------------------------------------

    def num_vertices(self) -> int:
        return self.vertex_count

    def num_edges(self) -> int:
        return len(self.dart_vertex) // 2

    def num_cells(self) -> int:
        return len(self.cells)

    def chi_by_component(self) -> list[int]:
        """V - E + cells per connected component, components ordered by
        least vertex; a vertex without darts is a component alone."""
        ends = iter(self.dart_vertex)
        classes = connected_classes(self.vertex_count, zip(ends, ends))
        component = {v: ci for ci, vs in enumerate(classes) for v in vs}
        chi = [len(vs) for vs in classes]
        for v in self.dart_vertex[::2]:
            chi[component[v]] -= 1
        for orbit in self.cells:
            chi[component[self.dart_vertex[orbit[0]]]] += 1
        return chi

    def chi(self) -> int:
        return self.num_vertices() - self.num_edges() + self.num_cells()


def is_sphere_union(cc: CellComplex) -> bool:
    """True iff every connected component has Euler characteristic 2,
    its cells reaching 2 - V + E."""
    return all(chi == 2 for chi in cc.chi_by_component())


def surface_dual(cc: CellComplex) -> CellComplex:
    """Swap vertices and cells of a closed traced surface.

    The dual keeps the darts and mates; its rotators are the cells of
    ``cc``, each listed in tracing order (the Edmonds-Hefter-Ringel
    principle), so its cells are the vertex rotators of ``cc``.
    """
    _require_no_isolated_vertex(cc)
    return CellComplex.from_rotators(cc.cells)


def surface_dual_successors(cc: CellComplex) -> list[int]:
    """The successor permutation of ``surface_dual(cc)`` without
    building the dual: its rotators are the cells of ``cc``, the orbits
    of the tracing map, so it is that map."""
    _require_no_isolated_vertex(cc)
    return [s ^ 1 for s in cc.succ]


def _require_no_isolated_vertex(cc: CellComplex) -> None:
    """A traced surface has a dual only when every vertex has darts."""
    if len(set(cc.dart_vertex)) < cc.num_vertices():
        raise NotClosedSurfaceError("isolated vertex; not a closed traced surface")


def maps_isomorphism(
    a_succ: Sequence[int], b_succ: Sequence[int], dart_map: Sequence[int]
) -> str | None:
    """Check a dart bijection as an isomorphism of two rotator systems,
    given as successor permutations over darts whose mates are 2k and
    2k+1.

    Returns "direct" if it intertwines the rotator successors, "mirror"
    if it intertwines successor with predecessor uniformly (the two
    tracing conventions differ by a global mirror), else None.  One
    pass over the mate pairs checks that ``dart_map`` is a bijection of
    the darts that keeps mates together; an odd dart count has no mate
    pairs and gives None.
    """
    n = len(a_succ)
    if n % 2 or len(b_succ) != n or len(dart_map) != n:
        return None
    # the images seen so far, both darts of each pair
    seen = [False] * n
    for d in range(0, n, 2):
        x = dart_map[d]
        if not 0 <= x < n or seen[x] or dart_map[d + 1] != x ^ 1:
            return None
        seen[x] = seen[x ^ 1] = True
    if all(dart_map[a_succ[d]] == b_succ[dart_map[d]] for d in range(n)):
        return "direct"
    b_pred = [0] * n
    for d, s in enumerate(b_succ):
        b_pred[s] = d
    if all(dart_map[a_succ[d]] == b_pred[dart_map[d]] for d in range(n)):
        return "mirror"
    return None


# -- link complexes ---------------------------------------------------------


@dataclass
class LinkGraph:
    """The link at ``center`` over integers, as ``link_graphs`` builds it,
    and the one reader of its rotators, cells and component count,
    retraceable cheaply for each rotation system a search or a check
    tries.

    ``ends`` holds per link vertex its edge, whether it is the edge's
    tail end, and its darts by face id, in face id order: each face
    through the edge gives the link vertex one dart, as sigma lists the
    faces.  Link edge k, a corner of a face at the center, has darts 2k,
    at the link vertex the face arrives at, and 2k + 1, at the one it
    leaves from, ``dart_vertex`` giving each dart's link vertex; per link
    edge, ``faces`` and ``positions`` hold its face and its position
    there, and ``corner_ids`` the corner's id, its place among all
    corners of the complex in (face id, position) order, as
    ``PolygonTable`` numbers them.  A corner is kept as ids in flat
    lists, not as a pair, so a walk makes no object per corner, and
    labels are spelled only for the readers that print them.  The
    component count and the cell count of a sphere union, which only
    some readers need, are counted on first use and kept.
    """

    center: VertexId
    ends: list[tuple[EdgeId, bool, dict[FaceId, int]]]
    dart_vertex: list[int]
    faces: list[FaceId]
    positions: list[int]
    corner_ids: list[int]

    def vertex_labels(self) -> list[str]:
        """Each link vertex's label: its edge id, with the end appended
        (``e:h``, ``e:t``) at a loop, whose two ends both lie here."""
        count = Counter(e for e, _, _ in self.ends)
        return [
            f"{e}:{TAIL if at_tail else HEAD}" if count[e] > 1 else e
            for e, at_tail, _ in self.ends
        ]

    def edge_labels(self) -> list[str]:
        """Each link edge's label, ``face#pos``."""
        return [f"{f}#{pos}" for f, pos in zip(self.faces, self.positions)]

    @cached_property
    def component_count(self) -> int:
        """The link's connected components, isolated vertices included."""
        ends = iter(self.dart_vertex)
        return len(connected_classes(len(self.ends), zip(ends, ends)))

    @cached_property
    def sphere_cells(self) -> int:
        """The orbit count of a sphere union, 2 - V + E per component.  A
        link vertex without darts, an end of a faceless edge, traces no
        cell and counts one fewer: the link is read as if that edge were
        not there, as the searches read it."""
        bare = sum(not darts for _, _, darts in self.ends)
        return 2 * self.component_count - len(self.ends) + len(self.corner_ids) - bare

    def rotator(self, i: int, order: Sequence[FaceId], red: bool = False) -> list[int]:
        """The darts at link vertex ``i`` in the cyclic order that
        ``order`` (sigma of its edge) induces.

        At a head end the darts follow ``order``; at a tail end they
        follow the reverse, unless the edge is red, in which case both
        ends read it forwards.  An empty ``order`` (an edge in one face,
        or a faceless one) yields the darts the vertex has.
        """
        _, tail, darts = self.ends[i]
        if not order:
            order = list(darts)
        elif tail and not red:
            order = order[::-1]
        return [darts[f] for f in order]

    def rotators(
        self, sigma: RotationSystem, red_edges: frozenset[EdgeId] = frozenset()
    ) -> list[list[int]]:
        """Resolve sigma to dart rotators, one per link vertex; faceless
        edges (PreComplex searches) need no entry in sigma."""
        orders = sigma.sigma
        return [
            self.rotator(i, orders.get(e, ()), e in red_edges)
            for i, (e, _, _) in enumerate(self.ends)
        ]

    def trace(
        self, sigma: RotationSystem, red_edges: frozenset[EdgeId] = frozenset()
    ) -> list[int]:
        """The tracing map of the rotators sigma induces, each dart to
        the mate of its successor: one pass over the link vertices, each
        reading its order by the rule of ``rotator``, save that an empty
        or missing order stands only for at most one face.  An order
        that leaves out, repeats or adds a face is an
        InvalidRotationSystemError."""
        orders = sigma.sigma
        trace = [-2] * len(self.dart_vertex)
        try:
            for e, tail, darts in self.ends:
                order = orders.get(e) or (list(darts) if len(darts) < 2 else ())
                if len(order) != len(darts):
                    raise not_listed_once(e)
                if tail and e not in red_edges:
                    order = order[::-1]
                if order:
                    prev = darts[order[-1]]
                    for f in order:
                        d = darts[f]
                        trace[prev] = d ^ 1
                        prev = d
        except KeyError:  # a face that does not meet the edge
            raise not_listed_once(e) from None
        if -2 in trace:
            raise not_listed_once(self.ends[self.dart_vertex[trace.index(-2)]][0])
        return trace

    def sphere_union(
        self, sigma: RotationSystem, red_edges: frozenset[EdgeId] = frozenset()
    ) -> bool:
        """Whether every component traces to Euler characteristic 2,
        without materializing a CellComplex."""
        return traces_sphere_union(self.trace(sigma, red_edges), self.sphere_cells)

    def cells(self, sigma: RotationSystem) -> list[tuple[int, ...]]:
        """The cells traced under sigma as dart orbits, those of
        ``cell_complex(sigma)``, without materializing it."""
        return orbits_of(self.trace(sigma))

    def cell_complex(self, sigma: RotationSystem) -> CellComplex:
        return CellComplex.from_rotators(self.rotators(sigma))


# the name under which perfbench wraps ``sphere_union``
LinkTracer = LinkGraph


def link_graphs(c: PreComplex) -> dict[VertexId, LinkGraph]:
    """The link of ``c`` at every vertex, in ``c``'s vertex order: walked
    on the first call and kept in ``c.table``, so every later caller
    shares them and must not change them."""
    table = c.table
    if table.links is None:
        table.links = _walk(c)
    return table.links


def _walk(c: PreComplex) -> dict[VertexId, LinkGraph]:
    """Every link of ``c`` from one pass over the edges and one over the
    face trails.

    Link vertices are the edge-ends at v (in id order, head end before
    tail end for loops); link edges are the face traversals of v in
    (face id, position) order, which fixes the dart ordering used
    everywhere else.
    """
    graphs = {v: LinkGraph(v, [], [], [], [], []) for v in c.vertices}
    # per edge, its tail end and its head end, each with the lists of
    # the link at its vertex, its link vertex there and that one's darts
    ends = {}
    for e in sorted(c.edges):
        tail, head = c.edges[e]
        pair = []
        for v, at_tail in ((head, False), (tail, True)):
            g = graphs[v]
            darts: dict[FaceId, int] = {}
            pair.append((g.dart_vertex, g.faces, g.positions, g.corner_ids, len(g.ends), darts))
            g.ends.append((e, at_tail, darts))
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
    return graphs


def link_graph(c: PreComplex, v: VertexId) -> LinkGraph:
    """The link graph of ``c`` at ``v``, the one ``link_graphs`` keeps."""
    if v not in c.vertices:
        raise UnknownVertexError(f"unknown vertex {v!r}")
    return link_graphs(c)[v]


def link_tracer(
    c: PreComplex,
    v: VertexId,
    incidences: dict[EdgeId, list[FaceId]] | None = None,
) -> LinkGraph:
    """``link_graph(c, v)``, under the name perfbench wraps;
    ``incidences`` is accepted for callers that pass
    ``c.edge_incidences()`` and unused."""
    return link_graph(c, v)


def is_locally_connected(c: PreComplex) -> tuple[bool, VertexId | None]:
    """Whether every link graph is connected; on failure also the least
    vertex with a disconnected link.  Reads the component counts of the
    links kept in ``c.table``."""
    links = link_graphs(c)
    for v in sorted(c.vertices):
        if links[v].component_count > 1:
            return False, v
    return True, None


def trace_link_complex(c: PreComplex, sigma: RotationSystem, v: VertexId) -> CellComplex:
    """The link complex of ``(c, sigma)`` at ``v``: the link graph with
    rotators induced by sigma, a rotation system of ``c``, traced into
    cells."""
    check_rotation_system(c, sigma)
    return link_graph(c, v).cell_complex(sigma)


def induced_rotator(
    c: PreComplex, sigma: RotationSystem, e: EdgeId, v: VertexId
) -> list[tuple[str, FaceId]]:
    """The rotator at link vertex ``e`` of the link graph at ``v``:
    sigma(e) when the edge points toward ``v``, its reverse otherwise,
    as (link-edge label, face id) pairs: each face with the link edge
    (face traversal of ``v``) it contributes.

    For a loop both ends lie at ``v``; the head end is reported.  The
    single-face convention leaves sigma empty, and the rotator is then
    the one link edge of the single face.  Read from the link at ``v``
    kept in ``c.table``.  Sigma must be a rotation
    system of ``c``.
    """
    check_rotation_system(c, sigma)
    if e not in c.edges:
        raise NotIncidentError(f"unknown edge {e!r}")
    tail, head = c.edges[e]
    if v not in (tail, head):
        raise NotIncidentError(f"vertex {v!r} is not an endpoint of edge {e!r}")
    lg = link_graphs(c)[v]
    end = (e, head != v)
    i = next(i for i, (edge, at_tail, _) in enumerate(lg.ends) if (edge, at_tail) == end)
    labels = lg.edge_labels()
    return [(labels[d >> 1], lg.faces[d >> 1]) for d in lg.rotator(i, sigma.sigma[e])]


def is_planar_rotation_system(
    c: PreComplex, sigma: RotationSystem
) -> tuple[bool, VertexId | None]:
    """Whether every link complex of ``(c, sigma)``, sigma a rotation
    system of ``c``, is a disjoint union of spheres; on failure also the
    least failing vertex."""
    check_rotation_system(c, sigma)
    links = link_graphs(c)
    for v in sorted(c.vertices):
        if not links[v].sphere_union(sigma):
            return False, v
    return True, None
