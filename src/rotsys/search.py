"""Backtracking searches for (generalized) planar rotation systems.

One iterative backtracker serves both searches.  Edges are assigned in
bytewise id order; per edge it tries each cyclic order of its faces
(fixing the least face first and permuting the rest) and, within a cyclic
order, each colour: black gives the two ends mutually reverse rotators,
red gives both ends the same one.  A planar rotation system is the
all-black case of a generalized one, so the planar search offers black
only.  The order makes the search lexicographic and its outcome
machine-independent.  Each search reads the link graphs kept in the
complex's table, walked on first use, and prunes threefold: a planarity
precheck of those graphs, over link-vertex indices (a sphere-union
link complex is a plane embedding, so a non-planar link kills every
candidate), a sphere-union check of each link as soon as
all edges at its vertex are decided, and an even-red check of each face
as soon as all its edges are decided.

Two further savings keep the answers unchanged.  The mirror cut:
reversing every cyclic order maps (generalized) planar systems to
themselves, so the first edge with two or more cyclic orders offers only
the half whose orders are lex <= their reversal, and each witness
reached counts twice; the least witness always lies in that half.
Compiled successor writes: each (edge, option) carries the blocks of
successor entries (stored as the tracing map, successor then mate) it
fixes in the links at the edge's ends, compiled when the backtracker
first places it and kept for later passes, so an edge's cyclic orders
are generated only as far as the search reaches; a decided link's
orbits are counted on its array by the same code as
``LinkGraph.sphere_union``; a link whose edges offer no choice of
rotator is checked once, before the search.  A faceless edge of a
``PreComplex`` offers no choice and is skipped.  The backtracker keeps
its own stack, so the size of a complex is not bounded by Python's
recursion limit.  The rotators of a generalized witness are read from
the same link graphs, so a ``gprs find`` request walks the complex
once; only its document spells link labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import networkx as nx

from .complexes import EdgeId, FaceId, PreComplex, VertexId
from .errors import CapExceededError
from .rotation import RotationSystem, sigma_candidates, total_search_space
from .tracing import LinkGraph, link_graphs, traces_sphere_union

_BLACK = (False,)
_BLACK_OR_RED = (False, True)


def link_planarity_precheck(links: Iterable[LinkGraph]) -> VertexId | None:
    """Least center of a non-planar link graph among ``links``, or None.

    Planarity of a multigraph equals planarity of its underlying simple
    graph, built here over link-vertex indices.  No link edge joins a
    link vertex to itself: a face arrives at and leaves from one
    edge-end only by running along an edge and straight back, and a
    trail passes each edge once.
    """
    for lg in sorted(links, key=lambda lg: lg.center):
        g = nx.Graph()
        g.add_nodes_from(range(len(lg.ends)))
        darts = iter(lg.dart_vertex)
        g.add_edges_from(zip(darts, darts))
        ok, _ = nx.check_planarity(g)
        if not ok:
            return lg.center
    return None


_Witness = tuple[RotationSystem, tuple[EdgeId, ...]]
# one compiled write: a tracing array, a block of it, the new values
_Write = tuple[list[int], int, int, list[int]]
_Step = tuple[tuple[FaceId, ...], bool, tuple[_Write, ...]]
# an edge's open end: link, link vertex, tracing array, slots, block start
_End = tuple[LinkGraph, int, list[int], list[int], int]


def _candidates(
    c: PreComplex,
) -> tuple[list[EdgeId], list[Iterator[tuple[FaceId, ...]]], int]:
    """Edges with faces in bytewise id order, the cyclic orders the
    search tries at each, generated lazily, and the number of systems
    each witness reached stands for.

    The mirror cut: reversing every cyclic order maps (generalized)
    planar systems to themselves, colours and face parity untouched, and
    fixes none once an edge has three or more faces.  Of each order and
    its reversal the first such edge keeps the one whose tail after the
    least face is lex <= the reversed tail, which keeps the
    least witness, and each witness stands for two systems.
    """
    incs = c.table.incidences
    edge_order = [e for e in sorted(incs) if incs[e]]
    weight = 1
    candidates = []
    for e in edge_order:
        orders = sigma_candidates(incs[e])
        if weight == 1 and len(incs[e]) >= 3:
            orders = (cand for cand in orders if cand[1:] <= cand[:0:-1])
            weight = 2
        candidates.append(orders)
    return edge_order, candidates, weight


def _write(
    lg: LinkGraph,
    i: int,
    trace: list[int],
    slot: list[int],
    start: int,
    cand: tuple[FaceId, ...],
    red: bool,
) -> _Write:
    """The write to ``trace`` that fixes the block of link vertex ``i``
    of ``lg``, starting at ``start``, for the cyclic order ``cand`` and
    the colour ``red`` of its edge."""
    rot = lg.rotator(i, cand, red)
    values = [0] * len(rot)
    for j, succ in enumerate(rot):
        values[slot[rot[j - 1]] - start] = slot[succ ^ 1]
    return trace, start, start + len(rot), values


def _options(
    ends: list[_End],
    orders: Iterable[tuple[FaceId, ...]],
    colours: tuple[bool, ...],
    compiled: list[_Step],
) -> Iterator[_Step]:
    """One edge's options in search order, each compiled with its writes
    at ``ends`` when reached and appended to ``compiled``; a function,
    not a generator expression, so each edge's pass binds its own."""
    for cand in orders:
        for red in colours:
            step = (cand, red, tuple(_write(*end, cand, red) for end in ends))
            compiled.append(step)
            yield step


def _compile_links(
    links: dict[VertexId, LinkGraph],
    edge_order: list[EdgeId],
    candidates: list[Iterator[tuple[FaceId, ...]]],
    colours: tuple[bool, ...],
) -> tuple[list[list[_Step]], list[Iterator[_Step]], dict[VertexId, tuple[list[int], int]]]:
    """Per edge, its options (cyclic order, colour) compiled so far, each
    with the writes it makes to the tracing arrays of the links at the
    edge's ends, and the first pass over them, which compiles them; per
    vertex whose link must be checked, its tracing array and the orbit
    count of a sphere union.

    An edge in at most two faces is fixed: all its options induce the
    rotator its empty order does.  A link whose edges are all fixed and
    which is a sphere union needs no check.  Each other link's darts are
    renumbered so that the darts arriving at one link vertex fill one
    block of its array, in ascending dart order; the blocks of fixed
    edges are written once, and every option of another edge rewrites
    the blocks of its ends, so a link whose edges are all assigned holds
    the tracing map of the current assignment.  A link vertex without
    darts, an end of a faceless edge, has an empty block, and the
    link's ``sphere_cells`` already reads its link as if that edge
    were not there.
    """
    ends: dict[EdgeId, list[_End]] = {e: [] for e in edge_order}
    arrays: dict[VertexId, tuple[list[int], int]] = {}
    for v, lg in links.items():
        n = len(lg.dart_vertex)
        slot = [0] * n
        for k, d in enumerate(sorted(range(n), key=lg.dart_vertex.__getitem__)):
            slot[d] = k
        trace = [0] * n
        start = 0
        open_ends = False
        for i, (e, _, darts) in enumerate(lg.ends):
            if len(darts) <= 2:
                _, lo, hi, values = _write(lg, i, trace, slot, start, (), False)
                trace[lo:hi] = values
            else:
                ends[e].append((lg, i, trace, slot, start))
                open_ends = True
            start += len(darts)
        if open_ends or not traces_sphere_union(trace, lg.sphere_cells):
            arrays[v] = (trace, lg.sphere_cells)
    steps: list[list[_Step]] = [[] for _ in edge_order]
    passes = [
        _options(ends[e], orders, colours, compiled)
        for e, orders, compiled in zip(edge_order, candidates, steps)
    ]
    return steps, passes, arrays


def _search(
    c: PreComplex, colours: tuple[bool, ...], first_only: bool, cap: int | None
) -> tuple[_Witness | None, int, int, int]:
    """Depth-first search over (cyclic order, colour) per edge.

    ``colours`` lists the colours tried per cyclic order, False (black)
    before True (red).  Returns the least witness (sigma, with the empty
    order at each faceless edge, and its sorted red edges) when
    ``first_only``, else None; the number of systems accounted for by
    the witnesses reached (the search stops at the first when
    ``first_only``); the candidates examined, one per placed (cyclic
    order, colour); and the size of the space of cyclic orders.
    """
    if cap is not None and cap < 1:
        raise ValueError("cap must be >= 1")
    total_space = total_search_space(c)
    links = link_graphs(c)
    if link_planarity_precheck(links.values()) is not None:
        return None, 0, 0, total_space
    edge_order, candidates, weight = _candidates(c)

    # a vertex's link is decided once the last of its edges is assigned,
    # a face's red parity once the last of its edges is
    last_edge_index = {v: i for i, e in enumerate(edge_order) for v in c.edges[e]}
    steps, passes, arrays = _compile_links(links, edge_order, candidates, colours)
    decided_at: list[list[tuple[list[int], int]]] = [[] for _ in edge_order]
    for v, i in last_edge_index.items():
        if v in arrays:
            decided_at[i].append(arrays[v])
    closed_at: list[list[tuple[EdgeId, ...]]] = [[] for _ in edge_order]
    if True in colours:  # only red edges can make a face odd
        position = {e: i for i, e in enumerate(edge_order)}
        for boundary in c.faces.values():
            face = tuple(ref.edge for ref in boundary.trail)
            closed_at[max(position[e] for e in face)].append(face)

    if not edge_order:
        # nothing to assign: the empty system is planar
        witness = (RotationSystem(dict.fromkeys(c.edges, ())), ()) if first_only else None
        return witness, 1, 0, total_space

    assignment: dict[EdgeId, tuple[FaceId, ...]] = {}
    red_edges: set[EdgeId] = set()
    examined = found = 0
    last = len(edge_order) - 1
    stack = [passes[0]]  # per assigned edge, its untried options
    while stack:
        i = len(stack) - 1
        e = edge_order[i]
        for cand, red, edge_writes in stack[i]:
            examined += 1
            if cap is not None and examined > cap:
                raise CapExceededError(
                    f"candidate cap {cap} exceeded", examined - 1, found
                )
            assignment[e] = cand
            if red:
                red_edges.add(e)
            elif red_edges:
                red_edges.discard(e)
            ok = True
            for face in closed_at[i]:
                if sum(f in red_edges for f in face) % 2:
                    ok = False
                    break
            if not ok:
                continue
            for trace, lo, hi, values in edge_writes:
                trace[lo:hi] = values
            for trace, cells in decided_at[i]:
                if not traces_sphere_union(trace, cells):
                    ok = False
                    break
            if not ok:
                continue
            if i < last:
                # an edge's first pass is dropped only once exhausted, or
                # when the search returns, so a filled list is complete
                stack.append(iter(steps[i + 1]) if steps[i + 1] else passes[i + 1])
                break
            found += weight
            if first_only:
                sigma = RotationSystem({e: assignment.get(e, ()) for e in c.edges})
                witness = (sigma, tuple(sorted(red_edges)))
                return witness, found, examined, total_space
        else:
            stack.pop()
            del assignment[e]
            red_edges.discard(e)
    return None, found, examined, total_space


@dataclass(frozen=True)
class PrsSearchResult:
    status: str  # "found" | "exhausted"
    sigma: RotationSystem | None
    count: int | None
    candidates_examined: int
    total_space: int

    def to_doc(self) -> dict:
        doc = {
            "status": self.status,
            "candidates_examined": self.candidates_examined,
            "total_space": self.total_space,
        }
        if self.count is not None:
            doc["count"] = self.count
        return doc


def search_planar_rotation_system(
    c: PreComplex, mode: str = "first", cap: int | None = None
) -> PrsSearchResult:
    """Find or count planar rotation systems of ``c``.

    mode="first" returns the lexicographically least planar system;
    mode="count" counts all of them.  ``cap`` bounds the number of
    sigma placements attempted; exceeding it raises CapExceededError
    with the progress made.  A faceless edge of a PreComplex never
    obstructs, and the witness gives it the empty order.
    """
    if mode not in ("first", "count"):
        raise ValueError(f"unknown mode {mode!r}")
    witness, found, examined, total_space = _search(c, _BLACK, mode == "first", cap)
    if mode == "first":
        if witness is None:
            return PrsSearchResult("exhausted", None, None, examined, total_space)
        return PrsSearchResult("found", witness[0], None, examined, total_space)
    status = "found" if found > 0 else "exhausted"
    return PrsSearchResult(status, None, found, examined, total_space)


@dataclass(frozen=True)
class GprsSearchResult:
    status: str  # "found" | "exhausted"
    sigma: RotationSystem | None
    red_edges: tuple[EdgeId, ...]
    candidates_examined: int

    def rotator_doc(self, c: PreComplex) -> dict:
        """The per-vertex rotators of the found assignment: for every
        link vertex (edge-end at the vertex, in link order), the cyclic
        order of its link edges (face#corner) that sigma and the red
        edges induce, read from the link graphs kept in ``c.table``."""
        assert self.sigma is not None
        red = frozenset(self.red_edges)
        links = link_graphs(c)
        out: dict[str, dict[str, list[str]]] = {}
        for v in sorted(c.vertices):
            lg = links[v]
            labels, edge_labels = lg.vertex_labels(), lg.edge_labels()
            out[v] = {
                labels[i]: [edge_labels[d >> 1] for d in rot]
                for i, rot in enumerate(lg.rotators(self.sigma, red))
            }
        return out

    def to_doc(self, c: PreComplex | None = None) -> dict:
        doc = {
            "status": self.status,
            "candidates_examined": self.candidates_examined,
        }
        if self.status == "found":
            doc["red_edges"] = list(self.red_edges)
            if c is not None:
                doc["rotators"] = self.rotator_doc(c)
        return doc


def search_generalized_prs(
    c: PreComplex, cap: int | None = None
) -> GprsSearchResult:
    """Search for a generalized planar rotation system.

    Per edge, a cyclic order and a color: black gives the two ends
    mutually reverse rotators as in planar systems, red gives both ends
    the same one.  Accepts when every link complex is a sphere union
    and every face has an even number of red edges.  Returns the least
    witness (cyclic orders lexicographic, black before red).
    """
    witness, _, examined, _ = _search(c, _BLACK_OR_RED, True, cap)
    if witness is None:
        return GprsSearchResult("exhausted", None, (), examined)
    return GprsSearchResult("found", witness[0], witness[1], examined)
