"""Backtracking searches for (generalized) planar rotation systems.

One iterative backtracker serves both searches.  Edges are assigned in
bytewise id order; per edge it tries each cyclic order (fixing the
least incidence first and permuting the rest) and, within a cyclic
order, each colour: black gives the two ends mutually reverse rotators,
red gives both ends the same one.  A planar rotation system is the
all-black case of a generalized one, so the planar search offers black
only.  The order makes the search lexicographic and its outcome
machine-independent.  Each search reads the link tracers kept in the
complex's table, built on first use, and prunes threefold: a planarity
precheck of their link graphs (a sphere-union link complex is a plane
embedding, so a non-planar link kills every candidate), a sphere-union
check of each link as soon as all edges at its vertex are decided, and
an even-red check of each face as soon as all its edges are decided.

Two further savings keep the answers unchanged.  The mirror cut:
reversing every cyclic order maps (generalized) planar systems to
themselves, so the first edge with two or more cyclic orders offers only
the half whose orders are lex <= their reversal, and each witness
reached counts twice; the least witness always lies in that half.
Precompiled successor writes: built once per search, each (edge,
option) carries the blocks of successor entries (stored as the tracing
map, successor then mate) it fixes in the links at the edge's ends, and
a decided link's orbits are counted on its array by the same code as
``LinkTracer.sphere_union``; a link whose edges offer no choice of
rotator is checked once, before the search.  The backtracker keeps its
own stack, so the size of a complex is not bounded by Python's
recursion limit.  The rotators of a generalized witness are read from
the same link tracers, so a ``gprs find`` request builds each link
once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

import networkx as nx

from .complexes import EdgeId, Incidence, PreComplex, VertexId
from .errors import CapExceededError
from .links import LinkGraph
from .rotation import RotationSystem, sigma_candidates, total_search_space
from .tracing import LinkTracer, link_tracers, traces_sphere_union

_BLACK = (False,)
_BLACK_OR_RED = (False, True)


def _faceless_edges(c: PreComplex) -> set[EdgeId]:
    return {e for e, incs in c.table.incidences.items() if not incs}


def _searchable(c: PreComplex) -> PreComplex:
    """Drop faceless edges and then-isolated vertices: they carry no
    rotation choice and never obstruct an embedding."""
    faceless = _faceless_edges(c)
    if not faceless:
        return c
    edges = {e: ends for e, ends in c.edges.items() if e not in faceless}
    used_v = {v for ends in edges.values() for v in ends}
    vertices = tuple(v for v in c.vertices if v in used_v)
    return PreComplex(c.kind, vertices, edges, dict(c.faces))


def link_planarity_precheck(links: Iterable[LinkGraph]) -> VertexId | None:
    """Least center of a non-planar link graph among ``links``, or None.

    Planarity of a multigraph equals planarity of its underlying simple
    graph; loops cannot occur in link graphs built over edge-ends.
    """
    for lg in sorted(links, key=lambda lg: lg.center):
        g = nx.Graph()
        g.add_nodes_from(lg.vertices)
        for le in lg.edges:
            if le.u != le.w:
                g.add_edge(le.u, le.w)
        ok, _ = nx.check_planarity(g)
        if not ok:
            return lg.center
    return None


_Witness = tuple[RotationSystem, tuple[EdgeId, ...]]
# one precompiled write: a tracing array, a block of it, the new values
_Write = tuple[list[int], int, int, list[int]]
_Step = tuple[tuple[Incidence, ...], bool, tuple[_Write, ...]]


def _candidates(
    c: PreComplex, cap: int | None
) -> tuple[list[EdgeId], list[list[tuple[Incidence, ...]]], int]:
    """Edges in bytewise id order, the cyclic orders the search tries at
    each, and the number of systems each witness reached stands for.

    The mirror cut: reversing every cyclic order maps (generalized)
    planar systems to themselves, colours and face parity untouched, and
    fixes none once an edge has three or more incidences.  Of each order
    and its reversal the first such edge keeps the one whose tail after
    the least incidence is lex <= the reversed tail, which keeps the
    least witness, and each witness stands for two systems.  Under a cap
    at most cap + 1 orders are generated per edge: a search within the
    cap places none after an edge's cap-th, and the next one exceeds it.
    """
    incs = c.table.incidences
    edge_order = sorted(incs)
    keep = None if cap is None else cap + 1
    weight = 1
    candidates = []
    for e in edge_order:
        orders = sigma_candidates(incs[e])
        if weight == 1 and len(incs[e]) >= 3:
            orders = (cand for cand in orders if cand[1:] <= cand[:0:-1])
            weight = 2
        candidates.append(list(itertools.islice(orders, keep)))
    return edge_order, candidates, weight


def _write(
    t: LinkTracer,
    i: int,
    trace: list[int],
    slot: list[int],
    start: int,
    cand: tuple[Incidence, ...],
    red: bool,
) -> _Write:
    """The write to ``trace`` that fixes the block of link vertex ``i``
    of ``t``, starting at ``start``, for the cyclic order ``cand`` and
    the colour ``red`` of its edge."""
    rot = t.rotator(i, cand, red)
    values = [0] * len(rot)
    for j, succ in enumerate(rot):
        values[slot[rot[j - 1]] - start] = slot[succ ^ 1]
    return trace, start, start + len(rot), values


def _compile_links(
    tracers: dict[VertexId, LinkTracer],
    edge_order: list[EdgeId],
    candidates: list[list[tuple[Incidence, ...]]],
    colours: tuple[bool, ...],
) -> tuple[list[list[_Step]], dict[VertexId, tuple[list[int], int]]]:
    """Per edge, its options (cyclic order, colour) each with the writes
    it makes to the tracing arrays of the links at the edge's ends; per
    vertex whose link must be checked, its tracing array and the orbit
    count of a sphere union.

    An edge is fixed when all its options induce the same rotators: one
    cyclic order, and one colour or at most two incidences.  A link
    whose edges are all fixed and which is a sphere union needs no
    check.  Each other link's darts are renumbered so that the darts
    arriving at one link vertex fill one block of its array, in
    ascending dart order; the blocks of fixed edges are written once,
    and every option of another edge rewrites the blocks of its ends, so
    a link whose edges are all assigned holds the tracing map of the
    current assignment.
    """
    fixed = {
        e
        for e, cands in zip(edge_order, candidates)
        if len(cands) == 1 and (len(colours) == 1 or len(cands[0]) <= 2)
    }
    first = {e: cands[0] for e, cands in zip(edge_order, candidates)}
    ends: dict[EdgeId, list[tuple[LinkTracer, int, list[int], list[int], int]]] = {
        e: [] for e in edge_order
    }
    arrays: dict[VertexId, tuple[list[int], int]] = {}
    for v, t in tracers.items():
        n = len(t.dart_vertex)
        slot = [0] * n
        for k, d in enumerate(sorted(range(n), key=t.dart_vertex.__getitem__)):
            slot[d] = k
        trace = [0] * n
        start = 0
        open_ends = False
        for i, lv in enumerate(t.link.vertices):
            if lv.edge in fixed:
                _, lo, hi, values = _write(t, i, trace, slot, start, first[lv.edge], False)
                trace[lo:hi] = values
            else:
                ends[lv.edge].append((t, i, trace, slot, start))
                open_ends = True
            start += len(t.incidences_of_vertex[i])
        if open_ends or not traces_sphere_union(trace, t.sphere_cells):
            arrays[v] = (trace, t.sphere_cells)
    steps = [
        [
            (cand, red, tuple(_write(*end, cand, red) for end in ends[e]))
            for cand in cands
            for red in colours
        ]
        for e, cands in zip(edge_order, candidates)
    ]
    return steps, arrays


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
    faceless = dict.fromkeys(sorted(_faceless_edges(c)), ())
    c = _searchable(c)
    total_space = total_search_space(c)
    tracers = link_tracers(c)
    if link_planarity_precheck(t.link for t in tracers.values()) is not None:
        return None, 0, 0, total_space
    edge_order, candidates, weight = _candidates(c, cap)

    # a vertex's link is decided once the last of its edges is assigned,
    # a face's red parity once the last of its edges is
    last_edge_index: dict[VertexId, int] = {}
    for i, e in enumerate(edge_order):
        for v in c.edges[e]:
            last_edge_index[v] = i
    steps, arrays = _compile_links(tracers, edge_order, candidates, colours)
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
        witness = (RotationSystem(faceless), ()) if first_only else None
        return witness, 1, 0, total_space

    assignment: dict[EdgeId, tuple[Incidence, ...]] = {}
    red_edges: set[EdgeId] = set()
    examined = found = 0
    last = len(edge_order) - 1
    stack = [iter(steps[0])]  # per assigned edge, its untried options
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
                stack.append(iter(steps[i + 1]))
                break
            found += weight
            if first_only:
                sigma = RotationSystem({**assignment, **faceless})
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
    with the progress made.

    A faceless edge of a PreComplex never obstructs: the witness gives
    it the empty order, though ``is_planar_rotation_system`` still reads
    the isolated link vertex it leaves as no sphere.
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
        edges induce, read from the link tracers kept in ``c.table``."""
        assert self.sigma is not None
        red = frozenset(self.red_edges)
        tracers = link_tracers(c)
        out: dict[str, dict[str, list[str]]] = {}
        for v in sorted(c.vertices):
            t = tracers[v]
            labels = t.link.vertex_labels()
            out[v] = {
                labels[i]: [t.edge_labels[d >> 1] for d in rot]
                for i, rot in enumerate(t.rotators(self.sigma, red))
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
