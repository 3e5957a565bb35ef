"""Directed 2-complexes: a multigraph plus faces given as closed trails.

A complex stores a chosen direction per edge (tail -> head) and a chosen
orientation per face (the stored trail).  ``PreComplex`` relaxes the
standing assumptions (every vertex in an edge, every edge in a face) so
that pieces obtained by splitting at cut vertices remain representable;
``DirectedComplex`` enforces them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import (
    EmptyKindError,
    NonClosedTrailError,
    SimplicialViolationError,
    UnknownReferenceError,
)

VertexId = str
EdgeId = str
FaceId = str

SIMPLICIAL = "simplicial"
GENERAL = "general"


@dataclass(frozen=True)
class SignedEdgeRef:
    """One traversal step of a face boundary: an edge and a direction.

    ``sign`` is +1 when the trail runs along the chosen direction of the
    edge (tail to head), -1 against it.
    """

    edge: EdgeId
    sign: int

    def reversed(self) -> "SignedEdgeRef":
        return SignedEdgeRef(self.edge, -self.sign)


@dataclass(frozen=True)
class FaceBoundary:
    """A face id together with its boundary trail.

    The trail as stored is the chosen orientation of the face; rotations
    of the same cyclic sequence are distinct documents but equivalent
    complexes.
    """

    face: FaceId
    trail: tuple[SignedEdgeRef, ...]


class Incidence(NamedTuple):
    """One traversal of an edge by a face: the face id and the position
    of the traversal in the face's stored trail."""

    face: FaceId
    pos: int


class Corner(NamedTuple):
    """A traversal of a vertex by a face boundary.

    Corner ``i`` of face ``f`` sits between trail refs ``i-1`` and ``i``
    (cyclically); ``vertex`` is where those two refs meet.
    """

    face: FaceId
    pos: int
    vertex: VertexId
    prev_ref: SignedEdgeRef
    next_ref: SignedEdgeRef


@dataclass(frozen=True)
class Violation:
    """One validation failure: the rule name and the offending ids."""

    rule: str
    subjects: tuple[str, ...]

    def __str__(self) -> str:  # e.g. EdgeWithoutFace(e3)
        return f"{self.rule}({','.join(self.subjects)})"


@dataclass(frozen=True)
class PreComplex:
    """A directed 2-complex with the standing assumptions relaxed.

    Edges without faces and isolated vertices are permitted.  Structural
    integrity (declared ids, closed trails) is still enforced at
    construction time.
    """

    kind: str
    vertices: tuple[VertexId, ...]
    edges: dict[EdgeId, tuple[VertexId, VertexId]]
    faces: dict[FaceId, FaceBoundary]

    def __post_init__(self):
        if self.kind not in (SIMPLICIAL, GENERAL):
            raise ValueError(f"unknown kind {self.kind!r}")
        seen_v = set()
        for v in self.vertices:
            if not v:
                raise UnknownReferenceError("empty vertex id")
            if v in seen_v:
                raise UnknownReferenceError(f"duplicate vertex id {v!r}")
            seen_v.add(v)
        for e, (tail, head) in self.edges.items():
            if not e:
                raise UnknownReferenceError("empty edge id")
            if tail not in seen_v:
                raise UnknownReferenceError(f"edge {e!r}: unknown tail {tail!r}")
            if head not in seen_v:
                raise UnknownReferenceError(f"edge {e!r}: unknown head {head!r}")
        for f, boundary in self.faces.items():
            if not f:
                raise UnknownReferenceError("empty face id")
            if boundary.face != f:
                raise UnknownReferenceError(
                    f"face {f!r}: boundary labeled {boundary.face!r}"
                )
            self._check_trail(f, boundary.trail)

    def _check_trail(self, f: FaceId, trail: tuple[SignedEdgeRef, ...]) -> None:
        if not trail:
            raise NonClosedTrailError(f"face {f!r}: empty boundary")
        seen_e = set()
        for ref in trail:
            if ref.edge not in self.edges:
                raise UnknownReferenceError(f"face {f!r}: unknown edge {ref.edge!r}")
            if ref.sign not in (1, -1):
                raise UnknownReferenceError(
                    f"face {f!r}: bad direction {ref.sign!r} at edge {ref.edge!r}"
                )
            if ref.edge in seen_e:
                raise NonClosedTrailError(
                    f"face {f!r}: edge {ref.edge!r} traversed twice (not a trail)"
                )
            seen_e.add(ref.edge)
        for i, ref in enumerate(trail):
            prev = trail[i - 1]
            if self.ref_end(prev) != self.ref_start(ref):
                raise NonClosedTrailError(
                    f"face {f!r}: refs {prev.edge!r} and {ref.edge!r} do not meet"
                )

    # -- traversal geometry -------------------------------------------------

    def ref_start(self, ref: SignedEdgeRef) -> VertexId:
        """Vertex where the traversal described by ``ref`` begins."""
        tail, head = self.edges[ref.edge]
        return tail if ref.sign == 1 else head

    def ref_end(self, ref: SignedEdgeRef) -> VertexId:
        """Vertex where the traversal described by ``ref`` ends."""
        tail, head = self.edges[ref.edge]
        return head if ref.sign == 1 else tail

    def corners(self, f: FaceId) -> list[Corner]:
        """All vertex traversals of face ``f`` in trail order."""
        trail = self.faces[f].trail
        out = []
        for i, ref in enumerate(trail):
            prev = trail[i - 1]
            out.append(Corner(f, i, self.ref_start(ref), prev, ref))
        return out

    def face_vertices(self, f: FaceId) -> frozenset[VertexId]:
        return frozenset(c.vertex for c in self.corners(f))

    def edge_incidences(self) -> dict[EdgeId, list[Incidence]]:
        """Face incidences per edge, in canonical (face id, position) order.

        Faces are trails, so each face is incident with each edge at most
        once; still, incidences carry the traversal position so that the
        same machinery serves dual complexes.
        """
        out: dict[EdgeId, list[Incidence]] = {e: [] for e in self.edges}
        for f in sorted(self.faces):
            for i, ref in enumerate(self.faces[f].trail):
                out[ref.edge].append(Incidence(f, i))
        return out

    # -- 1-skeleton ---------------------------------------------------------

    def skeleton_adjacency(self) -> dict[VertexId, set[VertexId]]:
        adj: dict[VertexId, set[VertexId]] = {v: set() for v in self.vertices}
        for tail, head in self.edges.values():
            adj[tail].add(head)
            adj[head].add(tail)
        return adj

    def incident_edges(self, v: VertexId) -> list[EdgeId]:
        """Edges with ``v`` as an endpoint, in id order."""
        return sorted(
            e for e, (tail, head) in self.edges.items() if v in (tail, head)
        )

    def components(self) -> list[set[VertexId]]:
        """Connected components of the 1-skeleton, ordered by least vertex."""
        order = sorted(self.vertices)
        index = {v: i for i, v in enumerate(order)}
        classes = connected_classes(
            len(order), ((index[tail], index[head]) for tail, head in self.edges.values())
        )
        return [{order[i] for i in members} for members in classes]

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def counts(self) -> tuple[int, int, int]:
        return len(self.vertices), len(self.edges), len(self.faces)


class DirectedComplex(PreComplex):
    """A directed 2-complex satisfying the standing assumptions.

    Construction fails with the first violation found by :func:`validate`.
    """

    def __post_init__(self):
        super().__post_init__()
        violations = validate(self)
        if violations:
            first = violations[0]
            if first.rule in ("VertexWithoutEdge", "EdgeWithoutFace"):
                raise EmptyKindError(str(first))
            raise SimplicialViolationError(str(first))

    @staticmethod
    def from_pre(pre: PreComplex) -> "DirectedComplex":
        return DirectedComplex(pre.kind, pre.vertices, pre.edges, pre.faces)


def validate(c: PreComplex) -> list[Violation]:
    """Report every way ``c`` falls short of the strict invariants.

    Applies the rules of ``DirectedComplex`` for the complex's own kind;
    the empty list means ``c`` would be accepted as a DirectedComplex.
    """
    violations: list[Violation] = []

    edges_of_vertex = {v: 0 for v in c.vertices}
    for tail, head in c.edges.values():
        edges_of_vertex[tail] += 1
        edges_of_vertex[head] += 1
    for v in sorted(c.vertices):
        if edges_of_vertex[v] == 0:
            violations.append(Violation("VertexWithoutEdge", (v,)))

    degree = {e: 0 for e in c.edges}
    for boundary in c.faces.values():
        for ref in boundary.trail:
            degree[ref.edge] += 1
    for e in sorted(c.edges):
        if degree[e] == 0:
            violations.append(Violation("EdgeWithoutFace", (e,)))

    if c.kind == SIMPLICIAL:
        for e in sorted(c.edges):
            tail, head = c.edges[e]
            if tail == head:
                violations.append(Violation("LoopEdge", (e,)))
        by_pair: dict[frozenset[VertexId], list[EdgeId]] = {}
        for e in sorted(c.edges):
            by_pair.setdefault(frozenset(c.edges[e]), []).append(e)
        for pair, ids in sorted(by_pair.items(), key=lambda kv: kv[1]):
            if len(pair) == 2 and len(ids) > 1:
                violations.append(Violation("ParallelEdges", tuple(ids)))
        for f in sorted(c.faces):
            trail = c.faces[f].trail
            if len(trail) != 3 or len(c.face_vertices(f)) != 3:
                violations.append(Violation("NonTriangleFace", (f,)))
        by_support: dict[frozenset[VertexId], list[FaceId]] = {}
        for f in sorted(c.faces):
            by_support.setdefault(c.face_vertices(f), []).append(f)
        for support, ids in sorted(by_support.items(), key=lambda kv: kv[1]):
            if len(ids) > 1:
                violations.append(Violation("DuplicateFace", tuple(ids)))

    return violations


def connected_classes(n: int, pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Classes of 0..n-1 under the equivalence generated by ``pairs``
    (union-find), each class ascending, classes ordered by least member."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    classes: dict[int, list[int]] = {}
    for x in range(n):
        classes.setdefault(find(x), []).append(x)
    return list(classes.values())
