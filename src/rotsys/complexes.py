"""Directed 2-complexes: a multigraph plus faces given as closed trails.

A complex stores a chosen direction per edge (tail -> head) and a chosen
orientation per face (the stored trail).  ``PreComplex`` relaxes the
standing assumptions (every vertex in an edge, every edge in a face) so
that pieces obtained by splitting at cut vertices remain representable;
``DirectedComplex`` enforces them.

What does not depend on a rotation system is compiled once per complex,
on first use, into its ``table``: each edge's faces, the polygons of
the oriented faces over integer ids, and the link graphs.  The
table is a memo of the complex's fields, which is why complexes are
never changed after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, NamedTuple, TypeVar

from .errors import (
    EmptyKindError,
    InvalidRotationSystemError,
    NonClosedTrailError,
    SimplicialViolationError,
    UnknownReferenceError,
)

if TYPE_CHECKING:
    from .rotation import RotationSystem
    from .tracing import LinkGraph

VertexId = str
EdgeId = str
FaceId = str
T = TypeVar("T")

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


# A face's boundary trail.  The trail as stored is the chosen orientation
# of the face; rotations of the same cyclic sequence are distinct
# documents but equivalent complexes.
Trail = tuple[SignedEdgeRef, ...]


class OrientedFace(NamedTuple):
    """An orientation of a face: +1 is the stored trail, -1 its reverse."""

    face: FaceId
    sense: int

    def label(self) -> str:
        return f"{self.face}{'+' if self.sense == 1 else '-'}"


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
    faces: dict[FaceId, Trail]

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
        for f, trail in self.faces.items():
            if not f:
                raise UnknownReferenceError("empty face id")
            self._check_trail(f, trail)

    def _check_trail(self, f: FaceId, trail: Trail) -> None:
        """Raise unless ``trail`` is a closed trail over this complex's
        edges, in one pass: an unknown edge, a direction other than +1
        or -1 or a repeated edge as the pass reaches it, then the first
        gap in index order, gap 0 lying between the last ref and the
        first."""
        if not trail:
            raise NonClosedTrailError(f"face {f!r}: empty boundary")
        edges = self.edges
        # where the last ref ends: its head at +1, its tail at -1 (an
        # unknown edge or a bad sign is raised when the pass reaches it)
        at = edges.get(trail[-1].edge, (None, None))[trail[-1].sign == 1]
        seen_e = set()
        gap = None
        for ref in trail:
            e, sign = ref.edge, ref.sign
            ends = edges.get(e)
            if ends is None:
                raise UnknownReferenceError(f"face {f!r}: unknown edge {e!r}")
            if sign != 1 and sign != -1:
                raise UnknownReferenceError(
                    f"face {f!r}: bad direction {sign!r} at edge {e!r}"
                )
            if e in seen_e:
                raise NonClosedTrailError(
                    f"face {f!r}: edge {e!r} traversed twice (not a trail)"
                )
            seen_e.add(e)
            start, end = ends if sign == 1 else (ends[1], ends[0])
            if start != at and gap is None:
                gap = ref
            at = end
        if gap is not None:
            # no edge repeats, so the ref is found by its edge and sign
            prev = trail[trail.index(gap) - 1]
            raise NonClosedTrailError(
                f"face {f!r}: refs {prev.edge!r} and {gap.edge!r} do not meet"
            )

    # -- traversal geometry -------------------------------------------------

    def ref_start(self, ref: SignedEdgeRef) -> VertexId:
        """Vertex where the traversal described by ``ref`` begins."""
        tail, head = self.edges[ref.edge]
        return tail if ref.sign == 1 else head

    def face_vertices(self, f: FaceId) -> frozenset[VertexId]:
        return frozenset(self.ref_start(ref) for ref in self.faces[f])

    @cached_property
    def table(self) -> "ComplexTable":
        """The complex's sigma-independent structure, compiled on first
        use and kept; it is not a field, so ``==`` ignores it."""
        return ComplexTable(self)

    def edge_incidences(self) -> dict[EdgeId, list[FaceId]]:
        """The faces at each edge, in id order.

        Faces are trails, so a face traverses an edge at most once and
        its id names that traversal.  The lists are a copy of
        ``table.incidences`` that the caller may change.
        """
        return {e: list(incs) for e, incs in self.table.incidences.items()}

    # -- 1-skeleton ---------------------------------------------------------

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

    @classmethod
    def valid_by_construction(
        cls,
        kind: str,
        vertices: tuple[VertexId, ...],
        edges: dict[EdgeId, tuple[VertexId, VertexId]],
        faces: dict[FaceId, Trail],
    ) -> "DirectedComplex":
        """A complex its builder guarantees to meet the standing
        assumptions and to give declared, non-empty ids, known edge ends
        and signs of +1 or -1.  Of the structural checks of PreComplex
        only each face's ``_check_trail`` runs; :func:`validate` does
        not."""
        c = object.__new__(cls)
        object.__setattr__(c, "kind", kind)
        object.__setattr__(c, "vertices", vertices)
        object.__setattr__(c, "edges", edges)
        object.__setattr__(c, "faces", faces)
        for f, trail in faces.items():
            c._check_trail(f, trail)
        return c

    @staticmethod
    def from_pre(pre: PreComplex) -> "DirectedComplex":
        return DirectedComplex(pre.kind, pre.vertices, pre.edges, pre.faces)


class ComplexTable:
    """What a complex's rotation systems share, compiled once per complex.

    Each part is built on first use: ``incidences``, each edge's faces,
    for the searches and rotation systems, ``polygons`` for the local
    surfaces and the dual, and ``links``, the link graph at each vertex,
    which ``tracing.link_graphs`` walks and fills in and every reader of
    a link traces.  Every part is read-only once built.
    """

    def __init__(self, c: PreComplex):
        self._edges = c.edges
        self._faces = c.faces
        self.links: dict[VertexId, LinkGraph] | None = None

    @cached_property
    def incidences(self) -> dict[EdgeId, tuple[FaceId, ...]]:
        """The faces at each edge in id order, edges in the complex's
        order."""
        out: dict[EdgeId, list[FaceId]] = {e: [] for e in self._edges}
        for f in sorted(self._faces):
            for ref in self._faces[f]:
                out[ref.edge].append(f)
        return {e: tuple(faces) for e, faces in out.items()}

    @cached_property
    def polygons(self) -> "PolygonTable":
        return PolygonTable(self._edges, self._faces)


class PolygonTable:
    """The polygons of a complex's oriented faces, over integer ids.

    An incidence is a face's traversal of an edge, trail ref ``pos`` of
    the face; incidence ids run face by face in face id order from
    ``face_start[face]``, and corner ``pos`` of the face, where its refs
    ``pos - 1`` and ``pos`` meet, shares the id.  ``incidence_id[e][f]``
    is the id of face ``f``'s traversal of edge ``e``, and
    ``dual_refs[e][f]`` the step of dual face ``e`` over dual edge ``f``;
    ``read_order`` reads an order of faces at an edge through either.
    Oriented face ``m`` is ``members[m]``: each face's orientations in
    face id order, the ``m >> 1``-th face as stored for even ``m`` and
    reversed for odd ``m``.  The sides of polygon ``m`` are numbered
    from ``side_start[m]`` in polygon order, and its corner ``j``, where
    side ``j`` begins, shares the id of side ``j``.
    """

    def __init__(
        self,
        edges: dict[EdgeId, tuple[VertexId, VertexId]],
        faces: dict[FaceId, Trail],
    ):
        order = sorted(faces)
        # face ids in the complex's order, each to its rank in id order
        rank = {f: i for i, f in enumerate(order)}
        self.face_rank = {f: rank[f] for f in faces}
        self.face_start: dict[FaceId, int] = {}
        # per edge with faces, each face's incidence id, faces in id order
        self.incidence_id: dict[EdgeId, dict[FaceId, int]] = {}
        # per incidence: the dual face step over it, and the sides over
        # it of the orientation that runs along its edge and of the other
        dual_ref: list[SignedEdgeRef] = []
        self.pos_side: list[int] = []
        self.neg_side: list[int] = []
        # per oriented face
        self.members: list[OrientedFace] = []
        self.member_id: dict[OrientedFace, int] = {}
        self.polygon_refs: list[Trail] = []
        self.side_start: list[int] = []
        # per side (and the corner where it begins)
        self.side_member: list[int] = []
        self.side_pos: list[int] = []
        self.corner_vertex: list[VertexId] = []
        self.next_corner: list[int] = []
        self.face_corner: list[int] = []
        for f in order:
            trail = faces[f]
            k = len(trail)
            start = self.face_start[f] = len(self.pos_side)
            forward = len(self.side_member)
            backward = forward + k
            reverse = tuple(ref.reversed() for ref in reversed(trail))
            for sense, refs, base in ((1, trail, forward), (-1, reverse, backward)):
                m = len(self.members)
                self.members.append(OrientedFace(f, sense))
                self.member_id[self.members[m]] = m
                self.polygon_refs.append(refs)
                self.side_start.append(base)
                for j, ref in enumerate(refs):
                    tail, head = edges[ref.edge]
                    self.side_member.append(m)
                    self.side_pos.append(j)
                    self.corner_vertex.append(tail if ref.sign == 1 else head)
                    self.next_corner.append(base + (j + 1) % k)
                    self.face_corner.append(start + (j if sense == 1 else (k - j) % k))
            for pos, ref in enumerate(trail):
                self.incidence_id.setdefault(ref.edge, {})[f] = start + pos
                dual_ref.append(SignedEdgeRef(f, ref.sign))
                ahead, back = forward + pos, backward + k - 1 - pos
                self.pos_side.append(ahead if ref.sign == 1 else back)
                self.neg_side.append(back if ref.sign == 1 else ahead)
        # the edges with faces in id order, each with its incidence ids;
        # an edge with d incidences makes d gluings, numbered from
        # glue_start[e] in this order
        self.glued_edges = [
            (e, tuple(ids.values())) for e, ids in sorted(self.incidence_id.items())
        ]
        self.glue_start: dict[EdgeId, int] = {}
        glued = 0
        for e, ids in self.glued_edges:
            self.glue_start[e] = glued
            glued += len(ids)
        # per edge with faces, in the complex's order, the dual face steps
        self.dual_refs = {
            e: {f: dual_ref[i] for f, i in self.incidence_id[e].items()}
            for e in edges
            if e in self.incidence_id
        }
        # the rotation system of every dual of the complex, its cyclic
        # order at dual edge f the trail of f: ``surfaces.dual_complex``
        # builds it on first use, and every dual shares it
        self.dual_sigma: RotationSystem | None = None

    @staticmethod
    def read_order(e: EdgeId, order: Iterable[FaceId], by_face: dict[FaceId, T]) -> list[T]:
        """What ``by_face``, a table of the faces at edge ``e``, holds for
        the faces ``order`` lists.  Raises InvalidRotationSystemError,
        naming the edge and the face, when a listed face does not meet
        ``e``."""
        try:
            return [by_face[f] for f in order]
        except KeyError as exc:
            raise InvalidRotationSystemError(
                f"edge {e!r}: sigma lists face {exc.args[0]!r}, which does not meet it"
            ) from None


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

    incidences = c.table.incidences
    for e in sorted(c.edges):
        if not incidences[e]:
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
        by_support: dict[frozenset[VertexId], list[FaceId]] = {}
        for f in sorted(c.faces):
            support = c.face_vertices(f)
            if len(c.faces[f]) != 3 or len(support) != 3:
                violations.append(Violation("NonTriangleFace", (f,)))
            by_support.setdefault(support, []).append(f)
        for support, ids in sorted(by_support.items(), key=lambda kv: kv[1]):
            if len(ids) > 1:
                violations.append(Violation("DuplicateFace", tuple(ids)))

    return violations


def find(parent: list[int], x: int) -> int:
    """The root of ``x`` in the union-find forest ``parent``, halving paths."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def connected_classes(n: int, pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Classes of 0..n-1 under the equivalence generated by ``pairs``
    (union-find), each class ascending, classes ordered by least member."""
    parent = list(range(n))
    for a, b in pairs:
        ra, rb = find(parent, a), find(parent, b)
        if ra != rb:
            parent[rb] = ra
    classes: dict[int, list[int]] = {}
    for x in range(n):
        classes.setdefault(find(parent, x), []).append(x)
    return list(classes.values())
