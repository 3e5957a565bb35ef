"""General complexes for the tests: small pieces with loops, one-vertex
faces, bigons and a face that passes one vertex twice, glued in trees;
and the oracle for how a complex falls apart at a vertex."""

from rotsys import PreComplex, SignedEdgeRef


def complex_from_lists(kind, vertices, edges, faces):
    """A PreComplex from ``(id, tail, head)`` edges and ``(id, [(edge,
    dir), ...])`` faces."""
    return PreComplex(
        kind,
        tuple(vertices),
        {e: (t, h) for e, t, h in edges},
        {f: tuple(SignedEdgeRef(e, d) for e, d in trail) for f, trail in faces},
    )


# a loop with a one-vertex face, a bare loop, a bigon, and a face whose
# trail runs z -> a -> z -> b -> z
GENERAL_PIECES = [
    complex_from_lists("general", "z", [("l", "z", "z")], [("o", [("l", 1)])]),
    complex_from_lists("general", "z", [("l", "z", "z")], []),
    complex_from_lists(
        "general", "za", [("p", "z", "a"), ("q", "z", "a")], [("g", [("p", 1), ("q", -1)])]
    ),
    complex_from_lists(
        "general",
        "zab",
        [("p", "z", "a"), ("q", "a", "z"), ("r", "z", "b"), ("s", "b", "z")],
        [("x", [("p", 1), ("q", 1), ("r", 1), ("s", 1)])],
    ),
]


# loops that join faces: a face through a loop, a loop shared by two
# faces that meet nowhere else, and two such loops chained through a
# face on z alone; kept apart from GENERAL_PIECES so that the corpora
# drawn from that list stay as they are
LOOP_PIECES = [
    complex_from_lists(
        "general",
        "za",
        [("p", "z", "a"), ("q", "a", "z"), ("l", "z", "z")],
        [("f", [("p", 1), ("q", 1), ("l", 1)])],
    ),
    complex_from_lists(
        "general",
        "zab",
        [("p", "z", "a"), ("q", "a", "z"), ("r", "z", "b"), ("s", "b", "z"), ("l", "z", "z")],
        [("f", [("p", 1), ("q", 1), ("l", 1)]), ("g", [("r", 1), ("s", 1), ("l", -1)])],
    ),
    complex_from_lists(
        "general",
        "zab",
        [("p", "z", "a"), ("q", "a", "z"), ("r", "z", "b"), ("s", "b", "z")]
        + [("l", "z", "z"), ("m", "z", "z")],
        [
            ("f", [("p", 1), ("q", 1), ("l", 1)]),
            ("o", [("l", 1), ("m", 1)]),
            ("g", [("r", 1), ("s", 1), ("m", 1)]),
        ],
    ),
]


# one vertex, five loops and five faces, with no cut vertex and a planar
# rotation system: H_1 = Z/2 + Z/6, so H_1 over F_3 is not trivial
# although 3 does not divide the first torsion coefficient
MIXED_TORSION = complex_from_lists(
    "general",
    "z",
    [(f"l{i}", "z", "z") for i in range(5)],
    [
        ("f0", [("l4", -1), ("l1", -1), ("l3", -1)]),
        ("f1", [("l2", -1), ("l1", -1), ("l0", -1)]),
        ("f2", [("l1", -1), ("l4", 1), ("l0", 1)]),
        ("f3", [("l1", -1), ("l4", -1), ("l3", 1)]),
        ("f4", [("l0", 1), ("l2", -1), ("l1", 1)]),
    ],
)


def loop_at_cut_vertex(x, loop_in_g=False):
    """A triangle G on v, b, c and a face F running v -> x -> v around the
    loop L at v; with ``loop_in_g`` G runs around L as well, so L's open
    arc joins F and G and v cuts nothing."""
    g = [("vb", 1), ("bc", 1), ("cv", 1)] + ([("L", 1)] if loop_in_g else [])
    return complex_from_lists(
        "general",
        ["v", "b", "c", x],
        [("vb", "v", "b"), ("bc", "b", "c"), ("cv", "c", "v")]
        + [("vx", "v", x), ("xv", x, "v"), ("L", "v", "v")],
        [("G", g), ("F", [("vx", 1), ("xv", 1), ("L", 1)])],
    )


def parts_without(c, v):
    """Oracle: how the component of ``c`` at ``v`` falls apart when ``v``
    is removed, read off the cells.  An edge's open arc joins its ends
    other than ``v`` and the open disks of the faces through it.  Returns
    each part that holds a vertex, as (vertices, edges, faces) ordered by
    least vertex, and the edges and faces of the pieces left with no
    vertex (a bare loop at ``v``, or faces on ``v`` alone and their
    loops)."""
    comp = next(comp for comp in c.components() if v in comp)
    nodes = [("v", u) for u in sorted(comp - {v})]
    nodes += [("e", e) for e, ends in c.edges.items() if ends[0] in comp]
    nodes += [("f", f) for f in c.faces if c.face_vertices(f) <= comp]
    adj = {node: set() for node in nodes}
    for kind, x in nodes:
        if kind == "e":
            for u in set(c.edges[x]) - {v}:
                adj[kind, x].add(("v", u))
                adj["v", u].add((kind, x))
        elif kind == "f":
            for ref in c.faces[x]:
                adj[kind, x].add(("e", ref.edge))
                adj["e", ref.edge].add((kind, x))
    parts, vertexless = [], (set(), set())
    seen = set()
    for start in nodes:
        if start in seen:
            continue
        piece, stack = {start}, [start]
        while stack:
            for node in adj[stack.pop()] - piece:
                piece.add(node)
                stack.append(node)
        seen |= piece
        cells = [{x for kind, x in piece if kind == k} for k in "vef"]
        if cells[0]:
            parts.append(tuple(cells))
        else:
            vertexless[0].update(cells[1])
            vertexless[1].update(cells[2])
    return parts, vertexless


def glued(rng, pieces, disjoint=0.0):
    """The pieces glued in a tree, each at one random vertex onto a random
    vertex of the earlier ones (or kept apart with chance ``disjoint``)."""
    vertices, edges, faces = [], {}, {}
    for k, p in enumerate(pieces):
        vmap = {v: f"{k}.{v}" for v in p.vertices}
        if vertices and rng.random() >= disjoint:
            vmap[rng.choice(p.vertices)] = rng.choice(vertices)
        vertices += [v for v in vmap.values() if v not in vertices]
        edges.update({f"{k}.{e}": (vmap[t], vmap[h]) for e, (t, h) in p.edges.items()})
        for f, b in p.faces.items():
            trail = tuple(SignedEdgeRef(f"{k}.{r.edge}", r.sign) for r in b)
            faces[f"{k}.{f}"] = trail
    kind = "general" if any(p.kind == "general" for p in pieces) else "simplicial"
    return PreComplex(kind, tuple(vertices), edges, faces)
