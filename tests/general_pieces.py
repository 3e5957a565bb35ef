"""General complexes for the tests: small pieces with loops, one-vertex
faces, bigons and a face that passes one vertex twice, glued in trees."""

from rotsys import FaceBoundary, PreComplex, SignedEdgeRef


def complex_from_lists(kind, vertices, edges, faces):
    """A PreComplex from ``(id, tail, head)`` edges and ``(id, [(edge,
    dir), ...])`` faces."""
    return PreComplex(
        kind,
        tuple(vertices),
        {e: (t, h) for e, t, h in edges},
        {
            f: FaceBoundary(f, tuple(SignedEdgeRef(e, d) for e, d in trail))
            for f, trail in faces
        },
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
            trail = tuple(SignedEdgeRef(f"{k}.{r.edge}", r.sign) for r in b.trail)
            faces[f"{k}.{f}"] = FaceBoundary(f"{k}.{f}", trail)
    kind = "general" if any(p.kind == "general" for p in pieces) else "simplicial"
    return PreComplex(kind, tuple(vertices), edges, faces)
