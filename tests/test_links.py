import dataclasses
import itertools
import random
from collections import Counter

import pytest

from rotsys import (
    GenParams,
    PreComplex,
    attached_complexes,
    cut_vertices,
    generate_random_complex,
    is_locally_connected,
    link_graph,
    link_graphs,
    validate,
)
from rotsys.errors import NotACutVertexError, UnsatisfiableError

import make_fixtures
from general_pieces import (
    GENERAL_PIECES,
    LOOP_PIECES,
    glued,
    loop_at_cut_vertex,
    parts_without,
)
from links_reference import reference_face_vertices, reference_link_graph


def brute_cut_vertices(c):
    """Oracle: remove each vertex and test whether the other vertices of
    its component stay connected through the edges and open faces left,
    by ``parts_without``: an edge's open arc joins its ends and the faces
    through it, so a loop joins the faces it lies on.  Pieces left with
    no vertex do not count as a part."""
    return {v for v in c.vertices if len(parts_without(c, v)[0]) > 1}


def link_edge_pairs(lg):
    """The pairs of link vertices that link edges join."""
    uw = lg.dart_vertex
    return {frozenset(pair) for pair in zip(uw[::2], uw[1::2])}


def test_link_graph_tetrahedron_is_triangle(complexes):
    c = complexes["tetrahedron"]
    for v in c.vertices:
        lg = link_graph(c, v)
        assert len(lg.ends) == 3
        assert len(lg.faces) == 3
        # every pair of spokes joined exactly once
        assert len(link_edge_pairs(lg)) == 3


def test_link_graph_book3_star(complexes):
    c = complexes["book3"]
    lg = link_graph(c, "v")
    assert len(lg.ends) == 4
    assert len(lg.faces) == 3
    degree = Counter(lg.dart_vertex)
    assert sorted(degree.values()) == [1, 1, 1, 3]
    center = max(degree, key=degree.__getitem__)
    assert lg.vertex_labels()[center] == "v-w"


def test_link_graph_cone_k5_apex_is_k5(complexes):
    c = complexes["cone-k5"]
    lg = link_graph(c, "apex")
    assert len(lg.ends) == 5
    assert len(lg.faces) == 10
    assert len(link_edge_pairs(lg)) == 10  # all pairs once: K5


def test_link_edge_count_equals_face_incidences(complexes):
    # each triangle has three corners, so links collect 3|F| edges total
    for name, c in complexes.items():
        total = sum(len(link_graph(c, v).faces) for v in c.vertices)
        assert total == 3 * len(c.faces), name


def test_link_vertex_count_equals_degree(complexes):
    for c in complexes.values():
        for v in c.vertices:
            lg = link_graph(c, v)
            # one link vertex per edge end at v, both ends of a loop
            ends = sum((tail == v) + (head == v) for tail, head in c.edges.values())
            assert len(lg.ends) == ends


# -- link graphs against the corner-based reference ---------------------------


def link_fields(lg, labels=None):
    """``lg`` field by field, each link vertex's darts as a list in their
    dict order (an empty order reads it), and its labels: ``lg``'s own,
    or ``labels`` when given."""
    vertex_labels, edge_labels = labels or (lg.vertex_labels(), lg.edge_labels())
    return {
        **dataclasses.asdict(lg),
        "ends": [(e, at_tail, list(darts.items())) for e, at_tail, darts in lg.ends],
        "vertex_labels": vertex_labels,
        "edge_labels": edge_labels,
    }


def reference_link_fields(c, v):
    graph, *labels = reference_link_graph(c, v)
    return link_fields(graph, labels)


def with_isolated_vertex(c):
    return PreComplex(c.kind, (*c.vertices, "isolated"), c.edges, c.faces)


def link_corpus(complexes):
    """The fixtures, randgen complexes, and glued general complexes with
    loops, one-ref loop faces and faceless edges, every other one with
    an isolated vertex."""
    rng = random.Random(41)
    corpus = list(complexes.values())
    for seed in range(60):
        params = GenParams(seed=seed, n_vertices=4 + seed % 4, target_faces=2 + seed % 9)
        try:
            corpus.append(generate_random_complex(params))
        except UnsatisfiableError:
            pass
    for i in range(80):
        c = glued(rng, rng.choices(GENERAL_PIECES + LOOP_PIECES, k=rng.randint(1, 5)), 0.1)
        corpus.append(with_isolated_vertex(c) if i % 2 else c)
    return corpus


def test_link_graph_equals_the_corner_reference(complexes):
    """``link_graph`` and the one walk of ``link_graphs`` give the corner
    reference's link at every vertex, field by field and label by label,
    on the corpus and on grid tori and Klein bottles of up to 400
    vertices."""
    seen = {"loop": 0, "one-ref face": 0, "faceless": 0, "isolated": 0, "simplicial": 0}
    for c in link_corpus(complexes):
        graphs = link_graphs(c)
        assert list(graphs) == list(c.vertices)
        for v in c.vertices:
            expected = reference_link_fields(c, v)
            assert link_fields(link_graph(c, v)) == link_fields(graphs[v]) == expected, v
        for f in c.faces:
            assert c.face_vertices(f) == reference_face_vertices(c, f), f
        degree = {e: 0 for e in c.edges}
        for b in c.faces.values():
            for ref in b.trail:
                degree[ref.edge] += 1
        seen["loop"] += any(tail == head for tail, head in c.edges.values())
        seen["one-ref face"] += any(len(b.trail) == 1 for b in c.faces.values())
        seen["faceless"] += 0 in degree.values()
        seen["isolated"] += "isolated" in c.vertices
        seen["simplicial"] += c.kind == "simplicial"
    assert min(seen.values()) >= 20, seen
    for n, twisted in itertools.product((4, 20), (False, True)):
        c = make_fixtures._grid_surface(n, twisted)
        graphs = link_graphs(c)
        assert list(graphs) == list(c.vertices)
        for v in c.vertices:
            assert link_fields(graphs[v]) == reference_link_fields(c, v), (n, twisted, v)


def test_cut_vertices_fixtures(complexes):
    assert cut_vertices(complexes["tetrahedron"]) == set()
    assert cut_vertices(complexes["book3"]) == set()
    assert cut_vertices(complexes["bowtie"]) == {"v"}
    assert cut_vertices(complexes["torus-7"]) == set()


def test_cut_vertices_against_oracle(complexes):
    for name, c in complexes.items():
        assert cut_vertices(c) == brute_cut_vertices(c), name


def test_cut_vertices_against_oracle_on_randgen():
    with_cuts = 0
    for seed in range(150):
        # 2-6 triangles on 5-9 vertices: sparse enough for cut vertices
        n = 5 + seed % 5
        c = generate_random_complex(
            GenParams(seed=seed, n_vertices=n, target_faces=2 + (seed * 7) % 5)
        )
        cuts = cut_vertices(c)
        assert cuts == brute_cut_vertices(c), seed
        with_cuts += bool(cuts)
    assert with_cuts >= 30


def test_cut_vertices_against_oracle_on_general_complexes():
    rng = random.Random(3)
    with_cuts = crossing = 0
    for _ in range(80):
        c = glued(rng, rng.choices(GENERAL_PIECES, k=rng.randint(1, 6)), 0.1)
        cuts = cut_vertices(c)
        assert cuts == brute_cut_vertices(c)
        with_cuts += bool(cuts)
        crossing += any(len(c.face_vertices(f)) < len(b.trail) for f, b in c.faces.items())
    assert with_cuts >= 30 and crossing >= 40


def test_cut_vertices_against_oracle_on_loops_joining_faces():
    """Glued corpora with faces through loops, loops shared by two faces
    and loops chained through a face on one vertex: a loop's open arc
    joins the faces through it, so a vertex whose sides only such a loop
    joins is no cut vertex."""
    rng = random.Random(29)
    with_cuts = joined = 0
    for _ in range(120):
        c = glued(rng, rng.choices(GENERAL_PIECES + LOOP_PIECES, k=rng.randint(1, 5)), 0.1)
        cuts = cut_vertices(c)
        assert cuts == brute_cut_vertices(c)
        with_cuts += bool(cuts)
        shared = [
            e
            for e, (tail, head) in c.edges.items()
            if tail == head
            and sum(ref.edge == e for b in c.faces.values() for ref in b.trail) > 1
        ]
        joined += any(c.edges[e][0] not in cuts for e in shared)
    assert with_cuts >= 30 and joined >= 20


def test_locally_connected_fixtures(complexes):
    assert is_locally_connected(complexes["tetrahedron"]) == (True, None)
    assert is_locally_connected(complexes["torus-7"]) == (True, None)
    assert is_locally_connected(complexes["bowtie"]) == (False, "v")


def test_attached_complexes_bowtie(complexes):
    c = complexes["bowtie"]
    parts = attached_complexes(c, "v")
    assert len(parts) == 2
    for part in parts:
        assert "v" in part.vertices
        assert len(part.faces) == 1
        assert validate(part) == []
    all_faces = sorted(f for part in parts for f in part.faces)
    assert all_faces == sorted(c.faces)


def test_attached_complexes_two_tetrahedra():
    from make_fixtures import _triangle_complex

    # two tetrahedra glued at vertex 0
    tris = list(itertools.combinations(range(4), 3)) + [
        tuple(sorted(t)) for t in itertools.combinations((0, 4, 5, 6), 3)
    ]
    c = _triangle_complex(7, tris)
    assert cut_vertices(c) == {"v1"}
    parts = attached_complexes(c, "v1")
    assert len(parts) == 2
    assert sorted(len(p.faces) for p in parts) == [4, 4]
    assert sorted(len(p.vertices) for p in parts) == [4, 4]


def test_attached_complexes_chain_of_triangles():
    from make_fixtures import _triangle_complex

    # triangles 012, 234, 456 sharing cut vertices 2 and 4
    c = _triangle_complex(7, [(0, 1, 2), (2, 3, 4), (4, 5, 6)])
    assert cut_vertices(c) == {"v3", "v5"}
    parts = attached_complexes(c, "v3")
    assert len(parts) == 2
    assert sorted(len(p.faces) for p in parts) == [1, 2]


def test_attached_complexes_keep_a_loop_with_its_face():
    """The loop L at the cut vertex v goes with the face through it,
    whether the part of that face comes first or second."""
    for x in "xa":
        c = loop_at_cut_vertex(x)
        assert cut_vertices(c) == {"v"}
        parts = attached_complexes(c, "v")
        assert [validate(p) for p in parts] == [[], []]
        holder = next(p for p in parts if "F" in p.faces)
        assert "L" in holder.edges and x in holder.vertices
    assert cut_vertices(loop_at_cut_vertex("x", loop_in_g=True)) == set()


def test_attached_requires_cut_vertex(complexes):
    with pytest.raises(NotACutVertexError):
        attached_complexes(complexes["tetrahedron"], "v1")


def test_attached_complexes_reassemble(complexes):
    # parts partition the faces and the non-center vertices, and their
    # union gives back the component
    c = complexes["bowtie"]
    parts = attached_complexes(c, "v")
    vertices = sorted(v for p in parts for v in p.vertices if v != "v")
    assert vertices == sorted(v for v in c.vertices if v != "v")
    assert len(set(vertices)) == len(vertices)
    edges = sorted(e for p in parts for e in p.edges)
    assert edges == sorted(c.edges)
    faces = sorted(f for p in parts for f in p.faces)
    assert faces == sorted(c.faces)
