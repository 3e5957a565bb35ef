import json
import random
import sys
import time

import pytest

from rotsys import (
    GenParams,
    PreComplex,
    attached_complexes,
    cut_vertices,
    generate_random_complex,
    links,
    verdict,
)
from rotsys.cli import main
from rotsys.documents import complex_to_doc, emit_complex
from rotsys.errors import EmptyKindError, NotPrimeError

import make_fixtures
from general_pieces import (
    GENERAL_PIECES,
    LOOP_PIECES,
    MIXED_TORSION,
    complex_from_lists,
    glued,
    loop_at_cut_vertex,
    parts_without,
)

# ``rotsys.verdict`` is the exported function; the module lives here
verdict_module = sys.modules["rotsys.verdict"]


def test_tetrahedron_sphere_yes(complexes):
    v = verdict(complexes["tetrahedron"], [2, 3])
    assert v.orientable_3manifold == "yes"
    assert v.sphere3 == "yes"


def test_rp2_sphere_no_mixed_prime(complexes):
    v = verdict(complexes["rp2-6"], [2, 3])
    assert v.orientable_3manifold == "yes"
    assert v.sphere3 == "no"
    assert any(r.startswith("MixedPrimeHomology(3,2)") for r in v.reasons)


def test_mixed_prime_reads_h1_at_each_requested_prime(complexes):
    """H_1 over F_p is trivial iff betti1 = 0 and p divides no torsion
    coefficient: rp2-6 (Z/2) is trivial at 3, MIXED_TORSION (Z/2 + Z/6)
    at 5 but not at 2 or 3, and a Klein bottle (Z + Z/2) at no prime."""
    rp2 = complexes["rp2-6"]
    assert verdict(rp2, [3]).reasons[-1] == "MixedPrimeHomology(3,2)"
    assert verdict(rp2, [2]).reasons[-1] == "Undecided"
    assert verdict(MIXED_TORSION, [2, 3]).reasons[-1] == "Undecided"
    assert verdict(MIXED_TORSION, [3, 5]).reasons[-1] == "MixedPrimeHomology(5,2)"
    klein = make_fixtures._grid_surface(4, True)
    assert verdict(klein, [3]).reasons[-1] == "Undecided"


def test_cone_k5_no_planar_system(complexes):
    v = verdict(complexes["cone-k5"], [2, 3])
    assert v.orientable_3manifold == "no"
    assert v.sphere3 == "no"
    assert "NoPlanarRotationSystem" in v.reasons


def test_torus_unknown(complexes):
    v = verdict(complexes["torus-7"], [2, 3, 5])
    assert v.orientable_3manifold == "yes"
    assert v.sphere3 == "unknown"


def test_bowtie_splits_into_blocks(complexes):
    v = verdict(complexes["bowtie"], [2])
    assert len(v.blocks) == 2
    assert v.sphere3 == "yes"
    assert all(b.sphere3 == "yes" for b in v.blocks)


def test_requires_primes(complexes):
    with pytest.raises(NotPrimeError):
        verdict(complexes["tetrahedron"], [])
    with pytest.raises(NotPrimeError):
        verdict(complexes["tetrahedron"], [4])


def test_verdict_validates_a_precomplex():
    with pytest.raises(EmptyKindError, match=r"EdgeWithoutFace\(l\)"):
        verdict(GENERAL_PIECES[1], [2])


def test_monotone_in_primes(complexes):
    # adding primes can only refine unknown, never flip yes/no
    for name in ("tetrahedron", "rp2-6", "cone-k5", "torus-7"):
        c = complexes[name]
        small = verdict(c, [2])
        grown = verdict(c, [2, 3, 5])
        if small.sphere3 in ("yes", "no"):
            if name != "rp2-6":
                assert grown.sphere3 == small.sphere3
        assert grown.orientable_3manifold == small.orientable_3manifold
        if small.sphere3 == "yes":
            assert grown.sphere3 == "yes"


def glue_at_vertex(a, b, va, vb):
    """Identify vertex va of a with vb of b, disjointifying everything
    else with prefixes."""
    from rotsys import PreComplex, SignedEdgeRef

    def rename(c, prefix, shared):
        vmap = {v: ("z" if v == shared else f"{prefix}{v}") for v in c.vertices}
        edges = {
            f"{prefix}{e}": (vmap[t], vmap[h]) for e, (t, h) in c.edges.items()
        }
        faces = {
            f"{prefix}{f}": tuple(SignedEdgeRef(f"{prefix}{r.edge}", r.sign) for r in bd)
            for f, bd in c.faces.items()
        }
        return vmap, edges, faces

    vmap_a, edges_a, faces_a = rename(a, "A.", va)
    vmap_b, edges_b, faces_b = rename(b, "B.", vb)
    vertices = tuple(
        dict.fromkeys(list(vmap_a.values()) + list(vmap_b.values()))
    )
    return PreComplex(
        "simplicial", vertices, {**edges_a, **edges_b}, {**faces_a, **faces_b}
    )


def test_block_consistency_on_glued_fixtures(complexes):
    # the verdict of a one-point union is the conjunction of the parts
    cases = [
        ("tetrahedron", "rp2-6", "no"),
        ("tetrahedron", "tetrahedron", "yes"),
        ("tetrahedron", "torus-7", "unknown"),
        ("rp2-6", "torus-7", "no"),
        ("tetrahedron", "cone-k5", "no"),
    ]
    for name_a, name_b, expected in cases:
        a, b = complexes[name_a], complexes[name_b]
        glued = glue_at_vertex(a, b, a.vertices[0], b.vertices[0])
        v = verdict(glued, [2, 3])
        assert v.sphere3 == expected, (name_a, name_b)
        va, vb = verdict(a, [2, 3]), verdict(b, [2, 3])
        expected_orient = (
            "yes"
            if va.orientable_3manifold == vb.orientable_3manifold == "yes"
            else "no"
        )
        assert v.orientable_3manifold == expected_orient


def test_verdict_doc_shape(complexes):
    doc = verdict(complexes["rp2-6"], [2, 3]).to_doc()
    assert set(doc) == {"orientable_3manifold", "sphere3", "reasons", "blocks"}
    (block,) = doc["blocks"]
    assert "sigma" in block and "homology" in block and "pi1" in block


def test_nullt_chain_on_certified_spheres(complexes):
    # certified sphere3=yes: trivial F_p homology at every tested prime
    # and every local surface of the found system has genus zero
    from rotsys import (
        is_p_nullhomologous,
        local_surfaces,
        search_planar_rotation_system,
    )

    for name in ("tetrahedron", "triangle", "book3", "bowtie"):
        c = complexes[name]
        assert verdict(c, [2, 3]).sphere3 == "yes"
        for p in (2, 3, 5):
            assert is_p_nullhomologous(c, p), (name, p)
        sigma = search_planar_rotation_system(c, "first").sigma
        for s in local_surfaces(c, sigma):
            assert s.genus == 0, name


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def _chain(n):
    """``n`` triangles glued in a row at single vertices, and the vertex
    names."""
    import make_fixtures

    names = [f"v{i:03d}" for i in range(2 * n + 1)]
    chain = [(2 * k, 2 * k + 1, 2 * k + 2) for k in range(n)]
    return make_fixtures._triangle_complex(2 * n + 1, chain, names), names


def test_split_of_a_long_chain_needs_no_recursion():
    """300 triangles glued in a row at single vertices: each split at
    the least cut vertex peels off one triangle, 299 splits deep."""
    c, names = _chain(300)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        v = verdict(c, [2, 3])
    finally:
        sys.setrecursionlimit(limit)
    assert (v.orientable_3manifold, v.sphere3) == ("yes", "yes")
    peeled = [f"@{names[2 * j]}.1" for j in range(1, 300)]
    expected = [
        "".join(peeled[:k]) + f"@{names[2 * k + 2]}.0" for k in range(299)
    ] + ["".join(peeled)]
    assert [b.path for b in v.blocks] == expected


def test_chain_verdict_builds_space_adjacency_once(monkeypatch):
    calls = []
    space_adjacency = links.space_adjacency

    def counted(c):
        calls.append(c)
        return space_adjacency(c)

    monkeypatch.setattr(links, "space_adjacency", counted)
    # counts the calls, too, of a module holding its own reference
    monkeypatch.setattr(verdict_module, "space_adjacency", counted, raising=False)
    c, _ = _chain(300)
    assert len(verdict(c, [2, 3]).blocks) == 300
    assert len(calls) == 1


def test_split_of_a_long_chain_takes_linear_time():
    """Splitting at one cut vertex after another once reflooded the
    rest of the chain each time: 5.4 s of CPU time for these 2,000
    blocks on a Xeon core, against 0.07 s for the one block pass."""
    c, _ = _chain(2000)
    start = time.process_time()
    assert len(verdict_module._leaf_blocks(c)) == 2000
    assert time.process_time() - start < 1.0


# -- the split at cut vertices against the recursive oracle -----------------


def _docs(complexes):
    return [complex_to_doc(c) for c in complexes]


def _restricted_parts(c, v):
    """The complexes attached at ``v`` in the connected complex ``c``,
    written out from ``parts_without``: each part of the vertices other
    than ``v``, plus ``v``, with the edges and faces of its piece of the
    space, and the pieces left with no vertex (a bare loop at ``v``, or
    faces on ``v`` alone and their loops) in the first."""
    parts, (loose_edges, loose_faces) = parts_without(c, v)
    out = []
    for k, (part, edges, faces) in enumerate(parts):
        if k == 0:
            edges, faces = edges | loose_edges, faces | loose_faces
        out.append(
            PreComplex(
                c.kind,
                tuple(u for u in c.vertices if u in part or u == v),
                {e: ends for e, ends in c.edges.items() if e in edges},
                {f: b for f, b in c.faces.items() if f in faces},
            )
        )
    return out


def _recursive_leaf_blocks(c):
    """The split as a recursion over complexes: each component, then
    each piece at its least cut vertex, the cut vertices and the pieces
    read off ``parts_without`` by brute force, and ``attached_complexes``
    checked against the pieces on the way."""
    out = []
    components = c.components()
    for comp in components:
        if len(components) > 1:
            piece = PreComplex(
                c.kind,
                tuple(v for v in c.vertices if v in comp),
                {e: ends for e, ends in c.edges.items() if ends[0] in comp},
                {f: b for f, b in c.faces.items() if c.face_vertices(f) <= comp},
            )
            stack = [(min(comp), piece)]
        else:
            stack = [("", c)]
        while stack:
            path, piece = stack.pop()
            cuts = [v for v in piece.vertices if len(parts_without(piece, v)[0]) > 1]
            if not cuts:
                out.append((path or "whole", piece))
                continue
            v = min(cuts)
            parts = _restricted_parts(piece, v)
            assert _docs(attached_complexes(piece, v)) == _docs(parts)
            stack.extend(reversed([(f"{path}@{v}.{k}", p) for k, p in enumerate(parts)]))
    return out


def _assert_split_matches_oracle(c):
    blocks = verdict_module._leaf_blocks(c)
    expected = _recursive_leaf_blocks(c)
    assert [(p, complex_to_doc(b)) for p, b in blocks] == [
        (p, complex_to_doc(b)) for p, b in expected
    ]


def _shuffled(rng, c):
    """``c`` with random vertex, edge and face names, listed in random
    order."""
    names = [f"x{i}" for i in range(len(c.vertices))]
    rng.shuffle(names)
    vmap = dict(zip(c.vertices, names))
    emap = dict(zip(c.edges, rng.sample(range(len(c.edges)), len(c.edges))))
    edges = [(f"e{emap[e]}", vmap[t], vmap[h]) for e, (t, h) in c.edges.items()]
    faces = [
        (f"f{k}", [(f"e{emap[r.edge]}", r.sign) for r in b])
        for k, b in zip(rng.sample(range(len(c.faces)), len(c.faces)), c.faces.values())
    ]
    rng.shuffle(edges)
    rng.shuffle(faces)
    return complex_from_lists(c.kind, rng.sample(names, len(names)), edges, faces)


def _random_piece(rng):
    n = rng.randint(3, 6)
    return generate_random_complex(
        GenParams(seed=rng.randrange(10**6), n_vertices=n, target_faces=rng.randint(1, n))
    )


def test_split_matches_recursive_oracle_on_glued_random_complexes():
    rng = random.Random(11)
    for i in range(60):
        pieces = [_random_piece(rng) for _ in range(rng.randint(2, 5))]
        _assert_split_matches_oracle(_shuffled(rng, glued(rng, pieces, 0.2 * (i % 2))))


def _bouquet(k):
    """``k`` triangles sharing the vertex z and nothing else."""
    edges, faces = [], []
    for j in range(k):
        a, b = f"a{j}", f"b{j}"
        edges += [(f"za{j}", "z", a), (f"ab{j}", a, b), (f"zb{j}", "z", b)]
        faces.append((f"t{j}", [(f"za{j}", 1), (f"ab{j}", 1), (f"zb{j}", -1)]))
    vertices = ["z"] + [f"{x}{j}" for j in range(k) for x in "ab"]
    return complex_from_lists("simplicial", vertices, edges, faces)


def test_split_matches_recursive_oracle_on_bouquets():
    rng = random.Random(12)
    for k in range(1, 10):
        c = _bouquet(k)
        assert cut_vertices(c) == ({"z"} if k > 1 else set())
        _assert_split_matches_oracle(c)
        _assert_split_matches_oracle(_shuffled(rng, c))


def test_split_places_loops_first_and_keeps_faces_through_a_cut_vertex():
    # two triangles at z, a loop at z with a one-vertex face, and a face
    # whose trail runs z -> p -> z -> q -> z: its open disk joins p and
    # q, so z parts them from the triangles but not from each other
    c = complex_from_lists(
        "general",
        "zabcdpq",
        [("za", "z", "a"), ("ab", "a", "b"), ("zb", "z", "b")]
        + [("zc", "z", "c"), ("cd", "c", "d"), ("zd", "z", "d"), ("l", "z", "z")]
        + [("p1", "z", "p"), ("p2", "p", "z"), ("q1", "z", "q"), ("q2", "q", "z")],
        [
            ("t1", [("za", 1), ("ab", 1), ("zb", -1)]),
            ("t2", [("zc", 1), ("cd", 1), ("zd", -1)]),
            ("o", [("l", 1)]),
            ("x", [("p1", 1), ("p2", 1), ("q1", 1), ("q2", 1)]),
        ],
    )
    blocks = verdict_module._leaf_blocks(c)
    assert [(p, "".join(b.vertices), list(b.edges), list(b.faces)) for p, b in blocks] == [
        ("@z.0", "zab", ["za", "ab", "zb", "l"], ["t1", "o"]),
        ("@z.1", "zcd", ["zc", "cd", "zd"], ["t2"]),
        ("@z.2", "zpq", ["p1", "p2", "q1", "q2"], ["x"]),
    ]
    _assert_split_matches_oracle(c)


def test_split_matches_recursive_oracle_on_general_complexes():
    rng = random.Random(13)
    seen = dict.fromkeys(
        ["loop at a cut vertex", "one-vertex face at a cut vertex", "face passing a vertex twice"],
        0,
    )
    for i in range(80):
        pieces = [_random_piece(rng) for _ in range(rng.randint(1, 3))]
        pieces += rng.choices(GENERAL_PIECES, k=rng.randint(1, 4))
        c = glued(rng, pieces, 0.1)
        if i % 2:
            c = _shuffled(rng, c)
        _assert_split_matches_oracle(c)
        cuts = cut_vertices(c)
        blocks = verdict_module._leaf_blocks(c)
        seen["loop at a cut vertex"] += any(t == h in cuts for t, h in c.edges.values())
        seen["one-vertex face at a cut vertex"] += any(
            len(c.face_vertices(f)) == 1 and c.face_vertices(f) <= cuts for f in c.faces
        )
        seen["face passing a vertex twice"] += any(
            len(c.face_vertices(f)) < len(bd) for f, bd in c.faces.items()
        )
        assert sum(len(b.faces) for _, b in blocks) == len(c.faces)
    assert all(seen.values()), seen


def test_split_matches_recursive_oracle_on_loops_joining_faces():
    """Loops whose open arcs join faces go with those faces, whatever the
    vertex names, so no face is split from a loop on its trail."""
    rng = random.Random(31)
    split = 0
    for i in range(60):
        pieces = [_random_piece(rng) for _ in range(rng.randint(0, 2))]
        pieces += rng.choices(LOOP_PIECES + GENERAL_PIECES[:1], k=rng.randint(1, 4))
        c = glued(rng, pieces, 0.1)
        if i % 2:
            c = _shuffled(rng, c)
        _assert_split_matches_oracle(c)
        blocks = verdict_module._leaf_blocks(c)
        assert sum(len(b.faces) for _, b in blocks) == len(c.faces)
        split += len(blocks) > 1
    assert split >= 20


def test_verdict_cli_on_a_loop_at_a_cut_vertex(tmp_path, capsys):
    """The loop goes with the face through it whatever the vertex names:
    every variant prints a verdict document, and renaming x to a keeps
    its decided fields (the reasons follow the blocks' order, which
    follows the names)."""
    decided = []
    for name, c in [
        ("x", loop_at_cut_vertex("x")),
        ("a", loop_at_cut_vertex("a")),
        ("shared", loop_at_cut_vertex("x", loop_in_g=True)),
    ]:
        path = tmp_path / f"{name}.json"
        path.write_text(emit_complex(c))
        code = main(["verdict", str(path), "--primes", "2"])
        out = capsys.readouterr()
        assert code in (0, 2) and out.err == "", (name, out.err)
        doc = json.loads(out.out)
        blocks = sorted(
            (b["orientable_3manifold"], b["sphere3"], b["reasons"]) for b in doc["blocks"]
        )
        reasons = sorted(doc["reasons"])
        decided.append((doc["orientable_3manifold"], doc["sphere3"], reasons, blocks))
        assert [b["path"] for b in doc["blocks"]] == (
            ["whole"] if name == "shared" else ["@v.0", "@v.1"]
        )
    assert decided[0] == decided[1]
