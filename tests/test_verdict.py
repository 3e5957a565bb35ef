import sys

import pytest

from rotsys import verdict
from rotsys.errors import NotPrimeError


def test_tetrahedron_sphere_yes(complexes):
    v = verdict(complexes["tetrahedron"], [2, 3])
    assert v.orientable_3manifold == "yes"
    assert v.sphere3 == "yes"


def test_rp2_sphere_no_mixed_prime(complexes):
    v = verdict(complexes["rp2-6"], [2, 3])
    assert v.orientable_3manifold == "yes"
    assert v.sphere3 == "no"
    assert any(r.startswith("MixedPrimeHomology(3,2)") for r in v.reasons)


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
    from rotsys import FaceBoundary, PreComplex, SignedEdgeRef

    def rename(c, prefix, shared):
        vmap = {v: ("z" if v == shared else f"{prefix}{v}") for v in c.vertices}
        edges = {
            f"{prefix}{e}": (vmap[t], vmap[h]) for e, (t, h) in c.edges.items()
        }
        faces = {
            f"{prefix}{f}": FaceBoundary(
                f"{prefix}{f}",
                tuple(SignedEdgeRef(f"{prefix}{r.edge}", r.sign) for r in bd.trail),
            )
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


def test_split_of_a_long_chain_needs_no_recursion():
    """300 triangles glued in a row at single vertices: each split at
    the least cut vertex peels off one triangle, 299 splits deep."""
    import make_fixtures

    names = [f"v{i:03d}" for i in range(601)]
    chain = [(2 * k, 2 * k + 1, 2 * k + 2) for k in range(300)]
    c = make_fixtures._triangle_complex(601, chain, names)
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
