"""General-kind complexes with loops, parallel edges, and short faces.

Dual complexes produce these shapes internally; this file pins the
behavior for user-supplied ones too.
"""

from rotsys import (
    DirectedComplex,
    SignedEdgeRef,
    dual_complex,
    h1_integral,
    iota_check,
    is_planar_rotation_system,
    link_graph,
    local_surfaces,
    surface_duality_check,
    trace_link_complex,
    validate,
    verdict,
)
from rotsys.rotation import canonical_rotation_system


def loop_disc():
    """One vertex, one loop, one 1-gon face: a disc closed onto itself."""
    return DirectedComplex(
        "general",
        ("v",),
        {"e": ("v", "v")},
        {"f": (SignedEdgeRef("e", 1),)},
    )


def bigon():
    """Two vertices, two parallel edges, one 2-gon face."""
    return DirectedComplex(
        "general",
        ("a", "b"),
        {"e1": ("a", "b"), "e2": ("a", "b")},
        {"f": (SignedEdgeRef("e1", 1), SignedEdgeRef("e2", -1))},
    )


def test_loop_disc_pipeline():
    c = loop_disc()
    assert validate(c) == []
    lg = link_graph(c, "v")
    assert len(lg.ends) == 2  # the two ends of the loop
    assert len(lg.faces) == 1
    sigma = canonical_rotation_system(c)
    cc = trace_link_complex(c, sigma, "v")
    assert cc.chi_by_component() == [2]
    assert is_planar_rotation_system(c, sigma) == (True, None)
    (s,) = local_surfaces(c, sigma)
    assert len(s.members) == 2 and s.genus == 0
    assert len(s.vertices) == 1
    d = dual_complex(c, sigma)
    assert d.complex.counts() == (1, 1, 1)
    iota_check(c, sigma)
    surface_duality_check(c, sigma, d)
    assert h1_integral(c) == (0, [])
    v = verdict(c, [2])
    assert v.sphere3 == "yes"


def test_bigon_pipeline():
    c = bigon()
    assert validate(c) == []
    sigma = canonical_rotation_system(c)
    assert is_planar_rotation_system(c, sigma) == (True, None)
    (s,) = local_surfaces(c, sigma)
    assert s.genus == 0
    iota_check(c, sigma)
    surface_duality_check(c, sigma)
    assert verdict(c, [2]).sphere3 == "yes"


def test_two_loops_one_vertex_theta():
    # two loops at one vertex, one face traversing both: a wedge shape
    c = DirectedComplex(
        "general",
        ("v",),
        {"e1": ("v", "v"), "e2": ("v", "v")},
        {"f": (SignedEdgeRef("e1", 1), SignedEdgeRef("e2", 1))},
    )
    assert validate(c) == []
    sigma = canonical_rotation_system(c)
    lg = link_graph(c, "v")
    assert len(lg.ends) == 4 and len(lg.faces) == 2
    # one face strip along two loops: the complex deformation-retracts
    # to a wedge of circles modulo the relator e1 e2
    betti, torsion = h1_integral(c)
    assert (betti, torsion) == (1, [])
    iota_check(c, sigma)
    surface_duality_check(c, sigma)


def test_dual_of_dual_counts(complexes):
    # duality swaps the edge/face counts and keeps vertices consistent
    c = complexes["rp2-6"]
    sigma = canonical_rotation_system(c)
    d = dual_complex(c, sigma)
    dd = dual_complex(d.complex, d.sigma_c)
    assert len(dd.complex.edges) == len(c.edges)
    assert len(dd.complex.faces) == len(c.faces)
