import itertools

import networkx as nx
import pytest

from rotsys import (
    induced_rotator,
    is_planar_rotation_system,
    is_sphere_union,
    surface_dual,
    trace_link_complex,
)
from rotsys.errors import NotIncidentError, UnknownVertexError
from rotsys.rotation import (
    canonical_rotation_system,
    enumerate_rotation_systems,
    rotation_system_from_face_lists,
)
from rotsys.surfaces import local_surfaces
from rotsys.tracing import maps_isomorphism


def oracle_trace_cells(vertex_rotators):
    """Independent tracer: rotators map each vertex to a cyclic list of
    (edge, end) darts; returns the number of orbits of mate-after-succ.

    Kept deliberately separate from the package implementation (plain
    dicts, no shared code) so the two can check each other.
    """
    succ = {}
    vertex_of = {}
    for v, rot in vertex_rotators.items():
        for i, dart in enumerate(rot):
            succ[dart] = rot[(i + 1) % len(rot)]
            vertex_of[dart] = v

    def mate(dart):
        edge, end = dart
        return (edge, 1 - end)

    cells = 0
    unseen = set(succ)
    while unseen:
        start = unseen.pop()
        cells += 1
        d = mate(succ[start])
        while d != start:
            unseen.discard(d)
            d = mate(succ[d])
    return cells


def test_tetrahedron_links_against_oracle(complexes):
    c = complexes["tetrahedron"]
    sigma = canonical_rotation_system(c)
    for v in c.vertices:
        cc = trace_link_complex(c, sigma, v)
        assert cc.num_vertices() == 3
        assert cc.num_edges() == 3
        assert cc.num_cells() == 2
        assert cc.chi_by_component() == [2]

        # rebuild the same rotators for the oracle from first principles:
        # at each spoke, the two incident faces in sigma order (per-end
        # direction does not matter for two-cycles)
        spokes = c.incident_edges(v)
        faces_at = {
            e: [f for f in sorted(c.faces) if any(r.edge == e for r in c.faces[f].trail)]
            for e in spokes
        }
        rotators = {
            e: [((f, e), 0) for f in faces_at[e]] for e in spokes
        }
        # dart (edge-of-link, end): link edge = face f joining two spokes;
        # end 0 at the lexicographically smaller spoke
        oracle_rot = {}
        for e in spokes:
            rot = []
            for f in faces_at[e]:
                other = next(
                    x for x in spokes if x != e and any(r.edge == x for r in c.faces[f].trail)
                )
                rot.append((f, 0 if e < other else 1))
            oracle_rot[e] = rot
        assert oracle_trace_cells(oracle_rot) == cc.num_cells()


def test_book3_link_at_spine_vertex(complexes):
    c = complexes["book3"]
    sigma = canonical_rotation_system(c)
    for v in ("v", "w"):
        cc = trace_link_complex(c, sigma, v)
        assert (cc.num_vertices(), cc.num_edges(), cc.num_cells()) == (4, 3, 1)
        assert cc.chi_by_component() == [2]
    # both cyclic orders of the three pages trace to spheres
    for s in enumerate_rotation_systems(c):
        assert is_planar_rotation_system(c, s) == (True, None)


def test_bowtie_link_is_sphere_union(complexes):
    c = complexes["bowtie"]
    sigma = canonical_rotation_system(c)
    cc = trace_link_complex(c, sigma, "v")
    assert cc.chi_by_component() == [2, 2]
    assert is_sphere_union(cc)
    with pytest.raises(UnknownVertexError):
        trace_link_complex(c, sigma, "nowhere")


def test_cone_k5_apex_brute_force(complexes):
    """No rotator assignment embeds the K5 link in a sphere: all 6^5
    combinations stay at Euler characteristic <= 0."""
    c = complexes["cone-k5"]
    assert not nx.check_planarity(nx.complete_graph(5))[0]
    spokes = sorted(e for e in c.edges if "apex" in c.edges[e])
    others = [e for e in sorted(c.edges) if e not in spokes]
    incidences = c.edge_incidences()
    from rotsys.rotation import sigma_candidates
    from rotsys.tracing import link_tracer

    tracer = link_tracer(c, "apex", incidences)
    best = -100
    count = 0
    fixed = {e: tuple(incidences[e]) if len(incidences[e]) >= 2 else () for e in others}
    for combo in itertools.product(*(sigma_candidates(incidences[e]) for e in spokes)):
        assignment = dict(fixed)
        assignment.update(zip(spokes, combo))
        cc = tracer.cell_complex(rotation_system_from_face_lists(
            c, {e: [i.face for i in order] for e, order in assignment.items()}
        ))
        count += 1
        chi = cc.chi()
        best = max(best, chi)
        assert chi != 2
    assert count == 6**5
    assert best <= 0


def test_is_planar_rotation_system_fixtures(complexes):
    for name, expected in [
        ("tetrahedron", True),
        ("rp2-6", True),
        ("torus-7", True),
        ("triangle", True),
    ]:
        c = complexes[name]
        sigma = canonical_rotation_system(c)
        assert is_planar_rotation_system(c, sigma) == (True, None), name
    c = complexes["cone-k5"]
    ok, witness = is_planar_rotation_system(c, canonical_rotation_system(c))
    assert not ok and witness == "apex"


def test_rp2_links_are_five_cycles_with_two_cells(complexes):
    c = complexes["rp2-6"]
    sigma = canonical_rotation_system(c)
    for v in c.vertices:
        cc = trace_link_complex(c, sigma, v)
        assert (cc.num_vertices(), cc.num_edges(), cc.num_cells()) == (5, 5, 2)


def test_induced_rotator_directions(complexes):
    c = complexes["book3"]
    order = ["a-v-w", "c-v-w", "b-v-w"]
    sigma = rotation_system_from_face_lists(c, {"v-w": order})
    # edge v-w points toward w: rotator at w follows sigma
    at_head = induced_rotator(c, sigma, "v-w", "w")
    assert [inc.face for _, inc in at_head] == order
    # and is reversed at the tail v
    at_tail = induced_rotator(c, sigma, "v-w", "v")
    assert [inc.face for _, inc in at_tail] == list(reversed(order))


def test_induced_rotator_single_face_edge(complexes):
    c = complexes["triangle"]
    sigma = canonical_rotation_system(c)
    assert sigma.sigma["v1-v2"] == ()
    rot = induced_rotator(c, sigma, "v1-v2", "v1")
    assert len(rot) == 1  # the single dart is still there


def test_induced_rotator_requires_incidence(complexes):
    c = complexes["book3"]
    sigma = canonical_rotation_system(c)
    with pytest.raises(NotIncidentError):
        induced_rotator(c, sigma, "v-w", "a")


def test_surface_dual_tetrahedral_sphere(complexes):
    c = complexes["tetrahedron"]
    sigma = canonical_rotation_system(c)
    s = local_surfaces(c, sigma)[0]
    cc = s.cell_complex()
    dual = surface_dual(cc)
    assert dual.num_vertices() == 4
    assert dual.num_edges() == 6
    assert dual.num_cells() == 4
    assert dual.chi() == 2


def test_surface_dual_involution(complexes):
    c = complexes["book3"]
    sigma = canonical_rotation_system(c)
    for s in local_surfaces(c, sigma):
        cc = s.cell_complex()
        back = surface_dual(surface_dual(cc))
        identity = list(range(len(cc.dart_vertex)))
        assert maps_isomorphism(cc.succ, back.succ, identity) == "direct"


def test_surface_dual_icosahedral_sphere(complexes):
    c = complexes["rp2-6"]
    sigma = canonical_rotation_system(c)
    (s,) = local_surfaces(c, sigma)
    cc = s.cell_complex()
    assert (cc.num_vertices(), cc.num_edges(), cc.num_cells()) == (12, 30, 20)
    dual = surface_dual(cc)
    assert (dual.num_vertices(), dual.num_edges(), dual.num_cells()) == (20, 30, 12)
    assert dual.chi() == 2


def test_cell_complex_partition_invariants(complexes):
    # every dart in exactly one cell; per-component chi even
    for name in ("tetrahedron", "book3", "rp2-6", "torus-7"):
        c = complexes[name]
        sigma = canonical_rotation_system(c)
        for v in c.vertices:
            cc = trace_link_complex(c, sigma, v)
            darts = sorted(d for orbit in cc.cells for d in orbit)
            assert darts == list(range(2 * cc.num_edges()))
            for chi in cc.chi_by_component():
                assert chi % 2 == 0 and chi <= 2
