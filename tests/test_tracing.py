import itertools
import random

import networkx as nx
import pytest
from general_pieces import GENERAL_PIECES, LOOP_PIECES, glued
from make_fixtures import BUILDERS

from rotsys import (
    CellComplex,
    GenParams,
    RotationSystem,
    generate_random_complex,
    induced_rotator,
    is_planar_rotation_system,
    is_sphere_union,
    surface_dual,
    trace_link_complex,
)
from rotsys.errors import (
    NotClosedSurfaceError,
    NotIncidentError,
    RotsysError,
    UnknownVertexError,
    UnsatisfiableError,
)
from rotsys.rotation import (
    canonical_rotation_system,
    enumerate_rotation_systems,
    rotation_system_from_face_lists,
    sigma_candidates,
)
from rotsys.surfaces import local_surfaces
from rotsys.search import search_generalized_prs, search_planar_rotation_system
from rotsys.tracing import (
    orbits_of,
    link_tracers,
    maps_isomorphism,
    surface_dual_successors,
)


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

    tracer = link_tracer(c, "apex")
    best = -100
    count = 0
    fixed = {e: tuple(incidences[e]) if len(incidences[e]) >= 2 else () for e in others}
    for combo in itertools.product(*(sigma_candidates(incidences[e]) for e in spokes)):
        assignment = dict(fixed)
        assignment.update(zip(spokes, combo))
        cc = tracer.cell_complex(rotation_system_from_face_lists(
            c, {e: list(order) for e, order in assignment.items()}
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
    assert [f for _, f in at_head] == order
    # and is reversed at the tail v
    at_tail = induced_rotator(c, sigma, "v-w", "v")
    assert [f for _, f in at_tail] == list(reversed(order))


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


def test_from_rotators_rejects_rotators_that_do_not_partition_the_darts():
    for rotators in (
        [[0, 1], [1, 2]],  # dart 1 twice
        [[0, 1, 4], [3]],  # dart 4 out of range
        [[-1, 0]],  # dart -1 out of range
        [[0], [2]],  # dart 1 missing
        [[0, 1, 2]],  # dart 3, the mate of 2, missing
    ):
        with pytest.raises(ValueError):
            CellComplex.from_rotators(rotators)


def test_isolated_vertices_are_components_of_their_own():
    # one vertex with two loops in the order a+ b+ a- b-: a one-cell
    # torus; then two vertices without darts
    torus = CellComplex.from_rotators([[0, 2, 1, 3]])
    assert (torus.dart_vertex, torus.succ, torus.cells) == ((0,) * 4, (2, 3, 1, 0), ((0, 3, 1, 2),))
    assert surface_dual(torus).cells == ((0, 2, 1, 3),)
    cc = CellComplex.from_rotators([[0, 2, 1, 3], [], []])
    assert cc.num_vertices() == 3
    assert cc.chi_by_component() == [0, 1, 1]
    # 2 - V + E per component asks 1 cell, as many as the torus has:
    # only counting the isolated vertices makes it fail
    assert not is_sphere_union(cc)
    with pytest.raises(NotClosedSurfaceError):
        surface_dual(cc)
    sphere = CellComplex.from_rotators([[0], [1], []])
    assert sphere.chi_by_component() == [2, 1]
    assert not is_sphere_union(sphere)


def reference_surface_dual(cc):
    """The surface dual built by hand from the cells: dart d moves to
    the vertex of its cell, the dual successor is the tracing map of
    ``cc``, and the dual cells are the orbits of ``cc.succ``."""
    n = len(cc.dart_vertex)
    counts = [0] * cc.num_vertices()
    for v in cc.dart_vertex:
        counts[v] += 1
    if any(count == 0 for count in counts):
        raise NotClosedSurfaceError("isolated vertex; not a closed traced surface")
    dual_vertex_of_dart = [0] * n
    for ci, orbit in enumerate(cc.cells):
        for d in orbit:
            dual_vertex_of_dart[d] = ci
    dual_succ = tuple(cc.succ[d] ^ 1 for d in range(n))
    trace = tuple(dual_succ[d] ^ 1 for d in range(n))
    return CellComplex(
        len(cc.cells), tuple(dual_vertex_of_dart), dual_succ, tuple(orbits_of(trace))
    )


def traced_corpus(complexes):
    """(complex, rotation system) pairs: each fixture under its
    canonical system, 120 randgen complexes and 80 glued general
    complexes (faceless loops give isolated link vertices) under a
    random one."""
    rng = random.Random(7)

    def random_sigma(c):
        return RotationSystem(
            {e: rng.choice(list(sigma_candidates(incs))) for e, incs in c.edge_incidences().items()}
        )

    out = [(c, canonical_rotation_system(c)) for c in complexes.values()]
    seed = 0
    while len(out) < len(complexes) + 120:
        params = GenParams(seed=seed, n_vertices=4 + seed % 4, target_faces=2 + seed % 9)
        seed += 1
        try:
            c = generate_random_complex(params)
        except UnsatisfiableError:
            continue
        out.append((c, random_sigma(c)))
    for _ in range(80):
        c = glued(rng, rng.choices(GENERAL_PIECES + LOOP_PIECES, k=rng.randint(1, 4)), 0.1)
        out.append((c, random_sigma(c)))
    return out


def traced_cell_complexes(complexes):
    """Every link complex and every local-surface cell complex of the
    traced corpus."""
    for c, sigma in traced_corpus(complexes):
        for v in c.vertices:
            yield trace_link_complex(c, sigma, v)
        for s in local_surfaces(c, sigma):
            yield s.cell_complex()


def outcome(fn, *args):
    try:
        return fn(*args)
    except RotsysError as exc:
        return type(exc), str(exc)


def test_surface_dual_and_sphere_union_against_the_cells(complexes):
    """``surface_dual`` and ``surface_dual_successors`` read the dual from
    the cells as the hand-built reference does, and ``is_sphere_union``
    (cells against 2 - V + E per component) agrees with the Euler
    characteristic of every component."""
    seen = {"complexes": 0, "isolated": 0, "spheres": 0, "other": 0}
    for cc in traced_cell_complexes(complexes):
        expected = outcome(reference_surface_dual, cc)
        assert outcome(surface_dual, cc) == expected
        succ = outcome(surface_dual_successors, cc)
        if isinstance(expected, CellComplex):
            assert tuple(succ) == expected.succ
        else:
            assert succ == expected
        sphere = is_sphere_union(cc)
        assert sphere == all(chi == 2 for chi in cc.chi_by_component())
        seen["complexes"] += 1
        seen["isolated"] += len(set(cc.dart_vertex)) < cc.num_vertices()
        seen["spheres" if sphere else "other"] += 1
    assert seen["complexes"] >= 1000
    assert min(seen.values()) >= 10, seen


def test_searches_build_no_polygons_and_no_link_labels():
    """What only the identity checks and the witness documents read is
    built on first use: a search and the planarity check leave the
    polygon table and every tracer's link-edge labels and corner ids
    unbuilt."""
    for name, build in BUILDERS.items():
        c = build()
        search_planar_rotation_system(c, "count")
        result = search_generalized_prs(c)
        sigma = canonical_rotation_system(c)
        is_planar_rotation_system(c, sigma)
        assert "polygons" not in vars(c.table), name
        for t in link_tracers(c).values():
            assert "edge_labels" not in vars(t) and t._corners is None, name
        if result.sigma is not None:
            result.rotator_doc(c)
            assert all("edge_labels" in vars(t) for t in link_tracers(c).values())
