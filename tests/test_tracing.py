import itertools
import random
import re
from collections import Counter

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st
from general_pieces import GENERAL_PIECES, LOOP_PIECES, glued
from links_reference import reference_link, reference_link_graph
from make_fixtures import BUILDERS

from rotsys import (
    CellComplex,
    GenParams,
    PreComplex,
    RotationSystem,
    dual_complex,
    generate_random_complex,
    induced_rotator,
    is_planar_rotation_system,
    is_sphere_union,
    link_graph,
    link_graphs,
    surface_dual,
    trace_link_complex,
)
from rotsys.errors import (
    InvalidRotationSystemError,
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
from rotsys.search import (
    link_planarity_precheck,
    search_generalized_prs,
    search_planar_rotation_system,
)
from rotsys.tracing import (
    orbits_of,
    link_tracer,
    maps_isomorphism,
    surface_dual_successors,
    traces_sphere_union,
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
        spokes = sorted(e for e, (tail, head) in c.edges.items() if v in (tail, head))
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


def broken_orders(complexes):
    """Per complex of a corpus with an edge in two or more faces, at one
    such edge: systems whose order there leaves out, repeats or adds a
    foreign face, lists a face twice, is empty or is missing, as
    (complex, edge, kind, system)."""
    rng = random.Random(31)
    corpus = list(complexes.values())
    corpus += [
        generate_random_complex(GenParams(seed=s, n_vertices=5 + s % 3, target_faces=4 + s % 5))
        for s in range(30)
    ]
    corpus += [
        glued(rng, rng.choices(GENERAL_PIECES + LOOP_PIECES, k=rng.randint(1, 4)))
        for _ in range(30)
    ]
    for c in corpus:
        incidences = c.edge_incidences()
        multi = sorted(e for e, faces in incidences.items() if len(faces) >= 2)
        if not multi:
            continue
        e = rng.choice(multi)
        faces = incidences[e]
        foreign = sorted(set(c.faces) - set(faces))
        bad = {
            "omitted": faces[1:],
            "repeated": [faces[-1], *faces[1:]],
            "longer": [*faces, faces[0]],
            "empty": [],
        }
        if foreign:
            bad["foreign"] = [rng.choice(foreign), *faces[1:]]
        orders = canonical_rotation_system(c).sigma
        for kind, order in bad.items():
            yield c, e, kind, RotationSystem({**orders, e: tuple(order)})
        yield c, e, "missing", RotationSystem({f: o for f, o in orders.items() if f != e})


def test_link_readers_refuse_an_order_that_is_not_a_cyclic_order(complexes):
    """A hand-built system whose order at an edge leaves out, repeats or
    adds a face, or is empty or missing, is refused by
    ``trace_link_complex``, ``induced_rotator`` and
    ``is_planar_rotation_system`` alike, at either end of the edge."""
    seen = dict.fromkeys(["omitted", "repeated", "longer", "foreign", "empty", "missing"], 0)
    for c, e, kind, sigma in broken_orders(complexes):
        for v in set(c.edges[e]):
            with pytest.raises(InvalidRotationSystemError):
                trace_link_complex(c, sigma, v)
            with pytest.raises(InvalidRotationSystemError):
                induced_rotator(c, sigma, e, v)
        with pytest.raises(InvalidRotationSystemError):
            is_planar_rotation_system(c, sigma)
        seen[kind] += 1
    assert min(seen.values()) >= 20, seen


def test_link_tracers_refuse_an_order_that_is_not_a_cyclic_order(complexes):
    """A link graph's own readers check the orders they trace: ``trace``,
    ``sphere_union`` and ``cells`` raise on an order that leaves out,
    repeats or adds a face, or lists a face twice, at either end of the
    edge, where a dart no rotator holds would send the orbit walk
    around forever, and on an empty or missing order at an edge in two
    or more faces, which no rotation system gives it.  Book3 with
    ``sigma['v-w']`` cut to its first two faces is such a system, and so
    is book3 with that order empty or missing: its links there once
    read as sphere unions of one cell."""
    c = complexes["book3"]
    sigma = canonical_rotation_system(c)
    cut = RotationSystem({**sigma.sigma, "v-w": sigma.sigma["v-w"][:2]})
    cases = [(c, "v-w", "cut", cut), *broken_orders(complexes)]
    at_book3 = [(e, kind) for d, e, kind, _ in cases if d is c]
    assert ("v-w", "empty") in at_book3 and ("v-w", "missing") in at_book3
    seen = dict.fromkeys(["cut", "omitted", "repeated", "longer", "foreign", "empty", "missing"], 0)
    for c, e, kind, sigma in cases:
        links = link_graphs(c)
        for v in set(c.edges[e]):
            t = links[v]
            for red in (frozenset(), frozenset([e])):
                with pytest.raises(InvalidRotationSystemError, match=re.escape(repr(e))):
                    t.trace(sigma, red)
                with pytest.raises(InvalidRotationSystemError, match=re.escape(repr(e))):
                    t.sphere_union(sigma, red)
            with pytest.raises(InvalidRotationSystemError, match=re.escape(repr(e))):
                t.cells(sigma)
        seen[kind] += 1
    assert seen.pop("cut") == 1 and min(seen.values()) >= 20, seen


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
    """What only the identity checks read is built on first use: a search
    and the planarity check leave the polygon table unbuilt.  That they
    spell no link label is shown in ``test_search.py``, where the label
    methods raise."""
    for name, build in BUILDERS.items():
        c = build()
        search_planar_rotation_system(c, "count")
        search_generalized_prs(c)
        is_planar_rotation_system(c, canonical_rotation_system(c))
        assert "polygons" not in vars(c.table), name


def tracer_parts_from_reference_link(c, v):
    """What the link graph at ``v`` holds and counts for its tracing,
    read off the corner reference's link graph: corner ids from the
    polygon table, components counted by networkx."""
    lg, _, _ = reference_link_graph(c, v)
    corners = list(zip(lg.faces, lg.positions))
    g = nx.MultiGraph()
    g.add_nodes_from(range(len(lg.ends)))
    g.add_edges_from(zip(lg.dart_vertex[::2], lg.dart_vertex[1::2]))
    components = nx.number_connected_components(g)
    bare = sum(not darts for _, _, darts in lg.ends)
    face_start = c.table.polygons.face_start
    return {
        # darts by face in face id order, which an empty order reads
        "ends": [(e, at_tail, list(darts.items())) for e, at_tail, darts in lg.ends],
        "dart_vertex": lg.dart_vertex,
        "corners": corners,
        "corner_ids": [face_start[f] + pos for f, pos in corners],
        "component_count": components,
        "sphere_cells": 2 * components - len(lg.ends) + len(corners) - bare,
    }


def walked_corpus(complexes):
    """The complexes of the traced corpus (fixtures, randgen complexes
    and glued general complexes with loops), half its glued complexes
    again with an isolated vertex, and the duals of every system of
    book3 and torus-7."""
    corpus = [c for c, _ in traced_corpus(complexes)]
    corpus += [
        PreComplex(c.kind, (*c.vertices, "isolated"), c.edges, c.faces)
        for c in corpus[-80::2]
    ]
    duals = [
        dual_complex(c, sigma).complex
        for c in (complexes["book3"], complexes["torus-7"])
        for sigma in enumerate_rotation_systems(c)
    ]
    assert len(duals) == 3
    return corpus + duals


def test_each_tracer_from_the_walk_equals_one_from_its_link_graph(complexes):
    """The link graphs that ``link_graphs`` walks over integers, read
    for their tracing, hold and count what the corner reference's link
    graph does, on ``walked_corpus``; ``link_graph`` and ``link_tracer``
    hand out the same objects."""
    seen = Counter()
    for c in walked_corpus(complexes):
        graphs = link_graphs(c)
        assert list(graphs) == list(c.vertices)
        for v, lg in graphs.items():
            expected = tracer_parts_from_reference_link(c, v)
            parts = {part: getattr(lg, part, None) for part in expected}
            parts["ends"] = [(e, tail, list(d.items())) for e, tail, d in lg.ends]
            parts["corners"] = list(zip(lg.faces, lg.positions))
            assert parts == expected, v
            assert link_tracer(c, v) is link_graph(c, v) is lg
            edges = [e for e, _, _ in lg.ends]
            seen["loop"] += len(set(edges)) < len(edges)
            seen["bare link vertex"] += any(not darts for _, _, darts in lg.ends)
            seen["no link vertex"] += not lg.ends
            seen["disconnected"] += lg.component_count > 1
    assert min(seen.values()) >= 20, seen


def test_link_tracer_is_the_link_graph_the_table_keeps(complexes):
    """``link_tracer`` and ``link_graph`` hand out the link graph that
    ``link_graphs`` keeps in the complex's table, one dict for every
    call, so a caller that asks for each vertex's link walks the complex
    once, and both still refuse a vertex the complex does not have."""
    c = complexes["torus-7"]
    graphs = link_graphs(c)
    assert link_graphs(c) is graphs is c.table.links
    for v in c.vertices:
        assert link_tracer(c, v, c.edge_incidences()) is link_graph(c, v) is graphs[v]
        assert link_tracer(c, v) is graphs[v]
    for lookup in (link_tracer, link_graph):
        with pytest.raises(UnknownVertexError):
            lookup(c, "nowhere")


def test_planarity_precheck_against_networkx_on_the_corner_reference(complexes):
    """On ``walked_corpus``, the precheck over link-vertex indices names
    the least vertex whose corner-reference link, a graph on edge-ends,
    fails ``nx.check_planarity``, or None when every link is planar.  No
    link edge joins a link vertex to itself, in the walk or in the
    reference, as the precheck's docstring argues."""
    nonplanar = []
    for c in walked_corpus(complexes):
        expected = None
        for v in sorted(c.vertices):
            vertices, edges = reference_link(c, v)
            g = nx.Graph()
            g.add_nodes_from(vertices)
            for *_, u, w in edges:
                assert u != w
                g.add_edge(u, w)
            if expected is None and not nx.check_planarity(g)[0]:
                expected = v
        graphs = link_graphs(c)
        for lg in graphs.values():
            uw = lg.dart_vertex
            assert all(u != w for u, w in zip(uw[::2], uw[1::2]))
        assert link_planarity_precheck(graphs.values()) == expected
        if expected is not None:
            nonplanar.append(expected)
    assert link_planarity_precheck(link_graphs(complexes["cone-k5"]).values()) == "apex"
    assert nonplanar, "the corpus has a non-planar link"


# -- the one-pass tracing map against the per-vertex rule ----------------------


def reference_successors(rotators, n):
    """Each dart to the next one in its rotator, over darts 0..n-1; a dart
    in no rotator maps to -1."""
    succ = [-1] * n
    for rot in rotators:
        for j, d in enumerate(rot):
            succ[rot[j - 1]] = d
    return succ


def reference_rotators(tracer, sigma, red_edges=frozenset()):
    """The per-vertex rule, one link vertex at a time: at a head end the
    darts follow sigma of the edge, at a tail end its reverse unless the
    edge is red, and an empty order (or an edge sigma does not list)
    gives the vertex's darts in face id order."""
    out = []
    for e, at_tail, table in tracer.ends:
        order = sigma.sigma.get(e, ())
        if not order:
            order = sorted(table)
        elif at_tail and e not in red_edges:
            order = order[::-1]
        out.append([table[f] for f in order])
    return out


def reference_trace(tracer, sigma, red_edges=frozenset()):
    """The tracing map as the rotators run through successors."""
    succ = reference_successors(
        reference_rotators(tracer, sigma, red_edges), len(tracer.dart_vertex)
    )
    return [s ^ 1 for s in succ]


@pytest.fixture(scope="module")
def traced(complexes):
    return traced_corpus(complexes)


def check_tracer(tracer, sigma, red):
    """``rotators`` follows the per-vertex rule; ``trace``,
    ``sphere_union`` and ``cells`` read the orbits of its map, and
    raise where an edge in two or more faces has no order."""
    assert tracer.rotators(sigma, red) == reference_rotators(tracer, sigma, red)
    if any(len(darts) > 1 and not sigma.sigma.get(e) for e, _, darts in tracer.ends):
        for read in (tracer.trace, tracer.sphere_union):
            with pytest.raises(InvalidRotationSystemError):
                read(sigma, red)
        with pytest.raises(InvalidRotationSystemError):
            tracer.cells(sigma)
        return False
    expected = reference_trace(tracer, sigma, red)
    assert tracer.trace(sigma, red) == expected
    assert tracer.sphere_union(sigma, red) == traces_sphere_union(expected, tracer.sphere_cells)
    assert tracer.cells(sigma) == orbits_of(reference_trace(tracer, sigma))
    return True


def test_trace_is_the_per_vertex_rule_on_the_traced_corpus(traced):
    """On every link of the fixtures, randgen complexes and glued general
    complexes (loops, one-vertex faces, bare loops left faceless), under
    no red edges and a random set of them, and under a sigma that lists
    only some edges, ``trace`` and ``rotators`` follow the per-vertex
    rule, and ``sphere_union`` and ``cells`` read the orbits of that
    map; ``trace`` reads an unlisted edge by the rule only when it lies
    in at most one face, and refuses it otherwise."""
    rng = random.Random(11)
    seen = {"loop": 0, "faceless": 0, "red": 0, "refused": 0, "unlisted": 0}
    for c, sigma in traced:
        red = frozenset(e for e in sorted(c.edges) if rng.random() < 0.3)
        # a sigma that leaves some edges out reads their faces in id order
        partial = RotationSystem({e: o for e, o in sigma.sigma.items() if rng.random() < 0.7})
        for tracer in link_graphs(c).values():
            assert check_tracer(tracer, sigma, frozenset())
            assert check_tracer(tracer, sigma, red)
            traced_partial = check_tracer(tracer, partial, red)
            seen["red"] += not tracer.sphere_union(sigma) == tracer.sphere_union(sigma, red)
            seen["refused"] += not traced_partial
            seen["unlisted"] += traced_partial and any(
                e not in partial.sigma for e, _, _ in tracer.ends
            )
        seen["loop"] += any(t == h for t, h in c.edges.values())
        seen["faceless"] += any(not incs for incs in c.table.incidences.values())
    assert min(seen.values()) >= 10, seen


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_trace_is_the_per_vertex_rule_under_drawn_red_edges(traced, data):
    c, sigma = data.draw(st.sampled_from(traced))
    red = data.draw(st.frozensets(st.sampled_from(sorted(c.edges))))
    for tracer in link_graphs(c).values():
        assert check_tracer(tracer, sigma, red)


# -- one-pass partition and bijection checks against the sorting ones -------


def reference_from_rotators(rotators):
    """The sort-based construction: the darts sorted must be 0..n-1."""
    n = sum(len(rot) for rot in rotators)
    if n % 2 or sorted(d for rot in rotators for d in rot) != list(range(n)):
        raise ValueError("rotators do not partition the darts")
    dart_vertex = [0] * n
    for vi, rot in enumerate(rotators):
        for d in rot:
            dart_vertex[d] = vi
    succ = reference_successors(rotators, n)
    trace = [s ^ 1 for s in succ]
    return CellComplex(len(rotators), tuple(dart_vertex), tuple(succ), tuple(orbits_of(trace)))


def reference_maps_isomorphism(a_succ, b_succ, dart_map):
    """The sort-based check: ``dart_map`` sorted must be 0..n-1."""
    n = len(a_succ)
    if len(b_succ) != n or sorted(dart_map) != list(range(n)):
        return None
    if any(dart_map[d ^ 1] != dart_map[d] ^ 1 for d in range(n)):
        return None
    if all(dart_map[a_succ[d]] == b_succ[dart_map[d]] for d in range(n)):
        return "direct"
    b_pred = [0] * n
    for d, s in enumerate(b_succ):
        b_pred[s] = d
    if all(dart_map[a_succ[d]] == b_pred[dart_map[d]] for d in range(n)):
        return "mirror"
    return None


CORRUPTIONS = ("none", "repeat", "missing", "out of range", "negative", "odd")


def corrupt(draw, darts, kind):
    """``darts`` (a list of 2 or more) with one corruption: a dart put in
    another's place, two darts dropped, one beyond the last or below 0
    put in a dart's place, or one dart dropped (an odd count)."""
    darts = list(darts)
    i = draw(st.integers(0, len(darts) - 1))
    if kind == "repeat":
        darts[i] = darts[draw(st.integers(0, len(darts) - 1).filter(lambda j: j != i))]
    elif kind == "missing":
        del darts[i]
        del darts[draw(st.integers(0, len(darts) - 1))]
    elif kind == "out of range":
        darts[i] = len(darts) + draw(st.integers(0, 3))
    elif kind == "negative":
        darts[i] = -draw(st.integers(1, len(darts) + 2))
    elif kind == "odd":
        del darts[i]
    return darts


@st.composite
def rotator_lists(draw):
    """Rotators over the darts of 1 to 6 edges, split among 1 to 4
    vertices, some of them empty, with one drawn corruption."""
    n = 2 * draw(st.integers(1, 6))
    kind = draw(st.sampled_from(CORRUPTIONS))
    darts = corrupt(draw, draw(st.permutations(range(n))), kind)
    cuts = sorted(draw(st.lists(st.integers(0, len(darts)), max_size=3)))
    return [darts[a:b] for a, b in zip([0] + cuts, cuts + [len(darts)])]


def outcome_of(fn, *args):
    try:
        return fn(*args)
    except (ValueError, IndexError) as exc:
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(rotator_lists())
@example([[0, 1], [1, 2]])
@example([[0, 1, 4], [3]])
@example([[-1, 0]])
@example([[0], [2]])
@example([[0, 1, 2]])
@example([[5, 1], [2, 3]])
def test_from_rotators_rejects_what_the_sorted_check_rejected(rotators):
    expected = outcome_of(reference_from_rotators, rotators)
    assert expected in (ValueError,) or isinstance(expected, CellComplex)
    assert outcome_of(CellComplex.from_rotators, rotators) == expected


@st.composite
def isomorphism_inputs(draw):
    """The successors of a traced surface, of its relabeling by a dart
    bijection that keeps mates together (sometimes mirrored), and that
    bijection, with one drawn corruption of the bijection."""
    n = 2 * draw(st.integers(1, 6))
    darts = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.lists(st.integers(1, n - 1), max_size=3)))
    rotators = [darts[a:b] for a, b in zip([0] + cuts, cuts + [n])]
    a = CellComplex.from_rotators(rotators)
    pairs = draw(st.permutations(range(n // 2)))
    flips = draw(st.lists(st.booleans(), min_size=n // 2, max_size=n // 2))
    dart_map = [0] * n
    for k, (p, flip) in enumerate(zip(pairs, flips)):
        dart_map[2 * k], dart_map[2 * k + 1] = 2 * p ^ flip, 2 * p + 1 ^ flip
    mirror = draw(st.booleans())
    b_rotators = [[dart_map[d] for d in (rot[::-1] if mirror else rot)] for rot in rotators]
    b = CellComplex.from_rotators(b_rotators)
    kind = draw(st.sampled_from(CORRUPTIONS + ("swap", "pair twice")))
    if kind == "swap":  # a bijection that splits a mate pair
        i, j = draw(st.permutations(range(n)))[:2]
        dart_map[i], dart_map[j] = dart_map[j], dart_map[i]
    elif kind == "pair twice":  # two mate pairs onto one, either way round
        k, j = draw(st.permutations(range(n // 2)))[:2] if n > 2 else (0, 0)
        flip = draw(st.integers(0, 1))
        dart_map[2 * k], dart_map[2 * k + 1] = dart_map[2 * j] ^ flip, dart_map[2 * j + 1] ^ flip
    else:
        dart_map = corrupt(draw, dart_map, kind)
    a_succ, b_succ = list(a.succ), list(b.succ)
    if kind == "odd" and draw(st.booleans()):  # an odd dart count throughout
        a_succ, b_succ = a_succ[:-1], b_succ[:-1]
    return a_succ, b_succ, dart_map


@settings(max_examples=400, deadline=None)
@given(isomorphism_inputs())
# two one-loop vertices: mapping both loops onto the first, in either
# direction, intertwines the successors but is no bijection
@example(([1, 0, 3, 2], [1, 0, 3, 2], [0, 1, 0, 1]))
@example(([1, 0, 3, 2], [1, 0, 3, 2], [0, 1, 1, 0]))
def test_maps_isomorphism_rejects_what_the_sorted_check_rejected(args):
    """Equal verdicts, None exactly where the sorted check gave None; an
    odd dart count gives None, where the sorted check raised IndexError
    on a map of all the darts."""
    got = maps_isomorphism(*args)
    expected = outcome_of(reference_maps_isomorphism, *args)
    if len(args[0]) % 2:
        assert got is None and expected in (None, IndexError)
    else:
        assert got == expected
