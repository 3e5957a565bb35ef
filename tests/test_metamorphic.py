"""Answers are properties of the space, not of its names or its cells.

Relabeling vertices, edges and faces, subdividing an edge by a new
vertex and coning a face from a new vertex leave the space as it was,
so they must leave every answer as it was: the number of planar
rotation systems, whether a generalized one exists, the integral
homology, and the verdict's ``orientable_3manifold``; its ``sphere3``
may move to or from "unknown" but never between "yes" and "no".  This
gives an oracle past the reach of the brute-force ones: a subdivided
edge's new vertex has a theta graph for its link, which forces the two
halves' cyclic orders to agree, and a cone's apex has a cycle.  Each
variant is built by the full constructor, so its faces go through the
one trail check, and each witness through ``check_rotation_system``.
"""

import random
import time

from conftest import CORPUS_SIZE, corpus_params
from general_pieces import GENERAL_PIECES, LOOP_PIECES, glued

from rotsys import (
    DirectedComplex,
    SignedEdgeRef,
    generate_random_complex,
    h1_integral,
    is_planar_rotation_system,
    search_generalized_prs,
    search_planar_rotation_system,
    total_search_space,
    verdict,
)
from rotsys.complexes import GENERAL
from rotsys.errors import CapExceededError

GPRS_CAP = 200_000
PRS_CAP = 1_000_000  # the CLI's default for `prs count`
PRIMES = [2, 3]


def fresh(taken, stem):
    """An id that starts with ``stem`` and is not in ``taken``."""
    k = 0
    while f"{stem}{k}" in taken:
        k += 1
    return f"{stem}{k}"


def relabel(c, rng):
    """``c`` with its vertex, edge and face ids each permuted among
    themselves by ``rng``."""
    maps = []
    for ids in (c.vertices, c.edges, c.faces):
        ids = sorted(ids)
        maps.append(dict(zip(ids, rng.sample(ids, len(ids)))))
    v, e, f = maps
    return DirectedComplex(
        c.kind,
        tuple(v[x] for x in c.vertices),
        {e[x]: (v[t], v[h]) for x, (t, h) in c.edges.items()},
        {f[x]: tuple(SignedEdgeRef(e[r.edge], r.sign) for r in t) for x, t in c.faces.items()},
    )


def subdivide(c, edge):
    """``c`` with ``edge`` cut in two by a new vertex; each face runs
    over both halves where it ran over the edge."""
    w = fresh(c.vertices, "w")
    first, second = fresh(c.edges, "s"), fresh(c.edges, "t")
    tail, head = c.edges[edge]
    edges = {x: ends for x, ends in c.edges.items() if x != edge}
    edges[first], edges[second] = (tail, w), (w, head)
    halves = {1: (SignedEdgeRef(first, 1), SignedEdgeRef(second, 1))}
    halves[-1] = (SignedEdgeRef(second, -1), SignedEdgeRef(first, -1))
    faces = {
        f: tuple(x for r in trail for x in (halves[r.sign] if r.edge == edge else (r,)))
        for f, trail in c.faces.items()
    }
    return DirectedComplex(GENERAL, (*c.vertices, w), edges, faces)


def cone(c, face):
    """``c`` with ``face``, of two or more sides, replaced by a triangle
    per side, joined at a new vertex by a new edge to each corner."""
    trail = c.faces[face]
    apex = fresh(c.vertices, "a")
    spokes = [fresh(c.edges, f"c{j}.") for j in range(len(trail))]
    edges = dict(c.edges)
    for j, ref in enumerate(trail):
        tail, head = c.edges[ref.edge]
        edges[spokes[j]] = (apex, tail if ref.sign == 1 else head)
    faces = {f: t for f, t in c.faces.items() if f != face}
    for j, ref in enumerate(trail):
        nxt = spokes[(j + 1) % len(trail)]
        triangle = (SignedEdgeRef(spokes[j], 1), ref, SignedEdgeRef(nxt, -1))
        faces[fresh(faces.keys() | c.faces.keys(), f"{face}.")] = triangle
    return DirectedComplex(GENERAL, (*c.vertices, apex), edges, faces)


def cone_some_face(c, rng):
    """``c`` with a face drawn by ``rng`` coned; a face of one side has
    its loop subdivided first."""
    face = rng.choice(sorted(c.faces))
    if len(c.faces[face]) == 1:
        c = subdivide(c, c.faces[face][0].edge)
    return cone(c, face)


TRANSFORMS = {
    "relabel": relabel,
    "subdivide": lambda c, rng: subdivide(c, rng.choice(sorted(c.edges))),
    "cone": cone_some_face,
}


def answers(c):
    """What must not change: the PRS count, the GPRS status (None over
    the cap), H_1 over Z and the verdict's two answers; and the search
    candidates, which may.  A planar witness is re-checked."""
    prs = search_planar_rotation_system(c, "count", PRS_CAP)
    if prs.count:
        witness = search_planar_rotation_system(c, "first", PRS_CAP).sigma
        assert is_planar_rotation_system(c, witness) == (True, None)
    try:
        gprs = search_generalized_prs(c, GPRS_CAP)
        status, gprs_candidates = gprs.status, gprs.candidates_examined
    except CapExceededError:
        status, gprs_candidates = None, None
    v = verdict(c, PRIMES)
    kept = (prs.count, status, h1_integral(c), v.orientable_3manifold, v.sphere3)
    return kept, (prs.candidates_examined, gprs_candidates)


def assert_same_space(name, before, after, over_cap):
    (count, status, h1, orientable, sphere3), seen = before
    (count2, status2, h12, orientable2, sphere32), seen2 = after
    print(f"{name}: prs, gprs candidates {seen} -> {seen2}")
    assert (count2, h12, orientable2) == (count, h1, orientable), name
    assert {sphere3, sphere32} != {"yes", "no"}, name
    if status is None or status2 is None:
        over_cap.append(name)
    else:
        assert status2 == status, name


def corpus():
    """The corpus complexes, then gluings of pieces with loops."""
    out = [(f"corpus {i}", generate_random_complex(corpus_params(i))) for i in range(CORPUS_SIZE)]
    rng = random.Random(15)
    pieces = [GENERAL_PIECES[k] for k in (0, 2, 3)] + LOOP_PIECES
    for i in range(150):
        pre = glued(rng, rng.choices(pieces, k=rng.randint(1, 4)))
        out.append((f"glued {i}", DirectedComplex.from_pre(pre)))
    return out


def test_answers_survive_relabeling_subdivision_and_coning():
    start = time.process_time()
    rng = random.Random(1709)
    over_cap = []
    variants = 0
    for name, c in corpus():
        before = answers(c)
        for transform, apply in TRANSFORMS.items():
            after = answers(apply(c, rng))
            assert_same_space(f"{name} {transform}", before, after, over_cap)
            variants += 1
    cpu = time.process_time() - start
    print(f"{variants} variants, {len(over_cap)} set aside over the cap, {cpu:.1f} s CPU")
    assert variants == 3 * (CORPUS_SIZE + 150)
    assert len(over_cap) <= 10, over_cap
    # 6.4 s on Python 3.11, 2 CPUs
    assert cpu < 20, cpu


def test_every_edge_subdivided_past_the_oracles_reach():
    """The first 7-vertex corpus complex with a choice of rotation
    system, with every edge subdivided: 2^E red sets are past what
    ``brute_force_gprs`` enumerates."""
    c = next(
        c
        for c in map(generate_random_complex, map(corpus_params, range(CORPUS_SIZE)))
        if len(c.vertices) == 7 and total_search_space(c) > 1
    )
    fine = c
    for edge in sorted(c.edges):
        fine = subdivide(fine, edge)
    assert len(fine.edges) == 2 * len(c.edges) >= 20
    assert_same_space("7 vertices subdivided", answers(c), answers(fine), [])
