import dataclasses
import itertools
import json
import math
import random
import time
from collections import Counter

import pytest

from rotsys import (
    FaceBoundary,
    GenParams,
    PreComplex,
    RotationSystem,
    SignedEdgeRef,
    emit_complex,
    generate_random_complex,
    is_planar_rotation_system,
    link_graph,
    search_generalized_prs,
    search_planar_rotation_system,
    verdict,
)
from rotsys import search, tracing
from rotsys.cli import main
from rotsys.documents import dump_canonical, sigma_to_doc
from rotsys.errors import CapExceededError, NotConnectedError, NotLocallyConnectedError
from rotsys.homology import euler_identity_report
from rotsys.rotation import (
    canonical_rotation_system,
    check_rotation_system,
    sigma_candidates,
    total_search_space,
)
from rotsys.search import _candidates, _compile_links, link_planarity_precheck
from rotsys.surfaces import dual_complex, iota_check, local_surfaces, surface_duality_check
from rotsys.tracing import induced_rotator, link_tracer, traces_sphere_union

from general_pieces import GENERAL_PIECES, LOOP_PIECES, glued

# fixtures and random complexes small enough for brute_force_gprs
GPRS_ORACLE_LIMIT = 10**5


def brute_force_gprs(c):
    """Unpruned oracle: the least (cyclic order, colour) choice per edge,
    edges in id order and black before red, under which every link is a
    sphere union and every face has an even number of red edges.  Every
    cyclic order is tried with every red set that passes the face test."""
    incidences = c.edge_incidences()
    edges = sorted(c.edges)
    face_masks = []
    for b in c.faces.values():
        mask = 0
        for ref in b.trail:
            mask ^= 1 << edges.index(ref.edge)
        face_masks.append(mask)
    even = [
        red
        for red in range(1 << len(edges))
        if not any(bin(red & mask).count("1") % 2 for mask in face_masks)
    ]
    tables = [list(enumerate(sigma_candidates(incidences[e]))) for e in edges]
    tracers = [link_tracer(c, v) for v in c.vertices]
    best = None
    for combo in itertools.product(*tables):
        sigma = RotationSystem({e: cand for e, (_, cand) in zip(edges, combo)})
        for red in even:
            key = tuple((k, bool(red >> j & 1)) for j, (k, _) in enumerate(combo))
            if best is not None and key >= best[0]:
                continue
            red_set = frozenset(e for j, e in enumerate(edges) if red >> j & 1)
            if all(t.sphere_union(sigma, red_set) for t in tracers):
                best = key, sigma, tuple(sorted(red_set))
    return None if best is None else best[1:]


def brute_force_planar_count(c):
    """Unpruned oracle: try the full product space of cyclic orders."""
    incidences = c.edge_incidences()
    edges = sorted(c.edges)
    tables = [sigma_candidates(incidences[e]) for e in edges]
    count = 0
    for combo in itertools.product(*tables):
        sigma = RotationSystem(dict(zip(edges, combo)))
        if is_planar_rotation_system(c, sigma)[0]:
            count += 1
    return count


def test_tetrahedron_unique_system(complexes):
    c = complexes["tetrahedron"]
    result = search_planar_rotation_system(c, "first")
    assert result.status == "found"
    assert result.total_space == 1
    assert is_planar_rotation_system(c, result.sigma) == (True, None)


def test_counts_match_brute_force_on_fixtures(complexes):
    for name, expected in [
        ("tetrahedron", 1),
        ("book3", 2),
        ("triangle", 1),
        ("bowtie", 1),
        ("cone-k5", 0),
    ]:
        c = complexes[name]
        assert total_search_space(c) <= 10**6
        pruned = search_planar_rotation_system(c, "count")
        oracle = brute_force_planar_count(c)
        assert pruned.count == oracle == expected, name


def test_cone_k5_precheck_exhausts_without_candidates(complexes):
    c = complexes["cone-k5"]
    result = search_planar_rotation_system(c, "first")
    assert result.status == "exhausted"
    assert result.candidates_examined == 0
    assert result.total_space == 6**5


def test_first_returns_lexicographic_least(complexes):
    c = complexes["book3"]
    found = search_planar_rotation_system(c, "first").sigma
    # enumerate in lexicographic order; the first planar one must match
    from rotsys.rotation import enumerate_rotation_systems

    for sigma in enumerate_rotation_systems(c):
        if is_planar_rotation_system(c, sigma)[0]:
            assert sigma_to_doc(sigma) == sigma_to_doc(found)
            break


def test_cap_exceeded_reports_progress(complexes):
    # skip the precheck by searching a complex that needs real work
    c2 = complexes["rp2-6"]
    with pytest.raises(CapExceededError) as err:
        search_planar_rotation_system(c2, "count", cap=3)
    assert err.value.candidates_examined == 3
    with pytest.raises(CapExceededError) as err:
        search_generalized_prs(c2, cap=3)
    assert str(err.value) == "candidate cap 3 exceeded"
    assert err.value.candidates_examined == 3
    assert err.value.partial_count == 0


def triangle_with_faceless_edge():
    return PreComplex(
        "general",
        ("a", "b", "c", "z"),
        {
            "ab": ("a", "b"),
            "bc": ("b", "c"),
            "ac": ("a", "c"),
            "az": ("a", "z"),
        },
        {
            "f": FaceBoundary(
                "f",
                (
                    SignedEdgeRef("ab", 1),
                    SignedEdgeRef("bc", 1),
                    SignedEdgeRef("ac", -1),
                ),
            )
        },
    )


def without_faceless_edges(c):
    """Reference for the searches on a complex with faceless edges: the
    complex with those edges and the vertices only they touch removed."""
    faceless = {e for e, incs in c.table.incidences.items() if not incs}
    edges = {e: ends for e, ends in c.edges.items() if e not in faceless}
    used_v = {v for ends in edges.values() for v in ends}
    vertices = tuple(v for v in c.vertices if v in used_v)
    return PreComplex(c.kind, vertices, edges, dict(c.faces))


def test_faceless_edges_do_not_obstruct():
    pre = triangle_with_faceless_edge()
    result = search_planar_rotation_system(pre, "first")
    assert result.status == "found"
    check_rotation_system(pre, result.sigma)
    assert result.sigma.sigma["az"] == ()
    result = search_generalized_prs(pre)
    assert result.status == "found"
    check_rotation_system(pre, result.sigma)


def test_faceless_edges_search_as_if_removed(monkeypatch):
    """On a complex with faceless edges every search reports what it
    reports on the complex without them, the witness giving each faceless
    edge the empty order, and reads the link graphs kept in the
    complex's own table; ``is_planar_rotation_system`` accepts each
    planar witness, reading the links by the search's rule."""
    rng = random.Random(41)
    corpus = [triangle_with_faceless_edge()] + [
        glued(rng, rng.choices(GENERAL_PIECES, k=rng.randint(1, 5)), 0.1)
        for _ in range(120)
    ]
    compiled_from = []
    original = search._compile_links

    def recorded_compile_links(links, *rest):
        compiled_from.append(links)
        return original(links, *rest)

    monkeypatch.setattr(search, "_compile_links", recorded_compile_links)
    searches = (
        lambda c: search_planar_rotation_system(c, "first"),
        lambda c: search_planar_rotation_system(c, "count"),
        search_generalized_prs,
    )
    checked = reached = witnesses = 0
    for c in corpus:
        reference = without_faceless_edges(c)
        if reference.edges == c.edges:
            continue
        empty = {e: () for e in c.edges if e not in reference.edges}
        for run in searches:
            compiled_from.clear()
            got = run(c)
            assert all(links is c.table.links for links in compiled_from)
            reached += bool(compiled_from)
            if run is searches[0] and got.sigma is not None:
                assert is_planar_rotation_system(c, got.sigma) == (True, None)
                witnesses += 1
            expected = run(reference)
            if expected.sigma is not None:
                sigma = RotationSystem({**expected.sigma.sigma, **empty})
                expected = dataclasses.replace(expected, sigma=sigma)
            assert got == expected
        checked += 1
    assert checked >= 50 and reached >= 2 * checked, (checked, reached)
    assert witnesses >= 50, witnesses


def test_gprs_planar_complexes_all_black(complexes):
    for name in ("tetrahedron", "book3", "triangle", "torus-7"):
        c = complexes[name]
        result = search_generalized_prs(c)
        assert result.status == "found", name
        assert result.red_edges == (), name


def test_gprs_cone_k5_exhausted(complexes):
    result = search_generalized_prs(complexes["cone-k5"])
    assert result.status == "exhausted"
    assert result.candidates_examined == 0


def test_gprs_soundness_reverified(complexes):
    c = complexes["book3"]
    result = search_generalized_prs(c)
    assert result.status == "found"
    # re-check the three conditions independently of the search
    red = frozenset(result.red_edges)
    for v in c.vertices:
        assert link_tracer(c, v).sphere_union(result.sigma, red)
    for f, boundary in c.faces.items():
        assert sum(1 for ref in boundary.trail if ref.edge in red) % 2 == 0


def test_search_soundness_every_found_verified(complexes):
    for name in ("tetrahedron", "book3", "triangle", "bowtie", "rp2-6", "torus-7"):
        c = complexes[name]
        result = search_planar_rotation_system(c, "first")
        assert result.status == "found"
        assert is_planar_rotation_system(c, result.sigma) == (True, None)


def _assert_gprs_matches_oracle(c, name):
    result = search_generalized_prs(c)
    oracle = brute_force_gprs(c)
    if oracle is None:
        assert result.status == "exhausted", name
        return False
    assert result.status == "found", name
    assert (result.sigma, result.red_edges) == oracle, name
    return bool(result.red_edges)


def test_gprs_matches_brute_force_on_fixtures(complexes):
    checked = 0
    for name, c in complexes.items():
        if total_search_space(c) * 2 ** len(c.edges) <= GPRS_ORACLE_LIMIT:
            _assert_gprs_matches_oracle(c, name)
            checked += 1
    assert checked == 5


def test_gprs_matches_brute_force_on_random_complexes():
    checked = with_red = 0
    for seed in range(30, 80):
        params = GenParams(seed=seed, n_vertices=4 + seed % 3, target_faces=2 + seed % 7)
        c = generate_random_complex(params)
        if total_search_space(c) * 2 ** len(c.edges) > GPRS_ORACLE_LIMIT:
            continue
        with_red += _assert_gprs_matches_oracle(c, f"seed {seed}")
        checked += 1
    assert checked >= 30
    assert with_red >= 1


# Random complexes whose links all pass the planarity precheck and that
# have no (generalized) planar rotation system, with the candidates
# count mode examines: the mirror cut halves the first edge with two or
# more cyclic orders, so a lost cut shows up here.
EXHAUSTED = [
    (GenParams(seed=7, n_vertices=6, target_faces=11), 78),
    (GenParams(seed=349, n_vertices=6, target_faces=11), 105),
    (GenParams(seed=1672, n_vertices=6, target_faces=11), 28),
    (GenParams(seed=2005, n_vertices=6, target_faces=11), 30),
    (GenParams(seed=2204, n_vertices=7, target_faces=12), 31),
]


@pytest.mark.parametrize(
    "params, candidates", EXHAUSTED, ids=[f"seed{p.seed}" for p, _ in EXHAUSTED]
)
def test_exhausted_searches_match_brute_force(params, candidates):
    c = generate_random_complex(params)
    assert link_planarity_precheck(link_graph(c, v) for v in c.vertices) is None
    counted = search_planar_rotation_system(c, "count")
    assert (counted.status, counted.count) == ("exhausted", 0)
    assert counted.candidates_examined == candidates
    assert brute_force_planar_count(c) == 0
    assert search_planar_rotation_system(c, "first").status == "exhausted"
    assert _assert_gprs_matches_oracle(c, f"seed {params.seed}") is False
    assert search_generalized_prs(c).status == "exhausted"


def test_count_cap_accounts_for_both_mirror_halves():
    """Each witness the count reaches stands for itself and its mirror,
    so a capped count grows in steps of two up to the full count."""
    c = generate_random_complex(GenParams(seed=29, n_vertices=6, target_faces=8))
    full = search_planar_rotation_system(c, "count")
    assert full.count == brute_force_planar_count(c) == 8
    partial = []
    for cap in range(1, full.candidates_examined):
        with pytest.raises(CapExceededError) as err:
            search_planar_rotation_system(c, "count", cap=cap)
        assert err.value.candidates_examined == cap
        partial.append(err.value.partial_count)
    steps = {b - a for a, b in zip([0] + partial, partial)}
    assert steps == {0, 2}
    assert partial[-1] == full.count


def test_capped_searches_keep_few_cyclic_orders(tmp_path, capsys):
    """A search generates an edge's cyclic orders, and compiles their
    writes, only as far as it places them.  The spine of the 10-page book
    has 9! of them; its capped count and find, and its uncapped verdict
    (witness at candidate 21), each take under a second of CPU and print
    what a search listing every order prints."""
    import make_fixtures

    k = 10
    names = [f"p{i}" for i in range(k)] + ["v", "w"]
    c = make_fixtures._triangle_complex(k + 2, [(k, k + 1, i) for i in range(k)], names)
    assert total_search_space(c) == math.factorial(k - 1)
    path = tmp_path / "book.json"
    path.write_text(emit_complex(c))
    witness = canonical_rotation_system(c)  # 20 forced page edges, then the spine
    found = search.GprsSearchResult("found", witness, (), 21).to_doc(c)
    found["sigma"] = sigma_to_doc(witness)["sigma"]
    decided = verdict(c, [2]).to_doc()
    assert decided["blocks"][0]["sigma"] == found["sigma"]
    for argv, expected in (
        (
            ["prs", "count", str(path), "--cap", "1000"],
            (1, "", "error: candidate cap 1000 exceeded\n"),
        ),
        (["gprs", "find", str(path), "--cap", "1000"], (0, dump_canonical(found), "")),
        (["verdict", str(path), "--primes", "2"], (0, dump_canonical(decided), "")),
    ):
        start = time.process_time()
        code = main(argv)
        cpu = time.process_time() - start
        out = capsys.readouterr()
        assert (code, out.out, out.err) == expected, argv
        assert cpu < 1, argv
    with pytest.raises(CapExceededError) as exc:
        search_planar_rotation_system(c, "count", 1000)
    assert (exc.value.candidates_examined, exc.value.partial_count) == (1000, 1960)


def test_each_option_is_compiled_at_most_once_per_search(monkeypatch):
    """A search passes over an edge's options once per accepted placement
    of the edge before it, but compiles the writes of each option at
    each open end on the first pass only."""
    compiled = Counter()
    original = search._write

    def counted_write(lg, i, trace, slot, start, cand, red):
        compiled[lg.center, i, cand, red] += 1
        return original(lg, i, trace, slot, start, cand, red)

    monkeypatch.setattr(search, "_write", counted_write)
    corpus = [generate_random_complex(params) for params, _ in EXHAUSTED] + [
        generate_random_complex(GenParams(seed=seed, n_vertices=6, target_faces=9))
        for seed in range(20)
    ]
    examined = options = 0
    for c in corpus:
        for run in (
            lambda c: search_planar_rotation_system(c, "count"),
            search_generalized_prs,
        ):
            compiled.clear()
            examined += run(c).candidates_examined
            assert max(compiled.values(), default=1) == 1
            options += len(compiled)
    assert examined > 2 * options, (examined, options)


def test_roadmap_instance_count_and_first_witness():
    """The only test in which the search runs millions of candidates."""
    c = generate_random_complex(GenParams(seed=0, n_vertices=8, face_probability=0.5))
    counted = search_planar_rotation_system(c, "count")
    assert (counted.status, counted.count) == ("found", 2)
    first = search_planar_rotation_system(c, "first")
    assert first.status == "found"
    assert sigma_to_doc(first.sigma) == ROADMAP_WITNESS
    assert is_planar_rotation_system(c, first.sigma) == (True, None)


ROADMAP_WITNESS = {
    "sigma": {
        "v1-v2": ["v1-v2-v5", "v1-v2-v6", "v1-v2-v8"],
        "v1-v3": ["v1-v3-v5", "v1-v3-v6"],
        "v1-v4": [],
        "v1-v5": ["v1-v2-v5", "v1-v3-v5", "v1-v5-v6"],
        "v1-v6": ["v1-v2-v6", "v1-v5-v6", "v1-v3-v6", "v1-v4-v6"],
        "v1-v7": [],
        "v1-v8": ["v1-v2-v8", "v1-v7-v8"],
        "v2-v3": ["v2-v3-v7", "v2-v3-v8"],
        "v2-v4": [],
        "v2-v5": ["v1-v2-v5", "v2-v5-v6", "v2-v4-v5", "v2-v5-v8"],
        "v2-v6": ["v1-v2-v6", "v2-v5-v6"],
        "v2-v7": ["v2-v3-v7", "v2-v7-v8"],
        "v2-v8": ["v1-v2-v8", "v2-v7-v8", "v2-v3-v8", "v2-v5-v8"],
        "v3-v4": [],
        "v3-v5": ["v1-v3-v5", "v3-v5-v7", "v3-v5-v6"],
        "v3-v6": ["v1-v3-v6", "v3-v5-v6", "v3-v6-v7", "v3-v6-v8", "v3-v4-v6"],
        "v3-v7": ["v2-v3-v7", "v3-v6-v7", "v3-v5-v7"],
        "v3-v8": ["v2-v3-v8", "v3-v6-v8"],
        "v4-v5": ["v2-v4-v5", "v4-v5-v6", "v4-v5-v8"],
        "v4-v6": ["v1-v4-v6", "v3-v4-v6", "v4-v5-v6"],
        "v4-v7": [],
        "v4-v8": ["v4-v5-v8", "v4-v7-v8"],
        "v5-v6": ["v1-v5-v6", "v2-v5-v6", "v4-v5-v6", "v5-v6-v8", "v5-v6-v7", "v3-v5-v6"],
        "v5-v7": ["v3-v5-v7", "v5-v6-v7"],
        "v5-v8": ["v2-v5-v8", "v5-v6-v8", "v4-v5-v8"],
        "v6-v7": ["v3-v6-v7", "v5-v6-v7"],
        "v6-v8": ["v3-v6-v8", "v5-v6-v8"],
        "v7-v8": ["v1-v7-v8", "v4-v7-v8", "v2-v7-v8"],
    }
}


def test_each_complex_builds_each_link_graph_once(
    monkeypatch, capsys, complexes, fixture_files
):
    """A complex object walks its links at most once, for the link
    graphs kept in its table, across ``prs find`` and ``count``, ``gprs
    find`` with its rotators, ``verdict`` (its re-check of the witness
    included) and ``euler_identity_report``, and so does each complex a
    command parses or builds, over every command that reads a link; each
    search still runs its planarity precheck once."""
    walked = Counter()
    alive = []  # keeps every complex seen, so no id is reused
    prechecks = []
    original = tracing._walk

    def counted_walk(c):
        alive.append(c)
        walked[id(c)] += 1
        return original(c)

    def counted_precheck(graphs):
        prechecks.append(1)
        return link_planarity_precheck(graphs)

    monkeypatch.setattr(tracing, "_walk", counted_walk)
    monkeypatch.setattr(search, "link_planarity_precheck", counted_precheck)
    corpus = list(complexes.values()) + [
        generate_random_complex(
            GenParams(seed=seed, n_vertices=4 + seed % 4, target_faces=1 + seed % 9)
        )
        for seed in range(40)
    ]
    searches = (
        lambda c: search_planar_rotation_system(c, "first"),
        lambda c: search_planar_rotation_system(c, "count"),
        lambda c: search_generalized_prs(c),
        # a gprs request reads its rotators from the incidences
        lambda c: search_generalized_prs(c).to_doc(c),
    )
    identities = 0
    for c in corpus:
        for run in searches:
            prechecks.clear()
            run(c)
            assert prechecks == [1]
        prechecks.clear()
        blocks = verdict(c, [2, 3]).blocks
        assert len(prechecks) == len(blocks)
        try:
            euler_identity_report(c, canonical_rotation_system(c), 2)
            identities += 1
        except (NotConnectedError, NotLocallyConnectedError):
            pass
    # the fixtures' links may have been built by earlier tests
    assert identities >= 10
    commands = [
        ["links"], ["prs", "find"], ["prs", "count"], ["gprs", "find"],
        ["identities", "--prime", "2"], ["verdict", "--primes", "2,3"],
    ]
    for name, c in complexes.items():
        path = str(fixture_files / f"{name}.json")
        for argv in commands + [["links", "--vertex", c.vertices[0], "--dot"]]:
            before = len(alive)
            main([*argv, path])
            assert len(alive) > before, (name, argv)
    capsys.readouterr()
    assert max(walked.values()) == 1


def test_searches_and_verdicts_spell_no_link_label(monkeypatch, complexes):
    """Only the documents that print link labels spell them: with
    ``LinkGraph``'s label methods raising, ``prs find`` and ``count``,
    ``gprs find`` without its rotators, the planarity check of a system,
    ``verdict`` and the cross-check of a system (local surfaces, dual
    complex, iota and duality checks) all run, and a witness's rotators
    do not."""

    def spelled(self):
        raise AssertionError(f"link labels spelled at {self.center!r}")

    monkeypatch.setattr(tracing.LinkGraph, "vertex_labels", spelled)
    monkeypatch.setattr(tracing.LinkGraph, "edge_labels", spelled)
    corpus = list(complexes.values()) + [
        generate_random_complex(GenParams(seed=seed, n_vertices=5, target_faces=1 + seed % 8))
        for seed in range(20)
    ]
    found = 0
    for c in corpus:
        search_planar_rotation_system(c, "first")
        search_planar_rotation_system(c, "count")
        result = search_generalized_prs(c)
        result.to_doc()
        verdict(c, [2])
        sigma = canonical_rotation_system(c)
        is_planar_rotation_system(c, sigma)
        surfaces = local_surfaces(c, sigma)
        dual = dual_complex(c, sigma, surfaces)
        iota_check(c, sigma, surfaces)
        surface_duality_check(c, sigma, dual)
        if result.status == "found":
            with pytest.raises(AssertionError, match="link labels spelled"):
                result.to_doc(c)
            found += 1
    assert found >= 10


def _corner_of(c, f, e, end):
    """The corner of face ``f`` where its traversal of edge ``e`` meets
    the edge's end ``end``: the next corner when the face arrives there
    (at the head when it runs along the edge), its own when it leaves."""
    trail = c.faces[f].trail
    pos = next(i for i, ref in enumerate(trail) if ref.edge == e)
    arrives = "h" if trail[pos].sign == 1 else "t"
    return (pos + 1) % len(trail) if end == arrives else pos


def walked_rotator(c, order, e, end, red=False):
    """Oracle for one rotator, with no link graph: the faces of sigma(e),
    or of ``e`` when sigma is empty, reversed at a tail end unless the
    edge is red, each resolved to its corner."""
    order = order or c.edge_incidences()[e]
    if end == "t" and not red:
        order = order[::-1]
    return [(f"{f}#{_corner_of(c, f, e, end)}", f) for f in order]


def walked_rotator_doc(result, c):
    """Oracle for ``GprsSearchResult.rotator_doc``: every vertex's edge
    ends walked in edge id order, head end before tail end."""
    red = frozenset(result.red_edges)
    out = {v: {} for v in sorted(c.vertices)}
    for e in sorted(c.edges):
        tail, head = c.edges[e]
        for v, end in ((head, "h"), (tail, "t")):
            label = f"{e}:{end}" if tail == head else e
            order = result.sigma.sigma.get(e, ())
            out[v][label] = [lab for lab, _ in walked_rotator(c, order, e, end, e in red)]
    return out


def test_rotator_doc_matches_the_tracer_reading(complexes):
    """The link graphs' reading against the walk over edge ends, on the
    search's witnesses and on random (sigma, red edges) pairs
    over fixtures, randgen complexes and glued general complexes (loops,
    bigons, a face passing a vertex twice, bare loops that stay
    faceless)."""
    rng = random.Random(17)
    corpus = list(complexes.values())
    corpus += [
        generate_random_complex(
            GenParams(seed=seed, n_vertices=4 + seed % 3, target_faces=2 + seed % 7)
        )
        for seed in range(150)
    ]
    corpus += [
        glued(rng, rng.choices(GENERAL_PIECES, k=rng.randint(1, 5)), 0.1)
        for _ in range(80)
    ]
    seen = {"red witness": 0, "red loop": 0, "faceless": 0}
    for c in corpus:
        incidences = c.edge_incidences()
        sigma = RotationSystem(
            {e: rng.choice(list(sigma_candidates(incs))) for e, incs in incidences.items()}
        )
        red = tuple(sorted(e for e in c.edges if rng.random() < 0.5))
        results = [search.GprsSearchResult("found", sigma, red, 0)]
        witness = search_generalized_prs(c)
        if witness.status == "found":
            check_rotation_system(c, witness.sigma)
            results.append(witness)
            seen["red witness"] += bool(witness.red_edges)
        seen["red loop"] += any(c.edges[e][0] == c.edges[e][1] for e in red)
        for result in results:
            doc = result.rotator_doc(c)
            assert doc == walked_rotator_doc(result, c)
            for e in (e for e, incs in c.table.incidences.items() if not incs):
                tail, head = c.edges[e]
                keys = [f"{e}:h", f"{e}:t"] if tail == head else [e]
                assert all(doc[v][k] == [] for v in (tail, head) for k in keys)
                seen["faceless"] += 1
    assert min(seen.values()) >= 5, seen


def test_induced_rotator_matches_the_tracer_reading(complexes):
    """The link graph's reading against the walk, on every edge and endpoint,
    under random rotation systems; at a loop, its head end, which loops
    in two or more faces tell from its tail end."""
    rng = random.Random(23)
    corpus = list(complexes.values()) + [
        glued(rng, rng.choices(GENERAL_PIECES + LOOP_PIECES, k=rng.randint(1, 4)))
        for _ in range(30)
    ]
    checked = loops = 0
    for c in corpus:
        incidences = c.edge_incidences()
        sigma = RotationSystem(
            {e: rng.choice(list(sigma_candidates(incs))) for e, incs in incidences.items()}
        )
        for e, (tail, head) in c.edges.items():
            for v in {tail, head}:
                expected = walked_rotator(c, sigma.sigma[e], e, "h" if head == v else "t")
                assert induced_rotator(c, sigma, e, v) == expected, (e, v)
                checked += 1
            loops += tail == head and len(incidences[e]) >= 2
    assert checked >= 300
    assert loops >= 5


def test_compiled_link_writes_agree_with_sphere_union():
    """The search's tracing arrays, after the writes of any complete
    choice of options (each edge's first pass compiles them into its
    list), give LinkGraph.sphere_union's verdict on every link; a link
    left without an array is a sphere union under every choice.  Also on
    glued general complexes with faceless edges, whose links hold
    vertices without darts."""
    rng = random.Random(5)
    corpus = [
        generate_random_complex(
            GenParams(seed=seed, n_vertices=5 + seed % 3, target_faces=4 + seed % 8)
        )
        for seed in range(40)
    ]
    faceless = 0
    while faceless < 20:
        pieces = rng.choices(GENERAL_PIECES, k=rng.randint(1, 4))
        params = GenParams(seed=faceless, n_vertices=5, target_faces=5)
        pieces.append(generate_random_complex(params))
        c = glued(rng, pieces, 0.1)
        if any(not faces for faces in c.table.incidences.values()):
            corpus.append(c)
            faceless += 1
    checked = 0
    for c in corpus:
        edges, candidates, _ = _candidates(c)
        tracers = {v: link_tracer(c, v) for v in c.vertices}
        steps, passes, arrays = _compile_links(tracers, edges, candidates, (False, True))
        assert [list(first_pass) for first_pass in passes] == steps
        for _ in range(20):
            picks = [rng.choice(options) for options in steps]
            for _, _, writes in picks:
                for trace, lo, hi, values in writes:
                    trace[lo:hi] = values
            sigma = RotationSystem({e: cand for e, (cand, _, _) in zip(edges, picks)})
            red = frozenset(e for e, (_, is_red, _) in zip(edges, picks) if is_red)
            for v, t in tracers.items():
                expected = t.sphere_union(sigma, red)
                if v in arrays:
                    assert traces_sphere_union(*arrays[v]) == expected, v
                    checked += 1
                else:
                    assert expected, v
    assert checked >= 1000


def test_searches_and_cli_on_20x20_grid_torus(tmp_path, capsys):
    """1,200 edges: far deeper than Python's default recursion limit."""
    import make_fixtures

    c = make_fixtures._grid_surface(20, False)
    assert c.counts() == (400, 1200, 800)
    prs = search_planar_rotation_system(c, "first")
    assert (prs.status, prs.candidates_examined, prs.total_space) == ("found", 1200, 1)
    gprs = search_generalized_prs(c)
    assert (gprs.status, gprs.red_edges, gprs.candidates_examined) == ("found", (), 1200)
    assert gprs.sigma == prs.sigma
    path = tmp_path / "torus.json"
    path.write_text(emit_complex(c))
    for command in ("prs", "gprs"):
        code = main([command, "find", str(path)])
        out = capsys.readouterr()
        assert code == 0, command
        assert out.err == "", command
        assert json.loads(out.out)["status"] == "found", command
