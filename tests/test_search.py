import itertools
import json

import pytest

from rotsys import (
    GenParams,
    RotationSystem,
    emit_complex,
    generate_random_complex,
    is_planar_rotation_system,
    search_generalized_prs,
    search_planar_rotation_system,
)
from rotsys.cli import main
from rotsys.errors import CapExceededError
from rotsys.rotation import sigma_candidates, total_search_space
from rotsys.tracing import link_tracer

# fixtures and random complexes small enough for brute_force_gprs
GPRS_ORACLE_LIMIT = 10**5


def brute_force_gprs(c):
    """Unpruned oracle: the first (cyclic order, colour) choice per edge,
    edges in id order and black before red, under which every link is a
    sphere union and every face has an even number of red edges."""
    incidences = c.edge_incidences()
    edges = sorted(c.edges)
    tables = [
        [(cand, red) for cand in sigma_candidates(incidences[e]) for red in (False, True)]
        for e in edges
    ]
    tracers = [link_tracer(c, v, incidences) for v in c.vertices]
    for combo in itertools.product(*tables):
        sigma = RotationSystem({e: cand for e, (cand, _) in zip(edges, combo)})
        red = frozenset(e for e, (_, is_red) in zip(edges, combo) if is_red)
        if all(
            sum(ref.edge in red for ref in b.trail) % 2 == 0 for b in c.faces.values()
        ) and all(t.sphere_union(sigma, red) for t in tracers):
            return sigma, tuple(sorted(red))
    return None


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
            assert sigma.canonical_key() == found.canonical_key()
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


def test_faceless_edges_do_not_obstruct():
    from rotsys import PreComplex, FaceBoundary, SignedEdgeRef

    pre = PreComplex(
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
    result = search_planar_rotation_system(pre, "first")
    assert result.status == "found"


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
    incidences = c.edge_incidences()
    for v in c.vertices:
        assert link_tracer(c, v, incidences).sphere_union(result.sigma, red)
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
