import json
import random
import time
from collections import Counter
from functools import partial

import make_fixtures
import presentation_reference as reference
import pytest
from general_pieces import GENERAL_PIECES, LOOP_PIECES, complex_from_lists, glued

from rotsys import GenParams, generate_random_complex, h1_integral, pi1_trivial_heuristic
from rotsys.errors import NotConnectedError, RotsysError, UnsatisfiableError
from rotsys.presentation import cyclic_reduce, free_reduce, invert


def test_free_reduce():
    assert free_reduce((1, -1)) == ()
    assert free_reduce((1, 2, -2, -1)) == ()
    assert free_reduce((1, 2, -2, 3)) == (1, 3)


def test_cyclic_reduce():
    assert cyclic_reduce((1, 2, -1)) == (2,)
    assert cyclic_reduce((1, 2, 3, -1)) == (2, 3)


def test_invert():
    assert invert((1, -2, 3)) == (-3, 2, -1)


def test_tetrahedron_trivial(complexes):
    v = pi1_trivial_heuristic(complexes["tetrahedron"])
    assert v.status == "trivial"
    assert v.generators_before == 3
    assert v.relators_before == 4
    assert v.generators_after == 0
    assert v.steps_used <= v.budget


def test_triangle_and_bowtie_trivial(complexes):
    assert pi1_trivial_heuristic(complexes["triangle"]).status == "trivial"
    assert pi1_trivial_heuristic(complexes["bowtie"]).status == "trivial"
    assert pi1_trivial_heuristic(complexes["book3"]).status == "trivial"


def test_rp2_never_trivial(complexes):
    v = pi1_trivial_heuristic(complexes["rp2-6"])
    assert v.status == "unknown"


def test_torus_never_trivial(complexes):
    v = pi1_trivial_heuristic(complexes["torus-7"])
    assert v.status == "unknown"


def test_soundness_on_nontrivial_h1(complexes):
    # a trivial answer is impossible whenever integral H1 is nontrivial
    for name in ("rp2-6", "torus-7"):
        c = complexes[name]
        betti, torsion = h1_integral(c)
        assert betti > 0 or torsion
        for budget in (10, 1000, 100_000):
            assert pi1_trivial_heuristic(c, budget).status == "unknown"


def test_budget_respected(complexes):
    v = pi1_trivial_heuristic(complexes["rp2-6"], budget=5)
    assert v.status == "unknown"
    assert v.steps_used <= 5


def test_requires_connected():
    two = make_fixtures._triangle_complex(6, [(0, 1, 2), (3, 4, 5)])
    with pytest.raises(NotConnectedError):
        pi1_trivial_heuristic(two)


# -- the indexed simplifier against the scanning one ---------------------------


def outcome(c, budget, heuristic):
    try:
        return heuristic(c, budget)
    except RotsysError as exc:
        return type(exc), str(exc)


def assert_matches_reference(corpus):
    """Equal ``Pi1Verdict``s (or errors) at every budget; returns the
    paths the reference took."""
    paths = Counter()
    for c in corpus:
        for budget in reference.BUDGETS:
            expected = outcome(c, budget, partial(reference.pi1_trivial_heuristic, paths=paths))
            assert outcome(c, budget, pi1_trivial_heuristic) == expected, (c.counts(), budget)
    return paths


def randgen_corpus():
    out = []
    for seed in range(160):
        n = 4 + seed % 6
        if seed % 2:
            params = GenParams(seed=seed, n_vertices=n, face_probability=0.2 + 0.1 * (seed % 7))
        else:
            params = GenParams(seed=seed, n_vertices=n, target_faces=1 + seed % (2 * n))
        try:
            out.append(generate_random_complex(params))
        except UnsatisfiableError:
            pass
    return out


def glued_corpus():
    rng = random.Random(5)
    out = []
    for _ in range(60):
        pieces = rng.choices(GENERAL_PIECES + LOOP_PIECES, k=rng.randint(1, 4))
        pieces.append(
            generate_random_complex(
                GenParams(seed=rng.randrange(10**6), n_vertices=6, face_probability=0.4)
            )
        )
        out.append(glued(rng, pieces))
    return out


def bouquet_corpus():
    """One vertex, loops as generators and faces along random trails of
    them: many relators share subwords, so the length-reducing rewrite
    runs, also right after an elimination overran the budget."""
    rng = random.Random(1)
    out = []
    for _ in range(200):
        loops = [(f"l{i}", "z", "z") for i in range(rng.randint(2, 6))]
        faces = []
        for k in range(rng.randint(1, 6)):
            trail = rng.sample(loops, rng.randint(1, len(loops)))
            faces.append((f"f{k}", [(e, rng.choice((1, -1))) for e, _, _ in trail]))
        out.append(complex_from_lists("general", "z", loops, faces))
    return out


def capped_cylinders():
    rng = random.Random(3)
    out = []
    for k in range(3, 9):
        for m in range(1, 7):
            out.append(make_fixtures._capped_cylinder(k, m))
            names = [f"s{i}" for i in range(k * m + 2)]
            rng.shuffle(names)
            out.append(make_fixtures._capped_cylinder(k, m, names))
    return out


def test_matches_reference_on_fixtures_randgen_and_general_complexes(complexes):
    corpus = list(complexes.values()) + randgen_corpus() + glued_corpus() + bouquet_corpus()
    assert len(corpus) >= 400
    taken = assert_matches_reference(corpus)
    assert taken["rewrite"] >= 150, taken
    assert taken["overrun"] >= 100, taken
    assert taken["overrun, then a rewrite"] >= 100, taken


def test_matches_reference_on_capped_cylinders_and_small_grid_surfaces():
    corpus = capped_cylinders() + list(reference.grid_surfaces(range(4, 13)).values())
    taken = assert_matches_reference(corpus)
    assert taken["overrun"] >= 100, taken


def test_matches_recorded_reference_on_grid_surfaces_up_to_20x20():
    """The recorded verdicts are the reference's (n <= 12 is also
    compared live above); running it up to n = 20 takes a minute."""
    recorded = json.loads(reference.RECORDED.read_text())
    surfaces = reference.grid_surfaces()
    assert sorted(recorded) == sorted(surfaces)
    for name, c in surfaces.items():
        for budget in reference.BUDGETS:
            doc = pi1_trivial_heuristic(c, budget).to_doc()
            assert doc == recorded[name][str(budget)], (name, budget)


def test_30x30_grid_torus_takes_the_budget_in_under_a_second():
    c = make_fixtures._grid_surface(30, False)
    start = time.process_time()
    v = pi1_trivial_heuristic(c)
    elapsed = time.process_time() - start
    assert (v.generators_before, v.generators_after) == (1801, 1744)
    assert (v.relators_before, v.relators_after) == (1800, 1743)
    assert (v.status, v.steps_used, v.budget) == ("unknown", 100_000, 100_000)
    assert elapsed < 1.0, elapsed
