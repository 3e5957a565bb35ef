"""Seeded property suite on a small slice of the corpus.

The full 500-instance sweep lives in the acceptance module; this file
runs the same checkers over fewer instances (shifted seeds) so property
violations localize quickly during development.
"""

import pytest

from conftest import SEED_BASE
from identity_checks import (
    check_chain_condition,
    check_identities_per_sigma,
    check_is_loc_con_implication,
)

from rotsys import (
    GenParams,
    generate_random_complex,
    is_locally_connected,
    is_p_nullhomologous,
    local_surfaces,
    search_planar_rotation_system,
    validate,
    verdict,
)
from rotsys.errors import CapExceededError, UnsatisfiableError
from rotsys.rotation import total_search_space


def small_corpus():
    out = []
    for i in range(60):
        n = 3 + (i % 6)
        params = (
            GenParams(seed=SEED_BASE + 7000 + i, n_vertices=n, target_faces=1 + (i % (n + 2)))
            if i % 3
            else GenParams(seed=SEED_BASE + 7000 + i, n_vertices=5, face_probability=0.7)
        )
        try:
            out.append(generate_random_complex(params))
        except UnsatisfiableError:
            continue
    return out


CORPUS = small_corpus()


def test_generated_complexes_are_valid():
    assert len(CORPUS) >= 40
    for c in CORPUS:
        assert validate(c) == []


def test_generation_deterministic():
    params = GenParams(seed=SEED_BASE + 7001, n_vertices=6, face_probability=0.5)
    from rotsys import emit_complex

    assert emit_complex(generate_random_complex(params)) == emit_complex(
        generate_random_complex(params)
    )


def test_generation_refuses_nonsense_parameters():
    for kwargs in [
        {"target_faces": -3},
        {"face_probability": 2.0},
        {"face_probability": float("nan")},
        {"face_probability": 0.5, "target_faces": 3},
    ]:
        with pytest.raises(ValueError):
            generate_random_complex(GenParams(seed=0, n_vertices=6, **kwargs))


def test_chain_condition():
    for c in CORPUS:
        check_chain_condition(c)


def test_is_loc_con_implication():
    applied = 0
    for c in CORPUS:
        applied += check_is_loc_con_implication(c, (2, 3))
    assert applied >= 5  # the hypothesis must actually trigger sometimes


def test_identities_per_sigma():
    ran = 0
    for c in CORPUS:
        if not (c.is_connected() and is_locally_connected(c)[0]):
            continue
        null_prime = next((p for p in (2, 3) if is_p_nullhomologous(c, p)), None)
        ran += check_identities_per_sigma(c, cap=500, null_prime=null_prime)
    assert ran >= 30


def test_local_surfaces_of_planar_systems_of_null_complexes_are_spheres():
    hits = 0
    for c in CORPUS:
        if not is_locally_connected(c)[0]:
            continue
        if not any(is_p_nullhomologous(c, p) for p in (2, 3)):
            continue
        try:
            result = search_planar_rotation_system(c, "first", cap=20_000)
        except CapExceededError:
            continue
        if result.status != "found":
            continue
        hits += 1
        for s in local_surfaces(c, result.sigma):
            assert s.genus == 0, f"nonzero genus on seed corpus instance"
    assert hits >= 5


def test_pruned_count_equals_brute_force_small():
    from test_search import brute_force_planar_count

    agreed = 0
    for c in CORPUS:
        if total_search_space(c) > 200:
            continue
        pruned = search_planar_rotation_system(c, "count")
        assert pruned.count == brute_force_planar_count(c)
        agreed += 1
    assert agreed >= 20


def test_verdict_block_consistency_random_glues():
    from test_verdict import glue_at_vertex

    pairs = [(0, 1), (2, 5), (7, 11), (3, 9)]
    usable = [c for c in CORPUS if c.is_connected()]
    for ia, ib in pairs:
        if max(ia, ib) >= len(usable):
            continue
        a, b = usable[ia], usable[ib]
        glued = glue_at_vertex(a, b, a.vertices[0], b.vertices[0])
        whole = verdict(glued, [2, 3])
        va, vb = verdict(a, [2, 3]), verdict(b, [2, 3])
        parts = {va.sphere3, vb.sphere3}
        expected = (
            "no" if "no" in parts else ("unknown" if "unknown" in parts else "yes")
        )
        assert whole.sphere3 == expected
