"""Acceptance suite: one test per criterion, exact expectations, one
pass/fail line each.  Runnable standalone:

    pytest tests/test_acceptance.py -v -s
"""

import time
from contextlib import contextmanager

import pytest

from conftest import CORPUS_SIZE, SIGMA_CAP, corpus_params
from identity_checks import (
    check_chain_condition,
    check_identities_per_sigma,
    check_is_loc_con_implication,
)

from rotsys import (
    generate_random_complex,
    is_locally_connected,
    is_p_nullhomologous,
    klein_word_admissible,
    local_surfaces,
    pi1_trivial_heuristic,
    search_planar_rotation_system,
    verdict,
)
from rotsys.errors import CapExceededError, UnsatisfiableError
from rotsys.homology import euler_identity_report
from rotsys.rotation import canonical_rotation_system, total_search_space


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def build_corpus():
    out = []
    for i in range(CORPUS_SIZE):
        try:
            out.append(generate_random_complex(corpus_params(i)))
        except UnsatisfiableError:
            continue
    return out


@pytest.fixture(scope="module")
def corpus():
    return build_corpus()


def test_criterion_1_fixture_verdicts(complexes):
    with criterion(1, "fixture verdicts"):
        cases = {
            "tetrahedron": ("yes", "yes", None),
            "rp2-6": ("yes", "no", "MixedPrimeHomology"),
            "cone-k5": ("no", "no", "NoPlanarRotationSystem"),
            "torus-7": ("yes", "unknown", None),
        }
        for name, (orientable, sphere3, reason) in cases.items():
            t0 = time.time()
            v = verdict(complexes[name], [2, 3])
            elapsed = time.time() - t0
            assert elapsed < 1.0, f"{name} verdict took {elapsed:.2f}s"
            assert v.orientable_3manifold == orientable, name
            assert v.sphere3 == sphere3, name
            if reason is not None:
                assert any(r.startswith(reason) for r in v.reasons), name


def test_criterion_2_euler_identities(complexes):
    with criterion(2, "Euler identities"):
        for name, p in (("tetrahedron", 2), ("book3", 2), ("rp2-6", 3)):
            r = euler_identity_report(
                complexes[name], canonical_rotation_system(complexes[name]), p
            )
            assert r.lhs == 0, name
            assert r.cycle_space_identity_holds, name
            assert r.geq_applicable and r.geq_equality, name
            assert r.geq_equality_matches_dual_null, name
            assert r.dual_links_all_spheres, name
            assert r.double_counting_holds, name
        r = euler_identity_report(
            complexes["torus-7"], canonical_rotation_system(complexes["torus-7"]), 2
        )
        assert r.lhs == -2
        assert r.z_d - r.z_c == -2 and r.cycle_space_identity_holds
        assert r.dual_links_all_spheres is False
        assert r.double_counting_holds


@pytest.mark.slow
def test_criterion_3_randomized_suite(corpus):
    with criterion(3, "randomized identity suite"):
        t0 = time.time()
        assert len(corpus) >= 500, f"only {len(corpus)} instances"
        assert all(len(c.vertices) <= 8 for c in corpus)
        implication_hits = 0
        sigma_checked = 0
        eligible = 0
        for c in corpus:
            check_chain_condition(c)
            implication_hits += check_is_loc_con_implication(c, (2, 3))
            if c.is_connected() and is_locally_connected(c)[0]:
                eligible += 1
                null_prime = next(
                    (p for p in (2, 3) if is_p_nullhomologous(c, p)), None
                )
                sigma_checked += check_identities_per_sigma(
                    c, cap=SIGMA_CAP, null_prime=null_prime
                )
        elapsed = time.time() - t0
        print(
            f"  [criterion 3] {len(corpus)} instances, {eligible} eligible, "
            f"{sigma_checked} rotation systems, "
            f"{implication_hits} implication hits, {elapsed:.1f}s"
        )
        assert eligible >= 100
        assert sigma_checked >= 10_000
        assert implication_hits >= 20
        assert elapsed <= 300, f"suite took {elapsed:.1f}s > 5 min"


def test_criterion_4_search_oracle_equivalence(complexes):
    from test_search import brute_force_planar_count

    with criterion(4, "search oracle equivalence"):
        expected = {
            "tetrahedron": 1,
            "book3": 2,
            "triangle": 1,
            "bowtie": 1,
            "cone-k5": 0,
            "rp2-6": 1,
            "torus-7": 1,
        }
        for name, count in expected.items():
            c = complexes[name]
            assert total_search_space(c) <= 10**6, name
            pruned = search_planar_rotation_system(c, "count")
            oracle = brute_force_planar_count(c)
            assert pruned.count == oracle == count, name


def test_criterion_5_null_planar_surfaces_are_spheres(corpus):
    with criterion(5, "local surfaces of null complexes"):
        hits = 0
        for c in corpus:
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
                assert s.genus == 0
        print(f"  [criterion 5] checked {hits} instances")
        assert hits >= 50


def test_criterion_6_klein_words():
    with criterion(6, "Klein-bottle crossing words"):
        assert klein_word_admissible((1, 2)) is not None
        assert klein_word_admissible((1, 1, 2)) is not None
        assert klein_word_admissible((1, 2, 2)) is None
        assert klein_word_admissible((1, 1, 1, 2)) is None


def test_criterion_7_pi1_soundness(complexes):
    with criterion(7, "pi1 heuristic soundness"):
        assert pi1_trivial_heuristic(complexes["rp2-6"]).status == "unknown"
        assert pi1_trivial_heuristic(complexes["torus-7"]).status == "unknown"
        assert pi1_trivial_heuristic(complexes["tetrahedron"]).status == "trivial"
