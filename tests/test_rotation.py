import itertools

import pytest
from hypothesis import given, strategies as st

from rotsys.documents import sigma_to_doc
from rotsys.errors import InvalidRotationSystemError
from rotsys.rotation import (
    canonical_cycle,
    canonical_rotation_system,
    enumerate_rotation_systems,
    rotation_system_from_face_lists,
    sigma_candidates,
    total_search_space,
)


@given(st.lists(st.integers(-5, 5), max_size=8))
def test_canonical_cycle_is_rotation_invariant(xs):
    xs = tuple(xs)
    for k in range(max(1, len(xs))):
        assert canonical_cycle(xs[k:] + xs[:k]) == canonical_cycle(xs)


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=8))
def test_canonical_cycle_is_a_rotation_of_input(xs):
    xs = tuple(xs)
    rotations = {xs[k:] + xs[:k] for k in range(len(xs))}
    assert canonical_cycle(xs) in rotations
    assert canonical_cycle(xs) == min(rotations)


def test_cyclic_equal():
    assert canonical_cycle((1, 2, 3)) == canonical_cycle((3, 1, 2))
    assert canonical_cycle((1, 2, 3)) != canonical_cycle((1, 3, 2))


def test_sigma_candidates_counts():
    assert list(sigma_candidates([])) == [()]
    assert list(sigma_candidates(["f1"])) == [()]
    assert len(list(sigma_candidates(["f1", "f2"]))) == 1
    assert len(list(sigma_candidates(["f1", "f2", "f3"]))) == 2
    assert len(list(sigma_candidates(["f1", "f2", "f3", "f4"]))) == 6


def test_sigma_candidates_fix_least_first():
    cands = list(sigma_candidates(["f2", "f3", "f1"]))
    assert all(cand[0] == "f1" for cand in cands)
    # lexicographic order over the permuted remainder
    assert cands == sorted(cands)


def test_total_search_space_fixtures(complexes):
    assert total_search_space(complexes["tetrahedron"]) == 1
    assert total_search_space(complexes["book3"]) == 2
    assert total_search_space(complexes["cone-k5"]) == 6**5


def test_enumerate_rotation_systems_book3(complexes):
    c = complexes["book3"]
    systems = list(enumerate_rotation_systems(c))
    assert len(systems) == 2
    assert sigma_to_doc(systems[0]) != sigma_to_doc(systems[1])
    assert list(enumerate_rotation_systems(c, cap=1)) == systems[:1]


def test_rotation_system_from_face_lists_roundtrip(complexes):
    c = complexes["book3"]
    sigma = rotation_system_from_face_lists(
        c, {"v-w": ["a-v-w", "c-v-w", "b-v-w"]}
    )
    assert sigma.sigma["v-w"] == ("a-v-w", "c-v-w", "b-v-w")
    # forced edges are filled in
    assert sigma.sigma["a-v"] == ()


def test_rotation_system_rejects_bad_lists(complexes):
    c = complexes["book3"]
    with pytest.raises(InvalidRotationSystemError):
        rotation_system_from_face_lists(c, {"v-w": ["a-v-w", "b-v-w"]})
    with pytest.raises(InvalidRotationSystemError):
        rotation_system_from_face_lists(c, {"nope": []})
    with pytest.raises(InvalidRotationSystemError):
        rotation_system_from_face_lists(c, {"a-v": ["a-v-w"]})


def test_canonical_rotation_system_two_cycle_unique(complexes):
    c = complexes["tetrahedron"]
    sigma = canonical_rotation_system(c)
    for e, order in sigma.sigma.items():
        assert len(order) == 2
    # the unique system equals the single enumerated one
    (only,) = list(enumerate_rotation_systems(c))
    assert sigma_to_doc(only) == sigma_to_doc(sigma)


def test_enumeration_is_lexicographic(complexes):
    c = complexes["cone-k5"]
    seen = []
    for sigma in itertools.islice(enumerate_rotation_systems(c), 50):
        seen.append(tuple(sigma.sigma[e] for e in sorted(sigma.sigma)))
    assert seen == sorted(seen)
