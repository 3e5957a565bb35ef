import json

import pytest
from complexes_reference import check_trail
from hypothesis import example, given, strategies as st

from rotsys import (
    DirectedComplex,
    PreComplex,
    SignedEdgeRef,
    emit_complex,
    parse_complex,
    parse_precomplex,
    validate,
)
from rotsys.complexes import GENERAL
from rotsys.errors import (
    EmptyKindError,
    NonClosedTrailError,
    SimplicialViolationError,
    UnknownReferenceError,
)


def doc(kind, vertices, edges, faces):
    return json.dumps(
        {
            "kind": kind,
            "vertices": vertices,
            "edges": [{"id": e, "tail": t, "head": h} for e, t, h in edges],
            "faces": [
                {"id": f, "boundary": [{"edge": e, "dir": d} for e, d in trail]}
                for f, trail in faces
            ],
        }
    )


def test_parse_tetrahedron_counts(complexes):
    c = complexes["tetrahedron"]
    assert c.counts() == (4, 6, 4)


def test_parse_cone_k5_counts(complexes):
    c = complexes["cone-k5"]
    assert c.counts() == (6, 15, 10)
    assert c.kind == "simplicial"


def test_identifiers_and_trails_preserved_verbatim():
    text = doc(
        "general",
        ["b", "a"],
        [("e2", "a", "b"), ("e1", "b", "a")],
        [("f", [("e2", 1), ("e1", 1)])],
    )
    c = parse_complex(text)
    assert c.vertices == ("b", "a")
    assert list(c.edges) == ["e2", "e1"]
    assert c.faces["f"] == (SignedEdgeRef("e2", 1), SignedEdgeRef("e1", 1))


def test_non_closed_trail_rejected():
    # head(e1) != tail(e2)
    text = doc(
        "general",
        ["a", "b", "c"],
        [("e1", "a", "b"), ("e2", "c", "a"), ("e3", "b", "c")],
        [("f", [("e1", 1), ("e2", 1), ("e3", 1)])],
    )
    with pytest.raises(NonClosedTrailError):
        parse_complex(text)


def test_unknown_edge_reference_rejected():
    text = doc("general", ["a", "b"], [("e1", "a", "b")], [("f", [("nope", 1)])])
    with pytest.raises(UnknownReferenceError):
        parse_precomplex(text)


def test_unknown_vertex_reference_rejected():
    text = doc("general", ["a"], [("e1", "a", "b")], [])
    with pytest.raises(UnknownReferenceError):
        parse_precomplex(text)


def test_simplicial_loop_rejected():
    text = doc(
        "simplicial",
        ["a", "b", "c"],
        [("ab", "a", "b"), ("bc", "b", "c"), ("ac", "a", "c"), ("l", "a", "a")],
        [("f", [("ab", 1), ("bc", 1), ("ac", -1)]), ("g", [("l", 1)])],
    )
    with pytest.raises(SimplicialViolationError):
        parse_complex(text)


def test_faceless_edge_rejected_strict_but_allowed_pre():
    text = doc(
        "simplicial",
        ["a", "b", "c"],
        [("ab", "a", "b"), ("bc", "b", "c"), ("ac", "a", "c"), ("x", "a", "b")],
        [("f", [("ab", 1), ("bc", 1), ("ac", -1)])],
    )
    with pytest.raises((EmptyKindError, SimplicialViolationError)):
        parse_complex(text)
    pre = parse_precomplex(text)
    rules = [v.rule for v in validate(pre)]
    assert "EdgeWithoutFace" in rules
    assert "ParallelEdges" in rules


def test_validate_clean_fixtures(complexes):
    for c in complexes.values():
        assert validate(c) == []


def test_validate_duplicate_face():
    tri = [("ab", 1), ("bc", 1), ("ac", -1)]
    text = doc(
        "simplicial",
        ["a", "b", "c"],
        [("ab", "a", "b"), ("bc", "b", "c"), ("ac", "a", "c")],
        [("f1", tri), ("f2", tri)],
    )
    pre = parse_precomplex(text)
    assert any(v.rule == "DuplicateFace" for v in validate(pre))
    with pytest.raises(SimplicialViolationError):
        DirectedComplex.from_pre(pre)


def test_general_kind_allows_duplicate_support():
    tri = [("ab", 1), ("bc", 1), ("ac", -1)]
    text = doc(
        "general",
        ["a", "b", "c"],
        [("ab", "a", "b"), ("bc", "b", "c"), ("ac", "a", "c")],
        [("f1", tri), ("f2", tri)],
    )
    assert parse_complex(text).counts() == (3, 3, 2)


def test_fixtures_are_their_builders_output(complexes, fixture_files):
    for name, c in complexes.items():
        assert (fixture_files / f"{name}.json").read_text() == emit_complex(c), name


def test_round_trip_byte_exact(complexes, fixture_files):
    for name in complexes:
        text = (fixture_files / f"{name}.json").read_text()
        assert emit_complex(parse_complex(text)) == text


def test_emit_ignores_unknown_keys_on_parse(complexes):
    text = emit_complex(complexes["triangle"], extra={"sigma": {}})
    c = parse_complex(text)
    assert c.counts() == (3, 3, 1)


def test_face_trail_edge_repetition_rejected():
    text = doc(
        "general",
        ["a", "b"],
        [("e1", "a", "b"), ("e2", "b", "a")],
        [("f", [("e1", 1), ("e2", 1), ("e1", 1), ("e2", 1)])],
    )
    with pytest.raises(NonClosedTrailError):
        parse_precomplex(text)


# the trail guard of DirectedComplex.valid_by_construction, which the
# dual's builder uses, against the full structural check of PreComplex
GUARD_VERTICES = ("a", "b", "c")
GUARD_EDGES = {"x": ("a", "b"), "y": ("b", "c"), "z": ("c", "a"), "l": ("a", "a")}
CLOSED = (("x", 1), ("y", 1), ("z", 1))


def guard_faces(*trails):
    return {
        f"f{i}": tuple(SignedEdgeRef(e, s) for e, s in trail)
        for i, trail in enumerate(trails)
    }


def assert_guard_fails_like_the_full_check(faces):
    with pytest.raises(NonClosedTrailError) as want:
        PreComplex(GENERAL, GUARD_VERTICES, GUARD_EDGES, faces)
    with pytest.raises(NonClosedTrailError) as got:
        DirectedComplex.valid_by_construction(GENERAL, GUARD_VERTICES, GUARD_EDGES, faces)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "bad",
    [
        (),  # an empty trail
        (("x", 1), ("x", -1)),  # closed, but x twice
        (("x", 1), ("y", 1), ("x", 1)),  # x twice, and not closed
        (("x", 1), ("y", 1)),  # the first ref does not start where y ends
        (("x", 1), ("y", 1), ("l", 1)),  # the last ref does not start where y ends
    ],
    ids=["empty", "repeated", "repeated-open", "open-at-first", "open-at-last"],
)
def test_dual_trail_guard_fails_like_the_full_check(bad):
    assert_guard_fails_like_the_full_check(guard_faces(bad))
    # after a face that passes, naming the face that fails
    assert_guard_fails_like_the_full_check(guard_faces(CLOSED, bad))


@given(
    st.lists(
        st.lists(
            st.tuples(st.sampled_from(sorted(GUARD_EDGES)), st.sampled_from([1, -1])),
            max_size=5,
        ),
        min_size=1,
        max_size=3,
    )
)
def test_dual_trail_guard_decides_like_the_full_check(trails):
    faces = guard_faces(*trails)
    try:
        full = PreComplex(GENERAL, GUARD_VERTICES, GUARD_EDGES, faces)
    except NonClosedTrailError:
        assert_guard_fails_like_the_full_check(faces)
        return
    built = DirectedComplex.valid_by_construction(GENERAL, GUARD_VERTICES, GUARD_EDGES, faces)
    assert (built.kind, built.vertices, built.edges, built.faces) == (
        full.kind,
        full.vertices,
        full.edges,
        full.faces,
    )


def raised(check, *args):
    """The type and message of what ``check(*args)`` raises, or None."""
    try:
        check(*args)
    except (NonClosedTrailError, UnknownReferenceError) as exc:
        return type(exc), str(exc)
    return None


@example([[("y", 1), ("z", 1), ("x", -1)]])  # gaps after x, the last ref, and after z
@given(
    st.lists(
        st.lists(
            st.tuples(
                st.sampled_from([*sorted(GUARD_EDGES), "u"]),
                st.sampled_from([1, -1, 0, 2, True]),
            ),
            max_size=5,
        ),
        min_size=1,
        max_size=3,
    )
)
def test_one_pass_trail_check_raises_what_the_two_passes_raise(trails):
    """Each face's trail check raises the two-pass reference's error,
    type and message, on unknown edges, bad signs, repeated refs, gaps
    and empty trails, in PreComplex and, where the builder's guarantees
    hold (known edges, signs +1 or -1), in ``valid_by_construction``."""
    faces = guard_faces(*trails)
    want = next(
        filter(None, (raised(check_trail, GUARD_EDGES, f, t) for f, t in faces.items())),
        None,
    )
    assert raised(PreComplex, GENERAL, GUARD_VERTICES, GUARD_EDGES, faces) == want
    if all(e in GUARD_EDGES and type(s) is int and s in (1, -1) for t in trails for e, s in t):
        got = raised(
            DirectedComplex.valid_by_construction, GENERAL, GUARD_VERTICES, GUARD_EDGES, faces
        )
        assert got == want
