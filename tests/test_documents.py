"""The canonical writer against its definition: ``dump_canonical(doc)``
is ``json.dumps(doc, indent=2, ensure_ascii=False)`` plus a newline, and
json stays the oracle here."""

import json
from collections import OrderedDict
from enum import IntEnum

import pytest
from hypothesis import given, settings, strategies as st

from rotsys.documents import dump_canonical


def oracle(doc):
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


class Label(str):
    pass


class Count(int):
    def __repr__(self):
        return "Count()"


class Ratio(float):
    def __repr__(self):
        return "Ratio()"


class Level(IntEnum):
    LOW = 1
    HIGH = 2


# quotes, backslashes, control characters, the JavaScript line
# separators and text past ASCII, mixed with any character
SPECIAL = '"\\/\x00\x01\x08\t\n\x0c\r\x1f\x7f  é漢😀'
texts = st.text(alphabet=st.one_of(st.sampled_from(SPECIAL), st.characters()), max_size=12)
ints = st.one_of(st.integers(-5, 5), st.integers(), st.integers(-(2**200), 2**200))
scalars = st.one_of(
    st.none(),
    st.booleans(),
    ints,
    st.floats(),  # nan and both infinities included
    texts,
    texts.map(Label),
    ints.map(Count),
    st.floats().map(Ratio),
    st.sampled_from(Level),
)
keys = st.one_of(texts, ints, st.booleans(), st.none(), st.floats())
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(keys, inner, max_size=4),
        st.dictionaries(texts, inner, max_size=4).map(OrderedDict),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(values)
def test_the_writer_writes_what_json_dumps_writes(doc):
    assert dump_canonical(doc) == oracle(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [],
        (),
        {"a": [], "b": {}, "c": [[], [{}]]},
        {"planar": True, "count": 1, "flags": [False, 0, 1, True, None]},
        {1: "one", True: "t", None: "n", 2.5: "f", float("nan"): "nan", False: 0},
        [float("inf"), -float("inf"), float("nan"), -0.0, 1e300, 5e-324],
        {"big": 2**100, "neg": -(2**70)},
        {"text": 'q"b\\c\x00\x1f  é'},
        {"enum": Level.HIGH, "sub": Count(3), "str": Label("x"), "float": Ratio(0.5)},
    ],
)
def test_the_writer_on_chosen_documents(doc):
    assert dump_canonical(doc) == oracle(doc)


# what json rejects, as a value or as a key, anywhere in a document
rejected_values = st.sampled_from([object(), {1, 2}, b"bytes", 1j, frozenset()])
rejected_keys = st.sampled_from([(1, 2), frozenset(), b"k", 1j])


@st.composite
def rejected_documents(draw):
    bad = draw(
        st.one_of(
            rejected_values,
            st.builds(lambda k, v: {k: v}, rejected_keys, scalars),
        )
    )
    before = draw(st.lists(scalars, max_size=3))
    after = draw(st.lists(scalars, max_size=3))
    doc = before + [bad] + after
    for wrap in draw(st.lists(st.sampled_from(["list", "tuple", "dict"]), max_size=3)):
        doc = {"x": doc} if wrap == "dict" else [doc] if wrap == "list" else (doc,)
    return doc


@settings(max_examples=100, deadline=None)
@given(rejected_documents())
def test_what_json_rejects_the_writer_rejects_alike(doc):
    with pytest.raises(TypeError) as want:
        oracle(doc)
    with pytest.raises(TypeError) as got:
        dump_canonical(doc)
    assert str(got.value) == str(want.value)
