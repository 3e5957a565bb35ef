"""Fuzz the CLI with mutated documents: every command ends with exit
0, 1 or 2 and never with a Python traceback.

Hypothesis mutates the small fixtures, a few general complexes and
their rotation-system documents (entries dropped, duplicated or
retyped, ``tail`` and ``head`` swapped, ``dir`` flipped, lists
shuffled) up to three times, the unmutated documents included, and
runs every subcommand that reads them through ``cli.main`` in-process,
so an uncaught exception fails the test.
"""

import contextlib
import copy
import io
import json
import random

from hypothesis import HealthCheck, given, settings, strategies as st

from rotsys.cli import main
from rotsys.documents import emit_complex, parse_complex, sigma_to_doc
from rotsys.rotation import canonical_rotation_system

from general_pieces import GENERAL_PIECES, glued

FIXTURES = ("triangle", "bowtie", "tetrahedron", "book3")
# glued from the pieces with a loop and a one-vertex face (0), a bigon
# (2) and a face that passes a vertex twice (3)
GENERAL = {
    f"general-{k}": emit_complex(glued(random.Random(k), [GENERAL_PIECES[i] for i in ids]))
    for k, ids in enumerate([(3,), (0, 2, 3), (3, 0, 3, 2)])
}
CAP = "50"

# (subcommand and options, whether it takes --sigma)
COMMANDS = [
    (["validate"], False),
    (["links"], False),
    (["prs", "find", "--cap", CAP], False),
    (["prs", "count", "--cap", CAP], False),
    (["gprs", "find", "--cap", CAP], False),
    (["surfaces"], True),
    (["dual"], True),
    (["identities", "--prime", "2"], True),
    (["homology", "--prime", "3"], False),
    (["homology", "--integral"], False),
    (["verdict", "--primes", "2,3"], False),
    (["dot"], False),
]

ODD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 2),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.just([]),
    st.just({}),
    st.lists(st.integers(-1, 1), max_size=2),
)


def _nodes(doc, path=()):
    """Every (path, value) in a JSON document, the root first."""
    yield path, doc
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutate(data, doc):
    """Apply one drawn mutation to ``doc`` in place."""
    nodes = list(_nodes(doc))
    strings = [v for _, v in nodes if isinstance(v, str)]
    values = st.one_of(ODD_VALUES, st.sampled_from(strings)) if strings else ODD_VALUES
    op = data.draw(st.sampled_from(["drop", "duplicate", "retype", "swap", "flip", "shuffle"]))
    if op in ("drop", "retype"):
        if len(nodes) < 2:
            return
        path, _ = data.draw(st.sampled_from(nodes[1:]))
        parent, key = _at(doc, path[:-1]), path[-1]
        if op == "drop":
            del parent[key]
        else:
            parent[key] = data.draw(values)
        return
    if op == "duplicate":
        lists = [(p, v) for p, v in nodes if isinstance(v, list) and v]
        if lists:
            _, seq = data.draw(st.sampled_from(lists))
            entry = copy.deepcopy(data.draw(st.sampled_from(seq)))
            seq.insert(data.draw(st.integers(0, len(seq))), entry)
        return
    if op == "shuffle":
        lists = [v for _, v in nodes if isinstance(v, list) and len(v) > 1]
        if lists:
            seq = data.draw(st.sampled_from(lists))
            seq[:] = data.draw(st.permutations(seq))
        return
    wanted = ("tail", "head") if op == "swap" else ("dir",)
    entries = [v for _, v in nodes if isinstance(v, dict) and all(k in v for k in wanted)]
    if entries:
        entry = data.draw(st.sampled_from(entries))
        if op == "swap":
            entry["tail"], entry["head"] = entry["head"], entry["tail"]
        else:
            entry["dir"] = -entry["dir"] if isinstance(entry["dir"], int) else 1


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data(), name=st.sampled_from(FIXTURES + tuple(GENERAL)))
def test_mutated_documents_never_end_in_a_traceback(data, name, fixture_files, tmp_path):
    text = GENERAL.get(name) or (fixture_files / f"{name}.json").read_text()
    complex_doc = json.loads(text)
    sigma_doc = sigma_to_doc(canonical_rotation_system(parse_complex(text)))
    mutate_complex = data.draw(st.booleans())
    for _ in range(data.draw(st.integers(0, 3))):
        _mutate(data, complex_doc if mutate_complex else sigma_doc)
    complex_path = tmp_path / "complex.json"
    sigma_path = tmp_path / "sigma.json"
    complex_path.write_text(json.dumps(complex_doc))
    sigma_path.write_text(json.dumps(sigma_doc))
    for command, takes_sigma in COMMANDS:
        if not (mutate_complex or takes_sigma):
            continue
        argv = command[:2] if command[0] in ("prs", "gprs") else command[:1]
        argv = argv + [str(complex_path)] + command[len(argv):]
        if takes_sigma:
            argv += ["--sigma", str(sigma_path)]
        code, err = _run(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
