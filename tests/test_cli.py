import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from sympy import nextprime

import rotsys
from make_golden import (
    BROKEN_TRAIL_ARGV,
    BROKEN_TRAIL_ERR,
    BROKEN_TRAIL_INPUT,
    GOLDEN_DIR,
    STALL_COMMANDS,
    STALL_INPUT,
    broken_trail,
    sign_loops_16,
)
from rotsys.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def fx(fixture_files, name):
    return str(fixture_files / f"{name}.json")


def test_validate_ok(capsys, fixture_files):
    code, out, _ = run(capsys, "validate", fx(fixture_files, "tetrahedron"))
    assert code == 0
    assert json.loads(out) == {"violations": []}


def test_validate_reports_violations(tmp_path, capsys):
    doc = {
        "kind": "simplicial",
        "vertices": ["a", "b", "c"],
        "edges": [
            {"id": "ab", "tail": "a", "head": "b"},
            {"id": "bc", "tail": "b", "head": "c"},
            {"id": "ac", "tail": "a", "head": "c"},
            {"id": "dead", "tail": "a", "head": "b"},
        ],
        "faces": [
            {
                "id": "f",
                "boundary": [
                    {"edge": "ab", "dir": 1},
                    {"edge": "bc", "dir": 1},
                    {"edge": "ac", "dir": -1},
                ],
            }
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0  # decided: the report is the answer
    violations = json.loads(out)["violations"]
    assert "EdgeWithoutFace(dead)" in violations


def test_parse_error_exit_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 1
    assert "error" in err


def _triangle_doc():
    return {
        "kind": "simplicial",
        "vertices": ["a", "b", "c"],
        "edges": [
            {"id": "ab", "tail": "a", "head": "b"},
            {"id": "bc", "tail": "b", "head": "c"},
            {"id": "ac", "tail": "a", "head": "c"},
        ],
        "faces": [
            {
                "id": "f",
                "boundary": [
                    {"edge": "ab", "dir": 1},
                    {"edge": "bc", "dir": 1},
                    {"edge": "ac", "dir": -1},
                ],
            }
        ],
    }


def _set(path, value):
    """A mutation of the triangle document: set the entry at ``path``."""

    def mutate(doc):
        *parents, key = path
        for k in parents:
            doc = doc[k]
        doc[key] = value

    return mutate


BOUNDARY = ("faces", 0, "boundary")
BAD_DOCUMENTS = {
    "integer vertex ids": _set(("vertices",), [1, 2, 3]),
    "list edge id": _set(("edges", 0, "id"), ["ab"]),
    "string vertices, boolean dir": lambda doc: (
        _set(("vertices",), "abc")(doc),
        _set(BOUNDARY + (0, "dir"), True)(doc),
    ),
    "boolean dir": _set(BOUNDARY + (0, "dir"), True),
    "dir 2": _set(BOUNDARY + (0, "dir"), 2),
    "dir 1.0": _set(BOUNDARY + (0, "dir"), 1.0),
    "dir string": _set(BOUNDARY + (0, "dir"), "1"),
    "vertices object": _set(("vertices",), {"a": 1}),
    "edges object": _set(("edges",), {"ab": ["a", "b"]}),
    "faces string": _set(("faces",), "f"),
    "boundary object": _set(BOUNDARY, {"edge": "ab", "dir": 1}),
    "edge entry string": _set(("edges", 0), "ab"),
    "face entry list": _set(("faces", 0), ["f"]),
    "boundary step list": _set(BOUNDARY + (0,), ["ab", 1]),
    "integer tail": _set(("edges", 0, "tail"), 0),
    "null head": _set(("edges", 0, "head"), None),
    "integer face id": _set(("faces", 0, "id"), 7),
    "list boundary edge": _set(BOUNDARY + (0, "edge"), ["ab"]),
}


@pytest.mark.parametrize("name", sorted(BAD_DOCUMENTS))
def test_ill_typed_document_exit_1(name, tmp_path, capsys):
    doc = _triangle_doc()
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "validate", str(path))[0] == 0  # unmutated: valid
    BAD_DOCUMENTS[name](doc)
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


BAD_SIGMA_VALUES = {
    "integer": ("v-w", 5),
    "null": ("v-w", None),
    "object and integers": ("v-w", [{"a": 1}, 2, 3]),
    "null face id": ("v-w", ["a-v-w", "b-v-w", "c-v-w", None]),
    "string": ("v-w", "a-v-w"),
    "zero on a single-face edge": ("a-v", 0),
}


@pytest.mark.parametrize("name", sorted(BAD_SIGMA_VALUES))
def test_ill_typed_sigma_exit_1(name, tmp_path, capsys, fixture_files):
    edge, value = BAD_SIGMA_VALUES[name]
    sigma = {"v-w": ["a-v-w", "b-v-w", "c-v-w"]}
    path = tmp_path / "sigma.json"
    path.write_text(json.dumps({"sigma": sigma}))
    assert run(capsys, "surfaces", fx(fixture_files, "book3"), "--sigma", str(path))[0] == 0
    sigma[edge] = value
    path.write_text(json.dumps({"sigma": sigma}))
    code, out, err = run(capsys, "surfaces", fx(fixture_files, "book3"), "--sigma", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_usage_error_exit_1(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


def test_unknown_flag_rejected(capsys, fixture_files):
    code, _, err = run(
        capsys, "validate", fx(fixture_files, "tetrahedron"), "--frob"
    )
    assert code == 1


def test_verdict_exit_codes(capsys, fixture_files):
    code, out, _ = run(
        capsys, "verdict", fx(fixture_files, "tetrahedron"), "--primes", "2,3"
    )
    assert code == 0
    assert json.loads(out)["sphere3"] == "yes"

    code, out, _ = run(
        capsys, "verdict", fx(fixture_files, "rp2-6"), "--primes", "2,3"
    )
    assert code == 0
    assert json.loads(out)["sphere3"] == "no"

    code, out, _ = run(
        capsys, "verdict", fx(fixture_files, "torus-7"), "--primes", "2,3,5"
    )
    assert code == 2
    assert json.loads(out)["sphere3"] == "unknown"


def test_verdict_rejects_a_negative_tietze_budget(capsys, fixture_files):
    # cone-k5 has no planar rotation system, so no block reaches pi1:
    # the budget is checked before any block is
    for name in ("tetrahedron", "cone-k5"):
        argv = ("verdict", fx(fixture_files, name), "--primes", "2", "--tietze-budget", "-5")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), name
        assert err == "error: tietze budget must be >= 0, got -5\n", name
    path = fx(fixture_files, "tetrahedron")
    code, out, _ = run(capsys, "verdict", path, "--primes", "2", "--tietze-budget", "0")
    assert code == 2
    assert json.loads(out)["blocks"][0]["pi1"] == {
        "status": "unknown",
        "generators_before": 3,
        "generators_after": 2,
        "relators_before": 4,
        "relators_after": 3,
        "steps_used": 0,
        "budget": 0,
    }


def test_prs_count_book3(capsys, fixture_files):
    code, out, _ = run(capsys, "prs", "count", fx(fixture_files, "book3"))
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 2 and doc["total_space"] == 2


def test_prs_find_emits_sigma(capsys, fixture_files):
    code, out, _ = run(capsys, "prs", "find", fx(fixture_files, "tetrahedron"))
    doc = json.loads(out)
    assert doc["status"] == "found"
    assert len(doc["sigma"]) == 6


def test_homology_flags(capsys, fixture_files):
    code, out, _ = run(
        capsys, "homology", fx(fixture_files, "rp2-6"), "--prime", "2"
    )
    assert json.loads(out)["rank_d2"] == 9
    code, out, _ = run(capsys, "homology", fx(fixture_files, "rp2-6"), "--integral")
    doc = json.loads(out)
    assert doc["betti1"] == 0 and doc["torsion"] == [2]
    code, _, _ = run(capsys, "homology", fx(fixture_files, "rp2-6"))
    assert code == 1  # one of the two flags is required


def test_identities_report(capsys, fixture_files):
    code, out, _ = run(
        capsys, "identities", fx(fixture_files, "torus-7"), "--prime", "2"
    )
    doc = json.loads(out)
    assert doc["lhs"] == -2
    assert doc["Z_D"] - doc["Z_C"] == -2
    assert doc["dual_links_all_spheres"] is False


def test_surfaces_report(capsys, fixture_files):
    code, out, _ = run(capsys, "surfaces", fx(fixture_files, "rp2-6"))
    doc = json.loads(out)
    (s,) = doc["surfaces"]
    assert s["chi"] == 2 and s["genus"] == 0
    assert len(s["faces"]) == 20
    assert len(s["complex"]["vertices"]) == 12


def test_dual_output_feeds_other_commands(capsys, fixture_files, tmp_path):
    code, out, _ = run(capsys, "dual", fx(fixture_files, "torus-7"))
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "general"
    assert len(doc["vertices"]) == 2
    assert len(doc["edges"]) == 14
    assert len(doc["faces"]) == 21
    assert "sigma" in doc
    dual_path = tmp_path / "dual.json"
    dual_path.write_text(out)
    code, out2, _ = run(capsys, "homology", str(dual_path), "--prime", "2")
    assert code == 0
    assert json.loads(out2)["Z_C"] == 13  # Z_D of the torus


def test_gprs_find(capsys, fixture_files):
    code, out, _ = run(capsys, "gprs", "find", fx(fixture_files, "tetrahedron"))
    doc = json.loads(out)
    assert doc["status"] == "found" and doc["red_edges"] == []
    code, out, _ = run(capsys, "gprs", "find", fx(fixture_files, "cone-k5"))
    assert json.loads(out)["status"] == "exhausted"


def test_words_command(capsys):
    code, out, _ = run(capsys, "words", "--windings", "1,2,2")
    doc = json.loads(out)
    assert doc["admissible"] is False and doc["word"] is None
    code, out, _ = run(capsys, "words", "--windings", "1,1,2")
    assert json.loads(out)["admissible"] is True


def test_gen_deterministic(capsys):
    code, out1, _ = run(capsys, "gen", "--seed", "42", "--vertices", "6", "--prob", "0.5")
    code, out2, _ = run(capsys, "gen", "--seed", "42", "--vertices", "6", "--prob", "0.5")
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["kind"] == "simplicial"


def test_gen_seed1_complete_is_tetrahedron_like(capsys):
    code, out, _ = run(capsys, "gen", "--seed", "1", "--vertices", "4", "--prob", "1.0")
    doc = json.loads(out)
    assert len(doc["vertices"]) == 4
    assert len(doc["edges"]) == 6
    assert len(doc["faces"]) == 4


def test_gen_output_validates(capsys):
    code, out, _ = run(capsys, "gen", "--seed", "7", "--vertices", "6", "--prob", "0.5")
    from rotsys import parse_complex, validate

    c = parse_complex(out)
    assert validate(c) == []


def test_gen_refuses_nonsense_parameters(capsys):
    for prob in ("2", "nan"):
        code, out, err = run(capsys, "gen", "--seed", "0", "--vertices", "5", "--prob", prob)
        assert (code, out) == (1, "")
        assert err == f"error: face probability {float(prob)} is not in [0, 1]\n"


def test_words_refuses_too_many_letters(capsys):
    for argv, message in [
        (["--windings", "2,2,2,2,2,2,2"], "14 letters, more than the limit of 11"),
        (["--windings", "1,2,2,2,2,2", "--linear"], "11 letters, more than the limit of 10"),
    ]:
        code, out, err = run(capsys, "words", *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")


def test_gen_refuses_oversized_requests(capsys):
    code, out, err = run(capsys, "gen", "--seed", "0", "--vertices", "2000")
    assert code == 1 and out == ""
    assert err == (
        "error: 2000 vertices give 1331334000 candidate triangles, "
        "more than the limit of 1000000\n"
    )



def test_links_command(capsys, fixture_files):
    code, out, _ = run(
        capsys, "links", fx(fixture_files, "tetrahedron"), "--vertex", "v1"
    )
    doc = json.loads(out)
    assert len(doc["v1"]["vertices"]) == 3
    assert len(doc["v1"]["edges"]) == 3


def test_links_dot(capsys, fixture_files):
    code, out, _ = run(
        capsys, "links", fx(fixture_files, "cone-k5"), "--vertex", "apex", "--dot"
    )
    assert code == 0
    assert out.count(" -- ") == 10
    assert out.count(";") == 5 + 10


def _dot_link_edges(text):
    """The (label, [u, w]) of each edge line of a DOT link graph."""
    quoted = r'"((?:[^"\\]|\\.)*)"'
    line = re.compile(rf"^  {quoted} -- {quoted} \[label={quoted}\];$")
    edges = []
    for text_line in text.splitlines():
        m = line.match(text_line)
        if m:
            u, w, label = (re.sub(r"\\(.)", r"\1", g) for g in m.groups())
            edges.append((label, [u, w]))
    return edges


def test_links_dot_endpoints_match_the_json(capsys, fixture_files, tmp_path):
    """For every vertex of every fixture, and of general complexes with
    loops, ``links --vertex v --dot`` joins the link vertices that the
    ``links`` JSON names as each edge's endpoints, edge for edge."""
    from general_pieces import GENERAL_PIECES, LOOP_PIECES
    from make_fixtures import BUILDERS

    from rotsys import DirectedComplex, emit_complex
    from rotsys.errors import RotsysError

    paths = [fx(fixture_files, name) for name in BUILDERS]
    for k, piece in enumerate(GENERAL_PIECES + LOOP_PIECES):
        try:
            DirectedComplex.from_pre(piece)
        except RotsysError:
            continue  # not a complex the CLI accepts
        path = tmp_path / f"piece{k}.json"
        path.write_text(emit_complex(piece))
        paths.append(str(path))
    checked = loops = 0
    for path in paths:
        code, out, _ = run(capsys, "links", path)
        assert code == 0, path
        for v, link in json.loads(out).items():
            code, dot, _ = run(capsys, "links", path, "--vertex", v, "--dot")
            assert code == 0, (path, v)
            expected = [(e["label"], e["endpoints"]) for e in link["edges"]]
            assert _dot_link_edges(dot) == expected, (path, v)
            checked += len(expected)
            loops += any(":" in label for label in link["vertices"])
    assert checked >= 100 and loops >= 1


def test_links_dot_requires_vertex(capsys, fixture_files):
    code, _, err = run(capsys, "links", fx(fixture_files, "cone-k5"), "--dot")
    assert code == 1


def test_dot_command(capsys, fixture_files):
    code, out, _ = run(capsys, "dot", fx(fixture_files, "bowtie"))
    assert out.startswith("digraph")
    assert out.count(" -> ") == 6


def test_bowtie_link_dot_two_components(capsys, fixture_files):
    code, out, _ = run(
        capsys, "links", fx(fixture_files, "bowtie"), "--vertex", "v", "--dot"
    )
    assert out.count(" -- ") == 2  # two disjoint edges


def test_stdin_input(capsys, fixture_files, monkeypatch):
    import io

    text = (fixture_files / "triangle.json").read_text()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run(capsys, "validate")
    assert code == 0 and json.loads(out) == {"violations": []}


def test_round_trip_via_cli(capsys, fixture_files):
    # parse + re-emit is the identity on canonical documents
    from rotsys import emit_complex, parse_complex

    for name in ("tetrahedron", "torus-7", "cone-k5"):
        text = (fixture_files / f"{name}.json").read_text()
        assert emit_complex(parse_complex(text)) == text


def test_sigma_file_flow(capsys, fixture_files, tmp_path):
    # feed the sigma found by `prs find` into surfaces/identities
    code, out, _ = run(capsys, "prs", "find", fx(fixture_files, "book3"))
    sigma_doc = {"sigma": json.loads(out)["sigma"]}
    sigma_path = tmp_path / "sigma.json"
    sigma_path.write_text(json.dumps(sigma_doc))
    code, out, _ = run(
        capsys,
        "surfaces",
        fx(fixture_files, "book3"),
        "--sigma",
        str(sigma_path),
    )
    assert code == 0
    (s,) = json.loads(out)["surfaces"]
    assert s["genus"] == 0
    code, out, _ = run(
        capsys,
        "identities",
        fx(fixture_files, "book3"),
        "--prime",
        "3",
        "--sigma",
        str(sigma_path),
    )
    assert code == 0
    assert json.loads(out)["lhs"] == 0


def _nested(depth: int) -> str:
    return "[" * depth + "]" * depth


@pytest.mark.parametrize("depth", [1_100, 100_000])
@pytest.mark.parametrize("target", ["validate", "verdict", "surfaces --sigma"])
def test_deeply_nested_json_is_a_document_error(depth, target, tmp_path, fixture_files):
    """Nesting past the interpreter's recursion limit ends in one
    ``error:`` line and exit 1, in a fresh interpreter as a user runs it."""
    path = tmp_path / "deep.json"
    if target == "surfaces --sigma":
        path.write_text('{"sigma": ' + _nested(depth) + "}")
        argv = ["surfaces", fx(fixture_files, "book3"), "--sigma", str(path)]
    else:
        path.write_text('{"kind": "general", "vertices": ' + _nested(depth) + "}")
        argv = [target, str(path)] + (["--primes", "2"] if target == "verdict" else [])
    src = str(Path(rotsys.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "rotsys.cli", *argv],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("suffix", sorted(STALL_COMMANDS))
def test_homology_of_sign_loops_16_finishes(suffix):
    """``homology --integral`` and ``--prime 2`` on sign-loops-16, whose d2
    leaves a 7 x 7 block without a unit pivot, give their goldens in a
    fresh interpreter, under a timeout that fails a stall instead of
    hanging the suite."""
    assert STALL_INPUT.read_text() == sign_loops_16()
    src = str(Path(rotsys.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "rotsys.cli", *STALL_COMMANDS[suffix]],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src},
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (GOLDEN_DIR / f"sign-loops-16.{suffix}.json").read_text()


def test_validate_names_the_first_gap_of_a_broken_trail(capsys):
    """A face whose trail has a gap after its last ref and another
    further on: ``validate`` exits 1 and names the last ref and the
    first, the gap at index 0, as the console script must in CI."""
    assert BROKEN_TRAIL_INPUT.read_text() == broken_trail()
    code, out, err = run(capsys, *BROKEN_TRAIL_ARGV)
    assert (code, out) == (1, "")
    assert err == BROKEN_TRAIL_ERR.read_text() == "error: face 'f': refs 'x' and 'y' do not meet\n"


def test_verdict_decides_a_large_prime_quickly(capsys, fixture_files):
    start = time.process_time()
    code, out, _ = run(capsys, "verdict", fx(fixture_files, "rp2-6"), "--primes", str(nextprime(10**18)))
    assert time.process_time() - start < 1
    assert code == 0 and json.loads(out)["reasons"][-1] == f"MixedPrimeHomology({nextprime(10**18)},2)"


@pytest.mark.parametrize("command, option", [("homology", "--prime"), ("verdict", "--primes")])
def test_prime_beyond_the_primality_bound_exit_1(command, option, capsys, fixture_files):
    code, out, err = run(capsys, command, fx(fixture_files, "triangle"), option, str(10**25))
    assert code == 1 and out == ""
    bound = "3317044064679887385961981"
    assert err == f"error: {10**25} is too large: primality is decided only below {bound}\n"
