"""Record the canonical CLI outputs on the fixtures as golden files.

Run as a script to (re)write tests/golden/: one file per fixture and
command, the same for the two general inputs of ``GENERAL_INPUTS``
(written to tests/golden/inputs/), and one per fixture-free command
(``words``, ``gen``), holding its stdout byte for byte, and
``exit_codes.json`` with each command's exit code.
``test_golden_outputs.py`` replays the same commands and compares.
It also writes ``sign-loops-16.json`` to tests/golden/inputs/ with its
``STALL_COMMANDS`` outputs, which ``test_cli.py`` replays in a fresh
interpreter under a timeout, and ``broken-trail.json`` with the stderr
of its ``validate``.
Rewrite the files only for a deliberate change of the output contract.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

from general_pieces import GENERAL_PIECES, complex_from_lists, glued
from make_fixtures import BUILDERS, FIXTURE_DIR, write_all

from rotsys import emit_complex
from rotsys.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
INPUT_DIR = GOLDEN_DIR / "inputs"

# stands for the fixture's least vertex label in an argument list
LEAST_VERTEX = object()

# golden file suffix -> (CLI arguments before the input path, after it)
COMMANDS = {
    "prs-find": (["prs", "find"], []),
    "prs-count": (["prs", "count"], []),
    "gprs-find": (["gprs", "find"], []),
    "verdict": (["verdict"], ["--primes", "2,3"]),
    "surfaces": (["surfaces"], []),
    "dual": (["dual"], []),
    "identities-p2": (["identities"], ["--prime", "2"]),
    "links": (["links"], []),
    "validate": (["validate"], []),
    "homology-p2": (["homology"], ["--prime", "2"]),
    "homology-integral": (["homology"], ["--integral"]),
    "homology-p3": (["homology"], ["--prime", "3"]),
    "identities-p3": (["identities"], ["--prime", "3"]),
    "dot": (["dot"], []),
    "links-dot": (["links"], ["--vertex", LEAST_VERTEX, "--dot"]),
}

# commands whose output is DOT, not JSON
DOT_OUTPUTS = {"dot", "links-dot"}

# inputs a command is not recorded on: the identities need a connected,
# locally connected complex, and the links of bowtie at v and of
# glued-general at 0.z are disconnected
SKIPPED = {
    "identities-p2": {"bowtie", "glued-general"},
    "identities-p3": {"bowtie", "glued-general"},
}

# golden file name -> argv of the commands that read no fixture
FIXTURE_FREE = {
    "words.1-2-2.json": ["words", "--windings", "1,2,2"],
    "words.1-1-2.json": ["words", "--windings", "1,1,2"],
    "words.1-1-2-linear.json": ["words", "--windings", "1,1,2", "--linear"],
    "gen.seed0-v6.json": ["gen", "--seed", "0", "--vertices", "6"],
    "gen.seed7-v5-p0.6.json": ["gen", "--seed", "7", "--vertices", "5", "--prob", "0.6"],
}


def torus7_dual() -> str:
    """The dual of torus-7 as ``rotsys dual`` prints it: a general complex
    whose 14 edges each lie in three faces, carrying its sigma."""
    return run_cli(["dual", str(FIXTURE_DIR / "torus-7.json")])[1]


def glued_general() -> str:
    """Three pieces of ``general_pieces`` glued at vertices: a loop that
    bounds a one-vertex face, a bigon, whose edges each lie in one face,
    and a face that passes one vertex twice."""
    pieces = [GENERAL_PIECES[i] for i in (0, 2, 3)]
    return emit_complex(glued(random.Random(0), pieces))


# general inputs beside the fixtures: name -> the builder of its document
GENERAL_INPUTS = {"torus-7-dual": torus7_dual, "glued-general": glued_general}


# face i of sign-loops-16 runs over the loops of row i in column order,
# along a loop at "+" and against it at "-"
SIGN_ROWS = """
0--0-0++00-+-0-0 ++-+--00--0+0+00 -++-+0+--0-000-- 0+---+-0+0+-+0++
-0-0+-+000+-+0-+ 00+0--00+-+++-++ --+--+--00-0-++0 -00++--++-0--0++
0+0-+++00+--0--- 00++-0-+0-00-+++ ++0-++-00+-00-0+ +-+++00++00++++-
+---0--+00++0++0 --+-++0+-++0-0-+ 0++-+0+-0--0+-+- +0++000++0--0-+-
""".split()


def sign_loops_16() -> str:
    """One vertex, 16 loops and 16 faces read off ``SIGN_ROWS``: a valid
    complex whose d2 leaves a 7 x 7 block without a unit pivot, entries
    up to 504.  H_1 is Z/16898, so F_2 homology reads rank 15 off it."""
    loops = [f"e{j:02d}" for j in range(16)]
    faces = [
        (f"f{i:02d}", [(e, 1 if x == "+" else -1) for e, x in zip(loops, row) if x != "0"])
        for i, row in enumerate(SIGN_ROWS)
    ]
    return emit_complex(complex_from_lists("general", ["v"], [(e, "v", "v") for e in loops], faces))


# golden file suffix -> argv on sign-loops-16, two commands that an
# elimination without a bound on its entries did not finish.  The input
# stays out of ``inputs()``: the digest corpus draws the sigma files of
# those inputs from one random stream, which one more would shift
STALL_INPUT = INPUT_DIR / "sign-loops-16.json"
STALL_COMMANDS = {
    "homology-integral": ["homology", str(STALL_INPUT), "--integral"],
    "homology-p2": ["homology", str(STALL_INPUT), "--prime", "2"],
}


# a face whose trail has a gap after its last ref and another further
# on, so that `validate` must name the last ref and the first; kept out
# of ``inputs()`` for the same reason, its stderr is the golden
BROKEN_TRAIL_INPUT = INPUT_DIR / "broken-trail.json"
BROKEN_TRAIL_ARGV = ["validate", str(BROKEN_TRAIL_INPUT)]
BROKEN_TRAIL_ERR = GOLDEN_DIR / "broken-trail.validate.err"


def broken_trail() -> str:
    edges = [("x", "a", "b"), ("y", "b", "c"), ("z", "c", "a")]
    doc = {
        "kind": "general",
        "vertices": ["a", "b", "c"],
        "edges": [{"id": e, "tail": t, "head": h} for e, t, h in edges],
        "faces": [
            {
                "id": "f",
                "boundary": [
                    {"edge": "y", "dir": 1},
                    {"edge": "z", "dir": 1},
                    {"edge": "x", "dir": -1},
                ],
            }
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def inputs() -> list[tuple[str, Path]]:
    """(name, document path) of the fixtures, then of the general inputs."""
    return [(name, FIXTURE_DIR / f"{name}.json") for name in BUILDERS] + [
        (name, INPUT_DIR / f"{name}.json") for name in GENERAL_INPUTS
    ]


def cases() -> list[tuple[str, list[str]]]:
    """(golden file name, full argv) per input and command, then the
    fixture-free commands."""
    out = []
    for name, path in inputs():
        least = min(json.loads(path.read_text())["vertices"])
        for suffix, (before, after) in COMMANDS.items():
            if name in SKIPPED.get(suffix, ()):
                continue
            ext = "dot" if suffix in DOT_OUTPUTS else "json"
            after = [least if a is LEAST_VERTEX else a for a in after]
            out.append((f"{name}.{suffix}.{ext}", [*before, str(path), *after]))
    return out + list(FIXTURE_FREE.items())


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one ``rotsys`` run in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def write_golden() -> None:
    write_all()
    INPUT_DIR.mkdir(parents=True, exist_ok=True)
    for name, build in GENERAL_INPUTS.items():
        (INPUT_DIR / f"{name}.json").write_text(build())
    codes = {}
    for filename, argv in cases():
        code, out, err = run_cli(argv)
        if err:
            sys.exit(f"{filename}: unexpected stderr {err!r}")
        (GOLDEN_DIR / filename).write_text(out)
        codes[filename] = code
    (GOLDEN_DIR / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")
    STALL_INPUT.write_text(sign_loops_16())
    for suffix, argv in STALL_COMMANDS.items():
        (GOLDEN_DIR / f"sign-loops-16.{suffix}.json").write_text(run_cli(argv)[1])
    BROKEN_TRAIL_INPUT.write_text(broken_trail())
    BROKEN_TRAIL_ERR.write_text(run_cli(BROKEN_TRAIL_ARGV)[2])


if __name__ == "__main__":
    write_golden()
    print(f"wrote {len(cases())} golden outputs to tests/golden/")
