"""Record the canonical CLI outputs on the fixtures as golden files.

Run as a script to (re)write tests/golden/: one file per fixture and
command, and one per fixture-free command (``words``, ``gen``), holding
its stdout byte for byte, and ``exit_codes.json`` with each command's
exit code.  ``test_golden_outputs.py`` replays the same commands and
compares.  Rewrite the files only for a deliberate change of the output
contract.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from make_fixtures import BUILDERS, FIXTURE_DIR, write_all

from rotsys.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

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

# fixtures a command is not recorded on: the identities need a connected,
# locally connected complex, and the link of bowtie at v is disconnected
SKIPPED = {"identities-p2": {"bowtie"}, "identities-p3": {"bowtie"}}

# golden file name -> argv of the commands that read no fixture
FIXTURE_FREE = {
    "words.1-2-2.json": ["words", "--windings", "1,2,2"],
    "words.1-1-2.json": ["words", "--windings", "1,1,2"],
    "words.1-1-2-linear.json": ["words", "--windings", "1,1,2", "--linear"],
    "gen.seed0-v6.json": ["gen", "--seed", "0", "--vertices", "6"],
    "gen.seed7-v5-p0.6.json": ["gen", "--seed", "7", "--vertices", "5", "--prob", "0.6"],
}


def cases() -> list[tuple[str, list[str]]]:
    """(golden file name, full argv) per fixture and command, then the
    fixture-free commands."""
    out = []
    for name, build in BUILDERS.items():
        path, least = str(FIXTURE_DIR / f"{name}.json"), min(build().vertices)
        for suffix, (before, after) in COMMANDS.items():
            if name in SKIPPED.get(suffix, ()):
                continue
            ext = "dot" if suffix in DOT_OUTPUTS else "json"
            after = [least if a is LEAST_VERTEX else a for a in after]
            out.append((f"{name}.{suffix}.{ext}", [*before, path, *after]))
    return out + list(FIXTURE_FREE.items())


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one ``rotsys`` run in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def write_golden() -> None:
    write_all()
    GOLDEN_DIR.mkdir(exist_ok=True)
    codes = {}
    for filename, argv in cases():
        code, out, err = run_cli(argv)
        if err:
            sys.exit(f"{filename}: unexpected stderr {err!r}")
        (GOLDEN_DIR / filename).write_text(out)
        codes[filename] = code
    (GOLDEN_DIR / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")


if __name__ == "__main__":
    write_golden()
    print(f"wrote {len(cases())} golden outputs to tests/golden/")
