"""The CLI's bytes on a broad corpus, by digest.

The goldens keep readable outputs for nine inputs.  This module runs the
same commands (``make_golden.COMMANDS``) on 100 and more documents, and
``surfaces``, ``dual`` and ``identities --prime 2`` with valid and
malformed sigma files, and compares the sha256 of each case's stdout,
stderr and exit code with the table in tests/golden/digests.json:

- the fixtures and the two general golden inputs;
- randgen complexes of 5 to 7 vertices, their face counts bounded as in
  the benchmark's generalized searches;
- gluings of ``GENERAL_PIECES`` and ``LOOP_PIECES`` (loops, one-vertex
  faces, faceless edges, isolated pieces), some with a randgen piece,
  and ``MIXED_TORSION``;
- the 4 x 4 and 5 x 5 grid tori and Klein bottles.

Every document and sigma file is built from in-repo builders and fixed
seeds.  Run as a script, it prints each case whose digest moved;

    PYTHONPATH=src python tests/test_digest_corpus.py --write

re-records the table.  Re-record it only for a deliberate change of the
output contract, and list what moved.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

from general_pieces import GENERAL_PIECES, LOOP_PIECES, MIXED_TORSION, glued
from make_fixtures import _grid_surface
from make_golden import COMMANDS, GOLDEN_DIR, LEAST_VERTEX, inputs, run_cli

from rotsys import GenParams, emit_complex, generate_random_complex, parse_complex
from rotsys.errors import RotsysError

TABLE = GOLDEN_DIR / "digests.json"

# the largest face count per vertex count, as the benchmark runs its
# generalized search (perfbench/workloads.py, GPRS_MAX_FACES)
MAX_FACES = {5: 8, 6: 9, 7: 9}
RANDGEN_PER_N = 20
GLUED = 36

# the commands that read a sigma file, with the arguments after it
SIGMA_COMMANDS = {
    "surfaces": (["surfaces"], []),
    "dual": (["dual"], []),
    "identities-p2": (["identities"], ["--prime", "2"]),
}


def documents() -> dict[str, str]:
    """Each document of the corpus by name, as its text."""
    docs = {name: path.read_text() for name, path in inputs()}
    for n, most in MAX_FACES.items():
        for i in range(RANDGEN_PER_N):
            faces = 2 + i % (most - 1)
            c = generate_random_complex(GenParams(seed=100 * n + i, n_vertices=n, target_faces=faces))
            docs[f"randgen-v{n}-{i}"] = emit_complex(c)
    rng = random.Random(22)
    for i in range(GLUED):
        pieces = rng.choices(GENERAL_PIECES + LOOP_PIECES, k=rng.randint(1, 4))
        if i % 2:
            params = GenParams(seed=i, n_vertices=4, target_faces=rng.randint(1, 4))
            pieces.append(generate_random_complex(params))
        docs[f"glued-{i}"] = emit_complex(glued(rng, pieces, 0.1))
    docs["mixed-torsion"] = emit_complex(MIXED_TORSION)
    for n in (4, 5):
        for kind in ("torus", "klein"):
            docs[f"{kind}-{n}"] = emit_complex(_grid_surface(n, kind == "klein"))
    return docs


def sigma_files(rng: random.Random, text: str) -> dict[str, str]:
    """Two valid sigma files of a complex and one of each corruption
    that it admits, by name; none when the document is not a complex."""
    try:
        incidences = parse_complex(text).edge_incidences()
    except RotsysError:
        return {}
    multi = sorted(e for e, faces in incidences.items() if len(faces) >= 2)
    wide = [e for e in multi if len(incidences[e]) >= 3]
    single = sorted(e for e, faces in incidences.items() if len(faces) == 1)
    all_faces = sorted({f for faces in incidences.values() for f in faces})

    def valid() -> dict[str, list[str]]:
        # an edge in two faces may be left out, its order being forced
        orders = {}
        for e in multi:
            if len(incidences[e]) >= 3 or rng.random() < 0.5:
                orders[e] = rng.sample(incidences[e], len(incidences[e]))
        return orders

    out = {f"valid{k}": {"sigma": valid()} for k in range(2)}
    if multi:
        e = rng.choice(multi)
        broken = valid()
        broken[e] = incidences[e][1:]
        out["dropped"] = {"sigma": broken}
        broken = valid()
        broken[e] = [incidences[e][0], *incidences[e][:-1]]
        out["repeated"] = {"sigma": broken}
        foreign = [f for f in all_faces if f not in incidences[e]]
        if foreign:
            broken = valid()
            broken[e] = [rng.choice(foreign), *incidences[e][1:]]
            out["foreign"] = {"sigma": broken}
        broken = valid()
        broken[e] = ",".join(incidences[e])
        out["non-list"] = {"sigma": broken}
    if wide:
        broken = valid()
        del broken[rng.choice(wide)]
        out["missing"] = {"sigma": broken}
    if single:
        e = rng.choice(single)
        out["one-face"] = {"sigma": {**valid(), e: list(incidences[e])}}
    out["unknown-edge"] = {"sigma": {**valid(), "no-such-edge": []}}
    out["no-sigma-key"] = {"orders": valid()}
    return {name: json.dumps(doc, sort_keys=True) for name, doc in out.items()}


def cases(workdir: Path) -> list[tuple[str, list[str]]]:
    """(case id, argv) per document and command, then per document,
    sigma file and sigma command; writes the documents and sigma files
    to ``workdir``."""
    out = []
    rng = random.Random(9)
    for name, text in documents().items():
        path = workdir / f"{name}.json"
        path.write_text(text)
        least = min(json.loads(text)["vertices"])
        for suffix, (before, after) in COMMANDS.items():
            after = [least if a is LEAST_VERTEX else a for a in after]
            out.append((f"{name}/{suffix}", [*before, str(path), *after]))
        for sigma_name, sigma_text in sigma_files(rng, text).items():
            sigma_path = workdir / f"{name}.{sigma_name}.sigma.json"
            sigma_path.write_text(sigma_text)
            for suffix, (before, after) in SIGMA_COMMANDS.items():
                argv = [*before, str(path), "--sigma", str(sigma_path), *after]
                out.append((f"{name}/{sigma_name}/{suffix}", argv))
    return out


def digest(argv: list[str]) -> str:
    code, out, err = run_cli(argv)
    return hashlib.sha256(json.dumps([out, err, code]).encode()).hexdigest()


def digests(workdir: Path) -> dict[str, str]:
    return {case: digest(argv) for case, argv in cases(workdir)}


def test_cli_bytes_match_the_digest_table(tmp_path):
    recorded = json.loads(TABLE.read_text())
    got = digests(tmp_path)
    assert len({case.split("/")[0] for case in got}) >= 100
    moved = [case for case in got if got[case] != recorded.get(case)]
    assert sorted(got) == sorted(recorded)
    assert moved == [], f"{len(moved)} of {len(got)} cases moved, first {moved[:10]}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = digests(Path(tmp))
    if sys.argv[1:] == ["--write"]:
        TABLE.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
        print(f"wrote {len(table)} digests to {TABLE}")
    else:
        recorded = json.loads(TABLE.read_text())
        moved = sorted(set(table) ^ set(recorded) | {k for k in table if table[k] != recorded.get(k)})
        print("\n".join(moved) or f"all {len(table)} cases match")
        sys.exit(1 if moved else 0)
