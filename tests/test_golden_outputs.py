"""The canonical CLI outputs stay byte for byte.

On the fixtures: ``prs find``, ``prs count``, ``gprs find`` (rotators
included), ``verdict --primes 2,3``, ``surfaces``, ``dual``,
``identities --prime 2`` and ``--prime 3`` (on the fixtures where they
apply), ``links``, ``validate``, ``homology --prime 2``, ``--prime 3``
and ``--integral``, ``dot`` and ``links --vertex <least vertex> --dot``.
The same commands on two general inputs: the dual of torus-7 and a
glued complex with a loop, a face that passes a vertex twice and edges
in one face.  Without a fixture: ``words`` and ``gen``.  Each against tests/golden/,
written by ``make_golden.py``: stdout, exit code and an empty stderr.
Each case runs with ``json.dumps`` made to raise, so every document the
CLI writes takes the canonical writer's own path, never json's.
"""

import json

import pytest

from make_golden import GOLDEN_DIR, cases, run_cli

EXIT_CODES = json.loads((GOLDEN_DIR / "exit_codes.json").read_text())


def test_every_case_has_a_golden_output():
    assert sorted(EXIT_CODES) == sorted(filename for filename, _ in cases())


@pytest.mark.parametrize("filename, argv", cases(), ids=[name for name, _ in cases()])
def test_output_matches_golden(filename, argv, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a CLI document reached json.dumps")

    monkeypatch.setattr(json, "dumps", refuse)
    code, out, err = run_cli(argv)
    assert err == ""
    assert code == EXIT_CODES[filename]
    assert out == (GOLDEN_DIR / filename).read_text()
