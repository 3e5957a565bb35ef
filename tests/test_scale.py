"""Large complexes as a contract: ``verdict --primes 2,3``, ``prs find``
and ``gprs find`` through ``cli.main`` on the 60x60 grid torus and Klein
bottle, 3,600 vertices and 7,200 faces each.  Each stdout is pinned by
its sha256 and each exit code as recorded, and each command's CPU time
is bounded at 3x the slowest of three runs of the pair (Python 3.11.7,
2 CPUs).  With ``-s`` each run prints its stage split: parsing the
input, the command itself and writing the output document.

    pytest tests/test_scale.py -v -s
"""

import contextlib
import hashlib
import io
import time

import pytest

import make_fixtures
from rotsys import cli, emit_complex

# (surface, argv): exit code, sha256 of stdout
PINS = {
    ("torus", "verdict --primes 2,3"): (
        2,
        "ee6178a6dae68d5af729919280d015ec28924a2bf27a3c5290a596d9989410b4",
    ),
    ("torus", "prs find"): (
        0,
        "7f6d594b7cc39fa5648793a15714dcd6006430ae31a55db1d5e24a0e391bf6e3",
    ),
    ("torus", "gprs find"): (
        0,
        "3a0bb0c5d03b8e1ac5b758056f0bd94258c8dbb6b746d9a6cb5f17f9250bef46",
    ),
    ("klein", "verdict --primes 2,3"): (
        2,
        "2ae3dfc58da476eb721fc0dc0325a730ed03e6400b05e27b19c7911c1e7502da",
    ),
    ("klein", "prs find"): (
        0,
        "57ce8f5efc3402e1da2d9bc2a1ea5c28e752b3191e603d88703efd117d05f976",
    ),
    ("klein", "gprs find"): (
        0,
        "9d5e39461cd659332da987e2799590a571cce87c2997908f0e28d308896e2864",
    ),
}
# seconds of CPU: 3x 0.89, 0.67 and 0.75 s
CPU_BOUND = {"verdict --primes 2,3": 2.7, "prs find": 2.0, "gprs find": 2.2}


@pytest.fixture(scope="module")
def grid_documents(tmp_path_factory):
    root = tmp_path_factory.mktemp("grids")
    paths = {}
    for surface, twisted in (("torus", False), ("klein", True)):
        c = make_fixtures._grid_surface(60, twisted)
        assert c.counts() == (3600, 10800, 7200)
        paths[surface] = root / f"{surface}-60.json"
        paths[surface].write_text(emit_complex(c))
    return paths


def timed(spent, stage, fn):
    def wrapper(*args, **kwargs):
        start = time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[stage] += time.process_time() - start

    return wrapper


@pytest.mark.slow
@pytest.mark.parametrize("surface, command", sorted(PINS), ids=" ".join)
def test_60x60_grid_surface(surface, command, grid_documents, monkeypatch):
    spent = {"parse": 0.0, "emit": 0.0}
    monkeypatch.setattr(cli, "parse_complex", timed(spent, "parse", cli.parse_complex))
    monkeypatch.setattr(cli, "dump_canonical", timed(spent, "emit", cli.dump_canonical))
    out, err = io.StringIO(), io.StringIO()
    start = time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(command.split() + [str(grid_documents[surface])])
    total = time.process_time() - start
    print(
        f"  [scale] {surface}-60 {command}: parse {spent['parse']:.2f} s, "
        f"command {total - spent['parse'] - spent['emit']:.2f} s, "
        f"emit {spent['emit']:.2f} s, total {total:.2f} s"
    )
    assert err.getvalue() == ""
    assert (code, hashlib.sha256(out.getvalue().encode()).hexdigest()) == PINS[
        surface, command
    ]
    assert total < CPU_BOUND[command], f"{total:.2f} s of CPU"
