"""The functions the benchmark's traced run wraps keep their names.

``perfbench/spans.py`` looks every ``TARGETS`` entry of
``perfbench/layers.py`` up in its owner's ``__dict__``, so a refactor
that moves or renames one of them stops ``run.py --trace 1`` with a
``KeyError``.  The first test only reads ``layers``; the smoke tests
run each workload once, traced and untraced, for no timed pass beyond
the first.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _targets():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers  # imports its sibling ``spans`` by plain name
    finally:
        sys.path.remove(str(PERFBENCH))
    return layers.TARGETS


def test_every_traced_target_resolves():
    missing = []
    for where, attr, *_ in _targets():
        mod_name, _, cls_name = where.partition(":")
        owner = importlib.import_module(mod_name)
        if cls_name:
            owner = getattr(owner, cls_name)
        if not callable(owner.__dict__.get(attr)):
            missing.append(f"{where}.{attr}")
    assert missing == []


def _run(workload, trace):
    """The result document of ``run.py`` on ``workload`` for no timed
    pass beyond the first, after checking that it exits 0."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload]
        + ["--seconds", "0", "--trace", trace],
        cwd=PERFBENCH.parent,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


WORKLOADS = ["search-mix", "surface-verdict", "crosscheck"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_completes(workload):
    """``run.py --trace 1`` exits 0 and its last line, the result
    document, reports every output correct."""
    assert _run(workload, "1")["correct"] is True


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_completes(workload):
    """``run.py --trace 0``, the timed command with its setup and
    end-to-end measurements, exits 0 and reports every output correct."""
    assert _run(workload, "0")["correct"] is True
