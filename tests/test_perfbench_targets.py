"""The functions the benchmark's traced run wraps keep their names.

``perfbench/spans.py`` looks every ``TARGETS`` entry of
``perfbench/layers.py`` up in its owner's ``__dict__``, so a refactor
that moves or renames one of them stops ``run.py --trace 1`` with a
``KeyError``.  This test only reads ``layers``.
"""

import importlib
import sys
from pathlib import Path

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
