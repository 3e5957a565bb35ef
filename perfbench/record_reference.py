"""Record the reference outcomes of the default seed.

    python3 perfbench/record_reference.py

Runs one pass of every workload at the default seed and writes a
digest of each request's decided fields to ``reference.json``.  The
benchmark compares every run at the default seed against it, so record
only from a commit whose outputs are trusted, and only when the
workloads themselves change.
"""

from __future__ import annotations

import json
import sys

from run import DEFAULT_SEED, REFERENCE, SRC, run_pass

sys.path.insert(0, str(SRC))
import rotsys  # noqa: E402,F401  (loads every module the requests use)
import workloads  # noqa: E402


def main() -> int:
    recorded = {}
    for name, build in workloads.WORKLOADS.items():
        batch = build(DEFAULT_SEED)
        p = run_pass(batch)
        docs = {label: json.loads(text) for label, text in p.outputs.items()}
        bad = {**p.failures, **workloads.check_outputs(batch, docs)}
        if bad:
            print(f"{name}: not recorded, {len(bad)} requests fail: {sorted(bad.items())[:5]}")
            return 1
        recorded[name] = {
            r.label: workloads.digest(r.kind, docs[r.label]) for r in batch.all_requests()
        }
        print(f"{name}: {len(recorded[name])} requests recorded")
    REFERENCE.write_text(
        json.dumps({"seed": DEFAULT_SEED, "workloads": recorded}, indent=0, sort_keys=True) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
