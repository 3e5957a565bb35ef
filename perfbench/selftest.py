"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that the input generators build what they claim, and that the
work counters of a traced pass are deterministic: two traced passes
over a small batch of each workload give identical counters, equal to
the values pinned below.  A change to the work the library does
(better pruning, fewer rebuilds) moves the pins; update them in the
change that explains the difference.
"""

from __future__ import annotations

import math
import random
import sys

from run import DEFAULT_SEED, SRC, run_pass

sys.path.insert(0, str(SRC))
import rotsys  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

# counters of one traced pass over small_batch(workload)
PINNED = {
    "search-mix": {
        "search.candidates": 2760,
        "homology.snf_cells": 570,
        "complexes.edge_incidences_calls": 48,
        "tracing.sphere_union_calls": 2079,
        "links.link_graph_calls": 433,
        "presentation.tietze_steps": 571,
        "presentation.generators_left": 4,
        "rotation.sigmas": 0,
        "verdict.blocks": 12,
        "search.found_per_candidate": 80 / 2760,
    },
    "surface-verdict": {
        "search.candidates": 648,
        "homology.snf_cells": 6912,
        "complexes.edge_incidences_calls": 15,
        "tracing.sphere_union_calls": 296,
        "links.link_graph_calls": 592,
        "presentation.tietze_steps": 3525,
        "presentation.generators_left": 4,
        "rotation.sigmas": 0,
        "verdict.blocks": 3,
        "search.found_per_candidate": 9 / 648,
    },
    "crosscheck": {
        "search.candidates": 187,
        "homology.snf_cells": 0,
        "complexes.edge_incidences_calls": 206,
        "tracing.sphere_union_calls": 230,
        "links.link_graph_calls": 177,
        "presentation.tietze_steps": 74,
        "presentation.generators_left": 0,
        "rotation.sigmas": 64,
        "verdict.blocks": 2,
        "search.found_per_candidate": 8 / 187,
    },
}


# items kept per workload: the first 30 requests (on 12 random
# complexes), the smallest surface of each family, the first two
# cross-checked complexes
SMALL = {"search-mix": 30, "surface-verdict": 9, "crosscheck": 8}


def small_batch(name: str) -> workloads.Batch:
    """The first items of the default-seed batch."""
    batch = workloads.WORKLOADS[name](DEFAULT_SEED)
    batch.items = batch.items[: SMALL[name]]
    return batch


def check_generators() -> None:
    for seed in range(60):
        n = 3 + seed % 6
        faces = 1 + seed % min(12, math.comb(n, 3))
        ours = inputs.dump(inputs.random_complex(seed, n, faces))
        theirs = rotsys.emit_complex(
            rotsys.generate_random_complex(rotsys.GenParams(seed, n, target_faces=faces))
        )
        assert ours == theirs, f"random complex differs from rotsys.randgen at seed {seed}"
    rng = random.Random(0)
    for shapes in workloads.SURFACE_SHAPES.values():
        for family, (k, m) in shapes.items():
            workloads.check_surface(inputs.surface(family, k, m, rng), family)
    for seed in range(300):
        doc = inputs.random_complex(seed, 5 + seed % 3, 6 + seed % 6)
        c = rotsys.parse_complex(inputs.dump(doc))
        assert workloads.n_systems(doc) == rotsys.total_search_space(c)
        assert workloads.is_lc(doc) == (c.is_connected() and rotsys.is_locally_connected(c)[0])


def check_counters() -> dict[str, dict]:
    seen = {}
    for name in workloads.WORKLOADS:
        batch = small_batch(name)
        runs = [layers.traced_pass(batch, run_pass) for _ in range(2)]
        first, second = (layers.counter_metrics(counters) for _, _, counters in runs)
        assert first == second, f"{name}: counters differ between two passes"
        for p, _, _ in runs:
            assert not p.failures, f"{name}: {sorted(p.failures.items())[:3]}"
        seen[name] = first
    return seen


def main() -> int:
    check_generators()
    print("generators: ok")
    seen = check_counters()
    ok = True
    for name, counters in seen.items():
        if counters != PINNED[name]:
            ok = False
            print(f"{name}: counters differ from the pins:\n    {counters!r}")
        else:
            print(f"{name}: counters repeat and match the pins")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
