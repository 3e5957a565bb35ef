"""How fast the machine runs the interpreter, from a fixed probe.

On a shared host, other guests slow each CPU by up to 1.5x, and how
much of the time they do drifts from minute to minute: the least time
of a request over a 30-second run moved by up to 40% between runs a
few minutes apart.  So a pass also times, between requests, one run
of a fixed pure-Python kernel that calls no rotsys code, about every
``EVERY_S`` seconds.  Spread through the passes like the requests,
these samples see the same interference.  Their 10th percentile over
the run says how fast the machine ran the interpreter while the run
was measured.  The end-to-end times are reported scaled by
``REFERENCE_S`` over that percentile: the times the run would have
taken on a machine where the probe's 10th percentile is
``REFERENCE_S``.  A change to rotsys moves them; a change in the load
of the host moves the probe and the wall times alike, and largely
cancels.
"""

from __future__ import annotations

import statistics
import time

# About the probe's 10th-percentile time on the 2-vCPU Intel Xeon
# virtual machine the benchmark was written on, when it was least
# loaded (Python 3.11.7).
REFERENCE_S = 0.0006
# Least interval between two probe samples in a pass; a sample takes
# 0.6 to 1 ms, so the probe adds at most about 5% to a pass.
EVERY_S = 0.02


def kernel() -> int:
    """Fixed interpreter work of the kinds rotsys does: build a graph
    in a dict, search it with a stack and a set, sort tuples and group
    them in dicts."""
    graph = {v: [(v * 7 + 1) % 97, (v * 13 + 5) % 97, (v * 31 + 11) % 97] for v in range(97)}
    seen, order, stack = set(), [], [0]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        order.append(v)
        for w in graph[v]:
            if w not in seen:
                stack.append(w)
    total = 0
    for _ in range(20):
        pairs = sorted((v % 11, v) for v in order)
        total += pairs[0][1]
        groups: dict[int, list[int]] = {}
        for key, v in pairs:
            groups.setdefault(key, []).append(v)
        total += len(groups)
    return total


def sample() -> float:
    """The time of one run of the kernel."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def factor(samples: list[float]) -> float:
    """REFERENCE_S over the 10th percentile of the probe samples."""
    return REFERENCE_S / statistics.quantiles(samples, n=10)[0]
