"""Benchmark of the rotsys library.

    python3 perfbench/run.py --workload search-mix --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
its ``src/`` directory.  The seed generates the workload's documents in
memory.  Timed passes over them repeat until ``--seconds`` have passed,
in one single-threaded process that sends each request after the last
one returned.  Every output is checked, the metrics are printed by
name and unit, and the last line is one JSON object.  End-to-end
times are reported at a reference machine speed (see ``speed``); the
wall-clock values are printed beside them.  ``--trace 1`` runs traced
and untraced passes in turn and reports per-layer self times (wall
clock) and work counters instead of the end-to-end metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 9
MAX_REASONS = 20

SETUP_SCRIPT = """
import json, sys, time
docs = json.load(sys.stdin)
t0 = time.perf_counter()
import rotsys
for text in docs:
    rotsys.parse_complex(text)
print(time.perf_counter() - t0)
"""

END_TO_END_UNITS = {
    "throughput_rps": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "verdict_s": "s",
    "prs_count_s": "s",
    "gprs_find_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Pass:
    wall: float = 0.0
    latencies: list[tuple[str, float]] = field(default_factory=list)
    session_opens: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    outputs: dict[str, str] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)


def run_pass(batch, rec=None, probe: bool = False) -> Pass:
    """Send every request of the batch once, in order.  With ``probe``,
    take a speed probe sample after a request whenever ``speed.EVERY_S``
    have passed since the last one."""
    out = Pass()
    start = next_probe = time.perf_counter()

    def timed(req, call, *args):
        nonlocal next_probe
        idx = rec.open("request." + req.kind, req.group) if rec else None
        t0 = time.perf_counter()
        try:
            out.outputs[req.label] = call(*args)
        except Exception as exc:  # a failed request is counted, not fatal
            out.failures[req.label] = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        out.latencies.append((req.kind, t1 - t0))
        if rec:
            rec.close(idx)
        if probe and t1 >= next_probe:
            out.probes.append(speed.sample())
            next_probe = t1 + speed.EVERY_S

    for item in batch.items:
        if isinstance(item, workloads.Request):
            timed(item, workloads.run_request, item.kind, item.text)
            continue
        idx = rec.open("session", "session") if rec else None
        t0 = time.perf_counter()
        try:
            state = workloads.open_session(item.text)
        except Exception as exc:
            state = None
            for req in item.requests:
                out.failures[req.label] = f"session: {type(exc).__name__}: {exc}"
        out.session_opens.append(time.perf_counter() - t0)
        if rec:
            rec.close(idx)
        if state is not None:
            for req in item.requests:
                timed(req, workloads.run_crosscheck, *state)
    out.wall = time.perf_counter() - start
    return out


def check(batch, passes: list[Pass]) -> tuple[int, dict[str, str]]:
    """Failed attempts over all passes, and one reason per failed label.

    The first pass is checked against the invariants and, for the
    default seed, the reference outcomes; every later pass must repeat
    its outputs byte for byte.
    """
    first = passes[0]
    docs = {label: json.loads(text) for label, text in first.outputs.items()}
    reasons = dict(first.failures)
    reasons.update(workloads.check_outputs(batch, docs))
    if batch.seed == DEFAULT_SEED:
        expected = json.loads(REFERENCE.read_text())["workloads"][batch.name]
        for req in batch.all_requests():
            doc = docs.get(req.label)
            if doc is not None and workloads.digest(req.kind, doc) != expected.get(req.label):
                reasons.setdefault(req.label, "decided fields differ from the reference")
    first_bad = set(reasons)
    failed = 0
    for p in passes:
        bad = first_bad | set(p.failures)
        for label, reason in p.failures.items():
            reasons.setdefault(label, reason)
        for label, text in p.outputs.items():
            if text != first.outputs.get(label):
                bad.add(label)
                reasons.setdefault(label, "output differs between passes")
        failed += len(bad)
    return failed, reasons


def repeat(seconds: float, cycle) -> list:
    """Results of ``cycle()``, called at least once and then again while
    one more call, as long as the last, ends within ``seconds``."""
    end = time.perf_counter() + seconds
    results = []
    while True:
        t0 = time.perf_counter()
        results.append(cycle())
        t1 = time.perf_counter()
        if t1 + (t1 - t0) > end:
            return results


def on_each_cpu(cycle):
    """``cycle``, pinned to the next of the process's CPUs on each call.

    On a shared host each CPU is slowed by other guests now and then,
    and one process left on a slowed CPU can stay there for tens of
    seconds.  Taking the passes on every CPU in turn gives each request
    its least time on whichever CPU was free of interference.
    """
    if not hasattr(os, "sched_setaffinity"):
        return cycle
    cpus = sorted(os.sched_getaffinity(0))
    calls = itertools.count()

    def pinned():
        os.sched_setaffinity(0, {cpus[next(calls) % len(cpus)]})
        try:
            return cycle()
        finally:
            os.sched_setaffinity(0, cpus)

    return pinned


def measure_setup(documents: list[str]) -> float:
    """Median time for a fresh interpreter to import rotsys and parse
    the workload's documents, over interpreters pinned to each CPU in
    turn."""
    payload = json.dumps(documents)

    def once() -> float:
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SCRIPT],
            input=payload, capture_output=True, text=True, env=_child_env(),
            timeout=60, check=True,
        )
        return float(proc.stdout)

    once = on_each_cpu(once)
    return statistics.median(once() for _ in range(SETUP_REPEATS))


def measure_imports() -> dict[str, float]:
    """Cumulative import time of rotsys and of networkx within it, from
    ``-X importtime`` (median of three fresh interpreters)."""
    samples: dict[str, list[float]] = {"rotsys": [], "networkx": []}
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import rotsys"],
            capture_output=True, text=True, env=_child_env(), timeout=60, check=True,
        )
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in samples:
                samples[parts[2]].append(int(parts[1]) / 1e6)
    return {name: statistics.median(v) for name, v in samples.items()}


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def best_times(passes: list[Pass]) -> tuple[list[tuple[str, float]], list[float]]:
    """Per request, and per cross-check session opening, the least time
    over the passes, in batch order.

    Every pass does the same work, so a request's least time is its
    time with the least interference from whatever else shares the
    machine; the median over passes drifts with that interference.
    """
    requests = [
        (samples[0][0], min(t for _, t in samples))
        for samples in zip(*(p.latencies for p in passes))
    ]
    opens = [min(samples) for samples in zip(*(p.session_opens for p in passes))]
    return requests, opens


def end_to_end(batch, passes: list[Pass], setup_s: float) -> dict[str, float]:
    requests, opens = best_times(passes)
    latencies = [t for _, t in requests]
    deciles = statistics.quantiles(latencies, n=10)

    def total(kind: str) -> float:
        return sum(t for k, t in requests if k == kind)

    return {
        "throughput_rps": batch.size() / (sum(latencies) + sum(opens)),
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": deciles[8],
        "verdict_s": total("verdict"),
        "prs_count_s": total("prs_count"),
        "gprs_find_s": total("gprs_find"),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def at_reference_speed(metrics: dict[str, float], factor: float) -> dict[str, float]:
    """The metrics with every time multiplied, and the throughput
    divided, by ``factor`` (see ``speed.factor``)."""
    scale = {"s": factor, "1/s": 1 / factor}
    return {k: v * scale.get(END_TO_END_UNITS[k], 1.0) for k, v in metrics.items()}


def report_failures(attempted: int, failed: int, reasons: dict[str, str]) -> None:
    print(f"fail_share {failed / attempted:.6f} ({failed} of {attempted} attempts failed)")
    for label, reason in sorted(reasons.items())[:MAX_REASONS]:
        print(f"  {label}: {reason}")
    if len(reasons) > MAX_REASONS:
        print(f"  ... and {len(reasons) - MAX_REASONS} more")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rotsys" / "__init__.py").is_file():
        print(f"error: no rotsys sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rotsys

    if Path(rotsys.__file__).resolve().parent != SRC / "rotsys":
        print(f"error: imported rotsys from {rotsys.__file__}", file=sys.stderr)
        return 2

    batch = workloads.WORKLOADS[args.workload](args.seed)
    print(f"rotsys benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"batch: {batch.size()} requests over {len(batch.documents())} documents")

    if args.trace:
        imports = measure_imports()
        cycles = repeat(
            args.seconds,
            on_each_cpu(lambda: (run_pass(batch), layers.traced_pass(batch, run_pass))),
        )
        plain = [p for p, _ in cycles]
        traced = [t for _, t in cycles]
        metrics = layers.layer_metrics(plain, traced, imports)
        passes = plain + [p for p, _, _ in traced]
    else:
        setup_s = measure_setup(batch.documents())
        passes = repeat(args.seconds, on_each_cpu(lambda: run_pass(batch, probe=True)))
        wall = end_to_end(batch, passes, setup_s)
        probes = [t for p in passes for t in p.probes]
        factor = speed.factor(probes)
        metrics = at_reference_speed(wall, factor)
        print(f"{len(passes)} passes, {sum(p.wall for p in passes):.2f} s timed")
        print(f"each request's least time over the passes; percentiles over {batch.size()} requests")
        print(f"speed probe: 10th percentile {speed.REFERENCE_S / factor * 1e3:.4f} ms over "
              f"{len(probes)} samples; times scaled by {factor:.4f} to the reference "
              f"{speed.REFERENCE_S * 1e3:g} ms")
        print(f"  {'metric':<16} {'wall clock':>12} {'at reference':>12}")
        for name, value in metrics.items():
            print(f"  {name:<16} {wall[name]:12.6g} {value:12.6g} {END_TO_END_UNITS[name]}")
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}

    failed, reasons = check(batch, passes)
    attempted = batch.size() * len(passes)
    report_failures(attempted, failed, reasons)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
