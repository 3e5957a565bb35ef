"""The traced run: per-layer self times and work counters.

Layers are the ``rotsys`` modules; a span covers one call of one of
their public functions, wrapped from outside by ``spans``.  The
metric names say which module and function they time or count.
"""

from __future__ import annotations

import statistics

import spans


def _count_verdict(c, args, result):
    c["verdict.blocks"] += len(result.blocks)


def _count_prs(c, args, result):
    c["search.candidates"] += result.candidates_examined
    c["search.found"] += result.count if result.count is not None else result.status == "found"


def _count_gprs(c, args, result):
    c["search.candidates"] += result.candidates_examined
    c["search.found"] += result.status == "found"


def _count_snf(c, args, result):
    rows = args[0]
    c["homology.snf_cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _count_pi1(c, args, result):
    c["presentation.tietze_steps"] += result.steps_used
    c["presentation.generators_left"] += result.generators_after


def _count_sigma(c, args, item):
    c["rotation.sigmas"] += 1


# (where, attribute, span name, counter, is a generator); "module:Class"
# wraps a method on the class
TARGETS = [
    ("rotsys.documents", "parse_complex", "documents.parse", None, False),
    ("rotsys.documents", "dump_canonical", "documents.emit", None, False),
    ("rotsys.verdict", "verdict", "verdict", _count_verdict, False),
    ("rotsys.search", "search_planar_rotation_system", "search.prs", _count_prs, False),
    ("rotsys.search", "search_generalized_prs", "search.gprs", _count_gprs, False),
    ("rotsys.search", "link_planarity_precheck", "search.precheck", None, False),
    ("rotsys.homology", "h1_integral", "homology.h1_integral", None, False),
    ("rotsys.homology", "is_p_nullhomologous", "homology.is_p_nullhomologous", None, False),
    ("rotsys.homology", "snf_diagonal", "homology.snf", _count_snf, False),
    ("rotsys.homology", "fp_rank", "homology.fp_rank", None, False),
    ("rotsys.presentation", "pi1_trivial_heuristic", "presentation.pi1", _count_pi1, False),
    ("rotsys.tracing", "is_planar_rotation_system", "tracing.is_planar", None, False),
    ("rotsys.tracing", "link_tracer", "tracing.link_tracer", None, False),
    ("rotsys.tracing:LinkTracer", "sphere_union", "tracing.sphere_union", None, False),
    ("rotsys.links", "link_graph", "links.link_graph", None, False),
    ("rotsys.links", "cut_vertices", "links.cut_vertices", None, False),
    ("rotsys.links", "attached_complexes", "links.attached_complexes", None, False),
    ("rotsys.complexes:PreComplex", "edge_incidences", "complexes.edge_incidences", None, False),
    ("rotsys.surfaces", "local_surfaces", "surfaces.local_surfaces", None, False),
    ("rotsys.surfaces", "dual_complex", "surfaces.dual_complex", None, False),
    ("rotsys.surfaces", "iota_check", "surfaces.iota_check", None, False),
    ("rotsys.surfaces", "surface_duality_check", "surfaces.duality_check", None, False),
    ("rotsys.rotation", "enumerate_rotation_systems", "rotation.enumerate", _count_sigma, True),
]

# per-layer metric -> span whose self time it reports
SELF_TIMES = {
    "search.prs_s": "search.prs",
    "search.gprs_s": "search.gprs",
    "search.precheck_s": "search.precheck",
    "homology.snf_s": "homology.snf",
    "homology.fp_rank_s": "homology.fp_rank",
    "surfaces.local_surfaces_s": "surfaces.local_surfaces",
    "surfaces.dual_complex_s": "surfaces.dual_complex",
    "surfaces.iota_check_s": "surfaces.iota_check",
    "surfaces.duality_check_s": "surfaces.duality_check",
    "tracing.is_planar_s": "tracing.is_planar",
    "tracing.link_tracer_s": "tracing.link_tracer",
    "tracing.sphere_union_s": "tracing.sphere_union",
    "links.link_graph_s": "links.link_graph",
    "links.cut_vertices_s": "links.cut_vertices",
    "presentation.pi1_s": "presentation.pi1",
    "rotation.enumerate_s": "rotation.enumerate",
    "documents.parse_s": "documents.parse",
    "documents.emit_s": "documents.emit",
    "verdict.self_s": "verdict",
}

# per-layer metric -> counter
COUNTS = {
    "search.candidates": "search.candidates",
    "homology.snf_cells": "homology.snf_cells",
    "complexes.edge_incidences_calls": "complexes.edge_incidences.calls",
    "tracing.sphere_union_calls": "tracing.sphere_union.calls",
    "links.link_graph_calls": "links.link_graph.calls",
    "presentation.tietze_steps": "presentation.tietze_steps",
    "presentation.generators_left": "presentation.generators_left",
    "rotation.sigmas": "rotation.sigmas",
    "verdict.blocks": "verdict.blocks",
}


def traced_pass(batch, run_pass):
    """One pass with every wrapper installed; returns the pass, the
    self time per (request group, span name) and the counters."""
    rec = spans.Recorder()
    inst = spans.Instrumentation(rec, TARGETS)
    inst.install()
    try:
        p = run_pass(batch, rec)
    finally:
        inst.uninstall()
    self_times = rec.self_times()
    roots = rec.root_wall()
    total_self = sum(self_times.values())
    if abs(total_self - roots) > 1e-6 * max(roots, 1.0):
        raise RuntimeError(f"self times sum to {total_self} s, root spans to {roots} s")
    return p, self_times, dict(rec.counters)


def counter_metrics(counters: dict) -> dict[str, float]:
    out = {m: counters.get(name, 0) for m, name in COUNTS.items()}
    found = counters.get("search.found", 0)
    candidates = counters.get("search.candidates", 0)
    out["search.found_per_candidate"] = found / candidates if candidates else 0.0
    return out


def layer_metrics(plain, traced, imports: dict[str, float]):
    """Per-layer metrics from untraced passes and traced ones (each a
    result of ``traced_pass``).

    Self times are medians over the traced passes, the counters those
    of the first (every traced pass must repeat them), and
    ``trace.overhead_share`` the median traced over the median untraced
    pass time.
    """
    counters = traced[0][2]
    if any(c != counters for _, _, c in traced):
        raise RuntimeError("work counters differ between traced passes")
    profiles = [self_times for _, self_times, _ in traced]

    def self_time(span: str, profile) -> float:
        return sum(t for (_, name), t in profile.items() if name == span)

    metrics = {
        m: statistics.median(self_time(span, prof) for prof in profiles)
        for m, span in SELF_TIMES.items()
    }
    metrics.update(counter_metrics(counters))
    metrics["import.rotsys_s"] = imports["rotsys"]
    metrics["import.networkx_s"] = imports["networkx"]
    metrics["trace.overhead_share"] = statistics.median(
        p.wall for p, _, _ in traced
    ) / statistics.median(p.wall for p in plain)
    print(f"{len(traced)} traced and {len(plain)} untraced passes; the middle traced pass:")
    _print_profile(profiles[len(profiles) // 2])
    for name, value in metrics.items():
        print(f"  {name:<32} {value:14.6g} {unit(name)}")
    return {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric in ("search.found_per_candidate", "trace.overhead_share"):
        return "ratio"
    return "count"


def _print_profile(profile) -> None:
    """Self time per module and request group; the rows of a group add
    up to the wall time of its root spans (requests, sessions)."""
    groups: dict[str, dict[str, float]] = {}
    for (group, span), t in profile.items():
        module = span.split(".")[0]
        for key in (group, "all"):
            row = groups.setdefault(key, {})
            row[module] = row.get(module, 0.0) + t
    for group, row in sorted(groups.items()):
        total = sum(row.values())
        ranked = sorted(row.items(), key=lambda kv: -kv[1])
        shares = ", ".join(f"{m} {t / total:.1%}" for m, t in ranked if t / total >= 0.005)
        print(f"  [{group}] {total:.3f} s of requests: {shares}")
