"""The three benchmark workloads: their inputs, requests and checks.

A request is one input document passed through parse, one public
library call and canonical emission, the work of the matching CLI
handler without the interpreter start.  Library functions are looked
up in ``sys.modules`` at call time, so the wrappers of a traced run see
every call.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass

import inputs

PRIMES = [2, 3]
# One candidate cap for every search request.  The face filters below
# keep every instance far under it.
CAP = 1_000_000
# Rotation systems cross-checked per complex; the complexes chosen have
# at most this many, so the enumeration is exhaustive.  A narrow range
# of 32 to 64 keeps the work of a pass nearly the same from seed to seed.
SIGMA_CAP = 64
# The random complexes of a workload are drawn once, from a fixed pool
# seed; the run's seed permutes their vertex names and the order of
# the requests.  A fresh draw per seed changes the work of a pass by
# up to half, a relabeling by far less (README.md, Workloads).
POOL_SEED = "pool"
# Random complexes per vertex count in search-mix and in crosscheck:
# few enough that a pass takes 1.5 to 3 s, so that a 30-second run
# gives each request 10 or more samples (README.md, Noise).
SEARCH_MIX_PER_N = 60
CROSSCHECK_PER_N = 6
# Face counts of the random complexes per vertex count, used in turn.
FACES = {5: range(5, 9), 6: range(6, 15), 7: range(7, 15)}
# The generalized search is heavy-tailed in the face count and in the
# edge order: at 10 or 11 faces about one relabeling in 500 needs over
# a hundred times the median candidates, and the densest complexes
# need minutes.  It runs only up to here, where the tail is light.
GPRS_MAX_FACES = {5: 8, 6: 9, 7: 9}
# Grid shapes (ring size, rings) of the surfaces, per size band and
# family; the seed permutes their vertex names.  The surfaces are
# small because a request of several tenths of a second spans the
# stretches in which a shared machine is slowed (README.md, Noise).
SURFACE_SHAPES = {
    24: {"torus": (4, 6), "klein": (6, 4), "sphere": (6, 4)},
    36: {"torus": (6, 6), "klein": (6, 6), "sphere": (4, 9)},
    48: {"torus": (6, 8), "klein": (8, 6), "sphere": (12, 4)},
}
SEARCH_KINDS = ("verdict", "prs_count", "gprs_find")


def lib(name: str):
    return sys.modules["rotsys." + name]


@dataclass
class Request:
    kind: str  # "verdict" | "prs_count" | "gprs_find" | "crosscheck"
    label: str  # unique within the workload
    group: str  # what the trace report groups by
    text: str = ""  # input document


@dataclass
class Session:
    """A complex whose rotation systems are cross-checked one request
    at a time; parsing and link tracers are built once per complex, as
    the acceptance suite does."""

    label: str
    text: str
    requests: list[Request]


@dataclass
class Batch:
    """One pass of a workload: requests and cross-check sessions, sent
    in list order."""

    name: str
    seed: int
    items: list[Request | Session]
    facts: dict[str, dict]  # per input label, what the checks expect

    def documents(self) -> list[str]:
        return list({item.text: None for item in self.items})

    def sessions(self) -> list[Session]:
        return [item for item in self.items if isinstance(item, Session)]

    def all_requests(self) -> list[Request]:
        out: list[Request] = []
        for item in self.items:
            out += item.requests if isinstance(item, Session) else [item]
        return out

    def size(self) -> int:
        return len(self.all_requests())


# -- inputs ---------------------------------------------------------------------


def _requests(label: str, text: str, group: str, kinds=SEARCH_KINDS) -> list[Request]:
    return [Request(kind, f"{label}/{kind}", group, text) for kind in kinds]


def search_mix(seed: int) -> Batch:
    """Random complexes, SEARCH_MIX_PER_N per vertex count, face counts
    in turn, relabeled and shuffled by the seed."""
    pool = random.Random(f"search-mix/{POOL_SEED}")
    rng = random.Random(f"search-mix/{seed}")
    complexes = []
    for n in (5, 6, 7):
        for i in range(SEARCH_MIX_PER_N):
            f = FACES[n][i % len(FACES[n])]
            doc = inputs.random_complex(pool.getrandbits(32), n, f, rng)
            complexes.append((f"n{n}f{f}#{i}", n, f, doc))
    rng.shuffle(complexes)
    requests, facts = [], {}
    for label, n, f, doc in complexes:
        kinds = SEARCH_KINDS if f <= GPRS_MAX_FACES[n] else SEARCH_KINDS[:2]
        requests += _requests(label, inputs.dump(doc), "search", kinds)
        facts[label] = {"faces": doc["faces"]}
    return Batch("search-mix", seed, requests, facts)


def surface_verdict(seed: int) -> Batch:
    """One torus, Klein bottle and sphere per size band, with seeded
    vertex names.  The trace groups the verdicts on tori and Klein
    bottles apart, as homology is their largest layer."""
    rng = random.Random(f"surface-verdict/{seed}")
    requests, facts = [], {}
    for shapes in SURFACE_SHAPES.values():
        for family, (k, m) in shapes.items():
            doc = inputs.surface(family, k, m, rng)
            check_surface(doc, family)
            label = f"{family}{k}x{m}"
            verdict_group = "sphere" if family == "sphere" else "nonsphere"
            for req in _requests(label, inputs.dump(doc), "search"):
                req.group = verdict_group if req.kind == "verdict" else "search"
                requests.append(req)
            facts[label] = {"family": family}
    return Batch("surface-verdict", seed, requests, facts)


def crosscheck(seed: int) -> Batch:
    """Connected, locally connected random complexes with 32 to
    SIGMA_CAP rotation systems, CROSSCHECK_PER_N per vertex count,
    relabeled and shuffled by the seed.  Each also gets the three
    search requests, whose count and witness the exhaustive
    enumeration checks."""
    pool = random.Random(f"crosscheck/{POOL_SEED}")
    rng = random.Random(f"crosscheck/{seed}")
    complexes = []
    for n in (5, 6, 7):
        faces = [f for f in FACES[n] if f <= GPRS_MAX_FACES[n]]
        for i in range(CROSSCHECK_PER_N):
            while True:
                doc_seed, f = pool.getrandbits(32), pool.choice(faces)
                doc = inputs.random_complex(doc_seed, n, f)
                # both are invariant under relabeling
                if 32 <= n_systems(doc) <= SIGMA_CAP and is_lc(doc):
                    break
            complexes.append((f"n{n}#{i}", inputs.random_complex(doc_seed, n, f, rng)))
    rng.shuffle(complexes)
    items, facts = [], {}
    for label, doc in complexes:
        text = inputs.dump(doc)
        items += _requests(label, text, "search")
        sigmas = [
            Request("crosscheck", f"{label}/sigma{j}", "crosscheck")
            for j in range(n_systems(doc))
        ]
        items.append(Session(label, text, sigmas))
        facts[label] = {"faces": doc["faces"]}
    return Batch("crosscheck", seed, items, facts)


WORKLOADS = {"search-mix": search_mix, "surface-verdict": surface_verdict, "crosscheck": crosscheck}


def _edge_degrees(doc: dict) -> dict[str, int]:
    deg = {e["id"]: 0 for e in doc["edges"]}
    for f in doc["faces"]:
        for step in f["boundary"]:
            deg[step["edge"]] += 1
    return deg


def n_systems(doc: dict) -> int:
    """Number of rotation systems: (d - 1)! cyclic orders per edge of
    degree d."""
    total = 1
    for d in _edge_degrees(doc).values():
        for x in range(2, d):
            total *= x
    return total


def _n_components(nodes, pairs) -> int:
    parent = {x: x for x in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    return len({find(x) for x in nodes})


def is_lc(doc: dict) -> bool:
    """Connected, with a connected link at every vertex: the link at v
    has the edges at v as vertices, joined when they bound a common
    face (every face is a triangle)."""
    ends = {e["id"]: (e["tail"], e["head"]) for e in doc["edges"]}
    if _n_components(doc["vertices"], ends.values()) != 1:
        return False
    pairs: dict[str, list[tuple[str, str]]] = {v: [] for v in doc["vertices"]}
    for f in doc["faces"]:
        es = [s["edge"] for s in f["boundary"]]
        for v in {x for e in es for x in ends[e]}:
            a, b = (e for e in es if v in ends[e])
            pairs[v].append((a, b))
    return all(
        _n_components([e for e in ends if v in ends[e]], pairs[v]) == 1
        for v in doc["vertices"]
    )


def check_surface(doc: dict, family: str) -> None:
    """A generated surface must validate, have the expected Euler
    characteristic, and put every edge in exactly two faces."""
    pre = lib("documents").parse_precomplex(inputs.dump(doc))
    violations = lib("complexes").validate(pre)
    v, e, f = pre.counts()
    chi = inputs.SURFACES[family][1]
    if violations or v - e + f != chi or set(_edge_degrees(doc).values()) != {2}:
        raise SystemExit(f"generated {family} is not a closed surface: {violations[:3]}")


# -- requests ---------------------------------------------------------------------


def run_request(kind: str, text: str) -> str:
    documents = lib("documents")
    c = documents.parse_complex(text)
    if kind == "verdict":
        doc = lib("verdict").verdict(c, PRIMES, cap=CAP).to_doc()
    elif kind == "prs_count":
        doc = lib("search").search_planar_rotation_system(c, "count", CAP).to_doc()
    else:
        result = lib("search").search_generalized_prs(c, CAP)
        doc = result.to_doc(c)
        if result.sigma is not None:
            doc["sigma"] = documents.sigma_to_doc(result.sigma)["sigma"]
    return documents.dump_canonical(doc)


def open_session(text: str):
    c = lib("documents").parse_complex(text)
    incidences = c.edge_incidences()
    tracers = {v: lib("tracing").link_tracer(c, v, incidences) for v in c.vertices}
    return c, tracers, lib("rotation").enumerate_rotation_systems(c, SIGMA_CAP)


def run_crosscheck(c, tracers, systems) -> str:
    surfaces_mod = lib("surfaces")
    sigma = next(systems)
    surfaces = surfaces_mod.local_surfaces(c, sigma)
    dual = surfaces_mod.dual_complex(c, sigma, surfaces)
    iota = surfaces_mod.iota_check(c, sigma, surfaces, tracers)
    duality = surfaces_mod.surface_duality_check(c, sigma, dual)
    d = dual.complex
    doc = {
        "planar": all(tracers[v].sphere_union(sigma) for v in sorted(c.vertices)),
        "surfaces": [{"id": s.id, "chi": s.chi, "genus": s.genus} for s in surfaces],
        "dual": {
            "vertices": len(d.vertices),
            "edges": len(d.edges),
            "faces": len(d.faces),
            "components": len(d.components()),
        },
        "iota": [iota.surface_vertices, iota.link_cells, iota.matched],
        "duality": duality,
    }
    return lib("documents").dump_canonical(doc)


# -- checks -----------------------------------------------------------------------


def decided(kind: str, doc: dict) -> dict:
    """The fields a correct program must reproduce exactly; work
    counters (candidates, Tietze steps, sizes after simplification)
    are left out so that better pruning is not a failure."""
    if kind == "verdict":
        return {
            "orientable_3manifold": doc["orientable_3manifold"],
            "sphere3": doc["sphere3"],
            "reasons": doc["reasons"],
            "blocks": [
                {
                    "path": b["path"],
                    "sphere3": b["sphere3"],
                    "reasons": b["reasons"],
                    "sigma": b.get("sigma"),
                    "homology": b.get("homology"),
                    "pi1": b["pi1"]["status"] if "pi1" in b else None,
                }
                for b in doc["blocks"]
            ],
        }
    if kind == "prs_count":
        return {"status": doc["status"], "count": doc["count"]}
    if kind == "gprs_find":
        return {k: doc.get(k) for k in ("status", "red_edges", "sigma")}
    return doc


def digest(kind: str, doc: dict) -> str:
    text = json.dumps(decided(kind, doc), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _red_parity_ok(faces: list[dict], red: list[str]) -> bool:
    red_set = set(red)
    return all(
        sum(s["edge"] in red_set for s in f["boundary"]) % 2 == 0 for f in faces
    )


EXPECTED_SURFACE = {
    "torus": ("unknown", {"betti1": 2, "torsion": []}, "unknown"),
    "klein": ("unknown", {"betti1": 1, "torsion": [2]}, "unknown"),
    "sphere": ("yes", None, "trivial"),
}


def check_outputs(batch: Batch, outputs: dict[str, dict]) -> dict[str, str]:
    """Invariants that hold for every seed; returns {label: reason} for
    each request whose output breaks one.  A request that raised has no
    output and is already a failure."""
    bad: dict[str, str] = {}
    for label, fact in batch.facts.items():
        v, p, g = (outputs.get(f"{label}/{kind}") for kind in SEARCH_KINDS)
        count = p["count"] if p else None
        if p and (p["status"] == "found") != (count > 0):
            bad[f"{label}/prs_count"] = f"status {p['status']} with count {count}"
        if v and p and (v["orientable_3manifold"] == "yes") != (count > 0):
            bad[f"{label}/verdict"] = (
                f"orientable {v['orientable_3manifold']} but {count} planar systems"
            )
        if g and count and g["status"] != "found":
            bad[f"{label}/gprs_find"] = "planar system exists but no generalized one found"
        if g and g["status"] == "found" and "faces" in fact and not _red_parity_ok(
            fact["faces"], g["red_edges"]
        ):
            bad[f"{label}/gprs_find"] = "a face has an odd number of red edges"
        if "family" in fact:
            expected = EXPECTED_SURFACE[fact["family"]]
            if v:
                block = v["blocks"][0] if len(v["blocks"]) == 1 else {}
                got = (v["sphere3"], block.get("homology"), block.get("pi1", {}).get("status"))
                if got != expected:
                    bad[f"{label}/verdict"] = f"expected {expected}, got {got}"
            if p and count != 1:
                bad[f"{label}/prs_count"] = f"a surface has {count} planar systems, not 1"
            if g and g.get("red_edges") != []:
                bad[f"{label}/gprs_find"] = "first generalized system of a surface is not all black"
    for session in batch.sessions():
        bad.update(_check_session(session, outputs))
    return bad


def _check_session(session: Session, outputs: dict[str, dict]) -> dict[str, str]:
    """Per rotation system the identities of the acceptance suite; per
    complex, exhaustive enumeration against the searches."""
    bad: dict[str, str] = {}
    c = lib("documents").parse_complex(session.text)
    nv, ne, nf = c.counts()
    planar_at = []
    for j, req in enumerate(session.requests):
        out = outputs.get(req.label)
        if out is None:
            continue
        d = out["dual"]
        lhs = nv - ne + nf - d["vertices"]
        z_d = d["edges"] - d["vertices"] + 1
        all_spheres = all(s["chi"] == 2 for s in out["surfaces"])
        sv, cells, matched = out["iota"]
        if d["components"] != 1:
            bad[req.label] = "dual complex is disconnected"
        elif lhs != z_d - (ne - nv + 1):
            bad[req.label] = "cycle-space identity fails"
        elif out["planar"] and (lhs > 0 or (lhs == 0) != all_spheres):
            bad[req.label] = "double-counting identity fails on a planar system"
        elif not sv == cells == matched:
            bad[req.label] = "surface vertices and link cells do not match"
        elif sorted(out["duality"]) != sorted(s["id"] for s in out["surfaces"]):
            bad[req.label] = "duality check does not cover every surface"
        if out["planar"]:
            planar_at.append(j)
    label = session.label
    p = outputs.get(f"{label}/prs_count")
    v = outputs.get(f"{label}/verdict")
    if p is not None and len(planar_at) != p["count"]:
        bad[f"{label}/prs_count"] = (
            f"search counts {p['count']} planar systems, enumeration {len(planar_at)}"
        )
    if v is not None and planar_at:
        # the search and the enumeration share the lexicographic order
        systems = lib("rotation").enumerate_rotation_systems(c, SIGMA_CAP)
        first = next(s for j, s in enumerate(systems) if j == planar_at[0])
        expected = lib("documents").sigma_to_doc(first)["sigma"]
        if v["blocks"][0].get("sigma") != expected:
            bad[f"{label}/verdict"] = "witness is not the first planar system enumerated"
    return bad
