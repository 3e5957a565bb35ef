"""Seeded input documents for the benchmark.

Everything here runs before timing starts and depends only on the
seed, never on the program under test: the random complexes come from
the benchmark's own copy of the ``rotsys.randgen`` algorithm, so a
change to the library cannot change the inputs it is measured on.
"""

from __future__ import annotations

import itertools
import json
import random

Triangle = tuple[str, str, str]


def complex_doc(vertices: list[str], triangles: list[Triangle]) -> dict:
    """A simplicial complex document from triangles over vertex names.

    Edges run from the bytewise-smaller name to the larger one; a face
    (a, b, c) with a < b < c has the trail a->b, b->c, c->a, the same
    convention as ``rotsys gen``.
    """
    edges: dict[str, tuple[str, str]] = {}
    faces = []
    for tri in triangles:
        a, b, c = sorted(tri)
        for x, y in ((a, b), (b, c), (a, c)):
            edges.setdefault(f"{x}-{y}", (x, y))
        faces.append((f"{a}-{b}-{c}", [(f"{a}-{b}", 1), (f"{b}-{c}", 1), (f"{a}-{c}", -1)]))
    used = {v for tri in triangles for v in tri}
    return {
        "kind": "simplicial",
        "vertices": [v for v in vertices if v in used],
        "edges": [{"id": e, "tail": t, "head": h} for e, (t, h) in sorted(edges.items())],
        "faces": [
            {"id": f, "boundary": [{"edge": e, "dir": d} for e, d in trail]}
            for f, trail in sorted(faces)
        ],
    }


def dump(doc: dict) -> str:
    """Canonical text of a document, as ``rotsys`` emits it."""
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def random_complex(seed: int, n: int, faces: int, relabel: random.Random | None = None) -> dict:
    """The complex ``generate_random_complex(GenParams(seed, n,
    target_faces=faces))`` builds: ``faces`` distinct triangles on n
    vertices, drawn by the same Fisher-Yates shuffle.

    With ``relabel``, the vertex names are permuted by it: the same
    complex up to isomorphism, but with another edge order, and so
    another search order.
    """
    rng = random.Random(seed)
    width = len(str(n))
    names = [f"v{i + 1:0{width}d}" for i in range(n)]
    triangles = list(itertools.combinations(range(n), 3))
    order = list(range(len(triangles)))
    for i in range(len(order) - 1, 0, -1):
        j = rng.randrange(i + 1)
        order[i], order[j] = order[j], order[i]
    chosen = [triangles[k] for k in sorted(order[:faces])]
    label = list(names)
    if relabel is not None:
        relabel.shuffle(label)
    return complex_doc(names, [tuple(label[i] for i in t) for t in chosen])


# -- closed surfaces ----------------------------------------------------------
#
# A grid of m rings of k vertices; ring j's vertex i is k*j + i.  The
# annulus between two rings is split into triangles along one diagonal.


def _band(a: list[int], b: list[int]) -> list[tuple[int, int, int]]:
    """Triangles of the annulus between rings ``a`` and ``b``, where
    a[i] sits opposite b[i]."""
    k = len(a)
    out = []
    for i in range(k):
        j = (i + 1) % k
        out += [(a[i], a[j], b[j]), (a[i], b[j], b[i])]
    return out


def _rings(k: int, m: int) -> list[list[int]]:
    return [[k * j + i for i in range(k)] for j in range(m)]


def torus(k: int, m: int) -> tuple[int, list[tuple[int, int, int]]]:
    """The k x m torus: (vertex count, triangles over 0..count-1)."""
    rings = _rings(k, m)
    triangles = [t for j in range(m) for t in _band(rings[j], rings[(j + 1) % m])]
    return k * m, triangles


def klein_bottle(k: int, m: int) -> tuple[int, list[tuple[int, int, int]]]:
    """The twisted k x m grid: the closing seam is glued with i -> -i."""
    rings = _rings(k, m)
    twisted = [rings[0][(-i) % k] for i in range(k)]
    triangles = [t for j in range(m - 1) for t in _band(rings[j], rings[j + 1])]
    return k * m, triangles + _band(rings[m - 1], twisted)


def sphere(k: int, m: int) -> tuple[int, list[tuple[int, int, int]]]:
    """A cylinder of m rings of k vertices, capped by a cone at each end."""
    rings = _rings(k, m)
    north, south = k * m, k * m + 1
    triangles = [t for j in range(m - 1) for t in _band(rings[j], rings[j + 1])]
    for i in range(k):
        j = (i + 1) % k
        triangles.append((north, rings[0][i], rings[0][j]))
        triangles.append((south, rings[m - 1][i], rings[m - 1][j]))
    return k * m + 2, triangles


SURFACES = {"torus": (torus, 0), "klein": (klein_bottle, 0), "sphere": (sphere, 2)}


def surface(family: str, k: int, m: int, rng: random.Random) -> dict:
    """A surface of ``family`` with seeded vertex names.

    Names decide the edge order of the searches, the face orientations
    and the pivot order of the homology, so relabeling varies the work
    while keeping the topology.
    """
    build, _ = SURFACES[family]
    n, triangles = build(k, m)
    perm = list(range(n))
    rng.shuffle(perm)
    names = [f"x{perm[i]:03d}" for i in range(n)]
    return complex_doc(
        sorted(names), [(names[a], names[b], names[c]) for a, b, c in triangles]
    )
