"""Construct the fixture corpus and write canonical documents.

Run as a script to (re)generate fixtures/*.json; the builders are also
imported by the test suite so expected values stay tied to the real
constructions.
"""

from __future__ import annotations

import itertools
from pathlib import Path

from rotsys import DirectedComplex, SignedEdgeRef, emit_complex

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def _triangle_complex(
    n_vertices: int, triangles: list[tuple[int, int, int]], names: list[str] | None = None
) -> DirectedComplex:
    """A simplicial complex from triangles over 0-based vertex indices."""
    if names is None:
        names = [f"v{i + 1}" for i in range(n_vertices)]

    def edge_id(i: int, j: int) -> str:
        i, j = min(i, j), max(i, j)
        return f"{names[i]}-{names[j]}"

    pairs = sorted({p for t in triangles for p in itertools.combinations(sorted(t), 2)})
    edges = {edge_id(i, j): (names[i], names[j]) for i, j in pairs}
    faces = {}
    for t in sorted(tuple(sorted(t)) for t in triangles):
        a, b, c = t
        fid = f"{names[a]}-{names[b]}-{names[c]}"
        faces[fid] = (
            SignedEdgeRef(edge_id(a, b), 1),
            SignedEdgeRef(edge_id(b, c), 1),
            SignedEdgeRef(edge_id(a, c), -1),
        )
    used = sorted({i for t in triangles for i in t})
    return DirectedComplex(
        "simplicial", tuple(names[i] for i in used), edges, faces
    )


def _grid_surface(n: int, twisted: bool) -> DirectedComplex:
    """The n x n grid torus or, with the closing seam glued with
    j -> -j, Klein bottle, triangulated along one diagonal."""

    def v(i: int, j: int) -> int:
        return (i % n) * n + j % n

    triangles = []
    for i in range(n):
        for j in range(n):
            a, b = v(i, j), v(i, j + 1)
            if twisted and i == n - 1:
                c, d = v(0, -j), v(0, -j - 1)
            else:
                c, d = v(i + 1, j), v(i + 1, j + 1)
            triangles += [(a, b, d), (a, c, d)]
    return _triangle_complex(n * n, triangles)


def _capped_cylinder(k: int, m: int, names: list[str] | None = None) -> DirectedComplex:
    """A sphere: a cylinder of m rings of k vertices (ring j's vertex i
    is k*j + i), each annulus split along one diagonal, capped by a cone
    at each end (apexes k*m and k*m + 1)."""
    triangles = []
    for j in range(m - 1):
        for i in range(k):
            a, b = k * j + i, k * j + (i + 1) % k
            triangles += [(a, b, b + k), (a, b + k, a + k)]
    for i in range(k):
        triangles.append((k * m, i, (i + 1) % k))
        triangles.append((k * m + 1, k * (m - 1) + i, k * (m - 1) + (i + 1) % k))
    return _triangle_complex(k * m + 2, triangles, names)


def tetrahedron() -> DirectedComplex:
    return _triangle_complex(4, list(itertools.combinations(range(4), 3)))


def triangle() -> DirectedComplex:
    return _triangle_complex(3, [(0, 1, 2)])


def book3() -> DirectedComplex:
    # three pages sharing the spine edge v-w
    names = ["a", "b", "c", "v", "w"]
    return _triangle_complex(5, [(3, 4, 0), (3, 4, 1), (3, 4, 2)], names)


def bowtie() -> DirectedComplex:
    # two triangles sharing exactly the vertex v
    names = ["a", "b", "c", "d", "v"]
    return _triangle_complex(5, [(4, 0, 1), (4, 2, 3)], names)


def cone_k5() -> DirectedComplex:
    # apex 0 over K5 on 1..5: one triangle per K5 edge
    tris = [(0, i, j) for i, j in itertools.combinations(range(1, 6), 2)]
    return _triangle_complex(6, tris, ["apex", "k1", "k2", "k3", "k4", "k5"])


def rp2_6() -> DirectedComplex:
    # the 6-vertex triangulation of the projective plane
    tris = [
        (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
        (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
    ]
    return _triangle_complex(6, tris)


def torus7() -> DirectedComplex:
    # the 7-vertex torus: faces {i, i+1, i+3} and {i, i+2, i+3} mod 7
    tris = []
    for i in range(7):
        tris.append(tuple(sorted(((i, (i + 1) % 7, (i + 3) % 7)))))
        tris.append(tuple(sorted(((i, (i + 2) % 7, (i + 3) % 7)))))
    return _triangle_complex(7, tris)


BUILDERS = {
    "tetrahedron": tetrahedron,
    "triangle": triangle,
    "book3": book3,
    "bowtie": bowtie,
    "cone-k5": cone_k5,
    "rp2-6": rp2_6,
    "torus-7": torus7,
}


def write_all() -> None:
    FIXTURE_DIR.mkdir(exist_ok=True)
    for name, build in BUILDERS.items():
        (FIXTURE_DIR / f"{name}.json").write_text(emit_complex(build()))


if __name__ == "__main__":
    write_all()
    for name in BUILDERS:
        print(f"wrote fixtures/{name}.json")
