"""Seeded random complexes for the property suites.

The generator is the Mersenne Twister of Python's ``random`` module,
consuming one ``random()`` draw per candidate triangle (probability
mode) or a Fisher-Yates shuffle via ``randrange`` (target mode), in a
fixed order.  Identical parameters therefore produce byte-identical
documents on every platform.  Both modes consume the generator once per
candidate triangle, so a request is refused up front when its
candidates, all C(n, 3) triangles on n vertices, exceed
``MAX_TRIANGLES``; so is a nonsense one, before any draw.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .complexes import (
    DirectedComplex,
    SIMPLICIAL,
    SignedEdgeRef,
)
from .errors import TooLargeError, UnsatisfiableError

# the most candidate triangles a request may have: C(182, 3) = 988,260
# fit, 183 vertices do not
MAX_TRIANGLES = 10**6


@dataclass(frozen=True)
class GenParams:
    seed: int
    n_vertices: int
    face_probability: float | None = None
    target_faces: int | None = None


def generate_random_complex(params: GenParams) -> DirectedComplex:
    """Sample triangles on ``n_vertices`` labeled vertices, keep the
    vertices and edges they span, and return the resulting complex."""
    n = params.n_vertices
    if n < 3:
        raise ValueError("need at least 3 vertices")
    candidates = math.comb(n, 3)
    if candidates > MAX_TRIANGLES:
        raise TooLargeError(
            f"{n} vertices give {candidates} candidate triangles, "
            f"more than the limit of {MAX_TRIANGLES}"
        )
    q, target = params.face_probability, params.target_faces
    if q is not None and target is not None:
        raise ValueError("give a face probability or a target face count, not both")
    if q is not None and not 0 <= q <= 1:
        raise ValueError(f"face probability {q} is not in [0, 1]")
    if target is not None and target < 0:
        raise ValueError(f"target face count {target} is negative")
    if q is None and target is None:
        q = 0.5
    rng = random.Random(params.seed)
    width = len(str(n))
    names = [f"v{i + 1:0{width}d}" for i in range(n)]
    triangles = list(itertools.combinations(range(n), 3))

    if q is not None:
        chosen = [t for t in triangles if rng.random() < q]
    else:
        order = list(range(len(triangles)))
        for i in range(len(order) - 1, 0, -1):  # Fisher-Yates
            j = rng.randrange(i + 1)
            order[i], order[j] = order[j], order[i]
        take = sorted(order[:target])
        chosen = [triangles[k] for k in take]
    if not chosen:
        raise UnsatisfiableError("no faces survived sampling")

    def edge_id(i: int, j: int) -> str:
        return f"{names[i]}-{names[j]}"

    edge_pairs = sorted(
        {pair for t in chosen for pair in itertools.combinations(t, 2)}
    )
    edges = {edge_id(i, j): (names[i], names[j]) for i, j in edge_pairs}
    used = sorted({i for t in chosen for i in t})
    vertices = tuple(names[i] for i in used)
    faces = {}
    for a, b, c in chosen:
        fid = f"{names[a]}-{names[b]}-{names[c]}"
        faces[fid] = (
            SignedEdgeRef(edge_id(a, b), 1),
            SignedEdgeRef(edge_id(b, c), 1),
            SignedEdgeRef(edge_id(a, c), -1),
        )
    return DirectedComplex(SIMPLICIAL, vertices, edges, faces)
