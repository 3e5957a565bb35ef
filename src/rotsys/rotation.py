"""Rotation systems: a cyclic order of the faces at each edge.

An edge with a single incident face gets the empty cyclic order, and an
edge with exactly two has only one, so genuine choice exists only at
edges of degree three or more.  Every face is a trail, so it traverses
an edge at most once and its id names that traversal: cyclic orders
list face ids, in general complexes whose faces may revisit a vertex,
dual complexes among them, as in simplicial ones.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .complexes import EdgeId, FaceId, PreComplex
from .errors import InvalidRotationSystemError


def canonical_cycle(seq: Sequence) -> tuple:
    """Rotate a cyclic sequence so the lexicographically least rotation
    comes first; the identity on sequences of length < 2.  The least
    rotation starts at an occurrence of the least item."""
    items = tuple(seq)
    if len(items) < 2:
        return items
    least = min(items)
    return min(items[k:] + items[:k] for k, x in enumerate(items) if x == least)


@dataclass(frozen=True)
class RotationSystem:
    """Per edge, the cyclic order of its faces.

    ``sigma[e]`` is empty when the edge lies in exactly one face (the
    single-face convention) and lists each of its faces exactly once
    otherwise.
    """

    sigma: dict[EdgeId, tuple[FaceId, ...]]

    def canonical(self, e: EdgeId) -> tuple[FaceId, ...]:
        return canonical_cycle(self.sigma[e])


def check_rotation_system(c: PreComplex, sigma: RotationSystem) -> None:
    """Raise unless ``sigma`` is a rotation system of ``c``."""
    incs = c.table.incidences
    if set(sigma.sigma) != set(incs):
        missing = sorted(set(incs) - set(sigma.sigma))
        extra = sorted(set(sigma.sigma) - set(incs))
        raise InvalidRotationSystemError(
            f"edge set mismatch: missing {missing}, unknown {extra}"
        )
    for e, expected in incs.items():
        got = sigma.sigma[e]
        if len(expected) == 1:
            if got != ():
                raise InvalidRotationSystemError(
                    f"edge {e!r} has a single incident face; sigma must be empty"
                )
            continue
        if sorted(got) != sorted(expected):
            raise not_listed_once(e)


def not_listed_once(e: EdgeId) -> InvalidRotationSystemError:
    """The error of an order at ``e`` that leaves out, repeats or adds a face."""
    return InvalidRotationSystemError(
        f"edge {e!r}: sigma does not list each of its faces exactly once"
    )


def rotation_system_from_face_lists(
    c: PreComplex, face_lists: dict[EdgeId, list[FaceId]]
) -> RotationSystem:
    """Build a rotation system from per-edge face-id lists.

    Edges of degree <= 2 may be omitted; their order is forced.  Every
    edge is checked here, so the result is a rotation system of ``c``
    without a `check_rotation_system` pass.
    """
    incs = c.table.incidences
    sigma: dict[EdgeId, tuple[FaceId, ...]] = {}
    for e, entries in incs.items():
        if e in face_lists:
            listed = face_lists[e]
            if len(entries) <= 1:
                if listed:
                    raise InvalidRotationSystemError(
                        f"edge {e!r} has {len(entries)} incident face(s); "
                        "sigma must be empty"
                    )
                sigma[e] = ()
                continue
            if sorted(listed) != list(entries):
                raise InvalidRotationSystemError(
                    f"edge {e!r}: sigma lists {listed}, expected a cyclic order "
                    f"of {list(entries)}"
                )
            sigma[e] = tuple(listed)
        else:
            if len(entries) > 2:
                raise InvalidRotationSystemError(
                    f"edge {e!r} has {len(entries)} incident faces; "
                    "its cyclic order must be listed"
                )
            sigma[e] = () if len(entries) <= 1 else tuple(entries)
    unknown = sorted(set(face_lists) - set(incs))
    if unknown:
        raise InvalidRotationSystemError(f"sigma names unknown edges {unknown}")
    return RotationSystem(sigma)


def canonical_rotation_system(c: PreComplex) -> RotationSystem:
    """The lexicographically least rotation system of ``c``: every
    sigma(e) in face id order."""
    incs = c.table.incidences
    sigma = {
        e: (() if len(entries) <= 1 else tuple(entries))
        for e, entries in incs.items()
    }
    return RotationSystem(sigma)


def sigma_candidates(entries: Sequence[FaceId]) -> Iterator[tuple[FaceId, ...]]:
    """All cyclic orders of an edge's faces, generated lazily: least face
    fixed first, remainder in lexicographic permutation order.  An edge
    in d >= 2 faces has (d - 1)! of them."""
    if len(entries) <= 1:
        return iter([()])
    first, *rest = sorted(entries)
    return ((first, *perm) for perm in itertools.permutations(rest))


def total_search_space(c: PreComplex) -> int:
    """The number of rotation systems of ``c``, counted without listing
    the cyclic orders."""
    return math.prod(
        math.factorial(max(len(entries) - 1, 0)) for entries in c.table.incidences.values()
    )


def enumerate_rotation_systems(
    c: PreComplex, cap: int | None = None
) -> Iterator[RotationSystem]:
    """All rotation systems of ``c`` in lexicographic candidate order,
    edges in bytewise id order, stopping after ``cap`` systems when
    given.  The first ``cap`` systems use only the first ``cap`` cyclic
    orders of each edge, so no more are generated."""
    incs = c.table.incidences
    edge_order = sorted(incs)
    table = [itertools.islice(sigma_candidates(incs[e]), cap) for e in edge_order]
    for combo in itertools.islice(itertools.product(*table), cap):
        yield RotationSystem(dict(zip(edge_order, combo)))
