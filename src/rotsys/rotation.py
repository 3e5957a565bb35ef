"""Rotation systems: a cyclic order of the face incidences at each edge.

An edge with a single incident face gets the empty cyclic order, and an
edge with exactly two has only one, so genuine choice exists only at
edges of degree three or more.  Cyclic orders are stored over
incidences (face id, traversal position), which makes the same code
serve general complexes whose faces may revisit a vertex, in particular
dual complexes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .complexes import EdgeId, FaceId, Incidence, PreComplex
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
    """Per edge, the cyclic order of its face incidences.

    ``sigma[e]`` is empty when the edge has exactly one incidence (the
    single-face convention) and holds each incidence exactly once
    otherwise.
    """

    sigma: dict[EdgeId, tuple[Incidence, ...]]

    def canonical(self, e: EdgeId) -> tuple[Incidence, ...]:
        return canonical_cycle(self.sigma[e])

    def canonical_key(self) -> tuple:
        """A hashable identity for the whole system, rotation-invariant."""
        return tuple((e, self.canonical(e)) for e in sorted(self.sigma))


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
            raise InvalidRotationSystemError(
                f"edge {e!r}: sigma does not list each incidence exactly once"
            )


def rotation_system_from_face_lists(
    c: PreComplex, face_lists: dict[EdgeId, list[FaceId]]
) -> RotationSystem:
    """Build a rotation system from per-edge face-id lists.

    Faces are trails, so a face id identifies its unique incidence at an
    edge.  Edges of degree <= 2 may be omitted; their order is forced.
    Every edge is checked here, so the result is a rotation system of
    ``c`` without a `check_rotation_system` pass.
    """
    incs = c.table.incidences
    sigma: dict[EdgeId, tuple[Incidence, ...]] = {}
    for e in incs:
        entries = incs[e]
        by_face = {inc.face: inc for inc in entries}
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
            if sorted(listed) != sorted(by_face):
                raise InvalidRotationSystemError(
                    f"edge {e!r}: sigma lists {listed}, expected a cyclic order "
                    f"of {sorted(by_face)}"
                )
            sigma[e] = tuple(by_face[f] for f in listed)
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
    sigma(e) in canonical incidence order."""
    incs = c.table.incidences
    sigma = {
        e: (() if len(entries) <= 1 else tuple(entries))
        for e, entries in incs.items()
    }
    return RotationSystem(sigma)


def sigma_candidates(entries: Sequence[Incidence]) -> Iterator[tuple[Incidence, ...]]:
    """All cyclic orders of an edge's incidences, generated lazily: least
    incidence fixed first, remainder in lexicographic permutation order.
    An edge with d >= 2 incidences has (d - 1)! of them."""
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
