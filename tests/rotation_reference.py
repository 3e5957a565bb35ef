"""The edge-by-edge rotation-system check, kept as the oracle of
``rotsys.rotation.check_rotation_system``.

It compares sigma's edge set with the complex's, then each edge's
order with its faces on its own rule.  ``test_rotation.py`` requires
the library's check, which reads each order through
``rotation_system_from_face_lists``, to refuse exactly what this one
refuses.
"""

from __future__ import annotations

from rotsys.complexes import PreComplex
from rotsys.errors import InvalidRotationSystemError
from rotsys.rotation import RotationSystem, not_listed_once


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
