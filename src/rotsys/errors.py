"""Exception types shared across the package."""

from __future__ import annotations


class RotsysError(Exception):
    """Base class for all errors raised by this package."""


class DocumentError(RotsysError):
    """Input document is not well-formed JSON or misses required keys."""


class UnknownReferenceError(RotsysError):
    """An edge or vertex id is referenced but never declared."""


class NonClosedTrailError(RotsysError):
    """Consecutive refs of a face boundary are not head-to-tail compatible."""


class SimplicialViolationError(RotsysError):
    """A complex declared simplicial contains a loop, parallel edge,
    duplicate face, or non-triangle face."""


class EmptyKindError(RotsysError):
    """A vertex lies in no edge or an edge lies in no face."""


class UnknownVertexError(RotsysError):
    """A vertex id does not belong to the complex."""


class NotACutVertexError(RotsysError):
    """The vertex does not separate its connected component."""


class NotIncidentError(RotsysError):
    """The vertex is not an endpoint of the edge."""


class InvalidRotationSystemError(RotsysError):
    """A rotation system does not list the faces of some edge exactly
    once, or lists a face that does not meet the edge."""


class NotPrimeError(RotsysError):
    """The modulus passed to a finite-field routine is not prime."""


class NotConnectedError(RotsysError):
    """The operation requires a connected complex."""


class NotLocallyConnectedError(RotsysError):
    """The operation requires all link graphs to be connected."""


class NotClosedSurfaceError(RotsysError):
    """The cell complex is not a closed traced surface."""


class BijectionFailureError(RotsysError):
    """An internal bijection check failed; indicates a bug, not bad data."""


class CapExceededError(RotsysError):
    """A search exhausted its candidate budget before finishing.

    Carries the progress made so far.
    """

    def __init__(self, message: str, candidates_examined: int, partial_count: int = 0):
        super().__init__(message)
        self.candidates_examined = candidates_examined
        self.partial_count = partial_count


class UnsatisfiableError(RotsysError):
    """Random generation pruned the complex down to nothing."""


class TooLargeError(RotsysError):
    """A request exceeds a documented size limit."""
