"""Exception hierarchy shared across the package.

Three families matter to callers: invalid input, violated internal laws
(these signal a bug, never a bad instance), and size caps.  The CLI maps
them to exit codes 1, 2 and 3 respectively.  Drawing adds no family of its
own: the grid layout draws every valid instance.
"""

from __future__ import annotations


class HalfmonoError(Exception):
    """Base class for every error raised by this package."""


class InvalidInstanceError(HalfmonoError):
    """The input graph or instance file cannot be processed."""


class ParseError(InvalidInstanceError):
    """Instance text is malformed; carries every defect, not just the first."""

    def __init__(self, defects: list[tuple[int, str]]):
        self.defects = list(defects)
        summary = "; ".join(f"line {line}: {msg}" for line, msg in self.defects)
        super().__init__(f"{len(self.defects)} defect(s): {summary}")


class InconsistentRotation(InvalidInstanceError):
    """Rotation lists are not a valid simple-graph rotation system."""


class NotConnected(InvalidInstanceError):
    """The graph is not connected."""


class EulerViolation(InvalidInstanceError):
    """V - E + F != 2: the rotation system does not describe a sphere embedding."""


class FaceStructureError(InvalidInstanceError):
    """Some face is not a simple even cycle; carries the validation report."""

    def __init__(self, report):
        self.report = report
        super().__init__(str(report))


class BadParameter(InvalidInstanceError):
    """A generator or rendering parameter is out of its admissible range."""


class InternalInvariantError(HalfmonoError):
    """A structural law that must hold was violated; indicates a bug."""


class OddCycleFound(InternalInvariantError):
    """Two-coloring hit an odd cycle; impossible after face validation."""


class InternalDegreeViolation(InternalInvariantError):
    """A midpoint vertex does not have degree two in an assembled system."""


class RegionCycleMismatch(InternalInvariantError):
    """Region count does not equal curve count plus one."""


class NotATree(InternalInvariantError):
    """The region adjacency structure is not a tree."""


class ClaimViolated(InternalInvariantError):
    """An audited structural claim failed on a computed optimum."""

    def __init__(self, claim: str, detail: str = ""):
        self.claim = claim
        msg = f"claim {claim!r} violated"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class BoundViolated(InternalInvariantError):
    """The certified inequality 2*chiF <= 3*alpha failed."""


class CapExceeded(HalfmonoError):
    """The instance is larger than a configured exhaustive-search cap."""


class FaceCapExceeded(CapExceeded):
    """Too many faces for exhaustive enumeration of dividing systems."""


class SizeCapExceeded(CapExceeded):
    """Too many vertices for a brute-force computation."""
