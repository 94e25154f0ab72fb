"""Exception types shared across the package."""


class SiegelWeightsError(Exception):
    """Base class for every error this package raises on bad input."""


class ParityViolation(SiegelWeightsError):
    """r - k1 - k2 is odd, so (k1, k2, r) is not a character of the torus."""


class InputBoundExceeded(SiegelWeightsError):
    """A coordinate exceeds the supported bound of 10**6 in absolute value."""


class NotDominant(SiegelWeightsError):
    """The operation needs a dominant weight (k1 >= k2 >= 0)."""


class BadParabolicIndex(SiegelWeightsError):
    """Parabolic index must be 0 (Siegel) or 1 (Klingen)."""


class DegreeOutOfRange(SiegelWeightsError):
    """Cohomological degree outside the range supported by the group."""


class DivisionFailure(SiegelWeightsError):
    """Exact Laurent division left a nonzero remainder."""


class InvalidStratum(SiegelWeightsError):
    """Stratum data (g, c) violates c >= 1, or c >= 3 when g = 0."""


class EmptyStrata(SiegelWeightsError):
    """At least one boundary stratum is required."""


class PreconditionViolation(SiegelWeightsError):
    """An operation-specific precondition (documented per function) failed."""
