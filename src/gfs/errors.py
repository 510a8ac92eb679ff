"""Exception types shared across the library."""


class GfsError(Exception):
    """Base class for all library-specific errors."""


class DomainError(GfsError):
    """An input violates a documented precondition."""


class NonMonotoneProfile(GfsError):
    """The profile derivative cannot be bracketed/bisected for level solving."""


class AngleOutOfRange(GfsError):
    """A rotation angle reached pi, where the twisted graph is not a section."""


class EvenFactorCount(GfsError):
    """Cyclic composition requires an odd number of factors."""


class EvenK(GfsError):
    """This operation requires odd k."""


class NotNormalized(GfsError):
    """The generating function must be normalized (zero at its far critical point)."""


class NoConvergence(GfsError):
    """An iterative solve did not converge within its iteration budget."""


class NotFibreCritical(GfsError):
    """The point does not satisfy the fibre-criticality test."""


class OrbitRelationViolated(GfsError):
    """Reconstructed points do not follow the map-orbit relation."""


class NonPrimeK(GfsError):
    """Equivariant coefficients require prime k (or the plain sentinel k = 1)."""


class ThresholdOnSpectrum(GfsError):
    """The threshold coincides with a bar endpoint; the rank is ambiguous there."""


class SearchBoundExceeded(GfsError):
    """A certificate provably exists but the prime search bound is too small."""
