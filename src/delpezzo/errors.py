"""Exception types shared across the package."""


class GeometryError(Exception):
    """Base class for all domain-level failures."""


class InternalInconsistency(Exception):
    """A machine check of a computed result failed: a bug, never a verdict.
    Not a GeometryError, so no decider can turn it into a negative answer."""


class IncompatibleSurfaces(GeometryError):
    """Divisor classes living on different Picard bases were combined."""


class DegenerateConfiguration(GeometryError):
    """A linear system that should have been invertible was singular."""


class NotContractible(GeometryError):
    """Requested contraction has a non-negative-definite intersection matrix."""


class CatalogInsufficient(GeometryError):
    """The declared curve catalog cannot certify the requested conclusion.

    Also raised when a Zariski decomposition diverges, which is how a
    non-pseudo-effective divisor (or a too-small catalog) surfaces.
    """


class NotSimpleNormalCrossings(GeometryError):
    """A configuration required to be snc is not (relative to the catalog)."""


class RedundancyViolation(GeometryError):
    """A blow-up advertised as redundant failed the pullback verification."""


class PreconditionFailure(GeometryError):
    """An operation was invoked on input that fails its stated precondition."""


class InvalidSurfaceData(GeometryError):
    """A surface description file or record is malformed or inconsistent."""
