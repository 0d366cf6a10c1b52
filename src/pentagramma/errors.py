"""Exception taxonomy shared by all pentagramma modules."""


class PentagrammaError(Exception):
    """Base class for every error raised by this package."""


class DomainError(PentagrammaError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InvariantError(PentagrammaError):
    """A quantity that must hold by construction failed its tolerance check."""


class NearPoleError(PentagrammaError):
    """A tangent argument came within tolerance of pi/2 mod pi."""


class SubcriticalError(PentagrammaError):
    """The shape invariant omega is below the regular-pentagram threshold."""


class DegenerateError(PentagrammaError):
    """A spectral triple is malformed (ordering or sign structure broken)."""


class ChordDegenerateError(PentagrammaError):
    """Two consecutive pentagon rays are orthogonal; chord quantities blow up."""


class GeometryError(PentagrammaError, ValueError):
    """A two-circle configuration violates the nesting constraints."""


class NoTangentError(PentagrammaError):
    """No forward tangent chord exists (impossible for valid nested circles)."""


class NoSolutionError(PentagrammaError):
    """A parameter search has no root: a feasibility bound fails or its bracket yields none."""


class SingularError(PentagrammaError):
    """Two reference points are collinear with the origin; recovery divides by ~0."""


class OffEllipseError(PentagrammaError):
    """A point claimed to lie on the ellipse misses it beyond tolerance."""
