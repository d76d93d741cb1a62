"""Exception types shared across the package, and the base of its immutable
value types."""


class HarmonicAtlasError(Exception):
    """Base class for all package errors."""


class ZeroConstantTerm(HarmonicAtlasError):
    """Series division by a series with zero constant term (c0 = 0)."""


class InvalidExpression(HarmonicAtlasError):
    """Expression violates a construction invariant (e.g. a denominator
    vanishes inside the open unit disk, or a log argument is not 1 at 0)."""


class PoleAtOrigin(InvalidExpression):
    """Rational term has a pole at z = 0 that does not cancel."""


class NearPole(HarmonicAtlasError):
    """Evaluation point lies within eps_pole of a denominator root."""


class NotNormalized(HarmonicAtlasError):
    """Shear input violates phi(0) = 0, phi'(0) = 1 or omega(0) = 0."""


class DilatationTooLarge(HarmonicAtlasError):
    """|omega| < 1 fails on the disk, or is not proved; the shear would not
    be sense-preserving."""


class UnknownId(HarmonicAtlasError, KeyError):
    """Catalog lookup for an id that does not exist."""


class SeriesMismatch(HarmonicAtlasError):
    """An exact series identity that was required to hold does not."""


class ZeroValue(HarmonicAtlasError):
    """A quantity that must be bounded away from zero is numerically zero."""


class NoClosedForm(HarmonicAtlasError):
    """A value was asked of h or g where the map has no closed form; a
    truncated series is never evaluated in its place."""


class Frozen:
    """Base of the package's immutable value types.  Assigning or deleting
    an attribute raises ``AttributeError``; ``__init__`` sets each one with
    ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
