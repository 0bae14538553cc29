"""Exception types shared across the package."""


class PosetderivError(Exception):
    """Base class for all errors raised by this package."""


class InputError(PosetderivError):
    """Malformed external input (files, CLI arguments, JSON payloads)."""


class DuplicateError(PosetderivError):
    """Duplicate element identifier or duplicate cover pair."""


class UnknownElementError(PosetderivError):
    """Reference to an element that is not part of the poset."""


class CycleError(PosetderivError):
    """The cover relation contains a directed cycle (or a self-pair)."""


class NotReducedError(PosetderivError):
    """A cover pair is implied by a longer chain; input must be reduced."""


class UnsupportedRingError(PosetderivError):
    """The requested ring does not support the operation."""


class DimensionError(PosetderivError):
    """Boundary dimension outside the range built for the complex."""


class NotComparableError(PosetderivError):
    """Consecutive walk elements are equal or incomparable."""


class SizeLimitError(PosetderivError):
    """Input or requested size is outside the supported range."""


class UnknownFixtureError(PosetderivError):
    """No built-in fixture with the requested name."""
