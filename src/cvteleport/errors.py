"""Exception types shared across the simulator."""


class TeleportError(Exception):
    """Base class for all simulator errors."""


class ZeroNormError(TeleportError):
    """A wave function has (numerically) vanishing norm."""


class GridMismatchError(TeleportError):
    """Two sampled objects live on incompatible grids."""


class GridTooNarrowError(TeleportError):
    """The grid span cannot hold the requested state or operation."""


class OutcomeTooLargeError(TeleportError):
    """An outcome density would need more memory than its budget allows."""


class PhaseOverflowError(TeleportError):
    """A kernel's phase overflows float64 where the kernel is not 0."""


class IdealChannelOutcomeUnboundedError(TeleportError):
    """The doubly ideal channel has an improper outcome distribution."""


class EmptyScenarioListError(TeleportError):
    """A sweep was requested with no scenarios."""


class ParseError(TeleportError):
    """A text input (signal or config) failed to parse.

    Carries the offending path and 1-based line number when known.
    """

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:"
            if line is not None:
                prefix += f"{line}:"
            prefix += " "
        super().__init__(prefix + message)


class NonUniformSpacingError(ParseError):
    """Signal sample positions are not strictly increasing with uniform spacing."""


class UnsupportedFormatError(TeleportError):
    """An image file is not a P2/P5 portable graymap."""
