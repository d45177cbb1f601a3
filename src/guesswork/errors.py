"""Exception types shared across the library."""

from __future__ import annotations


class GuessworkError(Exception):
    """Base class for every error raised by this package."""


class DistributionError(GuessworkError, ValueError):
    """Malformed probability or frequency vector."""


class GrainError(GuessworkError, ValueError):
    """Frequencies are not integer multiples of 1/k for the claimed k."""


class AlphaDomainError(DistributionError):
    """Moment order outside the tilted optimiser's domain (requires finite alpha > -1)."""


class EpsilonInadmissibleError(GuessworkError, ValueError):
    """Window half-width outside the open admissible interval for this source.

    The offending interval is attached so callers can report it.
    """

    def __init__(self, message: str, interval: tuple[float, float]):
        super().__init__(message)
        self.interval = interval


class EmptyTypicalSetError(GuessworkError, ValueError):
    """No word of the requested length lands in the typical set."""


class TypeSpaceTooLargeError(GuessworkError):
    """A type enumeration would exceed the configured cap."""


class WordSpaceTooLargeError(GuessworkError):
    """A naive word enumeration would exceed the configured cap."""


class GridTooLargeError(GuessworkError):
    """A figure grid would exceed its fixed point cap."""
