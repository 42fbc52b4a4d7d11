"""Exception types shared across the package."""

from __future__ import annotations


class InvalidInputError(ValueError):
    """Input violates an operation's contract (shape, norm, finiteness)."""


class DomainError(InvalidInputError):
    """A scalar parameter lies outside its mathematical domain."""


class LevelError(InvalidInputError):
    """Truncation-level bookkeeping error (negative level, bad ordering, dimension not 2^n)."""


class SizeLimitError(ValueError):
    """A requested object would exceed the package size caps."""

    def __init__(self, message: str, estimated_size: float | None = None):
        super().__init__(message)
        self.estimated_size = estimated_size


class NumericalInvariantError(RuntimeError):
    """A quantity that must hold by construction failed its check."""
