"""Exception types shared across the package, and the field checks of its domain types."""

import math


class CavtuneError(Exception):
    """Base class for all package-specific errors."""


class InvalidInput(CavtuneError, ValueError):
    """An argument or parameter set violates a documented precondition or is unphysical;
    ``field`` names the one field of a domain type whose rule it broke, or is None."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class NumericalFailure(CavtuneError, RuntimeError):
    """An integrator or linear-algebra step failed; carries diagnostics in the message."""


class NoFeature(CavtuneError, ValueError):
    """A curve has no detectable burst/dip against its baseline."""


class SchemaError(CavtuneError, ValueError):
    """A config document or CSV violates its schema; message carries the location."""


def require_finite(record, *fields: str) -> None:
    """Raise :class:`InvalidInput` unless each named field, a number or a numpy array, is
    finite (NaN passes ``x < 0``); the message names the field's first non-finite value."""
    for name in fields:
        value = getattr(record, name)
        # abs(x) < inf is False for NaN and +-inf, entry by entry in an array
        bad = value[~(abs(value) < math.inf)] if getattr(value, "ndim", 0) else [value]
        if len(bad) and not math.isfinite(bad[0]):
            raise InvalidInput(f"{type(record).__name__}.{name} must be finite, got {bad[0]}", name)


def require(record, name: str, holds, rule: str) -> None:
    """Unless ``holds``, raise :class:`InvalidInput`: ``<Type>.<name> must be <rule>, got <v>``."""
    if not holds:
        value = getattr(record, name)
        raise InvalidInput(f"{type(record).__name__}.{name} must be {rule}, got {value}", name)
