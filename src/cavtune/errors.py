"""Exception types shared across the package, and the finiteness check of its domain types."""

import math


class CavtuneError(Exception):
    """Base class for all package-specific errors."""


class InvalidInput(CavtuneError, ValueError):
    """An argument or parameter set violates a documented precondition or is unphysical."""


class NumericalFailure(CavtuneError, RuntimeError):
    """An integrator or linear-algebra step failed; carries diagnostics in the message."""


class NoFeature(CavtuneError, ValueError):
    """A curve has no detectable burst/dip against its baseline."""


class SchemaError(CavtuneError, ValueError):
    """A config document or CSV violates its schema; message carries the location."""


def require_finite(record, *fields: str) -> None:
    """Raise :class:`InvalidInput` unless each named field is finite (NaN passes ``x < 0``)."""
    for name in fields:
        value = getattr(record, name)
        if not math.isfinite(value):
            raise InvalidInput(f"{type(record).__name__}.{name} must be finite, got {value}")
