"""Exception types shared across the package."""


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
