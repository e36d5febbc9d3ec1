"""Exception types shared across the package."""


class GhostSimError(Exception):
    """Base class for all ghostsim errors."""


class InvalidArgumentError(GhostSimError, ValueError):
    """An argument violates a documented precondition."""


class NumericDomainError(GhostSimError, ArithmeticError):
    """A kernel or integrand produced a non-finite value."""


class TruncationError(GhostSimError):
    """A quadrature grid does not cover the support of the integrand."""


class NormalizationViolationError(GhostSimError):
    """The variance radicand is negative beyond the roundoff clamp window.

    Signals a non-unit-norm two-photon state or a truncated quadrature
    domain rather than floating-point noise.
    """


class UndefinedContrastError(GhostSimError):
    """A scan does not exhibit two distinct peaks to measure contrast from."""


class ConfigError(GhostSimError):
    """A run configuration file failed to parse or validate."""

