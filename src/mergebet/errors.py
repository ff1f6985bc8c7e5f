"""Exception types shared across the package."""


class MergebetError(Exception):
    """Base class for all package-specific errors."""


class CromwellViolation(MergebetError):
    """A model assigns zero (or negative) probability to some observation.

    All one-step conditional probabilities must be strictly positive so that
    every cylinder probability and likelihood ratio stays well defined.
    """


class DomainError(MergebetError, ValueError):
    """An argument lies outside the operation's domain."""


class BudgetExceeded(MergebetError):
    """An exact enumeration would exceed the configured term budget."""


class PhaseError(MergebetError):
    """A protocol move was attempted out of phase."""


class ConfigError(MergebetError):
    """An experiment configuration failed validation."""
