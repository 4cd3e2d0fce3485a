"""Exception types shared across the package, and the one check of
integer counts that raises them."""

import numbers


class AffdimError(Exception):
    """Base class for all errors raised by this package."""


class ContractionError(AffdimError):
    """A map that must be a strict contraction is not one."""


class ConfigError(AffdimError):
    """A family description is malformed or violates a constraint."""


class BudgetError(AffdimError):
    """A word enumeration exceeded its node budget."""


class NoSignChangeError(AffdimError):
    """A root bracket could not be established on the search interval."""


class IdentityMismatchError(AffdimError):
    """A composition identity expected to hold exactly fails its residual check."""


class ExcludedParameterError(AffdimError):
    """The requested parameter lies in the excluded set of the family."""


class BracketInconsistencyError(AffdimError):
    """A certified lower bound exceeds a certified upper bound."""


def _check_count(value, least: int, message: str) -> None:
    """ConfigError(message) unless value is an integer >= least; a bool
    or an integral float such as 256.0 is not a count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ConfigError(message)
