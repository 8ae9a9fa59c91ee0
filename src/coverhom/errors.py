"""Exception types shared across the package."""


class CoverhomError(Exception):
    """Base class for all library errors."""


class InvalidConfig(CoverhomError, ValueError):
    """Parameters violate a precondition (bad prime, k too small, ...)."""


class SpecMismatch(CoverhomError, ValueError):
    """Operands live in different algebras."""


class NotAUnit(CoverhomError, ValueError):
    """Element does not have constant term 1."""


class NotInC(CoverhomError, ValueError):
    """Element is not in the central subgroup 1 + (top-degree part)."""


class UnsupportedMonomialType(CoverhomError, ValueError):
    """Monomial cannot be realised as an admissible word (same-pair case)."""


class ObservationViolation(CoverhomError, ValueError):
    """A polynomial contains a monomial outside the expected type classes."""


class TooLarge(CoverhomError, RuntimeError):
    """A size guard was exceeded."""


class PropertyViolation(CoverhomError, AssertionError):
    """A verified property failed.  Carries a reproducible counterexample."""

    def __init__(self, message, counterexample=None):
        super().__init__(message)
        self.counterexample = counterexample
