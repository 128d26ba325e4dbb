"""Exception types shared across the package."""
import cmath


class PcfzerosError(Exception):
    """Base class for package errors."""


class DomainError(PcfzerosError, ValueError):
    """Argument outside the supported domain (branch cut, pole, bad index)."""


class PolynomialCaseError(DomainError):
    """u is an odd integer: U reduces to a Hermite polynomial and the
    complex-zero machinery does not apply."""


class ConvergenceError(PcfzerosError, RuntimeError):
    """An iteration failed to converge; carries the last iterate."""

    def __init__(self, message, last=None, residual=None):
        super().__init__(message)
        self.last = last
        self.residual = residual


class ChainBreakError(PcfzerosError, RuntimeError):
    """A zero sweep landed on an already-found zero or lost the ladder."""


def require_finite(**values):
    """Raise DomainError naming the first argument that is NaN or infinite."""
    for name, x in values.items():
        if not cmath.isfinite(x):
            raise DomainError(f"{name} = {x} is not finite")
