"""Exception types shared across the package."""
import cmath
import math


class PcfzerosError(Exception):
    """Base class for package errors."""


class DomainError(PcfzerosError, ValueError):
    """Argument outside the supported domain (branch cut, pole, bad index)."""


class PolynomialCaseError(DomainError):
    """u = -2a is within 1e-12 of an odd integer 2n + 1 (the test is
    genairy.hermite_order): U(a, z) is e^{-z^2/4} He_n(z), whose zeros
    are all real, so there is no complex zero to compute."""


class ConvergenceError(PcfzerosError, RuntimeError):
    """An iteration failed to converge; carries the last iterate."""

    def __init__(self, message, last=None, residual=None):
        super().__init__(message)
        self.last = last
        self.residual = residual


class ChainBreakError(PcfzerosError, RuntimeError):
    """A zero sweep landed on an already-found zero or lost the ladder."""


def require_finite(**values):
    """Raise DomainError naming the first argument that is NaN, infinite
    or not a number.  A number too large for a double (an int past
    1.8e308) is not finite."""
    for name, x in values.items():
        try:
            finite = cmath.isfinite(x)
        except TypeError:
            raise DomainError(f"{name} = {x!r} is not a number") from None
        except OverflowError:
            # not formatted: past 4300 digits str() of an int raises
            raise DomainError(f"{name} is not finite: it leaves the double "
                              "range") from None
        if not finite:
            raise DomainError(f"{name} = {x} is not finite")


def _tolerance(tol):
    """tol where it is a finite number >= 0; DomainError for NaN, an
    infinity, a negative value or a non-number."""
    try:
        if 0.0 <= tol < math.inf:
            return tol
    except (TypeError, ValueError):
        pass
    raise DomainError(f"tol = {tol!r} is not a finite number >= 0")


def _positive_int(n, message):
    """n as an int where it is an integral value >= 1, as the zero indices
    take it (2.0 is 2); DomainError(message) for anything else: 2.5, NaN,
    inf or a non-number."""
    try:
        if n >= 1 and n == int(n):
            return int(n)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(message)
