"""Exception types shared across the package, and the one rule for each
kind of argument, which every public entry point checks by:

  require_finite    a point (z, zhat, zeta, t): a finite number;
  require_real      a real parameter (a, x): a finite real number;
  require_positive  a positive parameter (u, a radius): a finite real > 0;
  require_index     a zero index: an integral value in first..last;
  require_count     a count (n, a number of zeros or points, max_iter):
                    an integral value >= 1 (2.0 is 2).

Each raises DomainError on one line; a number too large for a double (an
int past 1.8e308) is not finite under any of them.  A hot path tests its
common arguments inline by the rule's comparison, and calls the rule
only where that test fails.
"""
import cmath
import math
import sys


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


# the largest double: a number compared with it exactly (an int too) is
# finite as a double where it is at most this
_DBL_MAX = sys.float_info.max


def _shown(x):
    """repr(x) for an error message, or a stand-in for an int past the
    double range (past 4300 digits repr raises ValueError)."""
    if isinstance(x, int) and not -_DBL_MAX <= x <= _DBL_MAX:
        return "an int past the double range"
    return repr(x)


def require_real(**values):
    """require_finite, and DomainError naming the first argument that is
    complex: a finite real number compares with floats, and a complex one
    raises TypeError."""
    for name, x in values.items():
        try:
            if -_DBL_MAX <= x <= _DBL_MAX:
                continue
        except TypeError:
            pass
        require_finite(**{name: x})
        raise DomainError(f"{name} = {x!r} is not real")


def require_positive(**values):
    """require_real, and DomainError naming the first argument that is
    not > 0."""
    for name, x in values.items():
        require_real(**{name: x})
        if not x > 0.0:
            raise DomainError(f"{name} = {x!r} is not > 0")


def _integral(n, first, last):
    """True where n is an integral value in first..last (True is 1)."""
    try:
        return first <= n <= last and n == int(n)
    except (TypeError, ValueError, OverflowError):
        return False


def require_index(m, last, first=1):
    """DomainError unless the zero index m is an integral value in
    first..last, saying which of the two it is not."""
    if not _integral(m, first, last):
        what = (f"outside {first}..{last}"
                if _integral(m, -math.inf, math.inf) else "is not an integer")
        raise DomainError(f"zero index {_shown(m)} {what}")


def require_count(n, message, least=1):
    """n as an int where it is an integral value in least.._DBL_MAX;
    DomainError(message) for anything else."""
    if _integral(n, least, _DBL_MAX):
        return int(n)
    raise DomainError(message)


def _tolerance(tol):
    """tol where it is a number in [0, _DBL_MAX]; DomainError for NaN, an
    infinity, an int past the double range, a negative value or a
    non-number."""
    try:
        if 0.0 <= tol <= _DBL_MAX:
            return tol
    except (TypeError, ValueError):
        pass
    raise DomainError(f"tol = {_shown(tol)} is not a finite number >= 0")
