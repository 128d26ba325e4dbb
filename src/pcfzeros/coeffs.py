"""Closed-form expansion coefficients.

correction1/correction2 are the O(u^-2), O(u^-4) terms of the zero
expansions, as rational functions of the leading zero z0 and the map
data (zeta0, sigma0) there.
"""
from dataclasses import dataclass

from .errors import DomainError

# corrections blow up as zeta0 -> 0 (zero at the turning point) and their
# terms cancel: correction1 is 10% off at |zeta0| = 2e-5 (u = 2n + 4/3)
ZETA_GUARD = 1e-4
# correction2 cancels like 1/zeta0^5: below this |zeta0| the rounding of
# (z0, zeta0, sigma0) in it outweighs what it adds to the seed
CORRECTION2_GUARD = 1e-2


@dataclass(frozen=True)
class CorrectionInput:
    z0: complex      # leading zero in the mapped plane (zhat / xhat / what)
    zeta0: complex
    sigma0: complex


def _check_input(inp, guard):
    if abs(inp.zeta0) < guard:
        raise DomainError(
            "leading zero too close to the turning point for corrections")


def correction1(inp):
    """First correction term: the O(u^-2) coefficient of the zero expansion."""
    _check_input(inp, ZETA_GUARD)
    z0, zt0, s0 = inp.z0, inp.zeta0, inp.sigma0
    return s0 / (48.0 * zt0 ** 2) * (12.0 * z0 * s0 * zt0
                                     - 10.0 * z0 ** 3 * s0 ** 3 + 5.0)


def correction2(inp):
    """Second correction term: the O(u^-4) coefficient; defined for
    |zeta0| >= CORRECTION2_GUARD."""
    _check_input(inp, CORRECTION2_GUARD)
    z0, zt0, s0 = inp.z0, inp.zeta0, inp.sigma0
    return -s0 / (46080.0 * zt0 ** 5) * (
        200.0 * z0 ** 7 * s0 ** 9 * (221.0 * z0 ** 2 + 35.0)
        - 720.0 * z0 ** 5 * s0 ** 7 * zt0 * (221.0 * z0 ** 2 + 25.0)
        - 4000.0 * z0 ** 4 * s0 ** 6
        + 24.0 * z0 ** 3 * s0 ** 5 * zt0 ** 2 * (8847.0 * z0 ** 2 + 580.0)
        + 5400.0 * z0 ** 2 * s0 ** 4 * zt0
        - 10.0 * z0 * s0 ** 3 * (12432.0 * z0 ** 2 * zt0 ** 3
                                 + 288.0 * zt0 ** 3 - 25.0)
        - 1200.0 * s0 ** 2 * zt0 ** 2
        + 27360.0 * z0 * s0 * zt0 ** 4
        - 5525.0)
