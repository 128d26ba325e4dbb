"""Closed-form expansion coefficients.

correction1/correction2 are the O(u^-2), O(u^-4) terms of the zero
expansions, as rational functions of the leading zero z0 and the map
data (zeta0, sigma0) there.  Their terms cancel like 1/zeta0^2 and
1/zeta0^5 as z0 -> 1, so within mapping.TP_RADIUS of the turning point
both are summed in doubles from their Taylor series in z0 - 1 instead.
"""
import cmath
from dataclasses import dataclass

from .mapping import TP_RADIUS, taylor

# the Taylor coefficients of correction1 and correction2 in z0 - 1
_C1 = (0.03214285714285714, -0.021984126984126984, 0.014028653885796744,
       -0.00855897435897436, 0.00506084334410865, -0.0029243067773007747,
       0.001660269121175185, -0.0009296327837404022, 0.0005147345455345155,
       -0.00028239253466084946, 0.00015373526845868945)
_C2 = (-0.011941777864992151, 0.013724382100011352, -0.014056628008201838,
       0.013024192771786762, -0.011146613099388183, 0.008961210245973947,
       -0.0068529445721886234, 0.0050318182448558695, -0.0035723887436351484,
       0.0024655612644051313, -0.0016611970682723564, 0.0010962868799634469)


@dataclass(frozen=True)
class CorrectionInput:
    z0: complex      # leading zero in the mapped plane (zhat / xhat / what)
    zeta0: complex
    sigma0: complex


def correction1(inp):
    """First correction term: the O(u^-2) coefficient of the zero expansion."""
    z0, zt0, s0 = inp.z0, inp.zeta0, inp.sigma0
    if abs(z0 - 1.0) < TP_RADIUS:
        return taylor(_C1, z0 - 1.0)
    return s0 / (48.0 * zt0 ** 2) * (12.0 * z0 * s0 * zt0
                                     - 10.0 * z0 ** 3 * s0 ** 3 + 5.0)


def correction2(inp):
    """Second correction term: the O(u^-4) coefficient.  Its closed form
    is a polynomial in x = z0 sigma0, z0^2, sigma0^2 and zeta0, summed
    by Horner in x.  Where the arithmetic leaves the double range it
    raises OverflowError, which zeros._assemble takes as undefined."""
    z0, zt0, s0 = inp.z0, inp.zeta0, inp.sigma0
    if abs(z0 - 1.0) < TP_RADIUS:
        return taylor(_C2, z0 - 1.0)
    x, p = z0 * s0, z0 * z0
    zt2 = zt0 * zt0
    zt3 = zt2 * zt0
    den = 46080.0 * zt2 * zt3
    poly = ((((((200.0 * (221.0 * p + 35.0) * x) * x
                - 720.0 * zt0 * (221.0 * p + 25.0)) * x
               - 4000.0) * x
              + 24.0 * zt2 * (8847.0 * p + 580.0)) * x
             + 5400.0 * zt0) * x
            - 10.0 * zt3 * (12432.0 * p + 288.0) + 250.0) * x - 1200.0 * zt2
    c = -s0 / den * (s0 * s0 * poly + 27360.0 * x * zt2 * zt2 - 5525.0)
    if not (cmath.isfinite(den) and cmath.isfinite(c)):
        raise OverflowError("correction2 leaves the double range")
    return c
