"""Closed-form expansion coefficients.

correction1/correction2 are the O(u^-2), O(u^-4) terms of the zero
expansions, as rational functions of the leading zero z0 and the map
data (zeta0, sigma0) there.  Their terms cancel like 1/zeta0^2 and
1/zeta0^5 as z0 -> 1, so within mapping.TP_RADIUS of the turning point
both are summed in doubles from their Taylor series in z0 - 1 instead.
"""
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
    """Second correction term: the O(u^-4) coefficient."""
    z0, zt0, s0 = inp.z0, inp.zeta0, inp.sigma0
    if abs(z0 - 1.0) < TP_RADIUS:
        return taylor(_C2, z0 - 1.0)
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
