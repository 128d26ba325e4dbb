"""Closed-form expansion coefficients.

G_1..G_4 are the rational functions of zhat entering the odd-order
Liouville-Green coefficients; Upsilon_1 is the first coefficient of the
zeta-plane expansion; correction1/correction2 are the O(u^-2), O(u^-4)
terms of the zero expansions, as rational functions of the leading zero
z0 and the map data (zeta0, sigma0) there.
"""
import math
from dataclasses import dataclass

import mpmath as mp

from .errors import DomainError
from .mapping import _zeta_raw, map_bundle

# corrections blow up as zeta0 -> 0 (zero at the turning point) and their
# terms cancel: correction1 is 10% off at |zeta0| = 2e-5 (u = 2n + 4/3)
ZETA_GUARD = 1e-4


@dataclass(frozen=True)
class CorrectionInput:
    z0: complex      # leading zero in the mapped plane (zhat / xhat / what)
    zeta0: complex
    sigma0: complex


def g_coeff(s, zh):
    """G_s(zhat) for s = 1..4, exact rational-function evaluation."""
    zh = complex(zh)
    if zh == 1.0 or zh == -1.0:
        raise DomainError("G_s has a pole at zhat = +/-1")
    z2 = zh * zh
    d = z2 - 1.0
    if s == 1:
        return -(z2 - 6.0) / (24.0 * d)
    if s == 2:
        num = ((56.0 * z2 - 252.0) * z2 ** 3 + 441.0 * z2 ** 2
               + 1860.0 * z2 + 3420.0)
        return num / (5760.0 * d ** 4)
    if s == 3:
        num = (3968.0 * z2 ** 7 - 29760.0 * z2 ** 6 + 96720.0 * z2 ** 5
               - 177320.0 * z2 ** 4 + 199485.0 * z2 ** 3
               - 1719018.0 * z2 ** 2 - 5480580.0 * z2 - 1590120.0)
        return -num / (322560.0 * d ** 7)
    if s == 4:
        num = (130048.0 * z2 ** 10 - 1365504.0 * z2 ** 9
               + 6486144.0 * z2 ** 8 - 18377408.0 * z2 ** 7
               + 34457640.0 * z2 ** 6 - 44794932.0 * z2 ** 5
               + 41062021.0 * z2 ** 4 + 495103464.0 * z2 ** 3
               + 3107060712.0 * z2 ** 2 + 2497542880.0 * z2
               + 292852560.0)
        return num / (3440640.0 * d ** 10)
    raise DomainError("g_coeff supports s in 1..4")


# Upsilon_1(1): limit of zhat*sigma*G_1/zeta - 5/(48 zeta^2), obtained by
# series expansion about the turning point: -9/(140*2^(2/3))
_UPSILON1_AT_TP = -9.0 / (140.0 * 2.0 ** (2.0 / 3.0))
# guard band: the raw formula is 0/0 at zhat=1; use high precision nearby
_UP_GUARD = 1e-2


def upsilon1(zh):
    """Upsilon_1(zhat) = zhat sigma G_1 / zeta - 5/(48 zeta^2); the
    singularity at zhat = 1 is removable and handled internally."""
    zh = complex(zh)
    if zh == -1.0:
        raise DomainError("Upsilon_1 is singular at zhat = -1")
    if abs(zh - 1.0) < 1e-7:
        return complex(_UPSILON1_AT_TP)
    if abs(zh - 1.0) < _UP_GUARD:
        # ~14 digits cancel; 40-digit arithmetic keeps plenty
        with mp.workdps(40):
            z = mp.mpc(zh)
            z2 = z * z
            zt = _zeta_raw(z, mp)
            sg = mp.sqrt(zt / (z2 - 1.0))
            g1 = -(z2 - 6.0) / (24.0 * (z2 - 1.0))
            return complex(z * sg * g1 / zt - 5.0 / (48.0 * zt * zt))
    b = map_bundle(zh)
    return zh * b.sigma * g_coeff(1, zh) / b.zeta - 5.0 / (48.0 * b.zeta ** 2)


def _check_input(inp):
    if abs(inp.zeta0) < ZETA_GUARD:
        raise DomainError(
            "leading zero too close to the turning point for corrections")


def correction1(inp):
    """First correction term: the O(u^-2) coefficient of the zero expansion."""
    _check_input(inp)
    z0, zt0, s0 = inp.z0, inp.zeta0, inp.sigma0
    return s0 / (48.0 * zt0 ** 2) * (12.0 * z0 * s0 * zt0
                                     - 10.0 * z0 ** 3 * s0 ** 3 + 5.0)


def correction2(inp):
    """Second correction term: the O(u^-4) coefficient."""
    _check_input(inp)
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
