"""Airy functions on the complex plane.

Provides Ai, Ai' (complex), Bi, Bi' (real axis), the rotated functions
Ai_l(z) = Ai(z exp(-2*pi*i*l/3)) for l = +1, -1, and the classical
negative real zeros a_m of Ai.  Exponentially large results are reported
in scaled form (mantissa + exponent of e) instead of overflowing.
"""
import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.special as sp

from .errors import DomainError

_ROT = {1: cmath.exp(-2j * math.pi / 3), -1: cmath.exp(2j * math.pi / 3)}


@dataclass(frozen=True)
class AiryValue:
    value: complex
    derivative: complex
    # value * e**exponent is the true function value; exponent is 0 unless
    # the unscaled result would overflow (or underflow) a double.
    exponent: float = 0.0

    def unscaled(self):
        if self.exponent == 0.0:
            return self.value, self.derivative
        f = cmath.exp(self.exponent)
        return self.value * f, self.derivative * f


def _scaled_from_airye(z):
    """Ai, Ai' at complex z via the exponentially scaled routine.

    scipy's airye returns Ai(z)*exp((2/3) z^(3/2)); fold the oscillatory
    part of the scale factor back into the mantissa and keep the real part
    as the exponent.
    """
    eta = (2.0 / 3.0) * z * cmath.sqrt(z)
    aie, aipe, _, _ = sp.airye(z)
    phase = cmath.exp(-1j * eta.imag)
    return AiryValue(complex(aie) * phase, complex(aipe) * phase, -eta.real)


def eval_ai(z):
    """Ai(z) and Ai'(z) for complex z.

    Relative accuracy ~1e-13 for moderate |z|; for arguments where the
    result overflows/underflows the double range, a scaled AiryValue with
    nonzero exponent is returned.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError("eval_ai requires finite z")
    ai, aip, _, _ = sp.airy(z)
    if cmath.isfinite(ai) and cmath.isfinite(aip) and (ai != 0 or abs(z) < 1):
        return AiryValue(complex(ai), complex(aip))
    return _scaled_from_airye(z)


def eval_ai_rotated(l, z):
    """Ai_l(z) = Ai(z e^{-2*pi*i*l/3}) and its z-derivative, l in {+1,-1}."""
    if l not in (1, -1):
        raise DomainError("rotation index must be +1 or -1")
    rot = _ROT[l]
    base = eval_ai(rot * complex(z))
    return AiryValue(base.value, rot * base.derivative, base.exponent)


def eval_bi_real(x):
    """Bi(x) and Bi'(x) for real x, scaled on overflow (large positive x)."""
    x = float(x)
    _, _, bi, bip = sp.airy(x)
    if math.isfinite(bi) and math.isfinite(bip):
        return AiryValue(complex(bi), complex(bip))
    # large positive x: Bi grows like exp(+(2/3) x^(3/2))
    _, _, bie, bipe = sp.airye(x)
    eta = (2.0 / 3.0) * x * math.sqrt(x)
    return AiryValue(complex(bie), complex(bipe), eta)


_AI_ZEROS_CACHE = np.empty(0)


def real_airy_zero(m):
    """The m-th negative real zero a_m of Ai (m >= 1), a_1 > a_2 > ..."""
    if m < 1 or m != int(m):
        raise DomainError("zero index must be a positive integer")
    global _AI_ZEROS_CACHE
    if m > len(_AI_ZEROS_CACHE):
        _AI_ZEROS_CACHE = sp.ai_zeros(max(2 * m, 16))[0]
    return float(_AI_ZEROS_CACHE[m - 1])
