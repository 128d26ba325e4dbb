"""The four zero families of U(a,z).

For a > 0 all zeros are complex; with u = 2a the m-th second-quadrant
zero comes from inverting zeta at e^{i pi/3} u^{-2/3} |a_m| (a_m the m-th
Airy zero) and applying the u^{-2}, u^{-4} correction terms.

For a < 0 (u = -2a) there are three families: M+ positive real zeros
(from the Airy zeros directly), M- non-positive real zeros (from the
real zeros of the combination Ai_u), and an infinite string of complex
zeros (from the first-quadrant zeros of Ai_u).  Back-transforms report
z in the second quadrant to one zero per conjugate pair.  M+ and M- are
closed forms from DLMF 12.11(i).  In the Hermite case u = 2n + 1
(genairy.hermite_order), and only there, the complex family is empty;
for odd n the zero at the origin is then one of the M-.
"""
import cmath
import math
from dataclasses import dataclass
from typing import Optional

from . import genairy
from .airy import real_airy_zero
from .coeffs import CorrectionInput, correction1, correction2
from .errors import DomainError, require_finite
from .genairy import hermite_order, vartheta
from .mapping import ZETA_AT_0, _sigma, invert_zeta
from .pcf_eval import Evaluator

_EXP_IPI3 = cmath.exp(1j * math.pi / 3.0)


@dataclass(frozen=True)
class ZeroFamily:
    kind: str  # apos-complex | aneg-positive | aneg-nonpositive | aneg-complex
    a: float
    u: float
    count: Optional[int]  # None = unbounded
    start: int = 1  # first index: 1 - vartheta(u) for aneg-nonpositive


@dataclass(frozen=True)
class ZeroApproximation:
    m: int
    kind: str
    z0: complex            # leading term in the mapped plane
    terms: tuple           # correction coefficients (z_m1, z_m2)
    zhat: complex          # assembled mapped-plane value
    z: complex             # zero of U(a, .) in the z-plane
    terms_used: int


def count_positive(u):
    """M+: the number of positive real zeros of U(-u/2, x), u > 0 (DLMF
    12.11(i)): n for 4n-1 < u < 4n+3; n//2 at u = 2n+1 (H_n), where for
    odd n the zero at the origin is one of the M-."""
    n = hermite_order(u)
    return math.floor((u + 1.0) / 4.0) if n is None else n // 2


def _nonpositive_indices(u):
    """The indices of the M- = floor((u+1)/2) - M+ non-positive zeros."""
    n = hermite_order(u)
    if n is not None:
        return range(1, 1 + n - n // 2)
    first = 1 - vartheta(u)
    return range(first, first + math.floor((u - 1.0) / 4.0) + 1)


def _count(ms, u):
    """len(ms), or DomainError where the count does not fit in an index."""
    try:
        return len(ms)
    except OverflowError:
        raise DomainError(f"u = {u}: more non-positive zeros than an "
                          "index holds") from None


def m_minus(a):
    """M-: the number of non-positive real zeros of U(a, x), a < 0.
    U(a, x) has n real zeros for -n - 1/2 < a < -n + 1/2 (DLMF 12.11(i)),
    and n at u = 2n + 1, where for odd n the origin is one of the M-."""
    u = _u_neg(a)
    return _count(_nonpositive_indices(u), u)


def families(a, complex_count=None):
    """The zero families of U(a, .) with their counts and first indices;
    for a < 0 all three, the empty ones with count 0 (the complex family
    in the Hermite case)."""
    require_finite(a=a)
    a = float(a)
    if a > 0:
        return [ZeroFamily("apos-complex", a, 2.0 * a, complex_count)]
    if a < 0:
        u = _u_neg(a)
        if hermite_order(u) is not None:
            complex_count = 0
        ms = _nonpositive_indices(u)
        return [ZeroFamily("aneg-positive", a, u, count_positive(u)),
                ZeroFamily("aneg-nonpositive", a, u, _count(ms, u), ms.start),
                ZeroFamily("aneg-complex", a, u, complex_count)]
    raise DomainError("a = 0 is not covered by the u = 2|a| expansions")


def _assemble(m, kind, u, zeta0, terms, back):
    """Common pipeline: invert zeta, apply corrections, back-transform.
    A correction is kept while it is defined and smaller in modulus than
    the term before it, next to the turning point too, where it is a
    Taylor sum (coeffs); one whose arithmetic leaves the double range is
    undefined."""
    if terms not in (1, 2, 3):
        raise DomainError("terms must be 1, 2 or 3")
    z0 = invert_zeta(zeta0)
    zh, coeffs, prev = z0, (), z0
    if terms >= 2:
        inp = CorrectionInput(z0=z0, zeta0=zeta0, sigma0=_sigma(z0, zeta0))
        for corr, power in ((correction1, 2), (correction2, 4))[:terms - 1]:
            try:
                c = corr(inp)
                step = c / u ** power
            except (OverflowError, ZeroDivisionError):
                break  # undefined in doubles: z0 or u ** power
            if not abs(step) < abs(prev):
                break
            coeffs, zh, prev = coeffs + (c,), zh + step, step
    return ZeroApproximation(m=m, kind=kind, z0=z0, terms=coeffs, zhat=zh,
                             z=back(zh), terms_used=1 + len(coeffs))


def zeros_apos(a, m, terms=3):
    """m-th (second-quadrant) complex zero of U(a, .), a > 0."""
    require_finite(a=a)
    if a <= 0:
        raise DomainError("zeros_apos requires a > 0")
    if m < 1:
        raise DomainError("zero index must be >= 1")
    u = 2.0 * a
    zeta0 = _EXP_IPI3 * abs(real_airy_zero(m)) * u ** (-2.0 / 3.0)
    back = lambda zh: 2j * math.sqrt(a) * zh
    return _assemble(m, "apos-complex", u, zeta0, terms, back)


def _u_neg(a):
    require_finite(a=a)
    if a >= 0:
        raise DomainError("this family requires a < 0")
    u = -2.0 * a
    require_finite(u=u)  # a below -8.99e307
    return u


def _real_zeta0(x, u):
    """x u^{-2/3}, raised to zeta(0) (the origin): the zero next to the
    origin can map just below it near u = 4k + 3."""
    return complex(max(x * u ** (-2.0 / 3.0), ZETA_AT_0))


def zeros_aneg_positive(a, m, terms=3):
    """m-th positive real zero of U(a, .), a < 0; m = 1 is the largest."""
    u = _u_neg(a)
    mplus = count_positive(u)
    if not 1 <= m <= mplus:
        raise DomainError(f"index {m} outside 1..{mplus}")
    zeta0 = _real_zeta0(real_airy_zero(m), u)
    back = lambda zh: complex(2.0 * math.sqrt(0.5 * u) * zh.real)
    return _assemble(m, "aneg-positive", u, zeta0, terms, back)


def zeros_aneg_nonpositive(a, m, terms=3):
    """Non-positive real zeros of U(a, .), a < 0, indexed per the
    1-vartheta convention: m = 0 (only when vartheta = 1) maps the sole
    positive zero of Ai_u; m >= 1 map its negative zeros, M- in all."""
    u = _u_neg(a)
    ms = _nonpositive_indices(u)
    if m not in ms:
        raise DomainError(f"index {m} outside {ms.start}..{ms.stop - 1}")
    if m == 0:
        az = genairy.sole_positive_zero(u).value.real
    else:
        az = genairy.neg_zeros(u, m).value.real
    back = lambda zh: complex(-2.0 * math.sqrt(0.5 * u) * zh.real)
    return _assemble(m, "aneg-nonpositive", u, _real_zeta0(az, u), terms,
                     back)


def zeros_aneg_complex(a, m, terms=3):
    """m-th complex zero of U(a, .) for a < 0, reported in the second
    quadrant (z = -2 sqrt|a| conj(what), what in the first quadrant)."""
    u = _u_neg(a)
    if m < 1:
        raise DomainError("zero index must be >= 1")
    gz = genairy.complex_zeros(u, m)
    zeta0 = gz.value * u ** (-2.0 / 3.0)
    back = lambda zh: -2.0 * math.sqrt(0.5 * u) * zh.conjugate()
    return _assemble(m, "aneg-complex", u, zeta0, terms, back)


def hermite_zeros(n, terms=3):
    """All real zeros of the Hermite polynomial H_n via the u = 2n+1
    positive-zero family (x = sqrt(u) xhat+), symmetry for the rest."""
    require_finite(n=n)
    if n < 1 or n != int(n):
        raise DomainError("Hermite order must be a positive integer")
    # local import: refine depends on pcf_eval
    from .refine import STEP_TOL, t_iterate
    u = 2.0 * n + 1.0
    a = -0.5 * u
    walker = Evaluator(a, STEP_TOL, "chain")
    pos = []
    # smallest zero first (m = 1 is the largest), so that the evaluator
    # carries U from each zero to the next
    for m in range(n // 2, 0, -1):
        zu = zeros_aneg_positive(a, m, terms=terms).z.real
        zu = t_iterate(a, zu, evaluator=walker).value.real
        pos.append(zu / math.sqrt(2.0))
    pos = sorted(pos)
    out = [-x for x in reversed(pos)] + [0.0] * (n % 2) + pos
    # imported here, so that importing the package does not load numpy
    import numpy as np
    return np.array(out)
