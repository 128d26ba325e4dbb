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

Every seed goes through one path, _seeder(kind, a, terms): it checks a,
terms and the Hermite case and forms the family's constants once, and
returns the seed as a function of the index m, a plain tuple of
ZeroApproximation's fields.  The CLI and hermite_zeros call it per m;
zeros_apos and the zeros_aneg_* functions wrap it for one index.
"""
import math
from dataclasses import dataclass
from typing import Optional

from . import genairy
from .airy import real_airy_zero
from .coeffs import correction1, correction2
from .errors import DomainError, require_finite
from .genairy import _EXP_IPI3, hermite_order, vartheta
from .mapping import ZETA_AT_0, _sigma, invert_zeta
from .pcf_eval import Evaluator


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


def _scale(u, k):
    """u ** k, the divisor of the k-th order correction, or 0.0 where it
    overflows: a correction is then undefined (dividing by it fails), as
    where u ** k underflows."""
    try:
        return u ** k
    except OverflowError:
        return 0.0


def _expand(zeta0, terms, u2, u4):
    """(z0, kept correction coefficients, zhat) for the leading term at
    zeta0: invert zeta, then add the corrections c1 / u^2 and c2 / u^4
    (u2, u4 from _scale).  A correction is kept while it is defined and
    smaller in modulus than the term before it, next to the turning point
    too, where it is a Taylor sum (coeffs); one whose arithmetic leaves
    the double range is undefined."""
    z0 = invert_zeta(zeta0)
    if terms == 1:
        return z0, (), z0
    sigma0 = _sigma(z0, zeta0)
    try:
        c1 = correction1(z0, zeta0, sigma0)
        step1 = c1 / u2
    except (OverflowError, ZeroDivisionError):
        return z0, (), z0  # undefined in doubles: z0 or u ** 2
    if not abs(step1) < abs(z0):
        return z0, (), z0
    zh = z0 + step1
    if terms == 2:
        return z0, (c1,), zh
    try:
        c2 = correction2(z0, zeta0, sigma0)
        step2 = c2 / u4
    except (OverflowError, ZeroDivisionError):
        return z0, (c1,), zh
    if not abs(step2) < abs(step1):
        return z0, (c1,), zh
    return z0, (c1, c2), zh + step2


def _seeder(kind, a, terms):
    """The seed of the m-th zero of family kind at a as a function of m,
    returning the tuple (z0, terms, zhat, z, terms_used) of
    ZeroApproximation's fields: a, terms and the Hermite case are checked
    and the family's constants (u, u^{-2/3}, u^2, u^4, the back-transform
    factor, genairy's tau offset) formed once; per m it checks the index
    and runs the Airy or generalised-Airy zero, invert_zeta, sigma, the
    corrections and the back-transform."""
    if kind == "apos-complex":
        require_finite(a=a)
        if a <= 0:
            raise DomainError("zeros_apos requires a > 0")
        u = 2.0 * a
    else:
        u = _u_neg(a)
    if terms not in (1, 2, 3):
        raise DomainError("terms must be 1, 2 or 3")
    upow = u ** (-2.0 / 3.0)
    u2, u4 = _scale(u, 2), _scale(u, 4)

    if kind == "apos-complex":
        back = 2j * math.sqrt(a)

        def seed(m):
            zeta0 = _EXP_IPI3 * abs(real_airy_zero(m)) * upow
            z0, coeffs, zh = _expand(zeta0, terms, u2, u4)
            return z0, coeffs, zh, back * zh, 1 + len(coeffs)
    elif kind == "aneg-complex":
        zero = genairy.complex_seeder(u)
        back = -2.0 * math.sqrt(0.5 * u)

        def seed(m):
            zeta0 = zero(m)[0] * upow
            z0, coeffs, zh = _expand(zeta0, terms, u2, u4)
            return z0, coeffs, zh, back * zh.conjugate(), 1 + len(coeffs)
    else:
        positive = kind == "aneg-positive"
        if positive:
            first, last = 1, count_positive(u)
            back = 2.0 * math.sqrt(0.5 * u)
        else:
            ms = _nonpositive_indices(u)
            first, last = ms.start, ms.stop - 1
            back = -2.0 * math.sqrt(0.5 * u)

        def seed(m):
            if not first <= m <= last:
                raise DomainError(f"index {m} outside {first}..{last}")
            if positive:
                x = real_airy_zero(m)
            elif m == 0:
                x = genairy.sole_positive_zero(u).value.real
            else:
                x = genairy.neg_zeros(u, m).value.real
            # raised to zeta(0) (the origin): the zero next to the
            # origin can map just below it near u = 4k + 3
            zeta0 = complex(max(x * upow, ZETA_AT_0))
            z0, coeffs, zh = _expand(zeta0, terms, u2, u4)
            return z0, coeffs, zh, complex(back * zh.real), 1 + len(coeffs)
    return seed


def _approximation(kind, a, m, terms):
    """The m-th zero of family kind at a, through the family's seeder."""
    return ZeroApproximation(m, kind, *_seeder(kind, a, terms)(m))


def zeros_apos(a, m, terms=3):
    """m-th (second-quadrant) complex zero of U(a, .), a > 0."""
    return _approximation("apos-complex", a, m, terms)


def _u_neg(a):
    require_finite(a=a)
    if a >= 0:
        raise DomainError("this family requires a < 0")
    u = -2.0 * a
    require_finite(u=u)  # a below -8.99e307
    return u


def zeros_aneg_positive(a, m, terms=3):
    """m-th positive real zero of U(a, .), a < 0; m = 1 is the largest."""
    return _approximation("aneg-positive", a, m, terms)


def zeros_aneg_nonpositive(a, m, terms=3):
    """Non-positive real zeros of U(a, .), a < 0, indexed per the
    1-vartheta convention: m = 0 (only when vartheta = 1) maps the sole
    positive zero of Ai_u; m >= 1 map its negative zeros, M- in all."""
    return _approximation("aneg-nonpositive", a, m, terms)


def zeros_aneg_complex(a, m, terms=3):
    """m-th complex zero of U(a, .) for a < 0, reported in the second
    quadrant (z = -2 sqrt|a| conj(what), what in the first quadrant)."""
    return _approximation("aneg-complex", a, m, terms)


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
    seed = _seeder("aneg-positive", a, terms)
    pos = []
    # smallest zero first (m = 1 is the largest), so that the evaluator
    # carries U from each zero to the next
    for m in range(n // 2, 0, -1):
        zu = seed(m)[3].real  # z
        zu = t_iterate(a, zu, evaluator=walker).value.real
        pos.append(zu / math.sqrt(2.0))
    pos = sorted(pos)
    out = [-x for x in reversed(pos)] + [0.0] * (n % 2) + pos
    # imported here, so that importing the package does not load numpy
    import numpy as np
    return np.array(out)
