"""The four zero families of U(a,z).

For a > 0 all zeros are complex; with u = 2a the m-th second-quadrant
zero comes from inverting zeta at e^{i pi/3} u^{-2/3} |a_m| (a_m the m-th
Airy zero) and applying the u^{-2}, u^{-4} correction terms.

For a < 0 (u = -2a) there are three families: M+ positive real zeros
(from the Airy zeros directly), M- non-positive real zeros (from the
negative real zeros of the combination Ai_u), and an infinite string of
complex zeros (from the first-quadrant zeros of Ai_u).  Back-transforms
report z in the second quadrant to one zero per conjugate pair.
"""
import cmath
import math
from dataclasses import dataclass
from typing import Optional

from . import genairy
from .airy import real_airy_zero
from .coeffs import CorrectionInput, correction1, correction2
from .errors import DomainError, require_finite
from .genairy import vartheta  # noqa: F401  (part of this module's API)
from .mapping import ZETA_AT_0, _sigma, invert_zeta, zeta
from .pcf_eval import Evaluator

_EXP_IPI3 = cmath.exp(1j * math.pi / 3.0)


@dataclass(frozen=True)
class ZeroFamily:
    kind: str  # apos-complex | aneg-positive | aneg-nonpositive | aneg-complex
    a: float
    u: float
    count: Optional[int]  # None = unbounded


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
    """M+: the number of positive real zeros of U(-u/2, x).

    4n-1 < u < 4n+3 gives n zeros (0 for 1 < u <= 3); odd integer
    u = 2n+1 (Hermite case H_n) gives n//2.
    """
    if u <= 3.0:
        return 0
    nearest = round(u)
    if nearest % 2 == 1 and abs(u - nearest) < 1e-12:
        return ((nearest - 1) // 2) // 2
    return int(math.floor((u + 1.0) / 4.0))


def m_minus(a, terms=3):
    """M-: the number of non-positive real zeros of U(a, x) for a < 0.

    Operational rule: the count of indices zeros_aneg_nonpositive accepts,
    i.e. whose mapped zero stays above zeta(0) and whose assembled xhat-
    is still non-negative.
    """
    count = vartheta(_u_neg(a))  # index 0 (the sole positive zero of Ai_u)
    for m in range(1, 10001):
        try:
            zeros_aneg_nonpositive(a, m, terms=terms)
        except DomainError:
            return count
        count += 1
    raise DomainError("runaway M- search")


def families(a, complex_count=None):
    """The zero families of U(a, .) with their counts."""
    require_finite(a=a)
    a = float(a)
    if a > 0:
        return [ZeroFamily("apos-complex", a, 2.0 * a, complex_count)]
    if a < 0:
        u = -2.0 * a
        fams = []
        if u > 3.0:
            fams.append(ZeroFamily("aneg-positive", a, u, count_positive(u)))
        fams.append(ZeroFamily("aneg-nonpositive", a, u, m_minus(a)))
        try:
            genairy._check_polynomial_case(u)
            fams.append(ZeroFamily("aneg-complex", a, u, complex_count))
        except DomainError:
            # Hermite polynomial case: all zeros real, no complex family
            fams.append(ZeroFamily("aneg-complex", a, u, 0))
        return fams
    raise DomainError("a = 0 is not covered by the u = 2|a| expansions")


def _assemble(m, kind, u, zeta0, terms, back):
    """Common pipeline: invert zeta, apply corrections, back-transform."""
    if terms not in (1, 2, 3):
        raise DomainError("terms must be 1, 2 or 3")
    z0 = invert_zeta(zeta0)
    zh = z0
    coeffs = ()
    if terms >= 2:
        inp = CorrectionInput(z0=z0, zeta0=zeta0, sigma0=_sigma(z0, zeta0))
        c1 = correction1(inp)
        coeffs = (c1,)
        zh = z0 + c1 / u ** 2
        if terms >= 3:
            c2 = correction2(inp)
            coeffs = (c1, c2)
            zh = zh + c2 / u ** 4
    return ZeroApproximation(m=m, kind=kind, z0=z0, terms=coeffs,
                             zhat=zh, z=back(zh), terms_used=terms)


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
    return -2.0 * a


def zeros_aneg_positive(a, m, terms=3):
    """m-th positive real zero of U(a, .), a < 0; m = 1 is the largest."""
    u = _u_neg(a)
    if u <= 3.0:
        raise DomainError("no positive zeros for u <= 3")
    mplus = count_positive(u)
    if not 1 <= m <= mplus:
        raise DomainError(f"index {m} outside 1..{mplus}")
    zeta0 = complex(real_airy_zero(m) * u ** (-2.0 / 3.0))
    back = lambda zh: complex(2.0 * math.sqrt(0.5 * u) * zh.real)
    return _assemble(m, "aneg-positive", u, zeta0, terms, back)


def zeros_aneg_nonpositive(a, m, terms=3):
    """Non-positive real zeros of U(a, .), a < 0, indexed per the
    1-vartheta convention: m = 0 (only when vartheta = 1) maps the sole
    positive zero of Ai_u; m >= 1 map its negative zeros."""
    u = _u_neg(a)
    th = vartheta(u)
    if m < 1 - th:
        raise DomainError(f"index {m} below {1 - th}")
    if m == 0:
        az = genairy.sole_positive_zero(u).value.real
    else:
        az = genairy.neg_zeros(u, m).value.real
    zeta0 = complex(az * u ** (-2.0 / 3.0))
    if zeta0.real < ZETA_AT_0 - 1e-9:
        raise DomainError(
            f"index {m} beyond M-: mapped zero below zeta(0)")
    back = lambda zh: complex(-2.0 * math.sqrt(0.5 * u) * zh.real)
    out = _assemble(m, "aneg-nonpositive", u, zeta0, terms, back)
    if out.zhat.real < -1e-9:
        raise DomainError(f"index {m} beyond M-: assembled xhat negative")
    return out


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


def hermite_zeros(n, terms=3, refine=True):
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
        if refine:
            zu = t_iterate(a, zu, evaluator=walker).value.real
        pos.append(zu / math.sqrt(2.0))
    pos = sorted(pos)
    out = [-x for x in reversed(pos)]
    if n % 2 == 1:
        out.append(0.0)
    out.extend(pos)
    # imported here, so that importing the package does not load numpy
    import numpy as np
    return np.array(out)
