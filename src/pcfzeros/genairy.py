"""Zeros of the combination Ai_u(z) = e^{(3u-1)pi i/6} Ai_1(z)
+ e^{-(3u-1)pi i/6} Ai_{-1}(z).

Real negative zeros, the sole positive zero when it exists, and the
first-quadrant complex zeros.  On the real axis the zeros coincide with
the roots of sin(u pi/2) Ai(x) + cos(u pi/2) Bi(x) = 0.

The m-th negative and complex zeros are seeded by the tau-series T(t) of
DLMF 9.9.18.  One rule, applied here and nowhere else, decides whether a
seed is refined: it is returned as it is only where twice the first term
the series omits is within the accuracy refinement delivers
(_BRENT_XTOL + _BRENT_RTOL |x|), which holds from m = 13 or 14 on;
otherwise, or when the caller passes refine=True, it is refined (real
zeros by a safeguarded Newton iteration in a bracket around the seed,
complex ones by Newton on the identity of refine_zero).  For u mod 2 in
[4/3, 2) the first negative zero has tau < 1, where the series is
useless near t = 0: it is found in the bracket between the second zero
and the origin instead.  Within 1e-12 of u = 4/3 (mod 2) Ai_u vanishes
at the origin: for u mod 2 below 4/3 (vartheta(u) = 1) that is the sole
positive zero, index 0, and from 4/3 on (vartheta(u) = 0) the first
negative zero, index 1, so that the indices run on without a gap.
complex_seeder(u) forms the part of tau that does not depend on m once
for a whole family; complex_zeros is one call of it.  Indices stop at
airy.MAX_INDEX, up to which tau is exact in doubles.

hermite_order decides the Hermite case u = 2n + 1 for the whole package;
outside it complex_zeros answers however close u is to an odd integer.

The identity residual of a zero (GenAiryZero.residual) costs two
rotated Airy evaluations, and is computed on each read.
"""
import cmath
import math
import sys
from typing import NamedTuple, Optional

from .airy import (_check_index, _t_correction, eval_ai_rotated, eval_ai,
                   eval_bi_real)
from .errors import (ConvergenceError, DomainError, PolynomialCaseError,
                     _positive_int)

# rounding level of the identity residual per (1+|z|)^{3/2}: the phase
# of Ai_{+-1} at z is off by about eps |z|^{3/2}; measured residuals at
# Newton's noise floor are 0.5-1.1 eps |z|^{3/2} for |z| = 15-27
_RESIDUAL_NOISE = 10.0 * sys.float_info.epsilon

# stopping tolerances of every real zero: a root is returned once its
# last step is below _BRENT_XTOL + _BRENT_RTOL |x| (rtol is that of
# scipy's brentq, the tests' oracle for these roots)
_BRENT_XTOL = 1e-14
_BRENT_RTOL = 4.0 * sys.float_info.epsilon
# e^{i pi/3}: the direction of the complex zeros of Ai_u for large m,
# and of the leading terms of the a > 0 zeros (zeros)
_EXP_IPI3 = cmath.exp(1j * math.pi / 3.0)
# iteration cap of the real root search: bisection alone halves the
# widest bracket (64) to _BRENT_XTOL in about 53 steps
_ROOT_MAX_ITER = 100


class GenAiryZero(NamedTuple):
    index: int
    kind: str  # negative-real | sole-positive | complex-first-quadrant
    value: complex
    refined: bool
    u: float

    @property
    def residual(self):
        """identity_residual(u, value), computed on each read."""
        return identity_residual(self.u, self.value)


def _check_u(u, what):
    """DomainError naming what unless u is a finite number > 0: for NaN,
    an infinity or a non-number too."""
    try:
        if 0.0 < u < math.inf:
            return
    except TypeError:
        pass
    raise DomainError(f"{what} requires a finite u > 0, got u = {u!r}")


def mu(u):
    """Periodic phase shift of period 2: 2u on [0,4/3) mod 2, else 2u-4
    (u > 0)."""
    _check_u(u, "mu")
    r = math.fmod(u, 2.0)
    return 2.0 * r if r < 4.0 / 3.0 else 2.0 * r - 4.0


def hermite_order(u):
    """n when u is within 1e-12 of 2n + 1 (u > 0), else None: the Hermite
    case, where U(-u/2, z) = e^{-z^2/4} He_n(z) has n real zeros and no
    complex ones (DLMF 12.7.2, 12.11(i)).  The test is on fmod(u, 2),
    which is exact: every double from 2^53 on is an even integer, so no
    u there is the Hermite case."""
    if abs(math.fmod(u, 2.0) - 1.0) < 1e-12:
        return round((u - 1.0) / 2.0)
    return None


def vartheta(u):
    """1 when u reduced mod 2 lies in (1, 4/3), else 0."""
    r = math.fmod(u, 2.0)
    return 1 if 1.0 < r < 4.0 / 3.0 else 0


def t_series(t):
    """Large-|t| expansion T(t) = t^(2/3)(1 + 5/(48 t^2) - ...), summed
    to the t^-8 term; _series_suffices decides where that is accurate
    enough to stand without refinement.
    """
    t = complex(t)
    return t ** (2.0 / 3.0) * (1.0 + _t_correction(t * t))


# the first coefficient of DLMF 9.9.18 that t_series leaves out (of t^-10)
_T_NEXT = 162375596875.0 / 334430208.0


def _t_series_tail(t):
    """|first term t_series omits| = C t^(2/3 - 10): its truncation
    estimate.  Sharp for the negative zeros m >= 2, where t > 2.3: raw
    error/estimate is 0.37-0.99 for m = 2..10 at u = 2, 5.5, 9.1, 12.4,
    16.6."""
    return _T_NEXT * abs(t) ** (2.0 / 3.0 - 10.0)


def _series_suffices(t, x):
    """True where twice the first omitted term of t_series at t is within
    the accuracy refinement delivers at the zero x, xtol + rtol |x|."""
    return 2.0 * _t_series_tail(t) <= _BRENT_XTOL + _BRENT_RTOL * abs(x)


def _genairy_real_pair(u, x):
    """sin(u pi/2) Ai(x) + cos(u pi/2) Bi(x) and its x-derivative."""
    ai = eval_ai(x)
    bi = eval_bi_real(x)
    s = math.sin(0.5 * u * math.pi)
    c = math.cos(0.5 * u * math.pi)
    # both unscaled: real zeros of interest are at moderate |x|
    return (s * ai.value.real + c * bi.value.real,
            s * ai.derivative.real + c * bi.derivative.real)


def eval_genairy_real(u, x):
    """sin(u pi/2) Ai(x) + cos(u pi/2) Bi(x), proportional to Ai_u on R."""
    return _genairy_real_pair(u, x)[0]


def _identity_parts(u, z):
    """Return (f, fp, residual) for f(z) = c Ai_1(z) + Ai_{-1}(z) with
    c = e^{(3u-1) pi i/3}, in a common scaling, plus the identity residual
    |1 + c Ai_1/Ai_{-1}|."""
    c = cmath.exp((3.0 * u - 1.0) * math.pi * 1j / 3.0)
    p = eval_ai_rotated(1, z)
    q = eval_ai_rotated(-1, z)
    scale = cmath.exp(p.exponent - q.exponent)
    f = c * p.value * scale + q.value
    fp = c * p.derivative * scale + q.derivative
    denom = abs(q.value)
    residual = abs(f) / denom if denom > 0 else math.inf
    return f, fp, residual


def identity_residual(u, z):
    """|1 + e^{(3u-1) pi i/3} Ai_1(z)/Ai_{-1}(z)| — zero at zeros of Ai_u."""
    return _identity_parts(u, complex(z))[2]


def refine_zero(u, approx, tol=1e-14, max_iter=30):
    """Newton-polish an approximate zero of Ai_u.

    Damped Newton on f(z) = e^{(3u-1) pi i/3} Ai_1(z) + Ai_{-1}(z);
    converges when |step| <= tol*(1+|z|), or at Newton's noise floor:
    when the step stops shrinking while the identity residual at z is
    within the rounding of Ai there (_RESIDUAL_NOISE (1+|z|)^{3/2}),
    z is returned as it is.  A max_iter that is not an integer >= 1 is a
    DomainError.
    """
    max_iter = _positive_int(max_iter, "max_iter must be an integer >= 1")
    z = complex(approx)
    prev = math.inf
    for _ in range(max_iter):
        f, fp, res = _identity_parts(u, z)
        if fp == 0:
            raise ConvergenceError("vanishing derivative in refine_zero", last=z)
        step = f / fp
        # keep steps below the local zero spacing
        cap = 0.5 * (1.0 + abs(z))
        if abs(step) > cap:
            step *= cap / abs(step)
        if abs(step) >= prev and \
                res <= _RESIDUAL_NOISE * (1.0 + abs(z)) ** 1.5:
            break
        z -= step
        if abs(step) <= tol * (1.0 + abs(z)):
            break
        prev = abs(step)
    else:
        raise ConvergenceError("refine_zero did not converge", last=z,
                               residual=identity_residual(u, z))
    kind = "complex-first-quadrant"
    if abs(z.imag) <= 1e-12 * (1.0 + abs(z)):
        z = complex(z.real, 0.0)
        kind = "negative-real" if z.real <= 0 else "sole-positive"
    return GenAiryZero(index=-1, kind=kind, value=z, refined=True, u=u)


def _newton_bisect(u, lo, hi, flo, what):
    """The zero of Ai_u in [lo, hi], across which it changes sign (flo
    is its value at lo): Newton steps from the midpoint, with f' from
    Ai' and Bi', and a bisection wherever a step would leave the
    bracket.  Returns once a step is below _BRENT_XTOL + _BRENT_RTOL |x|:
    near a zero of Ai_u, f'' = x f is small, so the error after that
    step is far below it."""
    x = 0.5 * (lo + hi)
    for _ in range(_ROOT_MAX_ITER):
        f, fp = _genairy_real_pair(u, x)
        if f == 0.0:
            return x
        if (f < 0.0) == (flo < 0.0):
            lo, flo = x, f
        else:
            hi = x
        step = f / fp if fp != 0.0 else math.inf
        if abs(step) <= _BRENT_XTOL + _BRENT_RTOL * abs(x):
            return x - step
        x -= step
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
    raise ConvergenceError(f"no convergence for {what} of Ai_u, u = {u}",
                           last=x)


def _real_root(u, brackets, what, last=None):
    """The zero of Ai_u in the first (lo, hi) of brackets across which
    eval_genairy_real changes sign, by _newton_bisect; ConvergenceError
    when none of them brackets a zero."""
    for lo, hi in brackets:
        flo = eval_genairy_real(u, lo)
        fhi = eval_genairy_real(u, hi)
        if flo == 0.0:
            return lo
        if fhi == 0.0:
            return hi
        if flo * fhi < 0:
            return _newton_bisect(u, lo, hi, flo, what)
    raise ConvergenceError(f"no sign change found for {what} of Ai_u, "
                           f"u = {u}", last=last)


def _brackets_around(x, tau):
    """Brackets of growing width around the series seed x (tau >= 1) of
    a negative zero."""
    half = max(0.45 * (8.0 / (3.0 * math.pi)) / tau * abs(x), 0.2)
    for _ in range(9):
        yield x - half, min(x + half, -1e-12)
        half *= 1.6


def neg_zeros(u, m, refine=False):
    """m-th negative real zero of Ai_u: -T(3 pi tau_m / 8), tau_m = 4m-3+mu(u).

    The series value is refined in a bracket around it (_real_root) when
    refine=True or when its truncation estimate (twice the first omitted
    term) exceeds the refinement's own accuracy, _BRENT_XTOL +
    _BRENT_RTOL |x|: every m <= 12.
    For tau < 1 (m = 1 with u mod 2 in [4/3, 2)) the series is not used:
    the zero is the one between the second zero and the origin, or,
    within 1e-12 of u = 4/3 (mod 2), the origin, where Ai_u then vanishes
    (vartheta(u) = 0 on this side, so sole_positive_zero does not return
    it).
    """
    _check_u(u, "neg_zeros")
    _check_index(m)
    tau = 4.0 * m - 3.0 + mu(u)
    if tau < 1.0 and abs(math.fmod(u, 2.0) - 4.0 / 3.0) < 1e-12:
        return GenAiryZero(index=m, kind="negative-real", value=0.0 + 0.0j,
                           refined=True, u=u)
    if tau < 1.0:
        x2 = neg_zeros(u, 2).value.real
        x = _real_root(u, [(x2 + 1e-3 * abs(x2), -1e-12)],
                       "first negative zero", last=x2)
        refined = True
    else:
        t = 3.0 * math.pi * tau / 8.0
        x = -t_series(t).real
        refined = refine or not _series_suffices(t, x)
        if refined:
            x = _real_root(u, _brackets_around(x, tau), "negative zero",
                           last=x)
    return GenAiryZero(index=m, kind="negative-real", value=complex(x),
                       refined=refined, u=u)


def sole_positive_zero(u) -> Optional[GenAiryZero]:
    """The unique positive zero of Ai_u when vartheta(u)=1, else None.

    At u = 4/3 (mod 2) the zero sits exactly at the origin.
    """
    _check_u(u, "sole_positive_zero")
    r = math.fmod(u, 2.0)
    if abs(r - 4.0 / 3.0) < 1e-12:
        return GenAiryZero(index=0, kind="sole-positive", value=0.0 + 0.0j,
                           refined=True, u=u)
    if vartheta(u) == 0:
        return None
    x = _real_root(u, ((1e-12, 0.5 * 2.0 ** k) for k in range(8)),
                   "sole positive zero")
    return GenAiryZero(index=0, kind="sole-positive", value=complex(x),
                       refined=True, u=u)


def _tau_offset(u):
    """(4 M, s, i l) with tau_m = 4m + 4 M - u + s + i l for the complex
    zeros, the branch selected by the sign of c = cos(u pi/2): M = M+,
    s = -1 for c > 0, else M = floor((u - 1)/4), s = 1; l = (2/pi)
    ln|2c|."""
    c = math.cos(0.5 * u * math.pi)
    if c > 0:
        return (4.0 * math.floor((u + 1.0) / 4.0), -1.0,
                (2j / math.pi) * math.log(2.0 * c))
    return (4.0 * math.floor((u - 1.0) / 4.0), 1.0,
            (2j / math.pi) * math.log(abs(2.0 * c)))


def _complex_seed(u, m, offset):
    """(t, seed) of the m-th complex zero: seed = e^{i pi/3} T(t) with
    t = 3 pi tau / 8, offset = _tau_offset(u)."""
    k4, s, il = offset
    t = 3.0 * math.pi * (4.0 * m + k4 - u + s + il) / 8.0
    return t, _EXP_IPI3 * t_series(t)


def complex_seeder(u):
    """The m-th complex zero of Ai_u in the first quadrant as a function
    zero(m, refine=False) -> (value, refined), with u checked and
    _tau_offset(u) formed once.

    The seed e^{i pi/3} T(3 pi tau / 8) (arg -> pi/3 as m grows) is
    Newton-refined by refine_zero when refine=True or when its truncation
    estimate fails the same test as in neg_zeros: every m <= 13 at
    u = 12.4.  PolynomialCaseError in the Hermite case (hermite_order).
    """
    _check_u(u, "complex_zeros")
    n = hermite_order(u)
    if n is not None:
        raise PolynomialCaseError(f"u = {u} is the Hermite case 2n + 1, "
                                  f"n = {n}: no complex zeros")
    offset = _tau_offset(u)

    def zero(m, refine=False):
        _check_index(m)
        t, z = _complex_seed(u, m, offset)
        if refine or not _series_suffices(t, z):
            return refine_zero(u, z).value, True
        return z, False

    return zero


def complex_zeros(u, m, refine=False):
    """m-th complex zero of Ai_u in the first quadrant (complex_seeder)."""
    value, refined = complex_seeder(u)(m, refine)
    return GenAiryZero(index=m, kind="complex-first-quadrant", value=value,
                       refined=refined, u=u)
