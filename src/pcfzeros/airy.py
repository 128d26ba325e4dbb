"""Airy functions on the complex plane, in pure Python.

Provides Ai, Ai' (complex), Bi, Bi' (real axis), the rotated functions
Ai_l(z) = Ai(z exp(-2*pi*i*l/3)) for l = +1, -1, and the classical
negative real zeros a_m of Ai.  Exponentially large results are reported
in scaled form (mantissa + exponent of e) instead of overflowing.

Region map of Ai, Ai' (R0 = _R_SERIES, R1 = _R_ASYM):

  1. |z| <= R0: Maclaurin series (DLMF 9.4.1-9.4.4).
  2. |z| >= R1, |arg z| <= 2 pi/3: the zeta-scaled expansion of
     DLMF 9.7.5-9.7.6, truncated where its terms reach 1e-17; at R1 the
     smallest term is about e^{-2 zeta}.
  3. |z| >= R1, |arg z| > 2 pi/3: DLMF 9.7.9-9.7.10 at w = -z, the
     cos/sin form written as its two exponentials with one shared
     zeta(w), so that no second branch of zeta enters.
  4. R0 < |z| < R1: one Taylor step of w'' = z w from the nearest point
     of the unit Gaussian-integer grid, whose Taylor coefficients are
     memoised per process on first use.  A grid point's (Ai, Ai') is
     found by Taylor steps along its ray from the end where Ai is the
     stable solution: inward from |z| = R1 where |arg z| < pi/3 (Ai
     decays outward there), outward from |z| = R0 elsewhere.  A real x
     takes the grid point round(x) + 0j: complex arithmetic with zero
     imaginary parts rounds as that in floats does.

Region map of Bi, Bi' (real x only):

  1. |x| < R1: 2 Re(e^{i pi/6} Ai(x e^{2 pi i/3})) (DLMF 9.2.10, whose
     two terms are conjugate on the real axis), by the map of Ai.
  2. x >= R1: DLMF 9.7.7-9.7.8; x <= -R1: DLMF 9.7.11-9.7.12, with Ai
     in region 3.  Rotating x would round its phase by about
     eps |x|^{3/2}, 5e-14 at x = -60.

zeta = (2/3) z^(3/2) is formed in double-double arithmetic: its rounding
would otherwise enter the phase of Ai as an error of up to eps |zeta|,
7e-14 at |z| = 60.  The zeros a_m are -T(3 pi (4m - 1)/8) from the
series of DLMF 9.9.18 (_t_correction, which genairy.t_series sums too),
summed against a double-double t^(2/3); the first _NEWTON_ZEROS of them
are held as Newton-polished constants (tests/test_airy.py regenerates
them).
"""
import bisect
import cmath
import math
from typing import NamedTuple

from .errors import DomainError, _shown

_ROT = {1: cmath.exp(-2j * math.pi / 3), -1: cmath.exp(2j * math.pi / 3)}
# on the real axis Bi = Re(_BI_ROT Ai(x e^{2 pi i/3})) (DLMF 9.2.10)
_BI_ROT = 2.0 * cmath.exp(1j * math.pi / 6)

# Ai(0), Ai'(0), correctly rounded
_AI0 = 0.3550280538878172
_AIP0 = -0.2588194037928068
_SQRT_PI = math.sqrt(math.pi)
# the Maclaurin series loses about Bi/Ai ulps to cancellation at z > 0:
# 27 at R0; the asymptotic series' smallest term is 1e-17 at R1
_R_SERIES = 2.0
_R_ASYM = 9.5
# the longest Taylor step: half a diagonal of the grid
_REACH = 0.71
# |exponent| up to this is folded back into the value
_FOLD = 650.0
# beyond this |z| the double-double products of zeta overflow
_MAX_ABS = 1e150
# Taylor and series terms below this part of the sum are dropped
_TINY = 1e-17

# coefficients u_k, v_k of DLMF 9.7.5-9.7.6, to past the smallest term at R1
_U = [1.0]
for _k in range(1, 40):
    _U.append(_U[-1] * (6 * _k - 5) * (6 * _k - 3) * (6 * _k - 1)
              / ((2 * _k - 1) * 216 * _k))
_V = [1.0] + [-(6 * k + 1) / (6 * k - 1) * _U[k] for k in range(1, 40)]
_UV = [(_U[k], _U[k + 1], _V[k], _V[k + 1]) for k in range(0, 40, 2)]
# the terms from k = 2j + 1 on are below _TINY where |t| < _T_MAX[j]:
# the limit (TINY/u_k)^(1/k) grows with k up to k = 37, where it is
# 0.055, past 1/zeta(R1) = 0.051
_T_MAX = [(_TINY / _U[k]) ** (1.0 / k) for k in range(1, 38, 2)]

# double-double constants: 2/3 and pi/4
_TWO3 = 2.0 / 3.0
_TWO3_LO = 1.0 / (3.0 * 2.0 ** 53)          # 2/3 - _TWO3, exactly
_PI4 = math.pi / 4.0
_PI4_LO = 3.061616997868383e-17             # pi/4 - _PI4
_SPLIT = 134217729.0                        # 2^27 + 1, Dekker's splitter


class AiryValue(NamedTuple):
    value: complex
    derivative: complex
    # value * e**exponent is the true function value; exponent is 0 unless
    # the unscaled result would overflow (or underflow) a double.
    exponent: float = 0.0


def _two_prod(a, b):
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker)."""
    p = a * b
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLIT * b
    bh = t - (t - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _zeta(z):
    """zeta = (2/3) z^(3/2), principal branch, as hi + lo with hi the
    rounded value; the error of the sum is far below an ulp of zeta."""
    x, y = z.real, z.imag
    s = cmath.sqrt(z)
    a, b = s.real, s.imag
    # z - s^2, exact but for the last additions: sqrt(z) = s + ds
    aa, aae = _two_prod(a, a)
    bb, bbe = _two_prod(b, b)
    ab, abe = _two_prod(a, b)
    r1, e1 = _two_sum(x, -aa)
    r2, e2 = _two_sum(r1, bb)
    ds = complex(r2 + ((e1 + e2) - aae + bbe),
                 (y - 2.0 * ab) - 2.0 * abe) / (2.0 * s)
    # z s = (xa - yb) + i (xb + ya), with the error of each product
    p1, q1 = _two_prod(x, a)
    p2, q2 = _two_prod(y, b)
    p3, q3 = _two_prod(x, b)
    p4, q4 = _two_prod(y, a)
    re, f1 = _two_sum(p1, -p2)
    im, f2 = _two_sum(p3, p4)
    lo = complex(f1 + q1 - q2, f2 + q3 + q4) + z * ds
    # times 2/3: h = fl(2 w/3) leaves 2 w - 3 h = (2 w - 2 h) - h, where
    # both subtractions are exact (Sterbenz), so the rounding is r/3
    hre = 2.0 * re / 3.0
    him = 2.0 * im / 3.0
    r = complex((2.0 * re - 2.0 * hre) - hre, (2.0 * im - 2.0 * him) - him)
    return complex(hre, him), r / 3.0 + 2.0 * lo / 3.0


def _sums(t):
    """The even and odd parts of sum u_k t^k and of sum v_k t^k, as
    (even u, odd u, even v, odd v), to the first term below _TINY;
    |t| <= 1/zeta(R1)."""
    n = bisect.bisect_right(_T_MAX, abs(t))
    t2 = t * t
    eu = ou = ev = ov = 0.0
    for u0, u1, v0, v1 in _UV[n::-1]:
        eu = eu * t2 + u0
        ou = ou * t2 + u1
        ev = ev * t2 + v0
        ov = ov * t2 + v1
    return eu, ou * t, ev, ov * t


def _fold(x):
    """The part of an exponent x that is kept out of the value."""
    return x if abs(x) > _FOLD else 0.0


def _asym_right(z):
    """Ai, Ai' mantissas and exponent at |z| >= R1, |arg z| <= 2 pi/3
    (DLMF 9.7.5-9.7.6)."""
    zh, zl = _zeta(z)
    expo = _fold(-zh.real)
    e = cmath.exp(-zh - expo) * (1.0 - zl)
    q = cmath.sqrt(cmath.sqrt(z))
    eu, ou, ev, ov = _sums(1.0 / zh)
    return (e * (eu - ou) / (2.0 * _SQRT_PI * q),
            -q * e * (ev - ov) / (2.0 * _SQRT_PI), expo)


def _asym_left(w):
    """Ai, Ai', Bi, Bi' mantissas at -w and their exponent, for |w| >= R1,
    |arg w| < pi/3: DLMF 9.7.9-9.7.12 with cos and sin of
    theta = zeta(w) - pi/4 written as e^{+-i theta}.  Bi is meant for
    real w."""
    xh, xl = _zeta(w)
    th, e = _two_sum(xh.real, -_PI4)
    th = complex(th, xh.imag)
    tl = xl + (e - _PI4_LO)
    expo = _fold(abs(th.imag))
    ep = cmath.exp(1j * th - expo) * (1.0 + 1j * tl)
    em = cmath.exp(-1j * th - expo) * (1.0 - 1j * tl)
    eu, ou, ev, ov = _sums(1j / xh)
    sp, vp = eu - ou, ev - ov
    sm, vm = eu + ou, ev + ov
    q = cmath.sqrt(cmath.sqrt(w))
    a, b = ep * sp, em * sm
    c, d = ep * vp, em * vm
    den = 2.0 * _SQRT_PI * q
    return ((a + b) / den, -0.5j * q * (c - d) / _SQRT_PI,
            0.5j * (a - b) / (_SQRT_PI * q), q * (c + d) / (2.0 * _SQRT_PI),
            expo)


def _bi_right(x):
    """Bi, Bi' mantissas and exponent at real x >= R1 (DLMF 9.7.7-9.7.8)."""
    xh, xl = _zeta(complex(x))
    xh, xl = xh.real, xl.real
    expo = _fold(xh)
    e = math.exp(xh - expo) * (1.0 + xl)
    q = math.sqrt(math.sqrt(x))
    eu, ou, ev, ov = _sums(1.0 / xh)
    return (e * (eu + ou) / (_SQRT_PI * q), q * e * (ev + ov) / _SQRT_PI,
            expo)


def _maclaurin(z):
    """f, f', g, g' of DLMF 9.4.1-9.4.2 (Ai = Ai(0) f + Ai'(0) g)."""
    z2 = z * z
    z3 = z2 * z
    f = t = 1.0
    fd = 0.5
    g = s = z
    gd = z / 3.0
    for k in range(1, 60):
        t = t * z3 / ((3 * k - 1) * (3 * k))
        s = s * z3 / ((3 * k) * (3 * k + 1))
        f += t
        g += s
        fd += t / (3 * k + 2)
        gd += s / (3 * k + 3)
        if abs(t) + abs(s) < _TINY * (abs(f) + abs(g)):
            break
    return f, z2 * fd, g, 1.0 + z2 * gd


def _coeffs(t0, w, wp, rho):
    """Taylor coefficients c_k, reversed, of the solution of w'' = t w
    with (w, w') at t0, to where c_k rho^k is negligible.  They follow
    pcf_eval._taylor_run's recurrence with q(t) = t:
    k (k-1) c_k = t0 c_{k-2} + c_{k-3}."""
    cs = [w, wp, 0.5 * t0 * w]
    scale = _TINY * (abs(w) + rho * abs(wp))
    rk = rho * rho
    d1, d2 = abs(cs[2]) * rk, abs(wp) * rho
    for k in range(3, 200):
        c = (t0 * cs[k - 2] + cs[k - 3]) / (k * (k - 1))
        cs.append(c)
        rk *= rho
        d = abs(c) * rk
        if d + d1 + d2 < scale:
            break
        d2, d1 = d1, d
    return cs[::-1]


def _horner(rc, d):
    """Value and derivative at offset d of the polynomial with reversed
    coefficients rc."""
    it = iter(rc)
    p = next(it)
    dp = 0.0
    for c in it:
        dp = dp * d + p
        p = p * d + c
    return p, dp


def _ai_direct(z):
    """(Ai, Ai', exponent) at complex z on or outside the grid's annulus
    (the Maclaurin series on its inner side)."""
    if abs(z) < 0.5 * (_R_SERIES + _R_ASYM):
        f, fp, g, gp = _maclaurin(z)
        return _AI0 * f + _AIP0 * g, _AI0 * fp + _AIP0 * gp, 0.0
    if abs(cmath.phase(z)) <= 2.0 * math.pi / 3.0:
        return _asym_right(z)
    ai, aip, _, _, expo = _asym_left(-z)
    return ai, aip, expo


_GRID = {}


def _grid(g):
    """Reversed Taylor coefficients of Ai about the Gaussian integer g."""
    rc = _GRID.get(g)
    if rc is None:
        r = abs(g)
        if r <= _R_SERIES or r >= _R_ASYM:
            ai, aip, _ = _ai_direct(g)
        else:
            start = (_R_ASYM if abs(cmath.phase(g)) < math.pi / 3.0
                     else _R_SERIES) * g / r
            ai, aip, _ = _ai_direct(start)
            # Taylor steps of length at most _REACH along the ray
            n = max(1, math.ceil(abs(g - start) / _REACH))
            h = (g - start) / n
            for j in range(n):
                ai, aip = _horner(_coeffs(start + j * h, ai, aip, abs(h)), h)
        rc = _GRID[g] = _coeffs(g, ai, aip, _REACH)
    return rc


def _check(z):
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError("Airy functions require finite arguments")
    if abs(z) > _MAX_ABS:
        raise DomainError(f"Airy functions need |z| <= {_MAX_ABS:g}")


def eval_ai(z):
    """Ai(z) and Ai'(z) for complex z.

    Accurate to about 1e-14 of |Ai| + |Ai'|/sqrt(1 + |z|); where the
    result would overflow/underflow the double range, a scaled AiryValue
    with nonzero exponent is returned.
    """
    z = complex(z)
    _check(z)
    if _R_SERIES < abs(z) < _R_ASYM:
        g = complex(round(z.real), round(z.imag))
        return AiryValue(*_horner(_grid(g), z - g))
    return AiryValue(*_ai_direct(z))


def eval_ai_rotated(l, z):
    """Ai_l(z) = Ai(z e^{-2*pi*i*l/3}) and its z-derivative, l in {+1,-1}."""
    if l not in (1, -1):
        raise DomainError("rotation index must be +1 or -1")
    rot = _ROT[l]
    base = eval_ai(rot * complex(z))
    return AiryValue(base.value, rot * base.derivative, base.exponent)


def eval_bi_real(x):
    """Bi(x) and Bi'(x) for real x, scaled on overflow (large positive x),
    by the module's map of Bi; accurate to about 1e-14 of
    |Bi| + |Bi'|/sqrt(1 + |x|)."""
    x = float(x)
    _check(complex(x))
    if x >= _R_ASYM:
        bi, bip, expo = _bi_right(x)
    elif x <= -_R_ASYM:
        _, _, bi, bip, expo = _asym_left(complex(-x))
    else:
        v = eval_ai_rotated(-1, x)
        bi, bip, expo = _BI_ROT * v.value, _BI_ROT * v.derivative, v.exponent
    return AiryValue(complex(bi.real), complex(bip.real), expo)


# a_m for m up to here are polished by Newton steps on Ai: the first
# term the series omits is 1.6 ulps of a_14, and falls below 0.1 ulp
# from m = 20 on
_NEWTON_ZEROS = 20
_POLISHED_ZEROS = (
    -2.338107410459767, -4.087949444130971, -5.520559828095552,
    -6.786708090071759, -7.944133587120853, -9.02265085334098,
    -10.040174341558085, -11.008524303733262, -11.936015563236262,
    -12.828776752865757, -13.691489035210719, -14.527829951775335,
    -15.340755135977997, -16.132685156945772, -16.90563399742994,
    -17.66130010569706, -18.401132599207116, -19.126380474246954,
    -19.8381298917215, -20.537332907677566)
# the largest index m for which 4m - 1 and 4m - 3, the tau of a_m and
# of the genairy seeds, are exact in doubles
MAX_INDEX = 2 ** 51
# 3 pi/8 as a double-double, and _3PI8 split into halves of 26 bits
# as _two_prod splits it, once
_3PI8 = 3.0 * math.pi / 8.0
_3PI8_LO = 4.592425496802574e-17
_3PI8_H = _SPLIT * _3PI8 - (_SPLIT * _3PI8 - _3PI8)
_3PI8_L = _3PI8 - _3PI8_H


def _t_correction(t2):
    """T(t)/t^(2/3) - 1 of DLMF 9.9.18, to the t^-8 term, with t2 = t^2."""
    return (5.0 / (48.0 * t2) - 5.0 / (36.0 * t2 * t2)
            + 77125.0 / (82944.0 * t2 ** 3)
            - 108056875.0 / (6967296.0 * t2 ** 4))


def _zero_estimate(m):
    """-T(3 pi (4m - 1)/8) of DLMF 9.9.6, 9.9.18, with t^(2/3) in
    double-double: the rounding of t, of the exponent 2/3 and of the
    power then stays below an ulp of a_m.  The product n (3 pi/8) is
    _two_prod's, with the split of 3 pi/8 formed once (_3PI8_H)."""
    n = 4.0 * m - 1.0
    t = n * _3PI8
    nh = _SPLIT * n
    nh -= nh - n
    nl = n - nh
    e = ((nh * _3PI8_H - t) + nh * _3PI8_L + nl * _3PI8_H) + nl * _3PI8_L
    e += n * _3PI8_LO
    y = t ** _TWO3
    # t^(2/3) = y (1 + (2/3) e/t + log(t)/(3 2^53)), to first order
    corr = _TWO3 * e / t + _TWO3_LO * math.log(t)
    return -(y + y * (corr + _t_correction(t * t)))


def _check_index(m):
    """DomainError unless m is an integral value in 1..MAX_INDEX (2.0 is
    2): for 2.5, NaN, inf or a non-number too."""
    try:
        if 1 <= m <= MAX_INDEX and m == int(m):
            return
    except TypeError:
        pass
    raise DomainError(f"zero index {_shown(m)} is not an integer in "
                      f"1..{MAX_INDEX}")


def real_airy_zero(m):
    """The m-th negative real zero a_m of Ai (1 <= m <= MAX_INDEX),
    a_1 > a_2 > ..."""
    _check_index(m)
    if m <= _NEWTON_ZEROS:
        return _POLISHED_ZEROS[int(m) - 1]
    return _zero_estimate(m)
