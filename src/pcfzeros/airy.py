"""Airy functions on the complex plane, in pure Python.

Provides Ai, Ai' (complex), Bi, Bi' (real axis), the rotated functions
Ai_l(z) = Ai(z exp(-2*pi*i*l/3)) for l = +1, -1, and the classical
negative real zeros a_m of Ai.  Exponentially large results are reported
in scaled form (mantissa + exponent of e) instead of overflowing.

Region map (R0 = _R_SERIES, R1 = _R_ASYM):

  1. |z| <= R0: Maclaurin series (DLMF 9.4.1-9.4.4).
  2. |z| >= R1, |arg z| <= 2 pi/3: the zeta-scaled expansion of
     DLMF 9.7.5-9.7.6 (9.7.7-9.7.8 for Bi on x > 0), truncated where its
     terms reach 1e-17; at R1 the smallest term is about e^{-2 zeta}.
  3. |z| >= R1, |arg z| > 2 pi/3: DLMF 9.7.9-9.7.12 at w = -z, the
     cos/sin form written as its two exponentials with one shared
     zeta(w), so that no second branch of zeta enters.
  4. R0 < |z| < R1: one Taylor step of w'' = z w from the nearest point
     of the unit Gaussian-integer grid, whose Taylor coefficients are
     memoised per process on first use.  A grid point's (Ai, Ai') is
     found by Taylor steps along its ray from the end where Ai is the
     stable solution: inward from |z| = R1 where |arg z| < pi/3 (Ai
     decays outward there), outward from |z| = R0 elsewhere.  On the
     real axis a grid of integers holds (Ai, Ai', Bi, Bi') and steps in
     floats; Bi, dominant outward on both half-axes, always steps out.

zeta = (2/3) z^(3/2) is formed in double-double arithmetic: its rounding
would otherwise enter the phase of Ai as an error of up to eps |zeta|,
7e-14 at |z| = 60.  The zeros a_m are -T(3 pi (4m - 1)/8) from the
series of DLMF 9.9.18 (genairy.t_series), summed against a double-double
t^(2/3), with Newton steps on Ai for m <= _NEWTON_ZEROS.
"""
import bisect
import cmath
import math
from dataclasses import dataclass

from .errors import DomainError

_ROT = {1: cmath.exp(-2j * math.pi / 3), -1: cmath.exp(2j * math.pi / 3)}

# Ai(0), Ai'(0), Bi(0), Bi'(0), correctly rounded
_AI0 = 0.3550280538878172
_AIP0 = -0.2588194037928068
_BI0 = 0.6149266274460007
_BIP0 = 0.4482883573538264
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
    rounded value; the error of the sum is far below an ulp of zeta.
    Dekker's exact products are written out, as calls cost more than the
    arithmetic."""
    x, y = z.real, z.imag
    s = cmath.sqrt(z)
    a, b = s.real, s.imag
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLIT * b
    bh = t - (t - b)
    bl = b - bh
    t = _SPLIT * x
    xh = t - (t - x)
    xl = x - xh
    t = _SPLIT * y
    yh = t - (t - y)
    yl = y - yh
    # z - s^2, exact but for the last additions: sqrt(z) = s + ds
    aa = a * a
    aae = ((ah * ah - aa) + 2.0 * ah * al) + al * al
    bb = b * b
    bbe = ((bh * bh - bb) + 2.0 * bh * bl) + bl * bl
    ab = a * b
    abe = ((ah * bh - ab) + ah * bl + al * bh) + al * bl
    r1 = x - aa
    v = r1 - x
    e1 = (x - (r1 - v)) + (-aa - v)
    r2 = r1 + bb
    v = r2 - r1
    e2 = (r1 - (r2 - v)) + (bb - v)
    ds = complex(r2 + ((e1 + e2) - aae + bbe),
                 (y - 2.0 * ab) - 2.0 * abe) / (2.0 * s)
    # z s = (xa - yb) + i (xb + ya), with the error of each product
    p1 = x * a
    q1 = ((xh * ah - p1) + xh * al + xl * ah) + xl * al
    p2 = y * b
    q2 = ((yh * bh - p2) + yh * bl + yl * bh) + yl * bl
    p3 = x * b
    q3 = ((xh * bh - p3) + xh * bl + xl * bh) + xl * bl
    p4 = y * a
    q4 = ((yh * ah - p4) + yh * al + yl * ah) + yl * al
    re = p1 - p2
    v = re - p1
    f1 = (p1 - (re - v)) + (-p2 - v)
    im = p3 + p4
    v = im - p3
    f2 = (p3 - (im - v)) + (p4 - v)
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


def _walk(t0, t1, w, wp):
    """(w, w') at t1 from their values at t0, by Taylor steps of length
    at most _REACH along the segment."""
    n = max(1, math.ceil(abs(t1 - t0) / _REACH))
    h = (t1 - t0) / n
    rho = abs(h)
    for j in range(n):
        w, wp = _horner(_coeffs(t0 + j * h, w, wp, rho), h)
    return w, wp


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
            ai, aip = _walk(start, g, ai, aip)
        rc = _GRID[g] = _coeffs(g, ai, aip, _REACH)
    return rc


def _real_direct(x):
    """(Ai, Ai', Bi, Bi') at real x on or outside the grid's annulus,
    unscaled."""
    if abs(x) < 0.5 * (_R_SERIES + _R_ASYM):
        f, fp, g, gp = _maclaurin(x)
        return (_AI0 * f + _AIP0 * g, _AI0 * fp + _AIP0 * gp,
                _BI0 * f + _BIP0 * g, _BI0 * fp + _BIP0 * gp)
    if x > 0:
        ai, aip, _ = _asym_right(complex(x))
        bi, bip, _ = _bi_right(x)
        return ai.real, aip.real, bi, bip
    ai, aip, bi, bip, _ = _asym_left(complex(-x))
    return ai.real, aip.real, bi.real, bip.real


_REAL_GRID = {}


def _real_grid(k):
    """Reversed Taylor coefficients of Ai and of Bi about the integer k."""
    rcs = _REAL_GRID.get(k)
    if rcs is None:
        x = float(k)
        if _R_SERIES < abs(x) < _R_ASYM:
            start = math.copysign(_R_SERIES, x)
            a0, a1, b0, b1 = _real_direct(start)
            bi, bip = _walk(start, x, b0, b1)
            if x > 0:
                # Ai decays outward: step in from R1
                start = _R_ASYM
                a0, a1 = _real_direct(start)[:2]
            ai, aip = _walk(start, x, a0, a1)
        else:
            ai, aip, bi, bip = _real_direct(x)
        rcs = _REAL_GRID[k] = (_coeffs(x, ai, aip, 0.5),
                               _coeffs(x, bi, bip, 0.5))
    return rcs


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
    r = abs(z)
    if z.imag == 0.0 and z.real < _R_ASYM:
        x = z.real
        if _R_SERIES < r < _R_ASYM:
            k = round(x)
            ai, aip = _horner(_real_grid(k)[0], x - k)
        else:
            ai, aip = _real_direct(x)[:2]
        return AiryValue(complex(ai), complex(aip))
    if _R_SERIES < r < _R_ASYM:
        g = complex(round(z.real), round(z.imag))
        ai, aip = _horner(_grid(g), z - g)
        return AiryValue(ai, aip)
    ai, aip, expo = _ai_direct(z)
    return AiryValue(complex(ai), complex(aip), expo)


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
    _check(complex(x))
    if x >= _R_ASYM:
        bi, bip, expo = _bi_right(x)
        return AiryValue(complex(bi), complex(bip), expo)
    if _R_SERIES < abs(x) < _R_ASYM:
        k = round(x)
        bi, bip = _horner(_real_grid(k)[1], x - k)
    else:
        bi, bip = _real_direct(x)[2:]
    return AiryValue(complex(bi), complex(bip))


# a_m for m up to here are polished by Newton steps on Ai: the first
# term the series omits is 1.6 ulps of a_14, and falls below 0.1 ulp
# from m = 20 on
_NEWTON_ZEROS = 20
# 3 pi/8 as a double-double
_3PI8 = 3.0 * math.pi / 8.0
_3PI8_LO = 4.592425496802574e-17
_AI_ZEROS_CACHE = []


def _zero_estimate(m, t_correction):
    """-T(3 pi (4m - 1)/8) of DLMF 9.9.6, 9.9.18, with t^(2/3) in
    double-double: the rounding of t, of the exponent 2/3 and of the
    power then stays below an ulp of a_m."""
    n = 4.0 * m - 1.0
    t, e = _two_prod(n, _3PI8)
    e += n * _3PI8_LO
    y = t ** _TWO3
    # t^(2/3) = y (1 + (2/3) e/t + log(t)/(3 2^53)), to first order
    corr = _TWO3 * e / t + _TWO3_LO * math.log(t)
    return -(y + y * (corr + t_correction(t * t)))


def real_airy_zero(m):
    """The m-th negative real zero a_m of Ai (m >= 1), a_1 > a_2 > ..."""
    if m < 1 or m != int(m):
        raise DomainError("zero index must be a positive integer")
    m = int(m)
    if m > len(_AI_ZEROS_CACHE):
        # imported here: genairy imports this module
        from .genairy import _t_correction
        for k in range(len(_AI_ZEROS_CACHE) + 1, max(2 * m, 16) + 1):
            x = _zero_estimate(k, _t_correction)
            if k <= _NEWTON_ZEROS:
                for _ in range(4):
                    v = eval_ai(x)
                    dx = v.value.real / v.derivative.real
                    x -= dx
                    if abs(dx) <= 1e-16 * abs(x):
                        break
            _AI_ZEROS_CACHE.append(x)
    return _AI_ZEROS_CACHE[m - 1]
