"""Independent evaluation of U(a,z) and U'(a,z) for validation/refinement.

Region map of eval_U: each method is tried in turn and the first whose
a-posteriori estimate meets its threshold answers.

  1. asymptotic — large |z|: the compound expansion, i.e. the recessive
     series plus, beyond |arg z| = pi/2, the dominant series weighted by
     the connection constant i sqrt(2 pi) e^{-i pi a}/Gamma(a+1/2)
     (conjugated in the lower half-plane).  asym_pair sums both
     Poincare-type series.  Accepted when the smallest term is below
     max(1e-13, tol/100).
  2. series — small |z|: Maclaurin expansion of the even/odd standard
     solutions with gamma-function connection coefficients, in doubles;
     kummer_pair sums both Kummer series, and cancellation is tracked by
     the largest-term magnitude.
  3. taylor — moderate |z|, between Maclaurin cancellation and asymptotic
     truncation: Taylor steps of Weber's equation w'' = (z^2/4 + a) w
     along the ray from the origin, where U and U' are gamma-function
     values.  Stable where U is dominant, i.e. outside |arg z| < pi/4.
  4. series in mpmath — last resort: the Maclaurin decomposition at
     escalating precision, capped at _MP_MAX_DPS digits, past which it
     raises ConvergenceError.

eval_U_near_zero, used inside root refinement, judges the error against
|U'| and tries asymptotic (smallest term below 1e-15), series, then
mpmath.

TaylorWalker evaluates along a chain of nearby points, such as the
iterates and zeros of one refinement sweep: it carries (U, U') from the
previous point by the same Taylor steps, restarts once from the origin
when the carried estimate is too large, and falls back to
eval_U_near_zero (re-seeding from its answer) when that fails too.

quadrature — adaptive integration of the real-integral representation
(valid for a > -1/2) — is an independent cross-check.

Exponentially large/small results carry a real exponent so that
value * e^exponent is the true function value.
"""
import cmath
import math
from dataclasses import dataclass
from typing import Optional

import mpmath as mp
import scipy.integrate as integrate
import scipy.special as sp

from .errors import ConvergenceError, DomainError, require_finite

SQRT_PI = math.sqrt(math.pi)
_LOG_SQRT_PI = 0.5 * math.log(math.pi)
_LN2 = math.log(2.0)
_EPS = 2.2e-16
# |exponent| below this is folded back into the mantissa
_UNSCALE_BOUND = 650.0
# the mpmath fallback refuses precisions above this many digits
_MP_MAX_DPS = 1000
# mpmath mantissas outside [1/_MP_FOLD, _MP_FOLD] have log|U| folded into
# the exponent, since they would leave double range
_MP_FOLD = 1e300
# eval_U_near_zero's default tolerance on the U'-scaled error
_NEAR_ZERO_TOL = 1e-12
# Taylor steps: |h| * sqrt(|a| + |z|^2/4) per step, the step-count cap,
# and the term size (relative to |w| + |h w'| = 1) that ends a series
_TAYLOR_REACH = 2.5
_TAYLOR_MAX_STEPS = 1000
_TAYLOR_MAX_TERMS = 200
_TAYLOR_TINY = 1e-17
_INV_KK = [0.0, 0.0] + [1.0 / (k * (k - 1))
                        for k in range(2, _TAYLOR_MAX_TERMS)]
# TaylorWalker's estimate is this multiple of the difference of its runs
_WALK_SAFETY = 10.0
# term caps of the Kummer (Maclaurin) and Poincare (asymptotic) sums
_KUMMER_MAX_TERMS = 4000
_ASYM_MAX_TERMS = 64


@dataclass(frozen=True)
class PcfValue:
    value: complex
    derivative: complex
    method: str  # series | asymptotic | taylor | quadrature
    est_accuracy: float
    # value * e**exponent is the true U; 0 unless out of double range
    exponent: float = 0.0

    def unscaled(self):
        if self.exponent == 0.0:
            return self.value, self.derivative
        f = math.exp(self.exponent)
        return self.value * f, self.derivative * f


@dataclass(frozen=True)
class ValidationRecord:
    m: int
    z_approx: complex
    z_ref: complex
    g1_approx: float
    g1_ref: float
    g2_approx: Optional[float]
    g2_ref: Optional[float]
    eps1: float
    eps2: Optional[float]


def _maybe_unscale(v):
    if v.exponent != 0.0 and abs(v.exponent) < _UNSCALE_BOUND:
        f = math.exp(v.exponent)
        return PcfValue(v.value * f, v.derivative * f, v.method,
                        v.est_accuracy, 0.0)
    return v


def kummer_pair(b1, b2, w):
    """Sum the two Kummer series M(b1,1/2;w) and M(b2,3/2;w) together with
    the derivative sums and the largest-term magnitudes.

    Returns (S1, D1, mx1, S2, D2, mx2) where S = sum_k t_k, t_0 = 1,
    t_{k+1} = t_k * w * (b+k)/((c+k)(k+1)), D = sum_k (k+1) t_{k+1}/w
    (i.e. dS/dw), and mx = max_k |t_k| (for cancellation tracking).
    """
    t1 = 1.0 + 0.0j
    S1 = t1
    D1 = 0.0 + 0.0j
    mx1 = 1.0
    t2 = 1.0 + 0.0j
    S2 = t2
    D2 = 0.0 + 0.0j
    mx2 = 1.0
    done1 = False
    done2 = False
    aw = abs(w)
    for k in range(_KUMMER_MAX_TERMS):
        if not done1:
            dt = t1 * (b1 + k) / ((0.5 + k) * (k + 1))
            D1 += (k + 1) * dt
            t1 = dt * w
            S1 += t1
            at = abs(t1)
            if at > mx1:
                mx1 = at
            if at < 1e-17 * mx1 and k > aw:
                done1 = True
        if not done2:
            dt = t2 * (b2 + k) / ((1.5 + k) * (k + 1))
            D2 += (k + 1) * dt
            t2 = dt * w
            S2 += t2
            at = abs(t2)
            if at > mx2:
                mx2 = at
            if at < 1e-17 * mx2 and k > aw:
                done2 = True
        if done1 and done2:
            break
    return S1, D1, mx1, S2, D2, mx2


def asym_pair(a, z2inv):
    """Sum the two Poincare-type series

        S1 = sum_s (-1)^s (1/2+a)_{2s} / (s! (2 z^2)^s)
        S2 = sum_s (1/2-a)_{2s} / (s! (2 z^2)^s)

    with z2inv = 1/(2 z^2).  Truncates each series at its smallest term.
    Returns (S1, S2, minterm) where minterm bounds the truncation error
    relative to the leading terms.
    """
    t1 = 1.0 + 0.0j
    S1 = t1
    t2 = 1.0 + 0.0j
    S2 = t2
    mn = 1.0
    for s in range(1, _ASYM_MAX_TERMS):
        t1 = -t1 * (a - 1.5 + 2 * s) * (a - 0.5 + 2 * s) * z2inv / s
        t2 = t2 * (-a - 1.5 + 2 * s) * (-a - 0.5 + 2 * s) * z2inv / s
        m = max(abs(t1), abs(t2))
        if m > mn:
            # divergent tail reached; first omitted term bounds the error
            mn = m
            break
        S1 += t1
        S2 += t2
        mn = m
        if mn < 1e-18:
            break
    return S1, S2, mn


def _asym_sums(a, z, cut):
    """(mantissa, exponent, truncation term) of U(a,z) from the compound
    expansion; None when the smallest term exceeds cut."""
    S1, S2, mn = asym_pair(a, 1.0 / (2.0 * z * z))
    if mn > cut:
        return None
    lg = cmath.log(z)
    e1 = -z * z / 4.0 - (a + 0.5) * lg
    arg = cmath.phase(z)
    K = 0.0
    if arg > math.pi / 2.0:
        K = 1j * math.sqrt(2.0 * math.pi) * cmath.exp(-1j * math.pi * a) \
            * sp.rgamma(0.5 + a)
    elif arg < -math.pi / 2.0:
        K = -1j * math.sqrt(2.0 * math.pi) * cmath.exp(1j * math.pi * a) \
            * sp.rgamma(0.5 + a)
    if K == 0.0:
        ecap = e1.real
        m1 = S1 * cmath.exp(1j * e1.imag)
        return m1, ecap, mn
    e2 = z * z / 4.0 + (a - 0.5) * lg
    ecap = max(e1.real, e2.real)
    m = S1 * cmath.exp(e1 - ecap) + K * S2 * cmath.exp(e2 - ecap)
    return m, ecap, mn


def _eval_asymptotic(a, z, cut):
    r = _asym_sums(a, z, cut)
    if r is None:
        return None
    m, ecap, mn = r
    r2 = _asym_sums(a + 1.0, z, cut)
    if r2 is None:
        return None
    m2, ecap2, mn2 = r2
    # U'(a,z) = -z/2 U(a,z) - (a+1/2) U(a+1,z), in the common scale ecap
    dm = -z / 2.0 * m - (a + 0.5) * m2 * cmath.exp(ecap2 - ecap)
    denom = max(abs(m), 1e-300)
    est = (max(mn, mn2) + 4.4e-16) / denom
    return _maybe_unscale(PcfValue(m, dm, "asymptotic", est, ecap))


def _eval_series_double(a, z):
    U0 = SQRT_PI * 2.0 ** (-0.5 * a - 0.25) * sp.rgamma(0.75 + 0.5 * a)
    Up0 = -SQRT_PI * 2.0 ** (-0.5 * a + 0.25) * sp.rgamma(0.25 + 0.5 * a)
    if not (math.isfinite(U0) and math.isfinite(Up0)):
        # 1/Gamma overflowed (large |a|): decline, the selectors fall through
        nan = complex(math.nan, math.nan)
        return PcfValue(nan, nan, "series", math.inf)
    w = z * z / 2.0
    M1, D1, mx1, M2, D2, mx2 = kummer_pair(0.5 * a + 0.25, 0.5 * a + 0.75,
                                           w)
    # factor e^{-w/2} out as exponent -Re(w)/2, keep the phase
    E = cmath.exp(-1j * w.imag / 2.0)
    u1 = E * M1
    u1p = E * z * (D1 - 0.5 * M1)
    u2 = z * E * M2
    u2p = E * (M2 + z * z * (D2 - 0.5 * M2))
    m = U0 * u1 + Up0 * u2
    dm = U0 * u1p + Up0 * u2p
    scale = abs(U0) * mx1 + abs(Up0 * z) * mx2 + 1e-300
    est = 2.22e-16 * scale / max(abs(m), 1e-300)
    return _maybe_unscale(PcfValue(m, dm, "series", est, -w.real / 2.0))


def _origin_log(a):
    """U(a,0) and U'(a,0) as (signs, logs of magnitudes), so that neither
    underflows for large |a|; a log is -inf where 1/Gamma vanishes."""
    out = []
    for x, sign, p2 in ((0.75 + 0.5 * a, 1.0, -0.5 * a - 0.25),
                        (0.25 + 0.5 * a, -1.0, -0.5 * a + 0.25)):
        if x <= 0.0 and x == math.floor(x):
            out += [0.0, -math.inf]
            continue
        if x < 0.0 and math.floor(x) % 2:
            sign = -sign
        out += [sign, _LOG_SQRT_PI + p2 * _LN2 - math.lgamma(x)]
    return out


def _origin_data(a):
    """(U(a,0), U'(a,0), exponent, ulps): the origin data scaled by
    e^-exponent, and the error they carry in ulps, about |log U(a,0)|."""
    s0, l0, s1, l1 = _origin_log(a)
    e0 = max(l0, l1)
    ulps = 4.0 + sum(abs(x) for x in (l0, l1) if math.isfinite(x))
    return s0 * math.exp(l0 - e0), s1 * math.exp(l1 - e0), e0, ulps


def _taylor_run(a, z0, z1, n, w, v):
    """Integrate w'' = (t^2/4 + a) w over n equal steps from t = z0 to z1.

    (w, v) is the data at z0 with v = h w', h = (z1 - z0)/n.  Returns
    (w(z1), h w'(z1), log of the scale factored out), or None when the
    arithmetic overflowed.  Each step sums the Taylor series
    w(t0 + h) = sum_k d_k with d_k = c_k h^k, whose coefficients follow
    from the equation expanded about t0:
        k (k-1) d_k = h^2 (q0 d_{k-2} + q1 h d_{k-3} + h^2/4 d_{k-4}),
    q0 = t0^2/4 + a, q1 = t0/2.
    """
    h = (z1 - z0) / n
    h2 = h * h
    c2 = h2 * h2 / 4.0
    expo = 0.0
    for j in range(n):
        t0 = z0 + j * h
        c0 = h2 * (t0 * t0 / 4.0 + a)
        c1 = h2 * h * t0 / 2.0
        p4 = p3 = 0j
        p2, p1 = w, v
        s, d = w + v, v
        for k in range(2, _TAYLOR_MAX_TERMS):
            t = (c0 * p2 + c1 * p3 + c2 * p4) * _INV_KK[k]
            s += t
            d += k * t
            if abs(t) + abs(p1) < _TAYLOR_TINY:
                break
            p4, p3, p2, p1 = p3, p2, p1, t
        # keep |w| + |v| = 1; the scale goes into the exponent
        m = abs(s) + abs(d)
        if not 0.0 < m < math.inf:
            return None
        w, v = s / m, d / m
        expo += math.log(m)
    return w, v, expo


def _taylor_pair(a, z0, z1, starts):
    """The two Taylor runs from z0 to z1, with n and n + n//3 + 1 steps
    where |h| max(1, sqrt(|a| + |z|^2/4)) ~ _TAYLOR_REACH for the larger
    |z| of the ends.  starts holds each run's (w, d, x) at z0, meaning
    U = w e^x and U' = d e^x; returns the same at z1, or None when the
    step count would pass _TAYLOR_MAX_STEPS or the arithmetic overflowed.
    """
    dz = z1 - z0
    reach = abs(dz) * max(1.0, math.sqrt(abs(a) + max(abs(z0), abs(z1))
                                         ** 2 / 4.0))
    n = math.ceil(reach / _TAYLOR_REACH) if math.isfinite(reach) else 0
    if not 0 < n <= _TAYLOR_MAX_STEPS:
        return None
    out = []
    for steps, (w, d, x) in zip((n, n + n // 3 + 1), starts):
        r = _taylor_run(a, z0, z1, steps, w, d * dz / steps)
        if r is None:
            return None
        w, v, expo = r
        out.append((w, v * steps / dz, x + expo))
    return out


def _eval_taylor(a, z):
    """U(a,z) and U'(a,z) by Taylor steps along the ray from the origin.

    U is dominant away from |arg z| < pi/4, so outward stepping is stable
    there; elsewhere rounding errors grow and the estimate says so.  The
    estimate is 100 times the relative difference of the two runs of
    _taylor_pair.  The origin data carry about |log U(a,0)| ulps of
    error, which the steps amplify like the first step's rounding, so a
    larger factor is used when that count exceeds 100.  None when the step
    count would pass _TAYLOR_MAX_STEPS.
    """
    w0, u0, e0, ulps = _origin_data(a)
    runs = _taylor_pair(a, 0j, z, [(w0, u0, 0.0)] * 2)
    if runs is None:
        return None
    (w1, d1, x1), (w2, d2, x2) = runs
    if w2 == 0.0 or d2 == 0.0:
        return None
    f = math.exp(x1 - x2)
    diff = max(abs(w1 * f - w2) / abs(w2), abs(d1 * f - d2) / abs(d2))
    est = max(100.0, ulps) * diff + ulps * _EPS
    return _maybe_unscale(PcfValue(w2, d2, "taylor", est, e0 + x2))


class TaylorWalker:
    """U(a,z) and U'(a,z) carried from point to point of a chain.

    Called as walker(a, z) in place of eval_U_near_zero, for one fixed a.
    It holds both runs of _taylor_pair at the last point and steps them
    on to z, so that each evaluation costs a few Taylor steps from its
    neighbour.  The estimate bounds the error of U over
    max(|U|, |U'|/(1 + |z|)), the U'-scaled measure of eval_U_near_zero:
    _WALK_SAFETY times the runs' difference in U, plus the error of the
    data they started from.  The answer is accepted while it is at most
    max(_NEAR_ZERO_TOL, tol/10 (1 + |z|)^2), where tol is t_iterate's
    step tolerance: near a zero, where |U'| ~ (1 + |z|) ref, that moves
    the zero by at most tol/10 (1 + |z|).  Past it, the runs restart once
    from the origin, then eval_U_near_zero answers and re-seeds them.
    """

    def __init__(self, a, tol):
        self.a = float(a)
        self.tol = tol
        w0, u0, e0, ulps = _origin_data(self.a)
        self._origin = (0j, [(w0, u0, e0)] * 2, ulps * _EPS)
        self._start = None   # (point, runs there, error carried in)
        self._last = None    # the PcfValue returned at that point

    def __call__(self, a, z):
        if float(a) != self.a:
            raise DomainError(f"walker for a = {self.a} asked for a = {a}")
        z = complex(z)
        if self._start is not None and z == self._start[0]:
            return self._last
        limit = max(_NEAR_ZERO_TOL, 0.1 * self.tol * (1.0 + abs(z)) ** 2)
        tries = [self._origin]
        if self._start is not None:
            tries.insert(0, self._start)
        for z0, starts, base in tries:
            runs = _taylor_pair(self.a, z0, z, starts)
            if runs is None:
                continue
            (w1, _, x1), (w2, d2, x2) = runs
            diff = abs(w1 * math.exp(x1 - x2) - w2)
            ref = max(abs(w2), abs(d2) / (1.0 + abs(z)))
            est = _WALK_SAFETY * diff / ref + base
            if est <= limit:
                return self._settle(z, runs, base,
                                    PcfValue(w2, d2, "taylor", est, x2))
        v = eval_U_near_zero(self.a, z)
        # est_accuracy bounds the U'-scaled error whether it is relative
        # to |U| or to max(|U|, |U'|/(1 + |z|))
        return self._settle(z, [(v.value, v.derivative, v.exponent)] * 2,
                            v.est_accuracy, v)

    def _settle(self, z, runs, base, v):
        self._start = (z, runs, base)
        self._last = _maybe_unscale(v)
        return self._last


def _eval_series_mp(a, z, tol):
    """Arbitrary-precision fallback: same Maclaurin decomposition via
    mpmath's 1F1, at escalating precision until two runs agree to tol.
    Where U or U' would leave double range, log|U| goes into exponent."""
    w_abs = abs(z) ** 2 / 2.0
    # crude cancellation estimate: largest term ~ e^{|w|}, result ~ e^{-|w|/2}
    dps = int(20 + 0.9 * w_abs / math.log(10.0))
    prev = None
    est = math.inf
    for _ in range(4):
        if dps > _MP_MAX_DPS:
            raise ConvergenceError(f"U({a}, {z}) needs more than "
                                   f"{_MP_MAX_DPS} digits")
        with mp.workdps(dps):
            zz = mp.mpc(z)
            w = zz * zz / 2.0
            b1 = 0.5 * a + 0.25
            b2 = 0.5 * a + 0.75
            M1 = mp.hyp1f1(b1, 0.5, w)
            M2 = mp.hyp1f1(b2, 1.5, w)
            D1 = mp.hyp1f1(b1 + 1.0, 1.5, w) * (b1 / 0.5)
            D2 = mp.hyp1f1(b2 + 1.0, 2.5, w) * (b2 / 1.5)
            U0 = mp.sqrt(mp.pi) * mp.mpf(2.0) ** (-0.5 * a - 0.25) \
                * mp.rgamma(0.75 + 0.5 * a)
            Up0 = -mp.sqrt(mp.pi) * mp.mpf(2.0) ** (-0.5 * a + 0.25) \
                * mp.rgamma(0.25 + 0.5 * a)
            E = mp.exp(-1j * mp.im(w) / 2.0)
            m = U0 * E * M1 + Up0 * zz * E * M2
            dm = (U0 * E * zz * (D1 - 0.5 * M1)
                  + Up0 * E * (M2 + zz * zz * (D2 - 0.5 * M2)))
            expo = -float(mp.re(w)) / 2.0
            mag = max(abs(m), abs(dm))
            if mag > _MP_FOLD or 0 < mag < 1.0 / _MP_FOLD:
                lm = float(mp.log(mag))
                f = mp.exp(-lm)
                m, dm, expo = m * f, dm * f, expo + lm
            cur = (complex(m), complex(dm), expo)
        if prev is not None:
            ref = max(abs(cur[0]), abs(cur[1]) / (1.0 + abs(z)), 1e-300)
            # the rounds may have folded different amounts into exponent
            est = abs(cur[0] - prev[0] * math.exp(prev[2] - cur[2])) / ref
            if est <= tol:
                break
        prev = cur
        dps += 15
    return _maybe_unscale(PcfValue(cur[0], cur[1], "series", max(est, 1e-15),
                                   cur[2]))


def eval_U(a, z, tol=1e-11):
    """U(a,z) and U'(a,z) with est_accuracy <= tol where attainable.

    Tries, in order, the methods of the region map in the module
    docstring and returns the first whose estimate meets its threshold.
    """
    require_finite(a=a, z=z)
    z = complex(z)
    a = float(a)
    if z != 0.0:
        cut = max(1e-13, tol * 1e-2)
        v = _eval_asymptotic(a, z, cut)
        if v is not None and v.est_accuracy <= cut:
            return v
    v = _eval_series_double(a, z)
    if v.est_accuracy <= tol:
        return v
    v = _eval_taylor(a, z)
    if v is not None and v.est_accuracy <= tol:
        return v
    return _eval_series_mp(a, z, tol)


def eval_U_near_zero(a, z, tol=_NEAR_ZERO_TOL):
    """U and U' for use inside root refinement.

    Near a zero the *relative* accuracy of U is meaningless (|U| -> 0);
    what matters is the absolute error measured against |U'|.  The
    asymptotic path is accepted whenever its divergent series truncates,
    and the series path is judged by the derivative-scaled error.
    """
    z = complex(z)
    a = float(a)
    if z != 0.0:
        v = _eval_asymptotic(a, z, 1e-15)
        if v is not None:
            return v
    v = _eval_series_double(a, z)
    abs_err = v.est_accuracy * abs(v.value)
    ref = max(abs(v.value), abs(v.derivative) / (1.0 + abs(z)), 1e-300)
    if abs_err / ref <= tol:
        return v
    return _eval_series_mp(a, z, tol)


def eval_U_prime(a, z):
    """U'(a,z) via the recurrence U' = -z/2 U(a,z) - (a+1/2) U(a+1,z).

    Independent of the derivative bundled in eval_U; used as cross-check.
    """
    z = complex(z)
    va = eval_U(a, z)
    vb = eval_U(a + 1.0, z)
    u, _ = va.unscaled()
    ub, _ = vb.unscaled()
    if va.exponent != 0.0 or vb.exponent != 0.0:
        # combine in the scale of va
        ub = vb.value * math.exp(vb.exponent - va.exponent)
        return -z / 2.0 * va.value - (a + 0.5) * ub
    return -z / 2.0 * u - (a + 0.5) * ub


def eval_U_quadrature(a, z):
    """U(a,z) by adaptive quadrature of the real-integral representation;
    only valid for a > -1/2."""
    if a <= -0.5:
        raise DomainError("integral representation requires a > -1/2")
    z = complex(z)

    def f(t):
        return t ** (a - 0.5) * cmath.exp(-0.5 * t * t - z * t)

    def f1(t):
        return t ** (a + 0.5) * cmath.exp(-0.5 * t * t - z * t)

    # integrand decays like exp(-t^2/2 + |z| t); truncate well past the peak
    upper = max(10.0, abs(z) + 10.0)
    I, errI = integrate.quad(f, 0.0, upper, complex_func=True, limit=200)
    I1, errI1 = integrate.quad(f1, 0.0, upper, complex_func=True, limit=200)
    pref = cmath.exp(-z * z / 4.0) * sp.rgamma(a + 0.5)
    val = pref * I
    der = pref * (-z / 2.0 * I - I1)
    est = (abs(errI) + abs(errI1)) * abs(pref) / max(abs(val), 1e-300)
    return PcfValue(val, der, "quadrature", est)


def residual_eq319(a, w):
    """|1 + i e^{-u pi i/2} U(u/2, i sqrt(2u) w) / U(u/2, -i sqrt(2u) w)|
    with u = -2a; vanishes at the first-quadrant zero parameters w."""
    if a >= 0:
        raise DomainError("residual check applies to a < 0")
    u = -2.0 * a
    w = complex(w)
    s = math.sqrt(2.0 * u)
    v1 = eval_U(0.5 * u, 1j * s * w)
    v2 = eval_U(0.5 * u, -1j * s * w)
    if abs(v2.value) < 1e-280:
        raise DomainError("denominator underflow in residual_eq319")
    ratio = v1.value / v2.value * math.exp(v1.exponent - v2.exponent)
    return abs(1.0 + 1j * cmath.exp(-0.5 * u * math.pi * 1j) * ratio)


def metrics(z_approx, z_ref, m=0):
    """g1/g2 relative-error comparison of an approximate zero against a
    reference; eps2 is None when Re*Im of the reference vanishes."""
    z_approx = complex(z_approx)
    z_ref = complex(z_ref)
    if z_ref == 0.0:
        raise DomainError("metrics requires a nonzero reference")
    g1a = abs(z_approx)
    g1r = abs(z_ref)
    eps1 = abs(1.0 - g1a / g1r)
    if z_ref.real * z_ref.imag != 0.0 and z_approx.imag != 0.0:
        g2a = z_approx.real / z_approx.imag
        g2r = z_ref.real / z_ref.imag
        eps2 = abs(1.0 - g2a / g2r)
    else:
        g2a = g2r = eps2 = None
    return ValidationRecord(m=m, z_approx=z_approx, z_ref=z_ref,
                            g1_approx=g1a, g1_ref=g1r,
                            g2_approx=g2a, g2_ref=g2r,
                            eps1=eps1, eps2=eps2)


def winding_number(a, center, radius, npoints=24):
    """Winding of arg U(a, .) along a circle; +1 certifies a simple zero
    inside (the phase increases by 2 pi)."""
    total = 0.0
    prev = None
    for k in range(npoints + 1):
        ang = 2.0 * math.pi * k / npoints
        z = center + radius * cmath.exp(1j * ang)
        val = eval_U(a, z, tol=1e-8).value
        ph = cmath.phase(val)
        if prev is not None:
            d = ph - prev
            while d > math.pi:
                d -= 2.0 * math.pi
            while d < -math.pi:
                d += 2.0 * math.pi
            total += d
        prev = ph
    return round(total / (2.0 * math.pi))
