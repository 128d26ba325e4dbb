"""Independent evaluation of U(a,z) and U'(a,z) for validation/refinement.

Methods, each with an a-posteriori error estimate:

  asymptotic — large |z|: the recessive series plus, beyond |arg z| =
     pi/2, the dominant one times i sqrt(2 pi) e^{-i pi a}/Gamma(a+1/2)
     (conjugated in the lower half-plane), both summed by asym_pair.
  series — small |z|: the Maclaurin expansion in doubles, summed by
     kummer_pair with the term magnitudes that track its cancellation.
  taylor — moderate |z|: two runs of Taylor steps of Weber's equation
     w'' = (z^2/4 + a) w, whose difference gives the estimate, stepped on
     from the last point answered (carried) or along the ray from z = 0
     (origin; stable where U is dominant, outside |arg z| < pi/4).
  mpmath — last resort: the Maclaurin expansion at escalating precision,
     capped at _MP_MAX_DPS digits (ConvergenceError past it).

An Evaluator tries at each point the stages of one entry of the stage
table _SCALES in order, and the first answer within its limit is taken.
The taylor runs then step on from a taylor answer, or restart from any
other, carrying its error by the entry's rule.  The entries:

  relative (eval_U, eval_U_path): error relative to |U|, within tol.
     Asymptotic (if its smallest term is below max(1e-13, tol/100)),
     series, carried, origin, mpmath; after a taylor answer, next to
     which the series seldom answers: asymptotic, carried, series, origin,
     mpmath.  The asymptotic method stays first: far out it answers in a
     few terms where the steps would take many.  A start carries
     max(4, est/eps) ulps, which the estimate amplifies by the runs'
     growth.  Points along the rows of a grid cost a few steps each.
  chain (sweep, hermite_zeros, CLI zeros and validate): error of U over
     max(|U|, |U'|/(1 + |z|)), since |U| -> 0 at a zero.  Carried, origin,
     asymptotic (wherever its smallest term is below 1e-15), series and
     mpmath (1e-12).  The taylor estimate is _WALK_SAFETY times the runs'
     difference plus the est of their start, within max(1e-12,
     tol/10 (1 + |z|)^2) for t_iterate's step tolerance tol: near a zero,
     where |U'| ~ (1 + |z|) ref, that moves it by at most tol/10 (1 + |z|).
  point (eval_U_near_zero, t_iterate's default): the chain entry without
     the taylor stages, which took minutes in refinement.

quadrature — adaptive integration of the real-integral representation
(valid for a > -1/2) — is an independent cross-check.

Exponentially large/small results carry a real exponent so that
value * e^exponent is the true function value.
"""
import cmath
import functools
import math
from dataclasses import dataclass
from typing import Optional

import mpmath as mp

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
# the point and chain entries' limit on the U'-scaled error
_NEAR_ZERO_TOL = 1e-12
# Taylor steps: |h| * sqrt(|a| + |z|^2/4) per step, the step-count cap,
# and the term size (relative to |w| + |h w'| = 1) that ends a series
_TAYLOR_REACH = 2.5
_TAYLOR_MAX_STEPS = 1000
_TAYLOR_MAX_TERMS = 200
_TAYLOR_TINY = 1e-17
_INV_KK = [0.0, 0.0] + [1.0 / (k * (k - 1))
                        for k in range(2, _TAYLOR_MAX_TERMS)]
# the chain entry's taylor estimate: this times the runs' difference
_WALK_SAFETY = 10.0
# the double Maclaurin series declines where max(|U(a,0)|, |U'(a,0)|) is
# below this: for a > 0 the two differ by a factor of about sqrt(a), so
# the smaller would be near the subnormal range
_ORIGIN_TINY = 1e-290
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


@functools.lru_cache(maxsize=256)
def _rgamma(x):
    """1/Gamma(x) for real x, correctly rounded but for rare double
    roundings: 0 at the poles, +-inf where it leaves the double range.
    From mpmath at 80 bits, since 1/math.gamma is up to 4 ulps off
    (x = -5.7); cached, as the callers ask for the same few x = c + a/2
    at every point of a given a."""
    with mp.workprec(80):
        return float(mp.rgamma(x))


def _maybe_unscale(v):
    if v.exponent != 0.0 and abs(v.exponent) < _UNSCALE_BOUND:
        f = math.exp(v.exponent)
        return PcfValue(v.value * f, v.derivative * f, v.method,
                        v.est_accuracy, 0.0)
    return v


def kummer_pair(b1, b2, w):
    """Sum the two Kummer series M(b1,1/2;w) and M(b2,3/2;w) together with
    the derivative sums and the term magnitudes.

    Returns (S1, D1, A1, S2, D2, A2) where S = sum_k t_k, t_0 = 1,
    t_{k+1} = t_k * w * (b+k)/((c+k)(k+1)), D = sum_k (k+1) t_{k+1}/w
    (i.e. dS/dw), and A = sum_k |t_k|, the scale of the rounding error
    of S.  Each series stops once its terms fall below 1e-17 of the
    largest.
    """
    return _kummer(b1, 0.5, w) + _kummer(b2, 1.5, w)


def _kummer(b, c, w):
    t = S = 1.0 + 0.0j
    D = 0.0 + 0.0j
    mx = A = 1.0
    aw = abs(w)
    for k in range(_KUMMER_MAX_TERMS):
        dt = t * (b + k) / ((c + k) * (k + 1))
        D += (k + 1) * dt
        t = dt * w
        S += t
        at = abs(t)
        A += at
        if at > mx:
            mx = at
        if at < 1e-17 * mx and k > aw:
            break
    return S, D, A


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
    """(mantissa, exponent, error bound of the mantissa) of U(a,z) from
    the compound expansion; None when the smallest term exceeds cut.  The
    error weighs each series' truncation and rounding, and the rounding
    of the exponents and of K's phase, about eps (|z|^2/4 + |a| |log z|).
    Near a Stokes line the remainder exceeds the smallest term by up to
    about sqrt(pi N/2), N ~ |z|^2/2 terms (Olver's chi(N)): 1 + |z|."""
    S1, S2, mn = asym_pair(a, 1.0 / (2.0 * z * z))
    if mn > cut:
        return None
    lg = cmath.log(z)
    e1 = -z * z / 4.0 - (a + 0.5) * lg
    rnd = _EPS * (abs(z) ** 2 / 4.0 + (abs(a) + 1.0) * (abs(lg) + math.pi))
    mn *= 1.0 + abs(z)
    arg = cmath.phase(z)
    K = 0.0
    if arg > math.pi / 2.0:
        K = 1j * math.sqrt(2.0 * math.pi) * cmath.exp(-1j * math.pi * a) \
            * _rgamma(0.5 + a)
    elif arg < -math.pi / 2.0:
        K = -1j * math.sqrt(2.0 * math.pi) * cmath.exp(1j * math.pi * a) \
            * _rgamma(0.5 + a)
    if K == 0.0:
        ecap = e1.real
        m1 = S1 * cmath.exp(1j * e1.imag)
        return m1, ecap, mn + abs(S1) * (rnd + 4.4e-16)
    e2 = z * z / 4.0 + (a - 0.5) * lg
    ecap = max(e1.real, e2.real)
    m = S1 * cmath.exp(e1 - ecap) + K * S2 * cmath.exp(e2 - ecap)
    w1 = math.exp(e1.real - ecap)
    w2 = abs(K) * math.exp(e2.real - ecap)
    err = (w1 + w2) * mn + (w1 * abs(S1) + w2 * abs(S2)) * (rnd + 4.4e-16)
    return m, ecap, err


def _eval_asymptotic(a, z, cut):
    r = _asym_sums(a, z, cut)
    if r is None:
        return None
    m, ecap, err = r
    r2 = _asym_sums(a + 1.0, z, cut)
    if r2 is None:
        return None
    m2, ecap2, err2 = r2
    # U'(a,z) = -z/2 U(a,z) - (a+1/2) U(a+1,z), in the common scale ecap
    dm = -z / 2.0 * m - (a + 0.5) * m2 * cmath.exp(ecap2 - ecap)
    est = max(err / max(abs(m), 1e-300), err2 / max(abs(m2), 1e-300))
    return _maybe_unscale(PcfValue(m, dm, "asymptotic", est, ecap))


def _eval_series_double(a, z):
    # U(a,0) and U'(a,0) leave double range for a below about -325 and
    # above about 290: decline there, and the selectors fall through.
    # 1/Gamma is checked before the power of 2, which raises OverflowError
    # below a = -2048; as Python floats, the products overflow to inf.
    g0 = _rgamma(0.75 + 0.5 * a)
    g1 = _rgamma(0.25 + 0.5 * a)
    U0 = Up0 = math.inf
    if math.isfinite(g0) and math.isfinite(g1):
        U0 = SQRT_PI * 2.0 ** (-0.5 * a - 0.25) * g0
        Up0 = -SQRT_PI * 2.0 ** (-0.5 * a + 0.25) * g1
    if not _ORIGIN_TINY <= max(abs(U0), abs(Up0)) < math.inf:
        nan = complex(math.nan, math.nan)
        return PcfValue(nan, nan, "series", math.inf)
    w = z * z / 2.0
    M1, D1, A1, M2, D2, A2 = kummer_pair(0.5 * a + 0.25, 0.5 * a + 0.75, w)
    # factor e^{-w/2} out as exponent -Re(w)/2, keep the phase
    E = cmath.exp(-1j * w.imag / 2.0)
    u1 = E * M1
    u1p = E * z * (D1 - 0.5 * M1)
    u2 = z * E * M2
    u2p = E * (M2 + z * z * (D2 - 0.5 * M2))
    m = U0 * u1 + Up0 * u2
    dm = U0 * u1p + Up0 * u2p
    # each sum is off by a few ulps of its terms' magnitudes, and the few
    # ulps of U(a,0) and U'(a,0) reach m through the same magnitudes; the
    # products after the sums add a few ulps of m.  So |m - U| <= d |m|,
    # and the relative error is at most d / (1 - d).
    scale = abs(U0) * A1 + abs(Up0 * z) * A2
    d = _EPS * (4.0 * scale / max(abs(m), 1e-300) + 16.0)
    est = d / (1.0 - d) if d < 1.0 else math.inf
    return _maybe_unscale(PcfValue(m, dm, "series", est, -w.real / 2.0))


def _origin_value(a):
    """U(a,0) and U'(a,0) as an answer, scaled by e^-exponent so that
    neither underflows for large |a|, with an error of about |log U(a,0)|
    ulps."""
    out = []
    for x, sign, p2 in ((0.75 + 0.5 * a, 1.0, -0.5 * a - 0.25),
                        (0.25 + 0.5 * a, -1.0, -0.5 * a + 0.25)):
        if x <= 0.0 and x == math.floor(x):
            out += [0.0, -math.inf]  # 1/Gamma vanishes
            continue
        if x < 0.0 and math.floor(x) % 2:
            sign = -sign
        out += [sign, _LOG_SQRT_PI + p2 * _LN2 - math.lgamma(x)]
    s0, l0, s1, l1 = out
    e0 = max(l0, l1)
    ulps = 4.0 + sum(abs(x) for x in (l0, l1) if math.isfinite(x))
    return PcfValue(s0 * math.exp(l0 - e0), s1 * math.exp(l1 - e0),
                    "series", ulps * _EPS, e0)


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
        p4 = p3 = 0.0
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
    # on the real axis with real data both runs step in floats, which
    # round as the complex operations with zero imaginary parts do
    real = (z0.imag == 0.0 and z1.imag == 0.0
            and all(w.imag == 0.0 and d.imag == 0.0 for w, d, _ in starts))
    if real:
        z0, z1, dz = z0.real, z1.real, dz.real
    out = []
    for steps, (w, d, x) in zip((n, n + n // 3 + 1), starts):
        if real:
            w, d = w.real, d.real
        r = _taylor_run(a, z0, z1, steps, w, d * dz / steps)
        if r is None:
            return None
        w, v, expo = r
        out.append((complex(w), complex(v * steps / dz), x + expo))
    return out


def _start(z, v, seed):
    """The taylor runs' start at z from the answer v there: (z, runs at
    v's data, their error seed(v.est_accuracy), v's exponent kept apart)."""
    return z, [(v.value, v.derivative, 0.0)] * 2, seed(v.est_accuracy), \
        v.exponent


def _relative_estimate(runs, ulps, z):
    """Relative error bound of a taylor answer from its runs' relative
    difference diff and the error ulps * _EPS of their start, which grows
    as their rounding does, by diff/_EPS; inf where U or U' is 0."""
    (w1, d1, x1), (w2, d2, x2) = runs
    if w2 == 0.0 or d2 == 0.0:
        return math.inf
    f = math.exp(x1 - x2)
    diff = max(abs(w1 * f - w2) / abs(w2), abs(d1 * f - d2) / abs(d2))
    return max(100.0, ulps) * diff + ulps * _EPS


def _scaled_estimate(runs, err, z):
    """Error bound of a taylor answer's U over max(|U|, |U'|/(1 + |z|)):
    _WALK_SAFETY times the runs' difference in U, plus err, their start's."""
    (w1, _, x1), (w2, d2, x2) = runs
    diff = abs(w1 * math.exp(x1 - x2) - w2)
    ref = max(abs(w2), abs(d2) / (1.0 + abs(z)))
    return _WALK_SAFETY * diff / ref + err


def _scaled_error(v, z):
    """The error of answer v on _scaled_estimate's scale."""
    ref = max(abs(v.value), abs(v.derivative) / (1.0 + abs(z)), 1e-300)
    return v.est_accuracy * abs(v.value) / ref


class Evaluator:
    """U(a,z) and U'(a,z) at a sequence of points, for one fixed a.

    Called as ev(a, z), as t_iterate calls its evaluator.  scale names
    the entry of _SCALES whose stages it tries (module docstring).  It
    holds both taylor runs at the last point answered, so that a point
    near it costs a few Taylor steps; the same point gets the same answer.
    """

    def __init__(self, a, tol=1e-11, scale="relative"):
        require_finite(a=a)
        if scale not in _SCALES:
            raise DomainError(f"scale {scale!r} is not one of {list(_SCALES)}")
        self.a = float(a)
        self.tol = tol
        self._scale = _SCALES[scale]
        self._start = None         # the runs' start at the last point
        self._last = None          # the answer there
        self._stepped = False      # whether that answer is a taylor one

    def __call__(self, a, z):
        if float(a) != self.a:
            raise DomainError(f"evaluator for a = {self.a} asked for a = {a}")
        z = complex(z)
        if not cmath.isfinite(z):
            raise DomainError(f"z = {z} is not finite")
        if self._start is not None and z == self._start[0]:
            return self._last
        scale = self._scale
        # a stage gives (answer, the runs' start it leaves or None) or None;
        # the last stage of every order answers or raises
        for stage in scale.orders[self._stepped]:
            limit = scale.limits[stage](self.tol, z)
            r = getattr(self, "_" + stage)(z, limit)
            if r is not None:
                break
        v, start = r
        self._stepped = start is not None
        self._start = start or _start(z, v, scale.seed)
        self._last = v
        return v

    def _asymptotic(self, z, limit):
        cut, accept = limit
        v = None if z == 0.0 else _eval_asymptotic(self.a, z, cut)
        ok = v is not None and self._scale.error(v, z) <= accept
        return (v, None) if ok else None

    def _series(self, z, limit):
        v = _eval_series_double(self.a, z)
        return (v, None) if self._scale.error(v, z) <= limit else None

    def _carried(self, z, limit):
        return self._taylor(z, limit, self._start)

    def _origin(self, z, limit):
        return self._taylor(z, limit, self._at_origin)

    @functools.cached_property
    def _at_origin(self):
        return _start(0j, _origin_value(self.a), self._scale.seed)

    def _mpmath(self, z, limit):
        return _eval_series_mp(self.a, z, limit), None

    def _taylor(self, z, limit, start):
        if start is None:
            return None
        z0, runs, err, e0 = start
        runs = _taylor_pair(self.a, z0, z, runs)
        if runs is None:
            return None
        est = self._scale.estimate(runs, err, z)
        if not est <= limit:
            return None
        w, d, x = runs[1]
        v = _maybe_unscale(PcfValue(w, d, "taylor", est, e0 + x))
        return v, (z, runs, err, e0)


@dataclass(frozen=True)
class _Scale:
    """An entry of the stage table."""
    orders: tuple     # the stage order, and the order after a taylor answer
    limits: dict      # stage -> (tol, z) -> limit; asymptotic: (cut, limit)
    estimate: object  # (runs, error of their start, z) -> taylor estimate
    error: object     # (answer, z) -> its error on this scale
    seed: object      # est of an answer -> the error of a start from it


def _tol(tol, z):
    return tol


def _step_limit(tol, z):
    return max(_NEAR_ZERO_TOL, 0.1 * tol * (1.0 + abs(z)) ** 2)


_SCALES = {
    "relative": _Scale(
        orders=(("asymptotic", "series", "carried", "origin", "mpmath"),
                ("asymptotic", "carried", "series", "origin", "mpmath")),
        limits={"asymptotic": lambda tol, z: (max(1e-13, tol * 1e-2), tol),
                "series": _tol, "carried": _tol, "origin": _tol,
                "mpmath": _tol},
        estimate=_relative_estimate, error=lambda v, z: v.est_accuracy,
        seed=lambda est: max(4.0, est / _EPS)),
    "chain": _Scale(
        orders=(("carried", "origin", "asymptotic", "series", "mpmath"),) * 2,
        limits={"carried": _step_limit, "origin": _step_limit,
                "asymptotic": lambda tol, z: (1e-15, math.inf),
                "series": lambda tol, z: _NEAR_ZERO_TOL,
                "mpmath": lambda tol, z: _NEAR_ZERO_TOL},
        estimate=_scaled_estimate, error=_scaled_error, seed=lambda est: est),
    "point": _Scale(
        orders=(("asymptotic", "series", "mpmath"),) * 2,
        limits={"asymptotic": lambda tol, z: (1e-15, math.inf),
                "series": _tol, "mpmath": _tol},
        estimate=_scaled_estimate, error=_scaled_error, seed=lambda est: est),
}


def _eval_series_mp(a, z, tol):
    """Arbitrary-precision fallback: same Maclaurin decomposition via
    mpmath's 1F1, at escalating precision until two runs agree to tol;
    ConvergenceError when four rounds never do.  Where U or U' would
    leave double range, log|U| goes into exponent."""
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
            try:
                M1 = mp.hyp1f1(b1, 0.5, w)
                M2 = mp.hyp1f1(b2, 1.5, w)
                D1 = mp.hyp1f1(b1 + 1.0, 1.5, w) * (b1 / 0.5)
                # b2 / 1.5 is not exact in doubles, and the cancellation
                # between the two solutions would amplify its rounding
                D2 = mp.hyp1f1(b2 + 1.0, 2.5, w) * b2 / 1.5
            except ValueError as e:
                # hypsum gives up on a series whose sum is exactly 0, as
                # 1F1(-1; 1/2; 1/2) for U(-5/2, 1): no relative accuracy
                raise ConvergenceError(
                    f"U({a}, {z}): mpmath's 1F1 series failed at {dps} "
                    "digits") from e
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
    else:
        raise ConvergenceError(f"U({a}, {z}): mpmath rounds up to {dps - 15} "
                               f"digits agree only to {est:.3g}")
    return _maybe_unscale(PcfValue(cur[0], cur[1], "series", max(est, 1e-15),
                                   cur[2]))


def eval_U(a, z, tol=1e-11):
    """U(a,z) and U'(a,z) with est_accuracy <= tol where attainable, from
    the relative entry of the stage table (module docstring)."""
    return Evaluator(a, tol)(a, z)


def eval_U_path(a, zs, tol=1e-11):
    """eval_U at each point of zs, in order, by one Evaluator: the cost
    falls when each point is close to the one before it."""
    ev = Evaluator(a, tol)
    return [ev(a, z) for z in zs]


def eval_U_near_zero(a, z):
    """U and U' for use inside root refinement, by the point entry of the
    stage table: near a zero the relative accuracy of U is meaningless
    (|U| -> 0); the error is judged against |U'|."""
    return Evaluator(a, _NEAR_ZERO_TOL, "point")(a, z)


def eval_U_prime(a, z):
    """U'(a,z) via the recurrence U' = -z/2 U(a,z) - (a+1/2) U(a+1,z).

    Independent of the derivative bundled in eval_U; used as cross-check.
    The true double: 0 where U' underflows, DomainError where it
    overflows.
    """
    z = complex(z)
    va = eval_U(a, z)
    vb = eval_U(a + 1.0, z)
    e = max(va.exponent, vb.exponent)
    try:
        d = (-z / 2.0 * va.value * math.exp(va.exponent - e)
             - (a + 0.5) * vb.value * math.exp(vb.exponent - e)) * math.exp(e)
        if cmath.isfinite(d):
            return d
    except OverflowError:
        pass
    raise DomainError(f"U'({a}, {z}) overflows a double")


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

    # imported here, as only this cross-check needs it
    from scipy.integrate import quad
    # |integrand| peaks where (a - 1/2)/t = t + Re z and decays like a
    # Gaussian of unit width past it; truncate well past the peak
    peak = 0.5 * (math.sqrt(z.real ** 2 + 4.0 * max(a - 0.5, 0.0)) - z.real)
    upper = max(10.0, abs(z) + 10.0, peak + 10.0)
    try:
        I, errI = quad(f, 0.0, upper, complex_func=True, limit=200)
        I1, errI1 = quad(f1, 0.0, upper, complex_func=True, limit=200)
    except OverflowError:
        raise DomainError(
            f"integrand t^(a-1/2) e^(-t^2/2 - z t) of U({a}, {z}) "
            "overflows a double") from None
    pref = cmath.exp(-z * z / 4.0) * _rgamma(a + 0.5)
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
    points = [center + radius * cmath.exp(2j * math.pi * k / npoints)
              for k in range(npoints + 1)]
    total = 0.0
    prev = None
    for v in eval_U_path(a, points, tol=1e-8):
        ph = cmath.phase(v.value)
        if prev is not None:
            d = ph - prev
            while d > math.pi:
                d -= 2.0 * math.pi
            while d < -math.pi:
                d += 2.0 * math.pi
            total += d
        prev = ph
    return round(total / (2.0 * math.pi))
