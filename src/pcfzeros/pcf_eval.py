"""Independent evaluation of U(a,z) and U'(a,z) for validation/refinement.

Methods, each with an a-posteriori error estimate:

  asymptotic — large |z|: the recessive series plus, beyond |arg z| =
     pi/2, the dominant one times i sqrt(2 pi) e^{-i pi a}/Gamma(a+1/2)
     (conjugated in the lower half-plane), both summed by asym_pair with
     their termwise derivatives, which give U': one expansion a point.
  series — small |z|: the Maclaurin expansion in doubles, summed by
     kummer_pair with the term magnitudes that track its cancellation.
  taylor — moderate |z|: Taylor steps of Weber's equation w'' = (z^2/4
     + a) w, stepped on from the last point answered (carried) or from z
     = 0 (origin), in two runs whose difference gives the estimate, or,
     for the chain entry's carried hops, in one run that carries a bound
     on its rounding error (below).  The origin stage steps along the
     ray, stable where U is dominant, outside |arg z| < pi/4; where the
     ray declines and 0 < |Re z| < |Im z|, it steps up the imaginary
     axis, along which U is dominant, to i Im z and then across to z;
     where 0 < |Im z| < |Re z|, as next to the first zeros at large -a,
     along the real axis to Re z and then across.  Both are judged by the
     ray's estimate and limit.  The ray stays first: next to the lines
     |Re z| = |Im z| it is the more accurate.
  mpmath — last resort: the Maclaurin expansion at escalating precision,
     capped at _MP_MAX_DPS digits (ConvergenceError past it).

mpmath is imported on first use, by this stage and by _rgamma (the
80-bit 1/Gamma of the asymptotic reflection term and of the series),
so that importing the package, and the chains of CLI zeros and
validate, sweep and hermite_zeros, which answer in doubles, do not
load it.

An Evaluator tries at each point the stages of one entry of the stage
table _SCALES in order, and the first answer within its limit is taken.
The taylor runs then step on from a taylor answer, or restart (_start)
from any other answer or from U(a, 0) scaled to |U| + |U'| = 1, carrying
its error by the entry's rule.  The entries:

  relative (eval_U, eval_U_path, phase-grid's _eval_grid): error
     relative to |U|, within tol.  Asymptotic (if its smallest term is
     below max(1e-13, tol/100); where a closed-form bound on that term
     is above, _asym_declines turns the point down before any summing),
     carried, series, origin, mpmath.  The asymptotic method stays
     first: far out it answers in a few terms where the steps would take
     many.  A start carries max(4, est/eps) ulps, which the estimate
     amplifies by the runs' growth.  Points along the rows of a grid
     cost a few steps each, stepped toward where |U| grows (_eval_grid).
  chain (t_iterate's default, sweep, hermite_zeros, CLI zeros and
     validate, eval_U_near_zero): error of U over max(|U|, |U'|/(1 + |z|)),
     since |U| -> 0 at a zero.  Carried, origin, asymptotic (wherever its
     smallest term is below 1e-15), series and mpmath (1e-12).  The taylor
     estimate is _WALK_SAFETY times the runs' difference plus the est of
     their start, within max(1e-12, tol/10 (1 + |z|)^2) for t_iterate's
     step tolerance tol: near a zero, where |U'| ~ (1 + |z|) ref, that
     moves it by at most tol/10 (1 + |z|).  A carried hop takes one run,
     of the pair's shorter step count, which carries A, a bound on the
     Wronskian U dU' - U' dU of its error dU with U: w'' = q w keeps it
     constant, so each step's rounding bound (_taylor_run, from bounds on
     its terms' magnitudes and on their multiples k |d_k| by the step's
     reach, _plan) is added once, and where |U| <= 1e-3 |U'|/(1 +
     |z|), next to a zero, (1 + |z|) A / |U'|^2 plus the start's est
     bounds the error (_one_run_estimate).  From a pair, A starts at
     _WALK_SAFETY times the runs' own Wronskian difference.  A real hop
     with real data (hermite_zeros and the real families) steps in floats,
     as the pair's runs do there, and its end data stay floats: the carry,
     the estimates and the next hop take them as they are, and _answer
     alone makes the answer complex.  The pair stays for the origin stage.
     A hop whose end is not next to a zero, as sweep's first iterate of each
     of its first dozen zeros is, before its predicted starts take hold,
     or whose estimate is over the limit (on hermite_zeros' dense zeros,
     where the bound grows by about the same amount a zero, 10 of the 927
     hops of hermite_zeros(n) over the perfbench orders) pairs its run
     with one of the pair's longer step count from the start's other run
     (from a one-run start, its U' 4 ulps off, as _start does), and their
     difference gives the estimate.  A hop takes its step count, its
     path's length and its term bounds from one _plan call, as the pair's
     runs take their step counts, without the bounds, and it forms the
     other run's start only where it pairs.

Exponentially large/small results carry a real exponent so that
value * e^exponent is the true function value.
"""
import cmath
import functools
import math
from typing import NamedTuple

from .errors import (_DBL_MAX, ConvergenceError, DomainError,
                     _positive_int, _shown, _tolerance, require_finite)

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
# an mpmath round whose sum keeps fewer digits than this is not compared
_MP_KEPT = 5
# the chain entry's limit on the U'-scaled error
_NEAR_ZERO_TOL = 1e-12
# Taylor steps: |h| * sqrt(Q) per step, Q a bound on |z^2/4 + a| along
# the path (_plan), the step-count cap, and the term size
# (relative to |w| + |h w'| = 1) that ends a series.  The reach was
# measured with Q = |a| + |z|^2/4: on the CLI tables and hermite_zeros, 4
# took a quarter fewer steps than 2.5 and summed a fifth fewer terms; at
# 2.5 the estimate of one point of the origin stage's test grid (a = 8.3,
# z = 2.17+2.35i) fell below its error, at 3 to 6 none did.  The cap
# bounds a pair's time, 0.4 s at 9 us a complex step (Python 3.11, 2-vCPU
# Xeon), and the path from the origin to the first complex zeros takes
# about 0.7 |a| steps: the cap reaches them up to |a| = 1e4
_TAYLOR_REACH = 4.0
_TAYLOR_MAX_STEPS = 20000
_TAYLOR_MAX_TERMS = 200
_TAYLOR_TINY = 1e-17
# _taylor_run's bound on the rounding of a step's sums, per unit of their
# term magnitudes (|d_k| for w, k |d_k| for v): each term carries the
# rounding of its complex products and sums, a few ulps of the products'
# sizes, and adding it one more.  On the chains of CLI zeros at a = 8.3,
# 20.3, -6.2 and 100.3 the one-run answers' errors stay below a fifth of
# their estimates (0.28 at -100.3), on the real chains of hermite_zeros
# and of the real families at -100.3 and -500.3 below a twentieth, and
# along 60 zeros at 8.3 from an mpmath start below a thirtieth; without
# this bound they reached 14 times the estimate there
_TAYLOR_ROUNDING = 6.0 * _EPS
# a chain's carried hop is one Taylor run where it ends next to a zero,
# |U| (1 + |z|) <= _ONE_RUN_R |U'| (_one_run_estimate); the iterates of
# the chains of CLI zeros at the a above stay below 2e-7, while sweep's
# first iterates at 8.3 and 20.3 reach 2.6 over its first 13 zeros and
# stay below 1e-3 from the 14th on, from its predicted starts
_ONE_RUN_R = 1e-3
# _taylor_run's passes, two terms each: k, k + 1, 1/(k (k-1)), 1/((k+1) k)
_TAYLOR_PASSES = tuple((float(k), float(k + 1), 1.0 / (k * (k - 1)),
                        1.0 / ((k + 1) * k))
                       for k in range(2, _TAYLOR_MAX_TERMS, 2))
# the chain entry's taylor estimate: this times the runs' difference
_WALK_SAFETY = 10.0
# the double Maclaurin series declines where max(|U(a,0)|, |U'(a,0)|) is
# below this: for a > 0 the two differ by a factor of about sqrt(a), so
# the smaller would be near the subnormal range
_ORIGIN_TINY = 1e-290
# every stage forms |z|^2 (the step limit, the asymptotic rounding, the
# Taylor reach, the mpmath precision): an Evaluator refuses |z| past this
_Z_MAX = 1e154
# term caps of the Kummer (Maclaurin) and Poincare (asymptotic) sums
_KUMMER_MAX_TERMS = 4000
_ASYM_MAX_TERMS = 64
# asym_pair's s and 2s
_ASYM_TERMS = tuple((float(s), 2.0 * s) for s in range(1, _ASYM_MAX_TERMS))
# winding_number doubles its points at most this many times
_WINDING_DOUBLINGS = 3


class PcfValue(NamedTuple):
    value: complex
    derivative: complex
    method: str  # asymptotic | series | taylor (mpmath answers: series)
    est_accuracy: float
    # value * e**exponent is the true U; 0 unless out of double range
    exponent: float = 0.0

    def unscaled(self):
        """(U, U'): value and derivative times e**exponent, by two factors
        e**(exponent/2), so that e**exponent may leave the double range
        where the products do not; DomainError where one of them does."""
        if self.exponent == 0.0:
            return self.value, self.derivative
        try:
            f = math.exp(0.5 * self.exponent)
        except OverflowError:
            f = math.inf
        u, du = self.value * f * f, self.derivative * f * f
        if not (cmath.isfinite(u) and cmath.isfinite(du)):
            raise DomainError(f"exponent {self.exponent!r}: U or U' leaves "
                              "the double range")
        return u, du


@functools.lru_cache(maxsize=256)
def _rgamma(x):
    """1/Gamma(x) for real x, correctly rounded but for rare double
    roundings: 0 at the poles, +-inf where it leaves the double range.
    From mpmath at 80 bits, since 1/math.gamma is up to 4 ulps off
    (x = -5.7); cached, as the callers ask for the same few x = c + a/2
    at every point of a given a."""
    import mpmath as mp
    with mp.workprec(80):
        return float(mp.rgamma(x))


# PcfValue's fields as a tuple: NamedTuple's __new__ is a Python function
_tuple_new = tuple.__new__


def _answer(value, derivative, method, est, exponent):
    """The answer's PcfValue, its exponent folded in below _UNSCALE_BOUND;
    the one place where a taylor answer becomes complex.  value and
    derivative are complex numbers or, from a real run (_run), the floats
    it stepped in: folding the exponent into a float and then forming the
    complex number gives the bits of folding it into that complex number,
    since f = e^exponent is a finite float > 0."""
    if exponent != 0.0 and abs(exponent) < _UNSCALE_BOUND:
        f = math.exp(exponent)
        value *= f
        derivative *= f
        exponent = 0.0
    return _tuple_new(PcfValue, (complex(value), complex(derivative), method,
                                 est, exponent))


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
    Returns (S1, S2, minterm, T1, T2, n2): minterm bounds the truncation
    error relative to the leading terms, T is S with each term times 2s
    (-z d/dz), and n2 is the 2s of the last term summed (0 if none).
    """
    t1 = t2 = S1 = S2 = 1.0 + 0.0j
    T1 = T2 = 0.0j
    mn = 1.0
    b1, b2, b3, b4 = a - 1.5, a - 0.5, -a - 1.5, -a - 0.5
    for s, s2 in _ASYM_TERMS:
        t1 = -t1 * (b1 + s2) * (b2 + s2) * z2inv / s
        t2 = t2 * (b3 + s2) * (b4 + s2) * z2inv / s
        # m = max(|t1|, |t2|), NaNs as max orders them
        m = abs(t1)
        m2 = abs(t2)
        if m2 > m:
            m = m2
        if m > mn:
            # divergent tail reached; first omitted term bounds the error
            mn = m
            s2 -= 2.0
            break
        S1 += t1
        S2 += t2
        T1 += s2 * t1
        T2 += s2 * t2
        mn = m
        if mn < 1e-18:
            break
    return S1, S2, mn, T1, T2, s2


def _asym_declines(a, z, cut):
    """Whether the terms of U's expansion or of U''s stay above cut for
    s = 1.._ASYM_MAX_TERMS-1, so that _eval_asymptotic turns the point
    down: decided in closed form, without summing.

    U''s terms are those at a + 1 times a + 1/2 (U' = -z/2 U - (a + 1/2)
    U(a + 1, z)).  Of the Pochhammer bases at a and a + 1, c = 1/2 +
    max(|a|, |a + 1|) is the largest, and its terms |t_s| = Gamma(c + 2s)
    / (Gamma(c) s! x^s), x = 2|z|^2, are the largest.  Their ratio
    t_{s+1}/t_s = (c + 2s)(c + 2s + 1)/((s + 1) x) is below 1 only between
    the roots of 4s^2 + (4c + 2 - x) s + c(c + 1) - x, so the smallest is
    t_1 or t_k, k the upper root rounded up (Olver's truncation at the
    smallest term).  Compared in logs with a margin of 1e-6 of their sizes
    for the rounding of lgamma and of asym_pair's products.  True where
    z z, by which the sums divide, underflows to 0; elsewhere False where
    any of it leaves the double range: the sums decide.
    """
    if z * z == 0.0:
        return True
    c = 0.5 + max(abs(a), abs(a + 1.0))
    x = 2.0 * abs(z) ** 2
    if not 0.0 < x < math.inf:
        return False
    lx = math.log(x)
    lcut = math.log(cut)
    b = 4.0 * c + 2.0 - x
    q = c * (c + 1.0) - x
    d = b * b - 16.0 * q
    if not math.isfinite(d):
        return False
    k = 1
    if d > 0.0:
        # the upper root, without cancellation
        r = math.sqrt(d)
        hi = (r - b) / 8.0 if b <= 0.0 else -2.0 * q / (b + r)
        k = _ASYM_MAX_TERMS - 1 if hi >= _ASYM_MAX_TERMS - 1 \
            else max(1, math.ceil(hi))
    try:
        lc = math.lgamma(c)
        for s in {1, k}:
            lp = math.lgamma(c + 2.0 * s)
            ls = math.lgamma(s + 1.0)
            lt = lp - lc - ls - s * lx
            if lt - 1e-6 * (1.0 + abs(lp) + abs(lc) + ls + s * abs(lx)) \
                    <= lcut:
                return False
    except OverflowError:
        return False
    return True


def _eval_asymptotic(a, z, cut):
    """U(a,z) = sum k e^e S over the recessive part and, beyond |arg z| =
    pi/2, K's, and U' = sum k e^e (e' S - T/z), T from asym_pair; None
    where the smallest term exceeds cut.  U's error weighs each series'
    truncation and rounding, the rounding of the exponents and of K's
    phase, about eps (|z|^2/4 + |a| |log z|), and, near a Stokes line, a
    remainder up to sqrt(pi N/2) ~ 1 + |z| times the smallest term
    (Olver's chi(N), N ~ |z|^2/2 terms).  U''s: that times |e'|, plus the
    first term left out times 2N/|z| (2N its 2s), its derivative's size."""
    if _asym_declines(a, z, cut):
        return None
    S1, S2, mn, T1, T2, n2 = asym_pair(a, 1.0 / (2.0 * z * z))
    if mn > cut:
        return None
    lg = cmath.log(z)
    az = abs(z)
    rnd = _EPS * (2.0 + az * az / 4.0 + (abs(a) + 1.0) * (abs(lg) + math.pi))
    dn = mn * (n2 + 2.0) / az  # the first term left out, differentiated
    mn *= 1.0 + az
    # (k, e, S, T, e', a -+ 1/2); K signed by arg z (-x +- 0j keep sides)
    parts = [(1.0, -z * z / 4.0 - (a + 0.5) * lg, S1, T1,
              -z / 2.0 - (a + 0.5) / z, a + 0.5)]
    rg = _rgamma(0.5 + a) if abs(cmath.phase(z)) > math.pi / 2.0 else 0.0
    if rg != 0.0:
        sg = math.copysign(1.0, z.imag)
        parts.append((sg * 1j * math.sqrt(2.0 * math.pi) * rg,
                      z * z / 4.0 + (a - 0.5) * lg - sg * 1j * math.pi * a,
                      S2, T2, z / 2.0 + (a - 0.5) / z, a - 0.5))
    ecap = max(p[1].real for p in parts)
    m = dm = err = derr = 0.0
    for k, e, S, T, de, c in parts:
        f = k * cmath.exp(e - ecap)
        g = az / 2.0 + abs(c) / az  # >= |e'|
        m += S * f
        dm += (de * S - T / z) * f
        err += abs(f) * (mn + abs(S) * rnd)
        derr += abs(f) * (mn * g + dn + (g * abs(S) + abs(T) / az) * rnd)
    est = max(err / max(abs(m), 1e-300), derr / max(abs(dm), 1e-300))
    return _answer(m, dm, "asymptotic", est, ecap)


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
    return _answer(m, dm, "series", est, -w.real / 2.0)


def _origin_value(a):
    """U(a,0) and U'(a,0) as an answer, scaled by e^-exponent so that
    neither underflows for large |a|, with an error of about |log U(a,0)|
    ulps; None past a ~ 2.55e305, where log Gamma leaves the double
    range."""
    out = []
    for x, sign, p2 in ((0.75 + 0.5 * a, 1.0, -0.5 * a - 0.25),
                        (0.25 + 0.5 * a, -1.0, -0.5 * a + 0.25)):
        if x <= 0.0 and x == math.floor(x):
            out += [0.0, -math.inf]  # 1/Gamma vanishes
            continue
        if x < 0.0 and math.floor(x) % 2:
            sign = -sign
        try:
            out += [sign, _LOG_SQRT_PI + p2 * _LN2 - math.lgamma(x)]
        except OverflowError:
            return None
    s0, l0, s1, l1 = out
    e0 = max(l0, l1)
    ulps = 4.0 + sum(abs(x) for x in (l0, l1) if math.isfinite(x))
    return PcfValue(s0 * math.exp(l0 - e0), s1 * math.exp(l1 - e0),
                    "series", ulps * _EPS, e0)


def _taylor_run(a, z0, z1, n, w, v, terms=None):
    """Integrate w'' = (t^2/4 + a) w over n equal steps from t = z0 to z1.

    (w, v) is the data at z0 with v = h w', h = (z1 - z0)/n.  Returns
    (w(z1), h w'(z1), log of the scale factored out, rounding bound), or
    None when the arithmetic overflowed.  Each step sums the Taylor series
    w(t0 + h) = sum_k d_k with d_k = c_k h^k, whose coefficients follow
    from the equation expanded about t0:
        k (k-1) d_k = h^2 (q0 d_{k-2} + q1 h d_{k-3} + h^2/4 d_{k-4}),
    q0 = t0^2/4 + a, q1 = t0/2.

    The rounding bound is 0.0 unless terms = (C, S, C', S') is given, such
    that sum_k |d_k| <= C |w| + S |v| and sum_k k |d_k| <= C' |w| + S' |v|
    with (w, v) a step's start (_plan); then it is the sum over the
    steps of a bound on |w dv - v dw|, (dw, dv) the error a step adds to
    its end data: the sums of w and of v = sum_k k d_k are off by at most
    _TAYLOR_ROUNDING (C |w| + S |v|) and _TAYLOR_ROUNDING (C' |w| + S'
    |v|), plus the last pass's terms for the tail, times k' for v, k' the
    last k.  For w'' = q w that Wronskian of a first-order error with the
    solution is constant along the path; each step's share is carried to
    z1 in the frame of the returned data, by the scale factored out (its
    square).  The term loop is the same either way.
    """
    h = (z1 - z0) / n
    h2 = h * h
    c2 = h2 * h2 / 4.0
    expo = acc = 0.0
    if terms:
        cw, cv, kw, kv = terms
    for j in range(n):
        t0 = z0 + j * h
        c0 = h2 * (t0 * t0 / 4.0 + a)
        c1 = h2 * h * t0 / 2.0
        p4 = p3 = 0.0
        p2, p1 = w, v
        s, d = w + v, v
        # two terms per pass: d_k = t and d_{k+1} = u
        for k, k1, r, r1 in _TAYLOR_PASSES:
            t = (c0 * p2 + c1 * p3 + c2 * p4) * r
            u = (c0 * p1 + c1 * p2 + c2 * p3) * r1
            s += t + u
            d += k * t + k1 * u
            if abs(t) + abs(u) < _TAYLOR_TINY:
                break
            p4, p3 = p2, p1
            p2, p1 = t, u
        # keep |w| + |v| = 1; the scale goes into the exponent
        m = abs(s) + abs(d)
        if not 0.0 < m < math.inf:
            return None
        if terms:
            aw, av = abs(w), abs(v)
            tail = abs(t) + abs(u)
            bw = _TAYLOR_ROUNDING * (cw * aw + cv * av) + tail
            bv = _TAYLOR_ROUNDING * (kw * aw + kv * av) + k1 * tail
            acc = (acc + (bv * abs(s) + bw * abs(d))) / m / m
        w, v = s / m, d / m
        expo += math.log(m)
    return w, v, expo, acc


def _plan(a, z0, z1, bounds=True):
    """The plan of a Taylor run from z0 to z1, all that a chain's hop and
    _taylor_pair take of its path, from one call: (n, L, terms, Q), or
    None where n would pass _TAYLOR_MAX_STEPS or the path is empty.
    terms is None where bounds is false, as for _taylor_pair, whose runs
    form no rounding bound.

    Q bounds the size of the equation's coefficient q(t) = t^2/4 + a
    along the path: the smaller of |a| + r^2/4, r = max(|z0|, |z1|),
    which bounds it on the segment, and q0 = |q(z0)| + |z0| L + L^2, L =
    |z1 - z0|, which bounds it on the disc |t - z0| <= 2L that holds
    every step's disc, since q(z0 + e) = q(z0) + z0 e/2 + e^2/4.  The
    second is the smaller where the path is short next to where q is
    small, as between the real zeros inside the turning points, where
    |q(x)| = |a| - x^2/4.  Q is never above the first, so no path takes
    more steps than by it.  n, the step count, has |h| max(1, sqrt(Q)) ~
    _TAYLOR_REACH, h = (z1 - z0)/n.

    terms = (cosh R, sinh(R)/R, R sinh R, cosh R) gives sum_k |d_k| <=
    |w| cosh R + |v| sinh(R)/R and sum_k k |d_k| <= |w| R sinh R + |v|
    cosh R in each step of the n-step run (_taylor_run), (w, v) the
    step's start.  The moduli of the terms' recurrence are majorised by
    the terms D_k of W'' = (|c0| + |c1| x + |c2| x^2) W with W(0) = |w|,
    W'(0) = |v|, in x = (t - t0)/h, and on [0, 1] that W is at most the
    solution of W'' = R^2 W, R^2 = |c0| + |c1| + |c2| = |h|^2 (|q0| +
    |q1| |h| + |h|^2/4), so sum_k |d_k| <= W(1) <= |w| cosh R + |v|
    sinh(R)/R, and sum_k k |d_k| = W'(1), at most that solution's
    derivative, |w| R sinh R + |v| cosh R.  Every t0 of the path has
    |t0| <= r, so R^2/|h|^2 <= |a| + (r + |h|)^2/4, and t0 = z0 + e with
    |e| <= L, so R^2/|h|^2 <= q0, as for Q.  Only a one-run hop uses
    terms."""
    r0 = abs(z0)
    r1 = abs(z1)
    L = abs(z1 - z0)
    # conditionals, not min and max: this runs once per Taylor hop
    r = r0 if r0 > r1 else r1
    q0 = abs(0.25 * z0 * z0 + a) + (r0 + L) * L
    q = abs(a) + r ** 2 / 4.0
    if q0 < q:
        q = q0
    reach = L * max(1.0, math.sqrt(q))
    n = math.ceil(reach / _TAYLOR_REACH) if math.isfinite(reach) else 0
    if not 0 < n <= _TAYLOR_MAX_STEPS:
        return None
    if not bounds:
        return n, L, None, q
    hh = L / n
    qh = abs(a) + (r + hh) ** 2 / 4.0
    R = hh * math.sqrt(q0 if q0 < qh else qh)
    c = math.cosh(R)
    sh = math.sinh(R)
    return n, L, (c, (sh / R if R > 0.0 else 1.0), R * sh, c), q


def _run(a, z0, z1, n, w, d, terms=None):
    """_taylor_run of n steps from the data (w, d) at z0, d the
    derivative of w, and its end data in the same form: (w, d, log of
    the scale factored out, rounding bound), or None.  On the real axis
    with real data (floats, or complex numbers with zero imaginary parts)
    the run steps in floats, which round as the complex operations with
    zero imaginary parts do, at a fraction of their cost, and its end
    data stay floats: the carry, the estimates and the next real run take
    them as they are, and _answer makes the answer complex.  Elsewhere
    they are complex."""
    dz = z1 - z0
    if z0.imag == 0.0 and z1.imag == 0.0 and w.imag == 0.0 \
            and d.imag == 0.0:
        z0, z1, dz, w, d = z0.real, z1.real, dz.real, w.real, d.real
    r = _taylor_run(a, z0, z1, n, w, d * dz / n, terms)
    if r is None:
        return None
    w1, v1, dx, acc = r
    return w1, v1 * n / dz, dx, acc


def _taylor_pair(a, z0, z1, starts):
    """The two Taylor runs from z0 to z1, with n (_plan) and n + n//3 + 1
    steps.  starts holds each run's (w, d, x) at z0, meaning U =
    w e^x and U' = d e^x; returns the same at z1, or None when the step
    count would pass _TAYLOR_MAX_STEPS or the arithmetic overflowed.  The
    runs' difference gives the estimate (_relative_estimate,
    _scaled_estimate), so they form no rounding bound.
    """
    plan = _plan(a, z0, z1, False)
    if plan is None:
        return None
    n = plan[0]
    n2 = n + n // 3 + 1
    (w1, d1, x1), (w2, d2, x2) = starts
    r1 = _run(a, z0, z1, n, w1, d1)
    if r1 is None:
        return None
    r2 = _run(a, z0, z1, n2, w2, d2)
    if r2 is None:
        return None
    return (r1[0], r1[1], x1 + r1[2]), (r2[0], r2[1], x2 + r2[2])


def _start(z, v, seed):
    """The taylor runs' start at z from the answer v there: (z, runs,
    error, exponent).  The runs start at v's data over m = |value| +
    |derivative|, as _taylor_run's term test assumes, and the first with
    U' 4 ulps off, so that their difference grows as an error of the start
    does: from equal data it grew up to a hundredfold less where U is
    recessive.  The error is seed() of v's est plus |log m| ulps, as the
    rounding of log m in the exponent is common to both runs."""
    m = abs(v.value) + abs(v.derivative)
    w, d, lm = v.value / m, v.derivative / m, math.log(m)
    return z, [(w, d * (1.0 + 4.0 * _EPS), 0.0), (w, d, 0.0)], \
        seed(v.est_accuracy + abs(lm) * _EPS), v.exponent + lm


def _relative_estimate(runs, ulps, z):
    """Relative error bound of a taylor answer from its runs' relative
    difference diff and the error ulps * _EPS of their start, which grows
    as their 4-ulp offset does, by diff/_EPS; inf where U or U' is 0."""
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
    """The error of answer v on _scaled_estimate's scale; inf, so that its
    stage declines, where U or U' is not finite or its size overflows."""
    if not (cmath.isfinite(v.value) and cmath.isfinite(v.derivative)):
        return math.inf
    try:
        ref = max(abs(v.value), abs(v.derivative) / (1.0 + abs(z)), 1e-300)
    except OverflowError:
        return math.inf
    return v.est_accuracy * abs(v.value) / ref


def _one_run_estimate(run, err, z):
    """Error bound of a one-run answer's U over max(|U|, |U'|/(1 + |z|)),
    run = (w, d, x, A) as Evaluator._carried forms it; None unless r =
    |U| (1 + |z|)/|U'| <= _ONE_RUN_R, next to a zero: the pair answers
    elsewhere.

    An error (dU, dU') of the data that the steps carry is a solution of
    w'' = q w to first order, so W = U dU' - U' dU is constant along the
    path, and W is the sum of the shares of the steps and of the start,
    bounded by A.  Solving for dU,
        dU = (U dU' - W) / U' = -W/U' + (U/U') dU',
    that is, dU = W V + alpha U with alpha = dU'/U' and V = -1/U', at a
    zero of U the second solution with W(U, V) = 1.  Where r <= 1, ref =
    |U'|/(1 + |z|), so
        |dU| / ref <= (1 + |z|) A / |U'|^2 + r |dU'/U'|:
    the constant of the first part is 1.  In the second, r <= 1e-3 weighs
    a relative error of U' that the walker tests hold within 1e-12, so it
    stays below 1e-15, and err, the start's error, which is added, covers
    it.  U/U', on which T(z) and the zero's position depend, is off by at
    most A / |U'|^2, whatever r.
    """
    w, d, _, A = run
    zz = 1.0 + abs(z)
    ad = abs(d)
    if not abs(w) * zz <= _ONE_RUN_R * ad or ad == 0.0:
        return None
    return zz * A / (ad * ad) + err


class Evaluator:
    """U(a,z) and U'(a,z) at a sequence of points, for one fixed a.

    Called as ev(a, z), as t_iterate calls its evaluator.  scale names
    the entry of _SCALES whose stages it tries (module docstring).  It
    holds the taylor runs at the last point answered, a pair or the one
    run of a chain's carried hop next to a zero, so that a point near it
    costs a few Taylor steps; the same point gets the same answer.
    """

    def __init__(self, a, tol=1e-11, scale="relative"):
        require_finite(a=a)
        if scale not in _SCALES:
            raise DomainError(f"scale {scale!r} is not one of {list(_SCALES)}")
        self.a = float(a)
        self.tol = _tolerance(tol)
        if scale == "relative" and not self.tol < 1.0:
            # an error as large as |U| leaves no digit of U, nor its phase
            raise DomainError(f"tol = {tol!r}: a relative tol >= 1 asks "
                              "for no digit")
        self._scale = _SCALES[scale]
        # the stage order as (stage method, its limit) pairs
        self._order = tuple((getattr(Evaluator, "_" + s),
                             self._scale.limits[s]) for s in self._scale.order)
        self._start = None         # the runs' start at the last point
        self._last = None          # the answer there

    def __call__(self, a, z):
        if a != self.a:
            raise DomainError(f"evaluator for a = {self.a} asked for a = {a}")
        # require_finite's test inline, which raises where it fails: a
        # call with keywords per evaluation costs about a third of a
        # cached answer
        try:
            finite = cmath.isfinite(z)
        except (TypeError, OverflowError):
            finite = False
        if not finite:
            require_finite(z=z)
        z = complex(z)
        if abs(z) > _Z_MAX:
            raise DomainError(f"|z| = {abs(z):.3g}: |z|^2 leaves the double "
                              "range")
        if self._start is not None and z == self._start[0]:
            return self._last
        # a stage gives (answer, the runs' start it leaves or None) or None;
        # the last stage answers or raises
        for stage, limit in self._order:
            r = stage(self, z, limit(self.tol, z))
            if r is not None:
                break
        v, start = r
        self._start = start or _start(z, v, self._scale.seed)
        self._last = v
        return v

    def _asymptotic(self, z, limit):
        cut, accept = limit
        v = _eval_asymptotic(self.a, z, cut)
        ok = v is not None and self._scale.error(v, z) <= accept
        return (v, None) if ok else None

    def _series(self, z, limit):
        v = _eval_series_double(self.a, z)
        return (v, None) if self._scale.error(v, z) <= limit else None

    def _carried(self, z, limit):
        start = self._start
        if start is None:
            return None
        # the relative scale steps every hop by the pair; a chain's hop,
        # real or complex, by one run (module docstring)
        if self._scale.one_run is None:
            return self._taylor(z, limit, start)
        z0, runs, err, e0 = start
        plan = _plan(self.a, z0, z)
        if plan is None:
            return None
        if len(runs) == 1:
            w0, d0, x0, A = runs[0]
        else:
            # from a pair: its runs' Wronskian difference, in the frame of
            # the second, from which the answers come
            (w1, d1, x1), (w0, d0, x0) = runs
            A = _WALK_SAFETY * abs((w1 * d0 - d1 * w0) * math.exp(x1 - x0))
        # one run of the plan's n steps with the term bounds of its steps:
        # A, the bound on the Wronskian of U's error with U in the frame
        # e^(2x), is carried into the new frame and grown by the run's
        # rounding bound and by the rounding of d to and from h w' at
        # either end
        n, L, terms, _ = plan
        r = _run(self.a, z0, z, n, w0, d0, terms)
        if r is None:
            return None
        w, d, dx, acc = r
        try:
            f = math.exp(-2.0 * dx)
        except OverflowError:
            return None
        x = x0 + dx
        one = (w, d, x, (A + 2.0 * _EPS * abs(w0 * d0)) * f + acc * n / L
               + 2.0 * _EPS * abs(w * d))
        est = self._scale.one_run(one, err, z)
        if est is not None and est <= limit:
            return _answer(w, d, "taylor", est, e0 + x), (z, (one,), err, e0)
        # off a zero, or over the limit: the pair of this run and a run of
        # the pair's longer step count from the start's other run, which
        # carries no bound, as the pair's runs do not
        if len(runs) == 1:
            # as _start's pair starts, from the last answer, whose est
            # holds the carried bound
            d0 *= 1.0 + 4.0 * _EPS
            err = self._scale.seed(self._last.est_accuracy)
        else:
            w0, d0, x0 = runs[0]
        longer = _run(self.a, z0, z, n + n // 3 + 1, w0, d0)
        if longer is None:
            return None
        runs = ((longer[0], longer[1], x0 + longer[2]), (w, d, x))
        est = self._scale.estimate(runs, err, z)
        if not est <= limit:
            return None
        return _answer(w, d, "taylor", est, e0 + x), (z, runs, err, e0)

    def _origin(self, z, limit):
        r = self._taylor(z, limit, self._at_origin)
        if r is None and 0.0 < abs(z.real) < abs(z.imag):
            # U is dominant up the imaginary axis: step there, then across
            r = self._taylor(z, limit, self._at_origin, 1j * z.imag)
        elif r is None and 0.0 < abs(z.imag) < abs(z.real):
            # next to the real axis: along it, then across
            r = self._taylor(z, limit, self._at_origin, complex(z.real))
        return r

    @functools.cached_property
    def _at_origin(self):
        v = _origin_value(self.a)
        return None if v is None else _start(0j, v, self._scale.seed)

    def _mpmath(self, z, limit):
        return _eval_series_mp(self.a, z, limit), None

    def _taylor(self, z, limit, start, *via):
        if start is None:
            return None
        z0, runs, err, e0 = start
        for z1 in via + (z,):
            runs = _taylor_pair(self.a, z0, z1, runs)
            if runs is None:
                return None
            z0 = z1
        est = self._scale.estimate(runs, err, z)
        if not est <= limit:
            return None
        w, d, x = runs[1]
        v = _answer(w, d, "taylor", est, e0 + x)
        return v, (z, runs, err, e0)


class _Scale(NamedTuple):
    """An entry of the stage table."""
    order: tuple      # the stages, in the order they are tried
    limits: dict      # stage -> (tol, z) -> limit; asymptotic: (cut, limit)
    estimate: object  # (runs, error of their start, z) -> taylor estimate
    error: object     # (answer, z) -> its error on this scale
    seed: object      # est of an answer -> the error of a start from it
    # (run, error of its start, z) -> the estimate of a carried hop by one
    # run, None where the pair answers; None: every hop by the pair
    one_run: object = None


def _tol(tol, z):
    return tol


def _step_limit(tol, z):
    # max(_NEAR_ZERO_TOL, 0.1 tol (1 + |z|)^2) by a product and a test:
    # this runs once per chain point
    s = 1.0 + abs(z)
    limit = 0.1 * tol * (s * s)
    return limit if limit > _NEAR_ZERO_TOL else _NEAR_ZERO_TOL


_SCALES = {
    "relative": _Scale(
        order=("asymptotic", "carried", "series", "origin", "mpmath"),
        limits={"asymptotic": lambda tol, z: (max(1e-13, tol * 1e-2), tol),
                "series": _tol, "carried": _tol, "origin": _tol,
                "mpmath": _tol},
        estimate=_relative_estimate, error=lambda v, z: v.est_accuracy,
        seed=lambda est: max(4.0, est / _EPS)),
    "chain": _Scale(
        order=("carried", "origin", "asymptotic", "series", "mpmath"),
        limits={"carried": _step_limit, "origin": _step_limit,
                "asymptotic": lambda tol, z: (1e-15, math.inf),
                "series": lambda tol, z: _NEAR_ZERO_TOL,
                "mpmath": lambda tol, z: _NEAR_ZERO_TOL},
        estimate=_scaled_estimate, error=_scaled_error, seed=lambda est: est,
        one_run=_one_run_estimate),
}


def _eval_series_mp(a, z, tol):
    """Arbitrary-precision fallback: same Maclaurin decomposition via
    mpmath's 1F1, at escalating precision until two runs agree to tol;
    ConvergenceError when four rounds never do.  A round whose sum keeps
    fewer than _MP_KEPT digits is compared with none, nor counted among
    the four, and the next one doubles its digits.  Where U or U' would
    leave double range, log|U| goes into exponent."""
    import mpmath as mp
    w_abs = abs(z) ** 2 / 2.0
    # crude cancellation estimate: largest term ~ e^{|w|}, result ~ e^{-|w|/2}
    dps = int(20 + 0.9 * w_abs / math.log(10.0))
    # the cancellation can take 1.5 |w| / ln 10 digits; starting there
    # would slow the calls whose rounds agree sooner, so the rounds grow
    # with |w| to reach it
    step = max(15, int(0.3 * w_abs / math.log(10.0)))
    prev, est, kept = None, None, 0
    while kept < 4:
        if dps > _MP_MAX_DPS:
            raise ConvergenceError(f"U({a}, {z}) needs more than "
                                   f"{_MP_MAX_DPS} digits")
        with mp.workdps(dps):
            zz = mp.mpc(z)
            w = zz * zz / 2.0
            # formed at the working precision: rounded to doubles, each
            # round would sum the series of a slightly different a
            half_a = mp.mpf(a) / 2
            b1 = half_a + 0.25
            b2 = half_a + 0.75
            try:
                M1 = mp.hyp1f1(b1, 0.5, w)
                M2 = mp.hyp1f1(b2, 1.5, w)
                D1 = mp.hyp1f1(b1 + 1.0, 1.5, w) * (b1 / 0.5)
                D2 = mp.hyp1f1(b2 + 1.0, 2.5, w) * (b2 / 1.5)
            except ValueError as e:
                # hypsum gives up on a series whose sum is exactly 0, as
                # 1F1(-1; 1/2; 1/2) for U(-5/2, 1): no relative accuracy
                raise ConvergenceError(
                    f"U({a}, {z}): mpmath's 1F1 series failed at {dps} "
                    "digits") from e
            U0 = mp.sqrt(mp.pi) * mp.mpf(2.0) ** (-half_a - 0.25) \
                * mp.rgamma(b2)
            Up0 = -mp.sqrt(mp.pi) * mp.mpf(2.0) ** (-half_a + 0.25) \
                * mp.rgamma(b1)
            E = mp.exp(-1j * mp.im(w) / 2.0)
            p1 = U0 * E * M1
            p2 = Up0 * zz * E * M2
            m = p1 + p2
            dm = (U0 * E * zz * (D1 - 0.5 * M1)
                  + Up0 * E * (M2 + zz * zz * (D2 - 0.5 * M2)))
            # fewer than _MP_KEPT digits of U (or of U'/(1 + |z|)) survive
            # the cancellation of p1 + p2, as for large a, where U(a,0) is
            # far above U(a,z)
            lost = max(abs(m), abs(dm) / (1 + abs(zz))) <= \
                mp.mpf(10) ** (_MP_KEPT - dps) * (abs(p1) + abs(p2))
            expo = -float(mp.re(w)) / 2.0
            mag = max(abs(m), abs(dm))
            if mag > _MP_FOLD or 0 < mag < 1.0 / _MP_FOLD:
                # scaled to the exponent as rounded to a float, whose
                # rounding would otherwise reach U: an ulp of 800 is 1e-13
                x = expo + float(mp.log(mag))
                f = mp.exp(-mp.re(w) / 2 - x)
                m, dm, expo = m * f, dm * f, x
            cur = (complex(m), complex(dm), expo)
        top = dps
        if lost:
            prev = None
            dps *= 2
            continue
        kept += 1
        if prev is not None:
            ref = max(abs(cur[0]), abs(cur[1]) / (1.0 + abs(z)), 1e-300)
            # the rounds may have folded different amounts into exponent
            est = abs(cur[0] - prev[0] * math.exp(prev[2] - cur[2])) / ref
            if est <= tol:
                break
        prev = cur
        dps += step
    else:
        why = ("leave no two to compare, the lower ones cancelling to "
               "noise" if est is None else f"agree only to {est:.3g}")
        raise ConvergenceError(f"U({a}, {z}): mpmath rounds up to {top} "
                               f"digits {why}")
    return _answer(cur[0], cur[1], "series", max(est, 1e-15), cur[2])


def eval_U(a, z, tol=1e-11):
    """U(a,z) and U'(a,z) with est_accuracy <= tol where attainable, from
    the relative entry of the stage table (module docstring)."""
    return Evaluator(a, tol)(a, z)


def eval_U_path(a, zs, tol=1e-11):
    """eval_U at each point of zs, in order, by one Evaluator: the cost
    falls when each point is close to the one before it."""
    ev = Evaluator(a, tol)
    return [ev(a, z) for z in zs]


def _log_abs(v):
    """log|U| of answer v."""
    return math.log(abs(v.value)) + v.exponent if v.value else -math.inf


def _eval_grid(a, xs, ys, tol):
    """eval_U at every point x + iy of the grid, as rows, one a y of ys,
    each in the order of xs: the walk of phase-grid.  The two end columns,
    at xs[0] and xs[-1], are walked up ys by an Evaluator each; each row's
    interior is then walked from the end where |U| is smaller toward the
    other.  Stepped that way the runs' relative error holds, where the
    other way it grows as U decays (about a hundredfold a hop across the
    README box), so few points restart from z = 0 or reach mpmath.  The
    row's Evaluator resumes at its end with the column's answer and the
    runs that gave it: a restart from the answer (_start) would carry its
    estimate, and at a = -30.5 over [-10, 10]^2, 21 x 21, the series
    would answer 38 points instead of 26."""
    last = len(xs) - 1
    cols = []
    # one column where the two ends are one x
    for x in dict.fromkeys((xs[0], xs[last])):
        ev = Evaluator(a, tol)
        col = []
        for y in ys:
            v = ev(a, complex(x, y))
            col.append((ev._start, v))
        cols.append(col)
    ev = Evaluator(a, tol)
    rows = []
    for i, y in enumerate(ys):
        left, right = cols[0][i], cols[-1][i]
        row = [left[1]] * len(xs)
        row[last] = right[1]
        start, inner = left, range(1, last)
        if _log_abs(right[1]) < _log_abs(left[1]):
            start, inner = right, inner[::-1]
        ev._start, ev._last = start
        for j in inner:
            row[j] = ev(a, complex(xs[j], y))
        rows.append(row)
    return rows


def eval_U_near_zero(a, z):
    """U and U' at one point by a new chain Evaluator: near a zero the
    relative accuracy of U is meaningless (|U| -> 0); the error is judged
    against |U'|."""
    return Evaluator(a, _NEAR_ZERO_TOL, "chain")(a, z)


def winding_number(a, center, radius, npoints=24):
    """Winding of arg U(a, .) along a circle of npoints (an integer >= 1)
    steps; +1 certifies a simple zero inside (the phase increases by
    2 pi).  Each step of the phase, taken in (-pi, pi], must stay within
    pi/2, or it could alias a turn: where one does not, the points are
    doubled, at most three times, and then ConvergenceError.  A center
    that is not a finite number, or a radius that is not a finite number
    > 0, is a DomainError."""
    npoints = _positive_int(npoints, "npoints must be an integer >= 1")
    require_finite(center=center)
    try:
        valid = 0.0 < radius <= _DBL_MAX
    except TypeError:
        valid = False
    if not valid:
        raise DomainError(f"radius = {_shown(radius)} is not a finite "
                          "number > 0")
    for _ in range(_WINDING_DOUBLINGS + 1):
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
                if abs(d) > 0.5 * math.pi:
                    break
                total += d
            prev = ph
        else:
            return round(total / (2.0 * math.pi))
        npoints *= 2
    raise ConvergenceError(
        f"winding_number: arg U({a}, .) steps by more than pi/2 between "
        f"{npoints // 2} points on the circle |z - {center}| = {radius}")
