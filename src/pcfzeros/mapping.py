"""Turning-point change of variables.

zeta(zhat) is the Liouville-Green variable made analytic through the
turning point zhat = 1: (2/3) zeta^{3/2} = integral_1^zhat sqrt(t^2-1) dt.
Within TP_RADIUS of zhat = 1, zeta = d P(d) (d = zhat - 1) and sigma =
(zeta/(zhat^2-1))^{1/2} = dzhat/dzeta = (P(d)/(2 + d))^{1/2}, the map data
the zero expansions read, are Taylor sums in doubles; outside it, closed
forms, zeta through cancellation-safe recasts on |zhat| >= 1 and < 1.
invert_zeta solves zeta(zhat) = target by Newton.  Its start for a real
target at or below -1/2 is closed-form: with zhat = cos(phi/2) on
[0, 1), the definition reduces to phi - sin(phi) = (8/3)(-zeta)^{3/2},
solved for phi by a scalar Newton iteration, so the zeta-Newton that
follows only confirms it.  For a large target the start is the
large-zhat inversion of the definition, summed to its 1/zhat^8 term,
or, for the seeds that zeros._seeder walks along a complex family, the
zhat extrapolated from the three indices before.  Each zeta-Newton step
takes sigma from the zeta just found, and the answer is the iterate
after the step formed at acceptance: a step below _NEWTON_ACCEPT (8.1e-9)
of 1 + |zhat| leaves a Newton error below rounding, so each zhat is at
rounding level, within 4 ulps of a 30-digit inversion at the seeds
(tests/test_zeros.py, tests/test_mapping.py).

The real section: zeta maps zhat in (-1, inf) onto the real line,
[0, 1] onto [zeta(0), 0], and the real zero families live there.  The
map's functions compute in the type of their argument (_LIB): a float
zhat or target stays in floats, with math's functions, and anything
else in complex arithmetic with cmath's, through the same formulas.
zeros' real seeders pass their targets as floats; the public zeta and
invert_zeta map a real argument in floats too, and answer complex.
"""
import cmath
import math

from .errors import (ConvergenceError, DomainError, _positive_int,
                     _tolerance, require_finite)

# within this distance of zhat = 1 the closed forms of zeta, sigma and the
# corrections (coeffs) cancel; each Taylor table (see tests/test_coeffs.py)
# ends before its first term below 1e-16 of its leading one at this radius
TP_RADIUS = 0.05

# P(d) = zeta(1 + d)/d, P(0) = 2^{1/3}
_P = (1.2599210498948732, 0.12599210498948732, -0.014399097713084265,
      0.0029598145299117654, -0.0007683674364067188, 0.0002277163999971104,
      -7.363016532116176e-05, 2.5336048019211565e-05, -9.136143762223522e-06)

ZETA_AT_0 = -0.25 * (3.0 * math.pi) ** (2.0 / 3.0)
_INF = math.inf

# cap on the phi-Newton of _real_section_start, which needs at most 5
_PHI_MAX_ITER = 20

# for large zhat, 2 xi = zhat (zhat^2 - 1)^{1/2} - ln(zhat + (zhat^2 -
# 1)^{1/2}) with xi = (2/3) zeta^{3/2} inverts, in y = 1/zhat^2, to
# zhat^2 = 2 xi + 1/2 + ln 2zhat - sum_k _W[k] y^{k+1}
# (tests/test_mapping.py checks the coefficients against the definition)
_W = (0.125, 0.03125, 5.0 / 384.0, 7.0 / 1024.0)
# fixed-point passes on zhat^2 = w from w = 2 xi; each gains a factor
# of about 1/(2|w|)
_W_PASSES = 5
_LN2 = math.log(2.0)
# zeta's own rounding is about eps (1/3)|ln zhat| relative (the
# exp((1/3) ln zhat) of _zeta_raw).  A large target is accepted within
# 2 eps |ln 4w| = 4 eps |ln 2zhat|, a bound on it, where that exceeds
# tol (past |zeta| ~ 1e6 at the default tol), and its iterate returned
# as it stands: the large-zhat start is at rounding level there, and the
# step would only add zeta's rounding
_ZETA_ROUNDING = 2.0 * 2.0 ** -52
# Newton on zeta(zhat) = t leaves, after a step s, an error of about
# |zeta''/(2 zeta')| |s|^2.  Over the sector 0 <= arg zhat <= 3 pi/8,
# which holds every seed's zhat (the complex ones reach arg pi/4 as m
# grows, the real ones lie on [0, inf)), K = max(1, |zhat|)
# |zeta''/zeta'| is at most 4/(3 pi) ~ 0.42, its value at zhat = 0,
# 1/(2 (-zeta(0))^{3/2}) (tests/test_mapping.py scans it; it tends to 1/3
# as |zhat| grows, zeta ~ zhat^{4/3}).  A step with |s| <= r (1 + |zhat|)
# <= 2 r max(1, |zhat|) so leaves at most 2 K r^2 max(1, |zhat|), which is
# eps/4 max(1, |zhat|) at r = (eps 3 pi / 32)^{1/2} = 8.1e-9: the
# iterate after such a step is at rounding level, and is returned
_NEWTON_ACCEPT = math.sqrt(2.0 ** -52 * 3.0 * math.pi / 32.0)
# the walked start of zeros._seeder is taken below this |target|: there
# 2 eps |ln 4w| (|ln 4w| ~ 22 at 1e6) is below invert_zeta's default tol,
# so the answer is the stepped one from either start; past it the
# large-zhat start, at zeta's own rounding there, is returned as it is
_WALK_MAX = 1e6


def taylor(cs, d):
    """sum_k cs[k] d^k, by Horner."""
    s = 0.0
    for c in reversed(cs):
        s = s * d + c
    return s


# the module for a value's type, _LIB.get(type(x), cmath): math for a
# float, a point of the real section (zhat > -1, where zeta and sigma are
# real), cmath for anything else.  A dict lookup, since a function call
# per evaluation cost the complex seeds about 2%
_LIB = {float: math}


def _zeta_raw(zh):
    """zeta via the two recast branches."""
    m = _LIB.get(type(zh), cmath)
    if abs(zh) >= 1.0:
        y = 1.0 / (zh * zh)
        s = m.sqrt(1.0 - y)
        lz = m.log(zh)
        br = 0.75 * (s - y * m.log(1.0 + s) - y * lz)
        # zhat^{4/3} as zhat e^{(1/3) ln zhat}: the rounding of the
        # exponent, which e^x turns into a relative error, is a quarter
        # of that of e^{(4/3) ln zhat}
        return zh * m.exp(lz / 3.0) * br ** (2.0 / 3.0)
    r = m.sqrt(1.0 - zh * zh)
    # arccos zhat: for a real zhat the argument of zhat + i r, which is
    # what the real part of the complex form rounds to
    ac = math.atan2(r, zh) if m is math else -1j * cmath.log(zh + 1j * r)
    br = 0.75 * (ac - zh * r)
    return -(br ** (2.0 / 3.0))


def _zeta(zh):
    """zeta in the type of zh (_LIB), off the cut."""
    d = zh - 1.0
    return d * taylor(_P, d) if abs(d) < TP_RADIUS else _zeta_raw(zh)


def zeta(zh):
    """The turning-point variable; real for real zhat in (-1, inf), 0 at 1.
    A real zhat is mapped in floats.  A zh that is not a finite number,
    or one on the cut, is a DomainError."""
    require_finite(zh=zh)
    zh = complex(zh)
    if zh.imag != 0.0:
        return _zeta(zh)
    if zh.real <= -1.0:
        raise DomainError(f"zhat={zh} lies on the cut (-inf,-1]")
    return complex(_zeta(zh.real))


def _sigma(zh, zt):
    """sigma = (zeta/(zhat^2-1))^{1/2} from zt = zeta(zh), with its limit
    2^{-1/3} at zhat = 1, in the type of zh (_LIB); real for real zhat >
    -1."""
    d = zh - 1.0
    return _LIB.get(type(zh), cmath).sqrt(
        taylor(_P, d) / (2.0 + d) if abs(d) < TP_RADIUS
        else zt / (d * (zh + 1.0)))


def _real_section_start(zt):
    """zhat in [0, 1) with zeta(zhat) = zt for real zt in [zeta(0), -1/2]:
    zhat = cos(phi/2) where phi - sin(phi) = K = (8/3)(-zt)^{3/2}.
    Newton on phi from (6K)^{1/3}: phi - sin(phi) <= phi^3/6 puts the
    start left of the root, and the residual is convex on [0, pi], so
    after the first step the iterates decrease to it.  K and phi are
    kept <= pi, so zhat >= 0 (a target just below zeta(0) starts at
    zhat = cos(pi/2)).  Each cap is a test, not a call of min, whose
    answer it keeps: a NaN stays NaN, as min(nan, pi) keeps it.  sin,
    cos and pi are bound once a call, not looked up at each step."""
    sin, cos, pi = math.sin, math.cos, math.pi
    k = (8.0 / 3.0) * (-zt) ** 1.5
    if pi < k:
        k = pi
    phi = (6.0 * k) ** (1.0 / 3.0)
    if pi < phi:
        phi = pi
    for _ in range(_PHI_MAX_ITER):
        step = (phi - sin(phi) - k) / (1.0 - cos(phi))
        phi = phi - step
        if pi < phi:
            phi = pi
        if abs(step) <= 1e-15 * phi:
            break
    return cos(0.5 * phi)


def invert_zeta(zt_target, tol=1e-14, max_iter=60, _start=None):
    """Solve zeta(zhat) = zt_target for zhat by Newton, as a complex
    number; a real target is solved in floats, on the real section.

    Initial guess: for a real target at or below -1/2, the closed-form start
    of _real_section_start (phi - sin(phi) = (8/3)(-zeta)^{3/2}, accurate
    to rounding, so the Newton loop below evaluates zeta once to confirm
    it, and returns it as it is once |zeta - target| <= tol (1 +
    |target|)); the turning-point linearization for other small targets;
    the large-zhat inversion (_W) otherwise, by fixed-point passes on
    zhat^2.  Each Newton step uses dzhat/dzeta = sigma, taken by _sigma
    from the zeta just evaluated; within TP_RADIUS of zhat = 1 both are
    Taylor sums in doubles.  The loop returns the iterate after a step
    once that step is below _NEWTON_ACCEPT (1 + |zhat|), which leaves a
    Newton error below rounding (the constant's comment derives it), or
    once |zeta - target| <= tol (1 + |target|) before it.  For a large
    target it returns the iterate as it stands at zeta's own rounding
    where that exceeds tol, as it does once |zeta| is past about 1e6.
    _start, private to zeros._seeder, replaces the large-zhat start of a
    complex target below |target| = _WALK_MAX by the zhat extrapolated
    along the family.  A tol that is not a finite number >= 0, a
    max_iter that is not an integer >= 1 (2.0 is 2), or a zt_target that
    is not a finite number (one too large for a double too), is a
    DomainError, checked in that order; so is a target whose 3/2 power
    leaves the double range.  A finite float target with a float tol and
    an int max_iter, as the real seeders pass them, is accepted by one
    test and solved as it is, with no round trip through complex; any
    other arguments go through the checks.
    """
    if type(zt_target) is float and type(tol) is float \
            and type(max_iter) is int and -_INF < zt_target < _INF \
            and 0.0 <= tol < _INF and max_iter >= 1:
        return complex(_invert(zt_target, tol, max_iter))
    tol = _tolerance(tol)
    if type(max_iter) is not int or max_iter < 1:
        max_iter = _positive_int(max_iter,
                                 "max_iter must be an integer >= 1")
    # require_finite's test inline, as Evaluator.__call__ has it, which
    # raises where it fails
    try:
        finite = cmath.isfinite(zt_target)
    except (TypeError, OverflowError):
        finite = False
    if not finite:
        require_finite(zt_target=zt_target)
    if type(zt_target) is float:
        return complex(_invert(zt_target, tol, max_iter))
    zt_target = complex(zt_target)
    if zt_target.imag != 0.0:
        return _invert(zt_target, tol, max_iter, _start)
    return complex(_invert(zt_target.real, tol, max_iter))


def _invert(zt_target, tol, max_iter, start=None):
    """invert_zeta in the type of zt_target (_LIB): a float is a point of
    the real section, whose zhat is a float > -1.  start, where given
    (the walked start of zeros._seeder, for complex targets), replaces
    the large-zhat start below |target| = _WALK_MAX."""
    m = _LIB.get(type(zt_target), cmath)
    size = abs(zt_target)
    # accepted as it is, without the step: the closed-form start, and a
    # huge target at zeta's own rounding
    floor = 0.0
    if m is math and zt_target <= -0.5:
        if zt_target < ZETA_AT_0 - 1e-9:
            raise DomainError(
                f"real target {zt_target} below zeta(0): outside the "
                "principal-branch image of [0, 1]")
        zh = _real_section_start(zt_target)
        floor = tol * (1.0 + size)
    elif size < 0.5:
        e = 2.0 ** (-1.0 / 3.0) * zt_target
        zh = 1.0 + e * (1.0 - e / 10.0)
    elif start is not None and size < _WALK_MAX:
        zh = start
    else:
        try:
            x = (4.0 / 3.0) * zt_target ** 1.5  # 2 xi
            if cmath.isinf(x):
                raise OverflowError
        except OverflowError:
            raise DomainError(f"|zeta| = {size:.3g}: its 3/2 "
                              "power leaves the double range") from None
        w1, w2, w3, w4 = _W
        c = x + 0.5 + _LN2
        w = x
        for _ in range(_W_PASSES):
            y = 1.0 / w
            lw = m.log(w)  # ln 2zhat = ln 2 + (1/2) ln w
            w = c + 0.5 * lw - y * (w1 + y * (w2 + y * (w3 + y * w4)))
        zh = m.sqrt(w)
        rounding = _ZETA_ROUNDING * abs(lw + 2.0 * _LN2)
        if rounding > tol:
            floor = rounding * (1.0 + size)
    tol = tol * (1.0 + size)
    f = None
    for _ in range(max_iter):
        zt = _zeta(zh)
        f = zt - zt_target
        r = abs(f)
        if r <= floor:
            return zh
        step = _sigma(zh, zt) * f
        zh = zh - step
        if abs(step) <= _NEWTON_ACCEPT * (1.0 + abs(zh)) or r <= tol:
            return zh
    raise ConvergenceError("invert_zeta did not converge", last=zh,
                           residual=abs(f))
