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

Every seed goes through one path, _seeder(kind, a, terms), which checks
a, terms and the Hermite case, forms the family's constants once, and
returns the seed as a function of m; a complex family's walks along m.
zeros_apos and the zeros_aneg_* functions wrap it for one index, and
_seed_family runs it over a family's indices.  Every refined family goes
through one path too, _refine_family: CLI zeros and validate and
hermite_zeros refine a family's zeros as one chain, nearest the origin
first, with one chain Evaluator carrying U and U' from each zero to the
next (Glaser, Liu & Rokhlin, SIAM J. Sci. Comput. 29, 2007).
"""
import math
from typing import NamedTuple, Optional

from . import genairy, refine
from .airy import real_airy_zero
from .coeffs import correction1, correction2
from .errors import (ConvergenceError, DomainError, require_count,
                     require_finite, require_index, require_positive,
                     require_real)
from .genairy import _EXP_IPI3, hermite_order, vartheta
from .mapping import ZETA_AT_0, _sigma, invert_zeta
from .pcf_eval import Evaluator


class ZeroFamily(NamedTuple):
    kind: str  # apos-complex | aneg-positive | aneg-nonpositive | aneg-complex
    a: float
    u: float
    count: Optional[int]  # None = unbounded
    start: int = 1  # first index: 1 - vartheta(u) for aneg-nonpositive


class ZeroApproximation(NamedTuple):
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
    require_positive(u=u)
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
    in the Hermite case).  complex_count, the count of the complex
    family, is None (unbounded) or an integer >= 0."""
    require_real(a=a)
    if complex_count is not None:
        complex_count = require_count(
            complex_count, "complex_count must be None or an integer >= 0",
            least=0)
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


def _expand(zeta0, terms, u2, u4, start=None):
    """(z0, kept correction coefficients, zhat) for the leading term at
    zeta0, in floats for a float zeta0 (the real section) and complex
    otherwise: invert zeta, then add the corrections c1 / u^2 and c2 / u^4
    (u2, u4 from _scale).  A correction is kept while it is defined and
    smaller in modulus than the term before it, next to the turning point
    too, where it is a Taylor sum (coeffs); one whose arithmetic leaves
    the double range is undefined.  start is the walked start of a
    complex seed (_seeder), None for the per-index start."""
    z0 = invert_zeta(zeta0, _start=start)
    if isinstance(zeta0, float):
        z0 = z0.real  # invert_zeta answers complex, from floats
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
    corrections and the back-transform.  A real family's seed is formed in
    floats, on mapping's real section, so its z0, terms and zhat are
    floats; z is complex for every family.

    A complex family's seed function keeps the z0 of the indices it
    seeded last.  When m follows three consecutive indices m - 3, m - 2,
    m - 1, its invert_zeta call is started from 3 (z0_{m-1} - z0_{m-2}) +
    z0_{m-3} (the _start keyword), in place of the per-index start of
    mapping._invert; after an index that does not follow the one before
    it, or after a seed that raised (which leaves the walk as it was, so
    the next index does not follow), the next three start per index.  A
    function made for one index, as zeros_apos makes, starts per index."""
    if kind == "apos-complex":
        require_real(a=a)
        if a <= 0:
            raise DomainError("zeros_apos requires a > 0")
        u = 2.0 * a
    else:
        u = _u_neg(a)
    if terms not in (1, 2, 3):
        raise DomainError("terms must be 1, 2 or 3")
    upow = u ** (-2.0 / 3.0)
    u2, u4 = _scale(u, 2), _scale(u, 4)

    if kind in ("apos-complex", "aneg-complex"):
        if kind == "apos-complex":
            back = 2j * math.sqrt(a)

            def target(m):
                return _EXP_IPI3 * abs(real_airy_zero(m)) * upow
        else:
            zero = genairy.complex_seeder(u)
            back = -2.0 * math.sqrt(0.5 * u)

            def target(m):
                return zero(m)[0] * upow
        conjugate = kind == "aneg-complex"
        # the walk: z0 of the last three indices seeded, the latest first,
        # and the index of the latest.  A seed that raises changes
        # neither, so the index after it restarts the walk too
        h1 = h2 = h3 = prev = None

        def seed(m):
            nonlocal h1, h2, h3, prev
            if prev is None or m != prev + 1:
                h1 = h2 = h3 = None
            z0, coeffs, zh = _expand(
                target(m), terms, u2, u4,
                None if h3 is None else 3.0 * (h1 - h2) + h3)
            h1, h2, h3 = z0, h1, h2
            prev = m
            return (z0, coeffs, zh, back * (zh.conjugate() if conjugate
                                            else zh), 1 + len(coeffs))
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
            if type(m) is not int or not first <= m <= last:
                require_index(m, last, first)
            if positive:
                x = real_airy_zero(m)
            elif m == 0:
                x = genairy.sole_positive_zero(u).value.real
            else:
                x = genairy.neg_zeros(u, m).value.real
            # raised to zeta(0) (the origin): the zero next to the
            # origin can map just below it near u = 4k + 3; a test, not
            # max, with max's answer (a NaN stays)
            zeta0 = x * upow
            if ZETA_AT_0 > zeta0:
                zeta0 = ZETA_AT_0
            z0, coeffs, zh = _expand(zeta0, terms, u2, u4)
            return z0, coeffs, zh, complex(back * zh), 1 + len(coeffs)
    return seed


def _seed_family(kind, a, terms, ms):
    """Seed each index of ms, in the order ms gives, through one _seeder:
    yields (m, the seed tuple) or (m, the ConvergenceError seed(m)
    raised).  A DomainError, from the seeder's checks of a and terms or
    from an index outside a real family, propagates.  A complex family's
    consecutive indices are seeded by the seeder's walk along m: each
    zhat0 within 4 ulps of a 30-digit inversion, as the per-index seed's
    is, so the two differ by a few ulps (tests/test_zeros.py)."""
    seed = _seeder(kind, a, terms)
    for m in ms:
        try:
            s = seed(m)
        except ConvergenceError as e:
            s = e
        yield m, s


def _refine_family(kind, a, terms, ms):
    """The zeros ms (a range of indices) of family kind at a, seeded by
    _seed_family and refined by refine.t_iterate as one chain: one chain
    Evaluator carries U and U' from each zero to the next, nearest the
    origin first, so a real family, whose m = 1 is its farthest zero,
    runs in reverse index order.  One entry per index, in index order:
    (m, the seed tuple, the RefinedZero), or the ConvergenceError that
    zero raised, in its seed or in t_iterate, which refuses a seed on
    the turning point.  A DomainError from the seeder propagates.

    It runs in two passes over the chain order: the first seeds every
    index, the second walks the chain through those seeds.  Each index is
    seeded once, and t_iterate is called from the same starts in the
    same order as when each zero is seeded just before its refinement,
    so the results are the same to the bit and so is the work.  But each
    pass keeps to one stage's code and data: with a seed between each
    two hops, the hops take 27-30% longer.

    Each zero starts from its seed plus the correction refine._next_shift
    predicts from those of the zeros before it in chain order, d =
    refined - seed: the error left by the expansion is smooth in m.
    sweep starts its zeros by the same rule.  A zero that raised leaves
    no correction, and the next starts from its bare seed.  The seed
    tuple stays the expansion's; the RefinedZero's seed is the start.
    """
    backwards = kind in ("aneg-positive", "aneg-nonpositive")
    seeds = list(_seed_family(kind, a, terms,
                              reversed(ms) if backwards else ms))
    walker = Evaluator(a, refine.STEP_TOL, "chain")
    next_shift = refine._next_shift
    out = []
    d1 = d2 = d3 = None
    shift = 0j
    for m, s in seeds:
        try:
            if isinstance(s, ConvergenceError):
                raise s
            z = s[3] + shift if shift else s[3]
            try:
                # looked up per zero, so that a patched refine.t_iterate
                # sees every refinement
                rz = refine.t_iterate(a, z, evaluator=walker)
            except DomainError as e:
                # a start on the turning point, where T is undefined
                raise ConvergenceError(str(e), last=z) from e
        except ConvergenceError as e:
            out.append(e)
            d1 = d2 = d3 = None
            shift = 0j
            continue
        out.append((m, s, rz))
        d = rz.value - s[3]
        shift = next_shift(d, d1, d2, d3)
        d1, d2, d3 = d, d1, d2
    if backwards:
        out.reverse()
    return out


def _approximation(kind, a, m, terms):
    """The m-th zero of family kind at a, through the family's seeder,
    with a real family's floats as complex numbers."""
    z0, coeffs, zh, z, used = _seeder(kind, a, terms)(m)
    return ZeroApproximation(m, kind, complex(z0),
                             tuple(complex(c) for c in coeffs), complex(zh),
                             z, used)


def zeros_apos(a, m, terms=3):
    """m-th (second-quadrant) complex zero of U(a, .), a > 0."""
    return _approximation("apos-complex", a, m, terms)


def _u_neg(a):
    require_real(a=a)
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
    positive zero of Ai_u; m >= 1 map its negative zeros, M- in all.
    Within 1e-12 of u = 4/3 (mod 2) Ai_u vanishes at the origin, which
    maps to the zero next to the turning point: it is m = 0 where u mod 2
    is below 4/3 (vartheta = 1) and m = 1 from 4/3 on (vartheta = 0)."""
    return _approximation("aneg-nonpositive", a, m, terms)


def zeros_aneg_complex(a, m, terms=3):
    """m-th complex zero of U(a, .) for a < 0, reported in the second
    quadrant (z = -2 sqrt|a| conj(what), what in the first quadrant)."""
    return _approximation("aneg-complex", a, m, terms)


def hermite_zeros(n, terms=3):
    """All real zeros of the Hermite polynomial H_n, in increasing order,
    via the u = 2n+1 positive-zero family (x = sqrt(u) xhat+), refined as
    one chain by _refine_family, and symmetry for the rest; the first
    zero that does not converge raises its ConvergenceError.  n may be
    any integral value >= 1 (4.0 is 4)."""
    require_finite(n=n)
    n = require_count(n, "Hermite order must be a positive integer")
    a = -0.5 * (2.0 * n + 1.0)
    found = _refine_family("aneg-positive", a, terms, range(1, n // 2 + 1))
    for got in found:
        if isinstance(got, ConvergenceError):
            raise got
    # m = 1 is the largest zero
    sqrt2 = math.sqrt(2.0)
    pos = [rz.value.real / sqrt2 for _, _, rz in reversed(found)]
    out = [-x for x in reversed(pos)] + [0.0] * (n % 2) + pos
    # imported here, so that importing the package does not load numpy
    import numpy as np
    return np.array(out)
