"""Independent reference implementations used only by the tests.

Everything here is deliberately built from first principles (Maclaurin
series in mpmath, bisection, eigenvalue quadrature nodes, adaptive
quadrature) so that the package code under test shares no evaluation
path with the oracles.  The exceptions are eval_U_prime and
residual_eq319: identities that combine eval_U at other a or z, and so
check it against itself; the loop forms of the evaluator's two
kernels, _taylor_run and asym_pair, which the package's kernels must
match bit for bit; refine_family_interleaved, the family chain with
each zero seeded just before its refinement, which the package's
two-pass zeros._refine_family must match bit for bit; and
sweep_unpredicted, refine.sweep with each zero started from the bare
H+ of the one before, whose zeros the package's predicted starts must
match to rounding; phase_grid_per_point, phase-grid's file written
one point at a time, whose bytes the CLI's one write must match; and
carried_hop, a chain Evaluator's carried hop with its path, step count
and term bounds formed by four calls, whose answer and carried start
the package's one-plan hop must match bit for bit.
"""
import cmath
import math

import mpmath as mp
import numpy as np

from pcfzeros import refine
from pcfzeros.errors import (ChainBreakError, ConvergenceError, DomainError,
                             _positive_int, require_finite)
from pcfzeros.pcf_eval import (_ASYM_MAX_TERMS, _EPS, _TAYLOR_MAX_STEPS,
                               _TAYLOR_MAX_TERMS, _TAYLOR_REACH,
                               _TAYLOR_ROUNDING, _TAYLOR_TINY, _WALK_SAFETY,
                               Evaluator, PcfValue, _answer,
                               _one_run_estimate, _run, eval_U)
from pcfzeros.zeros import _seeder

DPS = 30


def airy_series(z, derivative=False):
    """Ai and Bi at z from the Maclaurin series, 30-digit arithmetic.

    Ai = c1 f - c2 g, Bi = sqrt(3)(c1 f + c2 g) with
    f = sum z^{3k} / ((2*3)(5*6)...), g = sum z^{3k+1} / ((3*4)(6*7)...).
    Returns (Ai, Bi) or (Ai', Bi').
    """
    with mp.workdps(DPS):
        z = mp.mpc(z)
        c1 = mp.mpf(3) ** (-mp.mpf(2) / 3) / mp.gamma(mp.mpf(2) / 3)
        c2 = mp.mpf(3) ** (-mp.mpf(1) / 3) / mp.gamma(mp.mpf(1) / 3)
        z3 = z ** 3
        # f series and its derivative sum
        t = mp.mpc(1)
        f = t
        fp = mp.mpc(0)
        for k in range(0, 400):
            t = t * z3 / ((3 * k + 2) * (3 * k + 3))
            f += t
            fp += t * (3 * k + 3) / z if z != 0 else 0
            if abs(t) < mp.mpf(10) ** (-DPS - 5) * max(1, abs(f)):
                break
        # g series
        t = z
        g = t
        gp = mp.mpc(1)
        for k in range(0, 400):
            t = t * z3 / ((3 * k + 3) * (3 * k + 4))
            g += t
            gp += t * (3 * k + 4) / z if z != 0 else 0
            if abs(t) < mp.mpf(10) ** (-DPS - 5) * max(1, abs(g)):
                break
        if derivative:
            ai = c1 * fp - c2 * gp
            bi = mp.sqrt(3) * (c1 * fp + c2 * gp)
        else:
            ai = c1 * f - c2 * g
            bi = mp.sqrt(3) * (c1 * f + c2 * g)
        return complex(ai), complex(bi)


def ai_series(z):
    return airy_series(z)[0]


def bi_series(z):
    return airy_series(z)[1]


def airy_zero_bisect(lo, hi, tol=1e-13):
    """A zero of Ai in (lo, hi) by bisection on the series oracle."""
    flo = ai_series(lo).real
    fhi = ai_series(hi).real
    assert flo * fhi < 0, "bracket does not straddle a zero"
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = ai_series(mid).real
        if flo * fm <= 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def genairy_series(u, x):
    """sin(u pi/2) Ai(x) + cos(u pi/2) Bi(x) from the series oracle."""
    ai, bi = airy_series(x)
    return math.sin(0.5 * u * math.pi) * ai.real \
        + math.cos(0.5 * u * math.pi) * bi.real


def genairy_zero_bisect(u, lo, hi, tol=1e-12):
    flo = genairy_series(u, lo)
    fhi = genairy_series(u, hi)
    assert flo * fhi < 0, f"no bracket on ({lo},{hi}) for u={u}"
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = genairy_series(u, mid)
        if flo * fm <= 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def hermite_nodes(n):
    """Gauss-Hermite nodes (zeros of H_n) via the symmetric tridiagonal
    eigenvalue problem (Golub-Welsch)."""
    k = np.arange(1, n)
    off = np.sqrt(k / 2.0)
    T = np.diag(off, -1) + np.diag(off, 1)
    return np.sort(np.linalg.eigvalsh(T))


def mp_zeta_over_d(d):
    """P(d) = zeta(1 + d)/d for |d| < 2, at the working precision.  With
    t = 1 + s^2 d, (2/3) zeta^{3/2} = integral_1^{1+d} sqrt(t^2 - 1) dt
    gives P = (3 integral_0^1 s^2 sqrt(2 + s^2 d) ds)^{2/3}; the integral
    is summed from the binomial series of sqrt(2 + s^2 d), term by term,
    so nothing cancels next to the turning point d = 0."""
    d = mp.mpmathify(d)
    # c = 3 sqrt(2) binomial(1/2, k) (d/2)^k
    q, c, k = 0, 3 * mp.sqrt(2), 0
    while True:
        t = c / (2 * k + 3)
        q += t
        if abs(t) <= mp.eps * abs(q):
            return q ** (mp.mpf(2) / 3)
        c *= (mp.mpf(1) / 2 - k) / (k + 1) * d / 2
        k += 1


def mp_two_xi(zh):
    """2 xi = (4/3) zeta^{3/2} = zhat r - ln(zhat + r), r = (zhat - 1)^{1/2}
    (zhat + 1)^{1/2}, at the working precision: the closed form of the
    integral, which cancels only next to the turning point zhat = 1."""
    zh = mp.mpmathify(zh)
    r = mp.sqrt(zh - 1) * mp.sqrt(zh + 1)
    return zh * r - mp.log(zh + r)


def mp_zeta(zh):
    """zeta(zhat) = ((3/4) 2 xi)^{2/3}, principal power: the branch of the
    package for Re zhat > 0 and |arg zeta| < 2 pi/3."""
    return (mp_two_xi(zh) * 3 / 4) ** (mp.mpf(2) / 3)


def mp_zeta_real(zh):
    """zeta(zhat) for real zhat >= 0 at the working precision, from the
    closed forms of (2/3)|zeta|^{3/2} = |integral_1^zhat |t^2 - 1|^{1/2}
    dt|: (arccos zhat - zhat (1 - zhat^2)^{1/2})/2 on [0, 1), where zeta
    < 0, and (zhat (zhat^2 - 1)^{1/2} - arccosh zhat)/2 beyond."""
    x = mp.mpf(zh)
    if x < 1:
        return -(3 * (mp.acos(x) - x * mp.sqrt(1 - x * x)) / 4) \
            ** (mp.mpf(2) / 3)
    return (3 * (x * mp.sqrt(x * x - 1) - mp.acosh(x)) / 4) ** (mp.mpf(2) / 3)


def mp_invert_zeta_real(zt):
    """zhat >= 0 with zeta(zhat) = zt for real zt >= zeta(0), at DPS
    digits, by bisection on mp_zeta_real, which increases with zhat."""
    with mp.workdps(DPS):
        t = mp.mpf(zt)
        lo, hi = mp.mpf(0), mp.mpf(2)
        while mp_zeta_real(hi) < t:
            hi *= 2
        while hi - lo > mp.mpf(10) ** (-DPS) * hi:
            mid = (lo + hi) / 2
            if mp_zeta_real(mid) < t:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def mp_invert_zeta(zt, start):
    """zhat with zeta(zhat) = zt for a complex target, at DPS digits, by
    the secant iteration on mp_zeta (d P(d), d = zhat - 1, within 1/2 of
    the turning point, where mp_zeta's closed form cancels), from start
    and a point 1e-8 relatively beside it, until a step is below 1e-25
    of zhat.  start only picks the root: any point within its basin
    gives the same zhat."""
    def residual(zh):
        d = zh - 1
        return (d * mp_zeta_over_d(d) if abs(d) < 0.5 else mp_zeta(zh)) - t

    with mp.workdps(DPS):
        t = mp.mpc(zt)
        x0 = mp.mpc(start)
        x1 = x0 * (1 + mp.mpf(10) ** -8)
        f0, f1 = residual(x0), residual(x1)
        for _ in range(50):
            x0, x1 = x1, x1 - f1 * (x1 - x0) / (f1 - f0)
            if abs(x1 - x0) <= mp.mpf(10) ** -25 * abs(x1):
                return x1
            f0, f1 = f1, residual(x1)
        raise AssertionError(f"no secant convergence at {zt}")


def mp_U(a, z, dps=40):
    """U(a,z) by mpmath's independent implementation."""
    with mp.workdps(dps):
        return complex(mp.pcfu(a, mp.mpc(z)))


def mp_U_pair(a, z, dps=40, exponent=0.0):
    """U(a,z) and U'(a,z) by mpmath, the derivative from the recurrence
    U' = -z/2 U(a,z) - (a+1/2) U(a+1,z) (DLMF 12.8.2); both times
    e^-exponent, which keeps values beyond double range finite."""
    with mp.workdps(dps):
        zz = mp.mpc(z)
        u = mp.pcfu(a, zz)
        du = -zz / 2 * u - (a + 0.5) * mp.pcfu(a + 1, zz)
        s = mp.exp(-exponent)
        return complex(u * s), complex(du * s)


def mp_zero_ratio(a, z, dps=60):
    """|U(a,z)/U'(a,z)| by mpmath, U' from the recurrence of mp_U_pair,
    the ratio formed at the working precision: at a zero for large -a,
    |U'| is far outside the double range (about 1e552 at a = -500.3)."""
    with mp.workdps(dps):
        zz = mp.mpc(z)
        u = mp.pcfu(a, zz)
        du = -zz / 2 * u - (a + 0.5) * mp.pcfu(a + 1, zz)
        return float(abs(u / du))


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

    # imported here, as only this oracle needs scipy
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
    with mp.workdps(DPS):
        pref = cmath.exp(-z * z / 4.0) * float(mp.rgamma(a + 0.5))
    val = pref * I
    der = pref * (-z / 2.0 * I - I1)
    est = (abs(errI) + abs(errI1)) * abs(pref) / max(abs(val), 1e-300)
    return PcfValue(val, der, "quadrature", est)


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


def mp_U_prime(a, z, dps=40, h=1e-6):
    with mp.workdps(dps):
        zz = mp.mpc(z)
        d = (mp.pcfu(a, zz + h) - mp.pcfu(a, zz - h)) / (2 * h)
        return complex(d)


def sign_change_count(a, xs, eval_fn):
    """Number of sign changes of Re eval_fn(a,x) over the sorted grid xs."""
    vals = [eval_fn(a, x) for x in xs]
    signs = [1 if v > 0 else -1 for v in vals]
    return sum(1 for s1, s2 in zip(signs, signs[1:]) if s1 != s2)


_INV_KK = [0.0, 0.0] + [1.0 / (k * (k - 1))
                        for k in range(2, _TAYLOR_MAX_TERMS)]


def taylor_run_loop(a, z0, z1, n, w, v, terms=None):
    """pcf_eval._taylor_run in its loop form: the pass index k is an int
    and 1/(k (k-1)) a list item; the rounding bound takes each step's
    share, from the bounds on its w- and v-sums, as its own variable
    before carrying it by the scale."""
    h = (z1 - z0) / n
    h2 = h * h
    c2 = h2 * h2 / 4.0
    expo = 0.0
    acc = 0.0
    for j in range(n):
        t0 = z0 + j * h
        c0 = h2 * (t0 * t0 / 4.0 + a)
        c1 = h2 * h * t0 / 2.0
        p4 = p3 = 0.0
        p2, p1 = w, v
        s, d = w + v, v
        start = (abs(w), abs(v))
        # two terms per pass: d_k = t and d_{k+1} = u
        for k in range(2, _TAYLOR_MAX_TERMS, 2):
            t = (c0 * p2 + c1 * p3 + c2 * p4) * _INV_KK[k]
            u = (c0 * p1 + c1 * p2 + c2 * p3) * _INV_KK[k + 1]
            s += t + u
            d += k * t + (k + 1) * u
            if abs(t) + abs(u) < _TAYLOR_TINY:
                break
            p4, p3, p2, p1 = p2, p1, t, u
        # keep |w| + |v| = 1; the scale goes into the exponent
        m = abs(s) + abs(d)
        if not 0.0 < m < math.inf:
            return None
        if terms:
            tail = abs(t) + abs(u)
            sums = terms[0] * start[0] + terms[1] * start[1]
            bound = _TAYLOR_ROUNDING * sums + tail
            ksums = terms[2] * start[0] + terms[3] * start[1]
            kbound = _TAYLOR_ROUNDING * ksums + (k + 1) * tail
            share = kbound * abs(s) + bound * abs(d)
            acc = (acc + share) / m / m
        w, v = s / m, d / m
        expo += math.log(m)
    return w, v, expo, acc


def asym_pair_loop(a, z2inv):
    """pcf_eval.asym_pair in its loop form: the factors formed from a and
    s at every term, max of the two term sizes, and the 2s of the last
    term summed kept in its own variable."""
    t1 = 1.0 + 0.0j
    S1 = t1
    t2 = 1.0 + 0.0j
    S2 = t2
    T1 = T2 = 0.0j
    last = 0.0
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
        T1 += 2 * s * t1
        T2 += 2 * s * t2
        last = 2.0 * s
        mn = m
        if mn < 1e-18:
            break
    return S1, S2, mn, T1, T2, last


def refine_family_interleaved(kind, a, terms, ms):
    """zeros._refine_family in its one-pass form: each zero seeded just
    before its refinement, in the chain's order."""
    seed = _seeder(kind, a, terms)
    walker = Evaluator(a, refine.STEP_TOL, "chain")
    backwards = kind in ("aneg-positive", "aneg-nonpositive")
    out = []
    d1 = d2 = d3 = None
    shift = 0j
    for m in reversed(ms) if backwards else ms:
        try:
            s = seed(m)
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
        shift = 0j
        if d3 is not None and abs(d - 3.0 * (d1 - d2) - d3) < abs(d):
            shift = 3.0 * (d - d1) + d2
        d1, d2, d3 = d, d1, d2
    if backwards:
        out.reverse()
    return out


def sweep_unpredicted(a, z_start, count, tol=refine.STEP_TOL):
    """refine.sweep with each zero after the first started from H+ of the
    zero before, without the predicted correction."""
    require_finite(a=a, z_start=z_start)
    count = _positive_int(count, "count must be an integer >= 1")
    walker = Evaluator(a, tol, "chain")
    first = refine.t_iterate(a, z_start, tol=tol, evaluator=walker)
    out = [first]
    z = first.value
    sq_prev = None
    direction = 1.0
    for _ in range(count - 1):
        sq = refine._p_sqrt(a, z)
        if sq_prev is not None and (sq * sq_prev.conjugate()).real < 0.0:
            # branch flip of the principal square root; undo it to keep
            # the displacement direction continuous
            sq = -sq
        if sq_prev is None:
            # outward = growing |z|
            if abs(z + math.pi / sq) < abs(z):
                direction = -1.0
        sq_prev = sq
        spacing = math.pi / abs(sq)
        zn = refine.t_iterate(a, z + direction * math.pi / sq, tol=tol,
                              evaluator=walker)
        if abs(zn.value - z) < 0.25 * spacing:
            raise ChainBreakError(
                f"sweep landed back on a found zero near z={zn.value}")
        out.append(zn)
        z = zn.value
    return out


def phase_grid_per_point(a, nx, ny, xs, ys, rows):
    """The text of phase-grid's --out for the points xs x ys of a and
    their values rows (pcf_eval._eval_grid's), written a point at a time
    with each point's x, y and phase formatted for it."""
    lines = [f"# pcfzeros phase-grid v1 a={a!r} nx={nx} ny={ny}\n",
             "x,y,arg_u\n"]
    for y, row in zip(ys, rows):
        for x, v in zip(xs, row):
            lines.append(f"{x!r},{y!r},{cmath.phase(v.value)!r}\n")
    return "".join(lines)


def _hop_path(a, z0, z1):
    """(r, L, q0) of a run from z0 to z1: r = max(|z0|, |z1|), L = |z1 -
    z0| and q0 = |q(z0)| + |z0| L + L^2."""
    r0 = abs(z0)
    r1 = abs(z1)
    L = abs(z1 - z0)
    r = r0 if r0 > r1 else r1
    return r, L, abs(0.25 * z0 * z0 + a) + (r0 + L) * L


def _hop_step_count(a, path):
    """The step count of a run along path, where |h| max(1, sqrt(Q)) ~
    _TAYLOR_REACH, Q the smaller of |a| + r^2/4 and q0; 0 past
    _TAYLOR_MAX_STEPS or for an empty path."""
    r, L, q0 = path
    q = abs(a) + r ** 2 / 4.0
    q = q0 if q0 < q else q
    reach = L * max(1.0, math.sqrt(q))
    n = math.ceil(reach / _TAYLOR_REACH) if math.isfinite(reach) else 0
    return n if 0 < n <= _TAYLOR_MAX_STEPS else 0


def _hop_term_bound(a, n, path):
    """(cosh R, sinh(R)/R, R sinh R, cosh R) of each step of an n-step run
    along path."""
    r, L, q0 = path
    hh = L / n
    q = abs(a) + (r + hh) ** 2 / 4.0
    R = hh * math.sqrt(q0 if q0 < q else q)
    c = math.cosh(R)
    sh = math.sinh(R)
    return c, (sh / R if R > 0.0 else 1.0), R * sh, c


def _hop_one(a, z0, z1, run, n, path):
    """One n-step run from run = (w, d, x, A) at z0, A carried and grown
    by the run's rounding bound; None where the arithmetic overflowed."""
    w, d, x, A = run
    r = _run(a, z0, z1, n, w, d, _hop_term_bound(a, n, path))
    if r is None:
        return None
    w1, d1, dx, acc = r
    try:
        f = math.exp(-2.0 * dx)
    except OverflowError:
        return None
    A = (A + 2.0 * _EPS * abs(w * d)) * f + acc * n / path[1] \
        + 2.0 * _EPS * abs(w1 * d1)
    return w1, d1, x + dx, A


def carried_hop(ev, z, limit):
    """A chain Evaluator ev's carried hop to z within limit, as
    Evaluator._carried answers it from ev's state: (answer, the start it
    leaves) or None.  Its path, step count and term bounds come from
    four calls, both runs of a pair from _hop_one, and the other run's
    start is formed before the first run."""
    start = ev._start
    if start is None:
        return None
    a = ev.a
    z0, runs, err, e0 = start
    w, d, x = runs[-1][:3]
    path = _hop_path(a, z0, z)
    n = _hop_step_count(a, path)
    if not n:
        return None
    if len(runs) == 2:
        other = runs[0]
        w1, d1, x1 = other
        A = _WALK_SAFETY * abs((w1 * d - d1 * w) * math.exp(x1 - x))
    else:
        other = (w, d * (1.0 + 4.0 * _EPS), x)
        A = runs[0][3]
    one = _hop_one(a, z0, z, (w, d, x, A), n, path)
    if one is None:
        return None
    w, d, x, _ = one
    est = _one_run_estimate(one, err, z)
    if est is not None and est <= limit:
        return _answer(w, d, "taylor", est, e0 + x), (z, (one,), err, e0)
    longer = _hop_one(a, z0, z, other + (0.0,), n + n // 3 + 1, path)
    if longer is None:
        return None
    if len(runs) == 1:
        err = ev._scale.seed(ev._last.est_accuracy)
    runs = (longer[:3], (w, d, x))
    est = ev._scale.estimate(runs, err, z)
    if not est <= limit:
        return None
    return _answer(w, d, "taylor", est, e0 + x), (z, runs, err, e0)
