"""Zero polishing and traversal.

t_iterate applies the fourth-order fixed-point map

    T(z) = z - p^{-1/2} arctan(p^{1/2} U(a,z)/U'(a,z)),  p = -z^2/4 - a,

and sweep alternates the displacement H+(z) = z + pi p^{-1/2} with
t_iterate to walk consecutive zeros along the anti-Stokes direction,
each zero started from H+ of the one before plus the correction that
_next_shift predicts from the zeros before it, the rule by which
zeros._refine_family starts each zero past its seed.  Both evaluate U
with a chain Evaluator: t_iterate with a fresh one per call unless given
one, sweep with one for the whole chain.
"""
import cmath
import math
from typing import NamedTuple

from .errors import (_DBL_MAX, ChainBreakError, ConvergenceError,
                     DomainError, _positive_int, _tolerance, require_finite)
# eval_U_near_zero is not called here; perfbench/spans.py patches
# refine.eval_U_near_zero, and tests/test_bench_names.py requires every
# such name to resolve
from .pcf_eval import Evaluator, eval_U_near_zero  # noqa: F401

# refuse to iterate when z^2/4 + a is this close to 0 (turning point)
TURNING_GUARD = 1e-8
# t_iterate's default step tolerance
STEP_TOL = 1e-13
# t_iterate's cap on a step: pi/2 over |p^{1/2}|
_HALF_PI = 0.5 * math.pi
# RefinedZero's fields as a tuple: NamedTuple's __new__ is a Python
# function
_tuple_new = tuple.__new__


class RefinedZero(NamedTuple):
    """A zero polished by t_iterate: value, the point seed the iteration
    started from (zeros._refine_family and sweep start past the
    expansion's seed or H+ where they can predict the correction,
    _next_shift), the number of T steps and residual, the last step's size
    over (1 + |value|)."""
    value: complex
    seed: complex
    iterations: int
    residual: float


def _p_sqrt(a, z):
    p = -0.25 * z * z - a
    if abs(p) < TURNING_GUARD:
        raise DomainError(f"iterate too close to the turning point: z={z}")
    return cmath.sqrt(p)


def t_iterate(a, z0, tol=STEP_TOL, max_iter=20, evaluator=None):
    """Polish a zero approximation; converges when |T(z)-z| <= tol*(1+|z|).

    evaluator(a, z) gives U and U' as a PcfValue; None means a new
    Evaluator(a, tol, "chain"), which carries (U, U') from each iterate
    to the next by Taylor steps.  The first has nothing to carry: the
    walk from the origin answers it where its estimate is within the
    chain's limit, else the asymptotic stage or mpmath.  Next to the
    first zeros the walk falls short (7.7e-12 against 1e-12 at
    zeros_apos(8.3, 3).z) and mpmath answers, in 5-60 ms: m = 3-7 at
    a = 8.3 and -6.2, m = 3-11 at 20.3; from m = 8 (12 at 20.3) the
    asymptotic stage does.  To refine many zeros, pass one chain
    Evaluator to every call, or use sweep.  A non-finite U or U',
    or a point where T is undefined, raises ConvergenceError; so does an
    iteration that does not converge within max_iter steps.  An a or z0
    that is not a finite number, a tol that is not a finite number >= 0,
    or a max_iter that is not an integer >= 1 (2.0 is 2), is a
    DomainError.  Finite numbers, a valid tol and an int max_iter, as
    the package's chains pass them, are accepted by one test; anything
    else (True or 2.0 for max_iter too) goes through require_finite,
    _tolerance and _positive_int, in that order, which answer or raise as
    they do for every function that takes these arguments.
    """
    try:
        valid = (cmath.isfinite(a) and cmath.isfinite(z0)
                 and 0.0 <= tol <= _DBL_MAX and type(max_iter) is int
                 and max_iter >= 1)
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        require_finite(a=a, z=z0)
        tol = _tolerance(tol)
        max_iter = _positive_int(max_iter,
                                 "max_iter must be an integer >= 1")
    if evaluator is None:
        evaluator = Evaluator(a, tol, "chain")
    start = z = complex(z0)
    residual = math.inf
    for its in range(1, max_iter + 1):
        v = evaluator(a, z)
        u = v.value
        du = v.derivative
        if not (cmath.isfinite(u) and cmath.isfinite(du)):
            raise ConvergenceError(f"U({a}, {z}) is not finite", last=z)
        if du == 0:
            raise ConvergenceError("U' vanished during t_iterate", last=z)
        sq = _p_sqrt(a, z)
        try:
            step = cmath.atan(sq * u / du) / sq
        except ValueError:
            # p^{1/2} U/U' = +-i: a branch point of arctan
            raise ConvergenceError(
                f"T(z) undefined at z={z}: p^(1/2) U/U' is +-i",
                last=z) from None
        # keep each displacement below half the local zero spacing
        cap = _HALF_PI / abs(sq)
        size = abs(step)
        if size > cap:
            step *= cap / size
            size = abs(step)
        z = z - step
        residual = size / (1.0 + abs(z))
        if residual <= tol:
            return _tuple_new(RefinedZero, (z, start, its, residual))
    raise ConvergenceError("t_iterate did not converge", last=z,
                           residual=residual)


def _next_shift(d, d1, d2, d3):
    """The shift to add to the next zero's start in a chain, from d, the
    correction this zero took (where it landed minus where it started
    without a shift), and d1, d2, d3, those of the three zeros before it
    (None where there are fewer).

    The correction is smooth along a chain, so the next one is predicted
    by the quadratic through the last three, 3 (d - d1) + d2, as Glaser,
    Liu & Rokhlin (SIAM J. Sci. Comput. 29, 2007) predict each root from
    the ones before it.  It is taken only where the same prediction from
    d1, d2, d3 beat the bare start at this zero, |d - pred| < |d|; that
    switches it off where the corrections change fast (small a, the
    first zeros, the short real families).  0j means the bare start.
    """
    if d3 is not None and abs(d - 3.0 * (d1 - d2) - d3) < abs(d):
        return 3.0 * (d - d1) + d2
    return 0j


def sweep(a, z_start, count, tol=STEP_TOL):
    """Polish z_start and walk `count` consecutive zeros outward (by |z|).

    Each zero after the first starts from H+ of the one before, plus the
    correction _next_shift predicts from the corrections of the zeros
    before it (d = where a zero landed minus its H+): at a = 8.3 that
    takes 50 zeros from 147 evaluations of U to 107.  The square-root
    branch is kept continuous from step to step; landing within a quarter
    spacing of the previous zero raises ChainBreakError.
    """
    require_finite(a=a, z_start=z_start)
    count = _positive_int(count, "count must be an integer >= 1")
    walker = Evaluator(a, tol, "chain")
    first = t_iterate(a, z_start, tol=tol, evaluator=walker)
    out = [first]
    z = first.value
    sq_prev = None
    direction = 1.0
    d1 = d2 = d3 = None
    shift = 0j
    for _ in range(count - 1):
        sq = _p_sqrt(a, z)
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
        hop = z + direction * math.pi / sq
        zn = t_iterate(a, hop + shift if shift else hop, tol=tol,
                       evaluator=walker)
        if abs(zn.value - z) < 0.25 * spacing:
            raise ChainBreakError(
                f"sweep landed back on a found zero near z={zn.value}")
        out.append(zn)
        z = zn.value
        d = z - hop
        shift = _next_shift(d, d1, d2, d3)
        d1, d2, d3 = d, d1, d2
    return out
