"""Zero polishing and traversal.

t_iterate applies the fourth-order fixed-point map

    T(z) = z - p^{-1/2} arctan(p^{1/2} U(a,z)/U'(a,z)),  p = -z^2/4 - a,

and sweep alternates the displacement H+(z) = z + pi p^{-1/2} with
t_iterate to walk consecutive zeros along the anti-Stokes direction,
evaluating U with one chain Evaluator for the whole chain.
"""
import cmath
import math
from dataclasses import dataclass

from .errors import (ChainBreakError, ConvergenceError, DomainError,
                     require_finite)
from .pcf_eval import Evaluator, eval_U_near_zero

# refuse to iterate when z^2/4 + a is this close to 0 (turning point)
TURNING_GUARD = 1e-8
# t_iterate's default step tolerance
STEP_TOL = 1e-13


@dataclass(frozen=True)
class RefinedZero:
    value: complex
    seed: complex
    iterations: int
    residual: float
    converged: bool


def _p_sqrt(a, z):
    p = -0.25 * z * z - a
    if abs(p) < TURNING_GUARD:
        raise DomainError(f"iterate too close to the turning point: z={z}")
    return cmath.sqrt(p)


def t_iterate(a, z0, tol=STEP_TOL, max_iter=20, evaluator=None):
    """Polish a zero approximation; converges when |T(z)-z| <= tol*(1+|z|).

    evaluator(a, z) gives U and U' as a PcfValue; None means
    eval_U_near_zero.  A non-finite U or U', or a point where T is
    undefined, raises ConvergenceError.
    """
    require_finite(a=a, z=z0)
    if evaluator is None:
        evaluator = eval_U_near_zero
    z = complex(z0)
    converged = False
    its = 0
    residual = math.inf
    for its in range(1, max_iter + 1):
        v = evaluator(a, z)
        if not (cmath.isfinite(v.value) and cmath.isfinite(v.derivative)):
            raise ConvergenceError(f"U({a}, {z}) is not finite", last=z)
        if v.derivative == 0:
            raise ConvergenceError("U' vanished during t_iterate", last=z)
        sq = _p_sqrt(a, z)
        try:
            step = cmath.atan(sq * v.value / v.derivative) / sq
        except ValueError:
            # p^{1/2} U/U' = +-i: a branch point of arctan
            raise ConvergenceError(
                f"T(z) undefined at z={z}: p^(1/2) U/U' is +-i",
                last=z) from None
        # keep each displacement below half the local zero spacing
        cap = 0.5 * math.pi / abs(sq)
        if abs(step) > cap:
            step *= cap / abs(step)
        z = z - step
        residual = abs(step) / (1.0 + abs(z))
        if residual <= tol:
            converged = True
            break
    if not converged:
        raise ConvergenceError("t_iterate did not converge", last=z,
                               residual=residual)
    return RefinedZero(value=z, seed=complex(z0), iterations=its,
                       residual=residual, converged=converged)


def h_displacement(a, z, direction=1.0):
    """H+(z): step of one zero spacing along the anti-Stokes line."""
    sq = _p_sqrt(a, z)
    return z + direction * math.pi / sq


def sweep(a, z_start, count, tol=STEP_TOL):
    """Polish z_start and walk `count` consecutive zeros outward (by |z|).

    The square-root branch is kept continuous from step to step; landing
    within a quarter spacing of the previous zero raises ChainBreakError.
    """
    require_finite(a=a, z_start=z_start)
    if count < 1:
        raise DomainError("count must be >= 1")
    walker = Evaluator(a, tol, "chain")
    first = t_iterate(a, z_start, tol=tol, evaluator=walker)
    out = [first]
    z = first.value
    sq_prev = None
    direction = 1.0
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
        zn = t_iterate(a, z + direction * math.pi / sq, tol=tol,
                       evaluator=walker)
        if abs(zn.value - z) < 0.25 * spacing:
            raise ChainBreakError(
                f"sweep landed back on a found zero near z={zn.value}")
        out.append(zn)
        z = zn.value
    return out
