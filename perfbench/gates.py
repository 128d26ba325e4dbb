"""Accuracy gates, evaluated on the benchmark's untimed verification pass.

Every oracle here is independent of the code under test: mpmath's own
``pcfu`` for U(a, z), and the Golub-Welsch tridiagonal eigenvalues for
Hermite nodes.  Each gate returns one pass/fail verdict per op.
"""
import cmath
import math

import mpmath as mp
import numpy as np
import scipy.linalg

# published tables of the source paper (second-quadrant zeros)
TABLE2 = {  # a = 8.3, refined
    1: complex(-1.3827361451259055, 6.6036342033286323),
    2: complex(-2.3669709875573483, 7.2507650105186024),
    3: complex(-3.1430343931950775, 7.7865053482195365),
    4: complex(-3.8084247133233240, 8.2621022832483978),
    5: complex(-4.4011322618731031, 8.6973528646714638),
    50: complex(-16.825271666405126, 19.292382093177420),
    100: complex(-24.310872446597090, 26.292345765760354),
}
TABLE3 = {  # a = 20.3, refined
    1: complex(-1.2067511694547534, 9.7291421956210403),
    2: complex(-2.0850912370104307, 10.277292389190367),
    3: complex(-2.7888616202171361, 10.731269264892200),
    4: complex(-3.3997471627002041, 11.135489161113063),
    5: complex(-3.9493643390091712, 11.506895318690518),
    50: complex(-16.118357080255495, 21.073613351807242),
    100: complex(-23.642327373211272, 27.734831831550747),
}
TABLE4 = {  # a = -6.2, 3-term approximations
    1: complex(-5.6905585737972570, 1.3832406806543917),
    2: complex(-6.4203433049608671, 2.4184037014614955),
    3: complex(-7.0052837094220902, 3.2229279813213036),
    4: complex(-7.5176067734916861, 3.9072453632857412),
    5: complex(-7.9826003951377883, 4.5135383156131224),
    50: complex(-19.075132385062910, 17.163074500674282),
    100: complex(-25.989021785047848, 24.453080138768002),
}
TABLE5 = {  # a = -6.2, refined
    1: complex(-5.6905585738104629672, 1.3832406806482687014),
    2: complex(-6.4203433049698415995, 2.4184037014557299517),
    3: complex(-7.0052837094292314489, 3.2229279813162040367),
    4: complex(-7.5176067734978015947, 3.9072453632811518184),
    5: complex(-7.9826003951432326195, 4.5135383156089129473),
    50: complex(-19.075132385064583145, 17.163074500672717924),
    100: complex(-25.989021785049034971, 24.453080138766863354),
}
# the tables' m = 50 row of a = -6.2 is index 51 of the modulus ladder
LADDER_INDEX = {1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 50: 51, 100: 100}

TABLE_TOL = 5e-13       # Tables 2, 3, 5 (relative)
TABLE4_TOL = 1e-8       # Table 4 seeds (relative)
CERT_TOL = 1e-10        # |U/U'| in units of the local zero spacing
HERMITE_TOL = 1e-10     # |node - Golub-Welsch node|
PHASE_TOL = 1e-6        # |arg U - arg pcfu|
# |seed - zero| in units of the local zero spacing; the 3-term seeds are
# worst for the small-m real zeros of a < 0 (8.3e-6 at a = -6, m = 2)
SEED_TOL = 1e-4

_DPS = 20


def spacing(a, z):
    """Local zero spacing pi / |p^{1/2}|, p = -z^2/4 - a."""
    return math.pi / abs(cmath.sqrt(-0.25 * z * z - a))


def _u_and_du(a, z):
    zz = mp.mpc(z)
    u = mp.pcfu(a, zz)
    # U'(a,z) = -z/2 U(a,z) - (a+1/2) U(a+1,z)
    return u, -zz / 2 * u - (a + 0.5) * mp.pcfu(a + 1, zz)


def certified(a, z):
    """True when mpmath's pcfu certifies z as a zero of U(a, .):
    |U/U'| <= CERT_TOL x the local spacing."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        return False
    with mp.workdps(_DPS):
        u, du = _u_and_du(a, z)
        ratio = float(abs(u / du))
    return ratio <= CERT_TOL * spacing(a, z)


def true_zero(a, z0):
    """The zero of U(a, .) that Newton's method on mpmath's pcfu reaches
    from z0."""
    with mp.workdps(_DPS):
        z = mp.findroot(lambda s: _u_and_du(a, s)[0], mp.mpc(z0),
                        solver="newton",
                        df=lambda s: _u_and_du(a, s)[1])
        return complex(z)


def seed_ok(a, z):
    """True when the seed z lies within SEED_TOL spacings of a zero."""
    z = complex(z)
    try:
        root = true_zero(a, z)
    except ValueError:  # Newton did not converge from z
        return False
    return abs(z - root) <= SEED_TOL * spacing(a, z)


def phase_ok(a, z, arg_u):
    with mp.workdps(_DPS):
        ref = float(mp.arg(mp.pcfu(a, mp.mpc(z))))
    d = math.remainder(arg_u - ref, 2.0 * math.pi)
    return abs(d) <= PHASE_TOL


def rel_ok(z, ref, tol):
    return abs(complex(z) - ref) <= tol * abs(ref)


def hermite_oracle(n):
    """Zeros of H_n, ascending: eigenvalues of the Jacobi matrix of the
    Hermite weight (Golub-Welsch)."""
    off = np.sqrt(np.arange(1, n) / 2.0)
    return scipy.linalg.eigh_tridiagonal(np.zeros(n), off,
                                         eigvals_only=True)


def hermite_ok(n, nodes):
    """One verdict per node of hermite_zeros(n): Golub-Welsch agreement
    to HERMITE_TOL and, for x != 0, certification of sqrt(2) x as a zero
    of U(-n-1/2, .)."""
    ref = hermite_oracle(n)
    nodes = np.asarray(nodes, dtype=float)
    if nodes.shape != ref.shape:
        return [False] * n
    a = -n - 0.5
    out = []
    cache = {}
    for x, r in zip(nodes, ref):
        ok = abs(x - r) <= HERMITE_TOL
        if ok and x != 0.0:
            key = abs(float(x))
            if key not in cache:
                cache[key] = certified(a, complex(math.sqrt(2.0) * key))
            ok = cache[key]
        out.append(bool(ok))
    return out


def in_region(family, z):
    """Where each family's zeros lie (one per conjugate pair)."""
    if family in ("apos-complex", "aneg-complex"):
        return z.real < 0.0 < z.imag
    if family == "aneg-positive":
        return z.imag == 0.0 and z.real > 0.0
    return z.imag == 0.0 and z.real <= 0.0


def table_checks(a, rows, refined):
    """{row index: ok} for the rows of a CLI zeros table at a = 8.3, 20.3
    or -6.2 that the published tables cover."""
    out = {}
    if a == 8.3 and refined:
        tables = [(TABLE2, "apos-complex", None, "z_refined", TABLE_TOL)]
    elif a == 20.3 and refined:
        tables = [(TABLE3, "apos-complex", None, "z_refined", TABLE_TOL)]
    elif a == -6.2:
        tables = [(TABLE4, "aneg-complex", LADDER_INDEX, "z_approx",
                   TABLE4_TOL)]
        if refined:
            tables.append((TABLE5, "aneg-complex", LADDER_INDEX,
                           "z_refined", TABLE_TOL))
    else:
        return out
    for table, family, ladder, field, tol in tables:
        want = {(ladder or {}).get(m, m): ref for m, ref in table.items()}
        for i, row in enumerate(rows):
            if row["family"] == family and row["m"] in want:
                ok = rel_ok(row[field], want[row["m"]], tol)
                out[i] = out.get(i, True) and ok
    return out
