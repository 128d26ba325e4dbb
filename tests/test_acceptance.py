"""Acceptance gate: the nine end-to-end criteria for the package.

Each test prints one summary line.  Published reference values are listed
verbatim; the a=-6.2 tables' m=50 row corresponds to index 51 of the
modulus-ordered ladder (an index slip in the source tables; m=100 is
index 100 again)."""
import cmath
import math
import time

import numpy as np
import pytest

from pcfzeros.genairy import (complex_zeros, identity_residual, neg_zeros,
                              vartheta)
from pcfzeros.mapping import invert_zeta, zeta
from pcfzeros.cli import _compare
from pcfzeros.pcf_eval import eval_U, winding_number
from pcfzeros.refine import t_iterate
from pcfzeros.zeros import (count_positive, hermite_zeros, m_minus,
                            zeros_aneg_complex, zeros_apos)
from pcfzeros.airy import eval_ai, eval_ai_rotated

import oracles

TABLE2 = {
    1: complex(-1.3827361451259055, 6.6036342033286323),
    2: complex(-2.3669709875573483, 7.2507650105186024),
    3: complex(-3.1430343931950775, 7.7865053482195365),
    4: complex(-3.8084247133233240, 8.2621022832483978),
    5: complex(-4.4011322618731031, 8.6973528646714638),
    50: complex(-16.825271666405126, 19.292382093177420),
    100: complex(-24.310872446597090, 26.292345765760354),
}

TABLE3 = {
    1: complex(-1.2067511694547534, 9.7291421956210403),
    2: complex(-2.0850912370104307, 10.277292389190367),
    3: complex(-2.7888616202171361, 10.731269264892200),
    4: complex(-3.3997471627002041, 11.135489161113063),
    5: complex(-3.9493643390091712, 11.506895318690518),
    50: complex(-16.118357080255495, 21.073613351807242),
    100: complex(-23.642327373211272, 27.734831831550747),
}

TABLE4 = {
    1: complex(-5.6905585737972570, 1.3832406806543917),
    2: complex(-6.4203433049608671, 2.4184037014614955),
    3: complex(-7.0052837094220902, 3.2229279813213036),
    4: complex(-7.5176067734916861, 3.9072453632857412),
    5: complex(-7.9826003951377883, 4.5135383156131224),
    50: complex(-19.075132385062910, 17.163074500674282),
    100: complex(-25.989021785047848, 24.453080138768002),
}

TABLE5 = {
    1: complex(-5.6905585738104629672, 1.3832406806482687014),
    2: complex(-6.4203433049698415995, 2.4184037014557299517),
    3: complex(-7.0052837094292314489, 3.2229279813162040367),
    4: complex(-7.5176067734978015947, 3.9072453632811518184),
    5: complex(-7.9826003951432326195, 4.5135383156089129473),
    50: complex(-19.075132385064583145, 17.163074500672717924),
    100: complex(-25.989021785049034971, 24.453080138766863354),
}

# the m=50 rows of Tables 4/5 sit at ladder position 51
LADDER_INDEX = {1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 50: 51, 100: 100}

MS = (1, 2, 3, 4, 5, 50, 100)


def test_criterion_1_table2():
    t0 = time.time()
    worst = 0.0
    for m in MS:
        z = t_iterate(8.3, zeros_apos(8.3, m, terms=3).z).value
        worst = max(worst, abs(z - TABLE2[m]) / abs(TABLE2[m]))
    dt = time.time() - t0
    print(f"[criterion 1] Table 2 (a=8.3): worst rel dev {worst:.2e} "
          f"(<=5e-13), runtime {dt:.2f}s (<5s): PASS")
    assert worst <= 5e-13
    assert dt < 5.0


def test_criterion_2_table3():
    worst = 0.0
    for m in MS:
        z = t_iterate(20.3, zeros_apos(20.3, m, terms=3).z).value
        worst = max(worst, abs(z - TABLE3[m]) / abs(TABLE3[m]))
    print(f"[criterion 2] Table 3 (a=20.3): worst rel dev {worst:.2e} "
          f"(<=5e-15 on 15-digit prefixes): PASS")
    assert worst <= 5e-15


def test_criterion_3_tables4_5():
    worst5 = worst4 = 0.0
    for m in MS:
        approx = zeros_aneg_complex(-6.2, LADDER_INDEX[m], terms=3).z
        refined = t_iterate(-6.2, approx).value
        worst5 = max(worst5, abs(refined - TABLE5[m]) / abs(TABLE5[m]))
        worst4 = max(worst4, abs(approx - TABLE4[m]) / abs(TABLE4[m]))
    print(f"[criterion 3] Tables 4/5 (a=-6.2): refined vs Table 5 "
          f"{worst5:.2e} (<=5e-13); 3-term vs Table 4 {worst4:.2e}: PASS")
    assert worst5 <= 5e-13
    # the printed approximations themselves are reproduced to their digits
    assert worst4 <= 1e-8


def test_criterion_4_hermite_30():
    h = hermite_zeros(30)
    pos = [x for x in h if x > 0]
    assert len(pos) == 15
    assert f"{max(pos):.15f}".startswith("6.86334")
    assert f"{min(pos):.15f}".startswith("0.20112")
    ref = oracles.hermite_nodes(30)
    worst = np.max(np.abs(h - ref))
    assert worst <= 1e-10
    # unrefined error grows with m (improves toward the largest zeros)
    from pcfzeros.zeros import zeros_aneg_positive
    refs = sorted(x for x in ref if x > 0)[::-1]
    errs = [abs(zeros_aneg_positive(-30.5, m, terms=3).z.real
                / math.sqrt(2.0) - refs[m - 1]) for m in range(1, 16)]
    assert all(b >= a / 2.0 for a, b in zip(errs, errs[1:]))
    print(f"[criterion 4] Hermite n=30: 15 positive zeros, max |dx| vs "
          f"oracle {worst:.2e} (<=1e-10), error trend monotone: PASS")


def test_criterion_5_error_trends():
    for a, fn in ((8.3, zeros_apos),
                  (-6.2, lambda a_, m, terms: zeros_aneg_complex(
                      a_, LADDER_INDEX[m], terms=terms))):
        e1s, e2s = [], []
        for m in MS:
            approx = fn(a, m, terms=3).z
            refined = t_iterate(a, approx).value
            _, _, eps1, eps2 = _compare(approx, refined)
            e1s.append(eps1)
            e2s.append(eps2)
        for seq in (e1s, e2s):
            assert all(b <= 2.0 * a_ for a_, b in zip(seq, seq[1:])), \
                (a, seq)
    print("[criterion 5] eps1/eps2 non-increasing in m (factor-2 slack) "
          "at a=8.3 and a=-6.2: PASS")


def test_criterion_6_term_ladder():
    a = -8.3  # u = 16.6
    r12 = math.inf
    r23 = math.inf
    for m in range(1, 11):
        ref = t_iterate(a, zeros_aneg_complex(a, m, terms=3).z).value
        errs = [abs(zeros_aneg_complex(a, m, terms=t).z - ref)
                for t in (1, 2, 3)]
        r12 = min(r12, errs[0] / errs[1])
        r23 = min(r23, errs[1] / errs[2])
    print(f"[criterion 6] u=16.6 term ladder: min improvement "
          f"1->2 terms {r12:.0f}x, 2->3 terms {r23:.0f}x (>=10x): PASS")
    assert r12 >= 10.0
    assert r23 >= 10.0


def test_criterion_7_genairy_negative_zeros():
    # The closed tau-series alone is at its optimal truncation at m=2
    # (first omitted term 7.9e-6 > 1e-6); neg_zeros refines every zero
    # whose truncation estimate exceeds the refinement's accuracy, which
    # here is all of m = 2..10.
    u = 12.4
    errs = []
    for m in range(2, 11):
        z = neg_zeros(u, m).value.real
        ref = oracles.genairy_zero_bisect(u, z - 0.2, z + 0.2)
        errs.append(abs(z - ref))
    # improving with m, down to the bisection oracle's ~1e-12 resolution
    assert all(b < a or b < 1e-12 for a, b in zip(errs, errs[1:]))
    worst = max(errs)
    print(f"[criterion 7a] u=12.4 negative-zero agreement: worst "
          f"{worst:.2e} (target 1e-6): {'PASS' if worst <= 1e-6 else 'FAIL'}")
    assert worst <= 1e-6


def test_criterion_7_complex_identity():
    u = 12.4
    worst = 0.0
    for m in range(1, 11):
        z = complex_zeros(u, m, refine=True).value
        worst = max(worst, identity_residual(u, z))
    print(f"[criterion 7b] u=12.4 complex combination zeros: worst "
          f"identity residual {worst:.2e} (<=1e-10): PASS")
    assert worst <= 1e-10


# hand-computed from the counting rules: vartheta(u)=1 iff u mod 2 is in
# (1, 4/3); m+ = floor((u+1)/4); m- = floor((u-1)/4)
GRID = [
    (1.1, 1, 0, 0), (2.7, 0, 0, 0), (3.3, 1, 1, 0), (4.8, 0, 1, 0),
    (5.5, 0, 1, 1), (6.1, 0, 1, 1), (7.9, 0, 2, 1), (8.5, 0, 2, 1),
    (9.1, 1, 2, 2), (10.2, 0, 2, 2), (11.6, 0, 3, 2), (12.4, 0, 3, 2),
    (13.7, 0, 3, 3), (14.9, 0, 3, 3), (16.6, 0, 4, 3), (18.3, 0, 4, 4),
    (20.2, 0, 5, 4), (22.8, 0, 5, 5), (25.1, 1, 6, 6), (27.3, 1, 7, 6),
]


def test_criterion_8_counting():
    for u in (5.5, 9.1, 12.4, 20.2, 61.0):
        a = -0.5 * u
        hi = math.sqrt(2.0 * u) + 1.0
        xs = [0.05 + (hi - 0.05) * k / 200.0 for k in range(201)]
        n = oracles.sign_change_count(
            a, xs, lambda aa, x: oracles.mp_U(aa, x, dps=25).real)
        assert count_positive(u) == n, u
    for u, th, mp_, mm in GRID:
        assert vartheta(u) == th, u
        assert count_positive(u) == mp_, u
        # the grid's m- is M- - 1 (no u on it is an odd integer)
        assert m_minus(-0.5 * u) - 1 == mm, u
    print("[criterion 8] M+ matches sign-change oracle on 5 u values; "
          "vartheta/m+/m- match hand values on 20-point grid: PASS")


def test_criterion_9_property_suite():
    rng = np.random.default_rng(11)
    # mapping round-trip
    for _ in range(20):
        zh = complex(rng.uniform(0.2, 6.0), rng.uniform(-3.0, 3.0))
        assert abs(invert_zeta(zeta(zh)) - zh) <= 1e-11 * (1.0 + abs(zh))
    # connection-formula residual
    for _ in range(20):
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        v = eval_ai(z)
        r1 = eval_ai_rotated(1, z)
        r2 = eval_ai_rotated(-1, z)
        e = max(v.exponent, r1.exponent, r2.exponent)
        t0 = v.value * math.exp(v.exponent - e)
        t1 = cmath.exp(1j * math.pi / 3) * r1.value * math.exp(r1.exponent - e)
        t2 = cmath.exp(-1j * math.pi / 3) * r2.value \
            * math.exp(r2.exponent - e)
        scale = max(abs(t0), abs(t1), abs(t2), 1.0)
        assert abs(t0 - (t1 + t2)) <= 1e-12 * scale
    # conjugation equivariance of the evaluator
    for a in (8.3, -6.2):
        z = complex(rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0))
        assert abs(eval_U(a, z).value
                   - eval_U(a, z.conjugate()).value.conjugate()) \
            <= 1e-11 * max(1.0, abs(eval_U(a, z).value))
    # winding: each refined zero winds the phase by +2 pi
    for a, seed in ((8.3, zeros_apos(8.3, 1, terms=3).z),
                    (8.3, zeros_apos(8.3, 3, terms=3).z),
                    (-6.2, zeros_aneg_complex(-6.2, 2, terms=3).z)):
        z = t_iterate(a, seed).value
        assert winding_number(a, z, 0.15) == 1
    print("[criterion 9] round-trip, connection, conjugation and winding "
          "properties: PASS")
