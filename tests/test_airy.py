import cmath
import math
import random

import mpmath as mp
import numpy as np
import pytest

from pcfzeros import airy
from pcfzeros.airy import (eval_ai, eval_ai_rotated, eval_bi_real,
                           real_airy_zero)
from pcfzeros.errors import DomainError

import oracles


def test_ai_at_origin():
    ref = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    v = eval_ai(0.0)
    assert abs(v.value - ref) < 1e-14
    # oracle agreement
    assert abs(v.value - oracles.ai_series(0.0)) < 1e-14


def test_bi_at_origin():
    ref = 3.0 ** (-1.0 / 6.0) / math.gamma(2.0 / 3.0)
    v = eval_bi_real(0.0)
    assert abs(v.value - ref) < 1e-14


def test_ai_vanishes_at_first_zero_from_series_bisection():
    a1 = oracles.airy_zero_bisect(-3.0, -2.0)
    assert abs(eval_ai(a1).value) <= 1e-12


def test_connection_formula_at_point():
    z = 1.0 + 1.0j
    lhs = eval_ai(z).value
    rhs = (cmath.exp(1j * math.pi / 3) * eval_ai_rotated(1, z).value
           + cmath.exp(-1j * math.pi / 3) * eval_ai_rotated(-1, z).value)
    assert abs(lhs - rhs) <= 1e-13


def test_connection_formula_random_points():
    rng = np.random.default_rng(42)
    pts = rng.uniform(-7, 7, (100, 2))
    for x, y in pts:
        z = complex(x, y)
        lhs = eval_ai(z)
        r1 = eval_ai_rotated(1, z)
        r2 = eval_ai_rotated(-1, z)
        # compare in a common scale; residual relative to the biggest term
        e = max(lhs.exponent, r1.exponent, r2.exponent)
        v = lhs.value * math.exp(lhs.exponent - e)
        t1 = cmath.exp(1j * math.pi / 3) * r1.value * math.exp(r1.exponent - e)
        t2 = cmath.exp(-1j * math.pi / 3) * r2.value \
            * math.exp(r2.exponent - e)
        # residual relative to the largest participating term: the identity
        # cancels exponentially large terms against each other
        scale = max(abs(v), abs(t1), abs(t2), 1.0)
        assert abs(v - (t1 + t2)) <= 1e-12 * scale


def test_rotation_fixes_origin():
    assert abs(eval_ai_rotated(1, 0.0).value - eval_ai(0.0).value) < 1e-15


def test_rotated_combination_real_on_negative_axis():
    for x in (-0.7, -2.5, -5.1):
        v = (cmath.exp(1j * math.pi / 3) * eval_ai_rotated(1, x).value
             + cmath.exp(-1j * math.pi / 3) * eval_ai_rotated(-1, x).value)
        assert abs(v.imag) <= 1e-14 * max(1.0, abs(v.real))


def test_rotated_dominant_against_one_term_asymptotic():
    # Ai_1(z) ~ e^{pi i/6} e^{eta + a_1/eta + ...} / (2 sqrt(pi) z^{1/4}),
    # eta = (2/3) z^{3/2}, a_1 = 5/72; the bare exponential alone is 1.01%
    # off at z=5, the first series term brings it well inside 1%
    z = 5.0
    eta = (2.0 / 3.0) * z ** 1.5
    lead = cmath.exp(1j * math.pi / 6) \
        * math.exp(eta + 5.0 / (72.0 * eta)) \
        / (2.0 * math.sqrt(math.pi) * z ** 0.25)
    got = eval_ai_rotated(1, z)
    val = got.value * math.exp(got.exponent)
    assert abs(abs(val) / abs(lead) - 1.0) < 0.01


def test_wronskian_real_axis():
    for x in (-2.0, 0.0, 1.0, 3.5):
        ai = eval_ai(x)
        bi = eval_bi_real(x)
        w = ai.value * bi.derivative - ai.derivative * bi.value
        assert abs(w - 1.0 / math.pi) < 1e-13


def test_bi_sign_at_minus_two():
    assert eval_bi_real(-2.0).value.real < 0
    assert oracles.bi_series(-2.0).real < 0


def test_eval_ai_series_oracle_sample():
    rng = np.random.default_rng(7)
    for _ in range(50):
        z = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
        ref = oracles.ai_series(z)
        got = eval_ai(z).value
        assert abs(got - ref) <= 1e-11 * max(1.0, abs(ref))


def test_real_airy_zero_values_and_order():
    a1 = real_airy_zero(1)
    a2 = real_airy_zero(2)
    assert abs(a1 - oracles.airy_zero_bisect(-3.0, -2.0)) < 1e-10
    assert abs(a2 - oracles.airy_zero_bisect(-4.5, -3.5)) < 1e-10
    zs = [real_airy_zero(m) for m in range(1, 51)]
    assert all(z2 < z1 for z1, z2 in zip(zs, zs[1:]))
    for z in zs:
        assert abs(eval_ai(z).value) <= 1e-11


def test_scaled_overflow_protocol():
    # far on the positive axis Bi overflows a double; the scaled value
    # must still be finite with a positive exponent
    v = eval_bi_real(500.0)
    assert v.exponent > 700
    assert np.isfinite(v.value.real)
    # and Ai underflows, with a matching negative exponent
    w = eval_ai(500.0 + 0.0j)
    assert w.exponent == 0.0 or w.exponent < -700


def test_bad_rotation_index():
    with pytest.raises(Exception):
        eval_ai_rotated(2, 1.0)


def _envelope_errors(z, v):
    """Errors of an AiryValue at z against 30-digit mpmath: Ai's over
    |Ai| + |Ai'|/sqrt(1+|z|), and Ai''s over that times sqrt(1+|z|)."""
    with mp.workdps(30):
        zz = mp.mpc(z)
        ai, aip = mp.airyai(zz), mp.airyai(zz, 1)
        scale = mp.sqrt(1 + abs(zz))
        env = abs(ai) + abs(aip) / scale
        f = mp.exp(v.exponent)
        return (float(abs(mp.mpc(v.value) * f - ai) / env),
                float(abs(mp.mpc(v.derivative) * f - aip) / (env * scale)))


def test_ai_against_mpmath_on_seeded_sample():
    # log-uniform |z| over every region of the kernel, all arguments
    rng = random.Random(2002)
    worst = 0.0
    for _ in range(2000):
        r = math.exp(rng.uniform(math.log(0.01), math.log(60.0)))
        z = cmath.rect(r, rng.uniform(-math.pi, math.pi))
        worst = max(worst, *_envelope_errors(z, eval_ai(z)))
    assert worst <= 5e-14


def test_ai_on_the_real_axis_against_mpmath():
    # zeta in double-double keeps the phase error of the oscillating
    # region far below eps |zeta|, which is 7e-14 at x = -60
    rng = random.Random(3)
    for _ in range(300):
        x = rng.uniform(-60.0, 60.0)
        assert max(_envelope_errors(x, eval_ai(x))) <= 1e-14, x


def test_bi_real_against_mpmath():
    rng = random.Random(4)
    xs = [rng.uniform(-60.0, 60.0) for _ in range(300)] + [-9.5, -2.0, 2.0,
                                                           9.5, 60.0]
    with mp.workdps(30):
        for x in xs:
            v = eval_bi_real(x)
            bi, bip = mp.airybi(x), mp.airybi(x, 1)
            scale = mp.sqrt(1 + abs(x))
            env = abs(bi) + abs(bip) / scale
            f = mp.exp(v.exponent)
            assert abs(v.value.real * f - bi) <= 1e-14 * env, x
            assert abs(v.derivative.real * f - bip) <= 1e-14 * env * scale, x


@pytest.mark.parametrize("r", [10.0, 100.0, 1e3, 1e4])
def test_scaled_exponent_matches_log_ai(r):
    # exponent + log|value| is log|Ai|, also where Ai leaves double range
    with mp.workdps(30):
        for k in range(24):
            z = cmath.rect(r, -math.pi + (k + 0.5) * math.pi / 12.0)
            v = eval_ai(z)
            ref = mp.log(abs(mp.airyai(mp.mpc(z))))
            got = v.exponent + math.log(abs(v.value))
            assert abs(got - ref) <= 1e-14 * max(1.0, abs(ref)), z
            # unscaled only while the value is inside double range
            assert v.exponent != 0.0 or abs(ref) < 700.0, z
            assert 0.0 < abs(v.value) < math.inf


def test_polished_zeros_regenerate():
    # the held a_1..a_20 are the series estimates after Newton steps on
    # Ai; past them a_m is the estimate itself
    for m, held in enumerate(airy._POLISHED_ZEROS, 1):
        x = airy._zero_estimate(m)
        for _ in range(4):
            v = eval_ai(x)
            dx = v.value.real / v.derivative.real
            x -= dx
            if abs(dx) <= 1e-16 * abs(x):
                break
        assert x == held == real_airy_zero(m), m
    assert real_airy_zero(21) == airy._zero_estimate(21)


def test_real_airy_zero_within_two_ulps_of_mpmath():
    with mp.workdps(30):
        for m in list(range(1, 41)) + [100, 1000, 3000, 6000]:
            x = real_airy_zero(m)
            assert abs(mp.mpf(x) - mp.airyaizero(m)) <= 2 * math.ulp(x), m
    zs = [real_airy_zero(m) for m in range(1, 6001)]
    assert all(z2 < z1 for z1, z2 in zip(zs, zs[1:]))


def test_airy_rejects_non_finite_and_huge_arguments():
    for z in (complex(math.nan, 0.0), complex(0.0, math.inf), 1e200):
        with pytest.raises(DomainError):
            eval_ai(z)
    with pytest.raises(DomainError):
        eval_bi_real(math.inf)
