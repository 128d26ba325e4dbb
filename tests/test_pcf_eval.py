import cmath
import math
import random
import re
import time
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pcfzeros import pcf_eval, refine
from pcfzeros.errors import ConvergenceError, DomainError, PcfzerosError
from pcfzeros.pcf_eval import (Evaluator, eval_U, eval_U_near_zero,
                               eval_U_path, winding_number)
from pcfzeros.refine import STEP_TOL, sweep, t_iterate
from pcfzeros.zeros import (_refine_family, count_positive, hermite_zeros,
                            zeros_aneg_complex, zeros_apos)

import oracles
from oracles import eval_U_prime, eval_U_quadrature, residual_eq319


def test_large_z_normalization():
    # U(a,z) ~ z^{-a-1/2} e^{-z^2/4} for z -> +inf
    a, z = 0.5, 50.0
    v = eval_U(a, z)
    lead = v.value * math.exp(v.exponent + z * z / 4.0) * z ** (a + 0.5)
    # three-term expansion: 1 - (a+1/2)_2/(2z^2) + (a+1/2)_4/(2!(2z^2)^2)
    w = 2.0 * z * z
    ref = (1.0 - (a + 0.5) * (a + 1.5) / w
           + (a + 0.5) * (a + 1.5) * (a + 2.5) * (a + 3.5) / (2.0 * w * w))
    assert abs(lead - ref) < 1e-8


def test_hermite_polynomial_connection():
    # at a = -n - 1/2: U = e^{-z^2/4} He_n(z), He_n(z) = 2^{-n/2} H_n(z/sqrt 2)
    n, z = 30, 1.0
    h = np.polynomial.hermite.hermval(z / math.sqrt(2.0),
                                      [0.0] * n + [1.0])
    ref = math.exp(-z * z / 4.0) * 2.0 ** (-n / 2.0) * h
    v = eval_U(-n - 0.5, z)
    got = v.value.real * math.exp(v.exponent)
    assert abs(got / ref - 1.0) < 1e-9


def test_quadrature_against_series():
    a, z = 0.3, 2.0 + 1.0j
    q = eval_U_quadrature(a, z)
    s = eval_U(a, z)
    su, sup = s.unscaled()
    assert abs(q.value - su) <= 1e-10 * abs(su)
    assert abs(q.derivative - sup) <= 1e-8 * abs(sup)


def test_unscaled_where_e_to_the_exponent_leaves_the_double_range():
    # e^710 alone overflows a double; the products are about 2.2e298
    ref = mp.mpf(1e-10) * mp.exp(710)
    u, du = pcf_eval.PcfValue(1e-10, 1e-10, "taylor", 0.0, 710.0).unscaled()
    assert u == du and abs(u / ref - 1) <= 1e-15
    # e^-800 underflows to 0; 1e300 e^-800 is about 4e-48
    u, _ = pcf_eval.PcfValue(1e300, 1.0, "taylor", 0.0, -800.0).unscaled()
    assert abs(u / (mp.mpf(1e300) * mp.exp(-800)) - 1) <= 1e-15
    # an answer of the evaluator past e^709.8, against mpmath
    z = -52.15 + 1j
    v = eval_U(8.3, z)
    assert v.exponent > 709.8
    u, _ = v.unscaled()
    with mp.workdps(40):
        ref = complex(mp.pcfu(8.3, z))
    assert abs(u - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("a,z", [(8.3, -60 + 1j), (-500.3, 0.5)])
def test_unscaled_out_of_the_double_range_is_a_domain_error(a, z):
    # U ~ e^931.7 and e^1306.4: the exponent is named
    v = eval_U(a, z)
    with pytest.raises(DomainError, match=re.escape(repr(v.exponent))):
        v.unscaled()
    assert cmath.isfinite(v.value) and v.exponent > 900.0


def test_unscaled_in_range_keeps_the_record():
    v = eval_U(8.3, 1.0 + 2.0j)
    assert v.exponent == 0.0 and v.unscaled() == (v.value, v.derivative)
    w = pcf_eval.PcfValue(3.0 + 4.0j, -1.0, "series", 1e-15, 700.0)
    u, du = w.unscaled()
    assert abs(u / (w.value * math.exp(700.0)) - 1) <= 4.0 * pcf_eval._EPS
    assert abs(du / -math.exp(700.0) - 1) <= 4.0 * pcf_eval._EPS


def test_quadrature_domain_limit():
    with pytest.raises(DomainError):
        eval_U_quadrature(-1.0, 1.0)


def test_quadrature_integrates_past_the_peak_at_large_a():
    # the integrand peaks near t = 9.5 at a = 100, z = 1: a cut at
    # |z| + 10 = 11 alone loses 1.7% of U
    q = eval_U_quadrature(100.0, 1.0)
    su, sup = eval_U(100.0, 1.0).unscaled()
    assert abs(q.value - su) <= 1e-10 * abs(su)
    assert abs(q.derivative - sup) <= 1e-8 * abs(sup)


def test_quadrature_overflow_is_a_domain_error():
    # t^(a - 1/2) overflows a double for t > 2.03 at a = 1000
    with pytest.raises(DomainError, match="overflows a double"):
        eval_U_quadrature(1000.0, 1.0 + 1.0j)


def test_against_mpmath_oracle_sample():
    pts = [(0.7, 0.5 + 0.5j), (-1.3, 2.0 - 1.0j), (2.5, -0.8 + 0.3j),
           (-6.2, 1.0 + 2.0j), (8.3, 0.5j)]
    for a, z in pts:
        v = eval_U(a, z)
        u, _ = v.unscaled()
        ref = oracles.mp_U(a, z)
        assert abs(u - ref) <= 1e-10 * max(1.0, abs(ref))


def test_asymptotic_against_mpmath_oracle_on_ring():
    # |z| = 12 exercises the compound asymptotic path in several sectors
    for k in range(8):
        th = -0.95 * math.pi + 1.9 * math.pi * k / 7.0
        z = 12.0 * cmath.exp(1j * th)
        v = eval_U(1.7, z)
        u, _ = v.unscaled() if abs(v.exponent) < 600 else (None, None)
        if u is None:
            continue
        ref = oracles.mp_U(1.7, z, dps=50)
        assert abs(u - ref) <= 1e-9 * max(abs(ref), 1e-30)


def test_derivative_by_finite_differences():
    h = 1e-6
    for a, z in ((0.4, 1.0 + 0.5j), (-3.1, 2.0 + 2.0j), (5.0, -1.0 + 1.0j)):
        v = eval_U(a, z)
        u, up = v.unscaled()
        fd = (eval_U(a, z + h).unscaled()[0]
              - eval_U(a, z - h).unscaled()[0]) / (2.0 * h)
        assert abs(up - fd) <= 1e-7 * max(1.0, abs(fd))


def test_ode_residual():
    # U'' = (z^2/4 + a) U
    h = 1e-4
    for a, z in ((0.9, 1.3 + 0.4j), (-2.6, 0.5 - 1.1j)):
        um = eval_U(a, z - h).unscaled()[0]
        u0 = eval_U(a, z).unscaled()[0]
        up = eval_U(a, z + h).unscaled()[0]
        lhs = (up - 2.0 * u0 + um) / h ** 2
        rhs = (z * z / 4.0 + a) * u0
        assert abs(lhs - rhs) <= 1e-5 * max(1.0, abs(rhs))


def test_conjugation_symmetry():
    for a, z in ((1.1, 1.0 + 2.0j), (-6.2, -3.0 + 4.0j)):
        v1 = eval_U(a, z).unscaled()[0]
        v2 = eval_U(a, z.conjugate()).unscaled()[0]
        assert abs(v1 - v2.conjugate()) <= 1e-12 * max(1.0, abs(v1))


def test_prime_recurrence_vs_bundled_derivative():
    for a, z in ((0.4, 1.5 + 0.5j), (-6.2, -5.0 + 1.5j)):
        v = eval_U(a, z)
        u, up = v.unscaled()
        alt = eval_U_prime(a, z)
        assert abs(alt - up) <= 1e-10 * max(1.0, abs(up))


def test_prime_is_the_true_double_beyond_the_exponent_range():
    # U'(0.5, 60) ~ -30 e^-904 underflows to 0; U'(0.5, 60i) ~ e^900
    # overflows; U'(0.5, 40) ~ -9.6e-175 is a normal double
    assert eval_U_prime(0.5, 60.0) == 0.0
    with pytest.raises(DomainError, match="overflows"):
        eval_U_prime(0.5, 60j)
    ref = oracles.mp_U_pair(0.5, 40.0)[1]
    assert abs(eval_U_prime(0.5, 40.0) - ref) <= 1e-12 * abs(ref)


def test_scaled_value_protocol():
    # z^2/4 = 900 is far outside double range: exponent must carry it
    v = eval_U(0.5, 60.0)
    assert v.exponent < -650.0
    assert np.isfinite(abs(v.value))
    assert 1e-3 < abs(v.value) or v.value != 0.0


def test_near_zero_evaluation_criterion():
    # at a zero |U| -> 0: the derivative-scaled criterion must accept a
    # double-precision answer whose *relative* error is necessarily bad
    z = zeros_apos(8.3, 1, terms=3).z
    zr = t_iterate(8.3, z).value
    v = eval_U_near_zero(8.3, zr)
    assert abs(v.value) <= 1e-10 * abs(v.derivative)


def test_residual_eq319_at_refined_zero():
    u = 12.4
    a = -0.5 * u
    w = -zeros_aneg_complex(a, 5, terms=3).z.conjugate() / math.sqrt(2.0 * u)
    base = residual_eq319(a, w)
    assert base <= 1e-5
    # perturbation grows the residual
    assert residual_eq319(a, w * (1.0 + 1e-3)) > base
    assert residual_eq319(a, w + 0.01) > base


def test_residual_eq319_domain():
    with pytest.raises(DomainError):
        residual_eq319(1.0, 0.5 + 0.5j)


def test_winding_number_certifies_zero():
    z = t_iterate(8.3, zeros_apos(8.3, 2, terms=3).z).value
    assert winding_number(8.3, z, 0.2) == 1
    # no zero inside a small displaced circle
    assert winding_number(8.3, z + 1.0 + 1.0j, 0.2) == 0


def test_winding_number_counts_the_zeros_in_its_disc_or_raises():
    # radius 5 around the second zero at a = 8.3 holds nine zeros; at 24
    # points arg U stepped by more than pi between neighbours there, and
    # the unwrapped phase gave -1.  The points double while a step
    # exceeds pi/2; past three doublings the count is refused
    zs = [t_iterate(8.3, zeros_apos(8.3, m).z).value for m in range(1, 13)]
    c = zs[1]
    for radius, count in ((0.2, 1), (1.0, 2), (2.0, 4), (3.0, 5)):
        assert sum(abs(z - c) < radius for z in zs) == count
        assert winding_number(8.3, c, radius) == count, radius
    with pytest.raises(ConvergenceError, match="pi/2"):
        winding_number(8.3, c, 5.0)


@pytest.mark.parametrize("radius", [0, 0.0, -0.2, math.inf, math.nan, 1j,
                                    "1", None])
def test_winding_radius_not_finite_and_positive_is_a_domain_error(radius):
    # radius 0 returned 0 at any center
    with pytest.raises(DomainError, match="radius"):
        winding_number(8.3, -2.37 + 7.25j, radius)


def _from_origin(a, z):
    """The origin stage's relative answer at z, whatever its estimate;
    None where its steps cannot be taken."""
    r = Evaluator(a)._origin(complex(z), math.inf)
    return None if r is None else r[0]


def test_taylor_estimate_bounds_error():
    # 7 a x 9 arg z x 6 |z|, spanning the recessive sector where the
    # outward integration loses accuracy and must say so
    accepted = 0
    for a in (-20.5, -20.3, -6.2, 0.3, 2.5, 8.3, 20.3):
        for i in range(9):
            for j in range(6):
                z = cmath.rect(0.5 + 13.5 * j / 5, 0.1 + 2.9 * i / 8)
                v = _from_origin(a, z)
                if v is None or v.est_accuracy > 1e-6:
                    continue
                accepted += 1
                u, du = v.unscaled()
                ref, dref = oracles.mp_U_pair(a, z)
                assert abs(u - ref) <= v.est_accuracy * abs(ref), (a, z)
                assert abs(du - dref) <= v.est_accuracy * abs(dref), (a, z)
    assert accepted >= 300


def test_origin_ray_along_the_recessive_real_axis_bounds_its_error():
    # both runs start from U(a, 0), whose error grows along the real axis
    # as U decays; with equal start data their difference grew up to a
    # hundredfold less, and 16 of these 200 answers were up to 8 times
    # beyond their estimate
    accepted = 0
    for j in range(200):
        z = complex(0.5 + 5.5 * j / 199)
        ev = Evaluator(8.3, 1e-6)
        r = ev._taylor(z, 1e-6, ev._at_origin)
        if r is None:
            continue
        accepted += 1
        v = r[0]
        u, du = oracles.mp_U_pair(8.3, z, exponent=v.exponent)
        assert abs(v.value - u) <= v.est_accuracy * abs(u), z
        assert abs(v.derivative - du) <= v.est_accuracy * abs(du), z
    assert accepted >= 50


def test_recessive_real_axis_path_bounds_its_error():
    # the carried steps from the series answer at z = 0.5 outward, where U
    # is recessive: each answer within its estimate of pcfu
    a, zs = 8.3, [0.5 + 5.5 * k / 79 for k in range(80)]
    for z, v in zip(zs, eval_U_path(a, zs, 1e-6)):
        u, _ = oracles.mp_U_pair(a, z, exponent=v.exponent)
        assert abs(v.value - u) <= v.est_accuracy * abs(u), z


def test_origin_path_up_the_imaginary_axis_bounds_its_error():
    # where the ray from z = 0 declines the chain limit, the origin stage
    # steps up the imaginary axis and then across; 10 arg z x 12 |z| next
    # to the first zeros of a > 0 (at a <= 0.3 the ray answers them all,
    # and up to a = 60 all but 16)
    accepted = 0
    for a in (-20.3, 0.3, 8.3, 20.3, 60.0, 100.3, 150.3):
        for i in range(10):
            for j in range(12):
                z = cmath.rect(2.0 + 2.0 * j, math.radians(91.0 + 4.0 * i))
                ev = Evaluator(a, STEP_TOL, "chain")
                limit = pcf_eval._step_limit(STEP_TOL, z)
                if ev._taylor(z, limit, ev._at_origin) is not None:
                    continue
                r = ev._origin(z, limit)
                if r is None:
                    continue
                accepted += 1
                v = r[0]
                u, du = oracles.mp_U_pair(a, z, exponent=v.exponent)
                ref = max(abs(u), abs(du) / (1.0 + abs(z)))
                assert abs(v.value - u) <= v.est_accuracy * ref, (a, z)
    assert accepted >= 20


def test_origin_path_along_the_real_axis_bounds_its_error():
    # where the ray declines next to the negative real axis at large -a,
    # the origin stage steps along the real axis and then across; 8 arg z
    # x 6 |z| up to 2 sqrt(-a), where the first complex zeros lie
    accepted = 0
    for a in (-100.3, -300.3):
        for i in range(8):
            for j in range(6):
                rad = (0.2 + 0.2 * j) * 2.0 * math.sqrt(-a)
                z = cmath.rect(rad, math.radians(179.0 - 5.0 * i))
                ev = Evaluator(a, STEP_TOL, "chain")
                limit = pcf_eval._step_limit(STEP_TOL, z)
                if ev._taylor(z, limit, ev._at_origin) is not None:
                    continue
                r = ev._origin(z, limit)
                if r is None:
                    continue
                accepted += 1
                v = r[0]
                u, du = oracles.mp_U_pair(a, z, exponent=v.exponent)
                ref = max(abs(u), abs(du) / (1.0 + abs(z)))
                assert abs(v.value - u) <= v.est_accuracy * ref, (a, z)
    assert accepted >= 10


def test_readme_grid_stays_in_double_precision(monkeypatch):
    def refuse(*args):
        raise AssertionError("mpmath fallback reached")

    monkeypatch.setattr(pcf_eval, "_eval_series_mp", refuse)
    for x in np.linspace(-6.0, 0.0, 8):
        for y in np.linspace(5.0, 10.0, 8):
            v = eval_U(8.3, complex(x, y), tol=1e-6)
            assert v.est_accuracy <= 1e-6


def test_taylor_carries_exponent_for_large_negative_a():
    # U(-400.3, 0) ~ e^1000 is out of double range
    a = -400.3
    accepted = 0
    for z in (0.5 + 0.5j, 1.0, 2.0 + 3.0j, -5.0 + 10.0j, 30.0 + 1.0j):
        v = _from_origin(a, z)
        if v is None:
            continue
        accepted += 1
        assert v.exponent > 650.0 and v.value != 0.0
        with mp.workdps(40):
            ref = mp.pcfu(a, mp.mpc(z))
            got = mp.mpc(v.value) * mp.exp(v.exponent)
            assert abs(got - ref) <= v.est_accuracy * abs(ref)
    assert accepted >= 3


def test_mpmath_precision_cap_raises_promptly():
    # |z| ~ 2000 would ask the Maclaurin fallback for ~780 000 digits
    t0 = time.perf_counter()
    with pytest.raises(PcfzerosError):
        t_iterate(1e6, zeros_apos(1e6, 1).z)
    assert time.perf_counter() - t0 < 30.0


def test_exact_zero_of_U_raises_convergence_error():
    # U(-5/2, z) is proportional to e^{-z^2/4}(z^2 - 1): at z = 1 no
    # relative accuracy can be reached and mpmath's 1F1 series gives up
    with pytest.raises(ConvergenceError, match=r"U\(-2\.5, "):
        eval_U(-2.5, 1.0)


def test_mpmath_fallback_folds_out_of_range_U_into_exponent():
    # |U(-400.3, 10i)| ~ e^1200: the mpmath mantissa itself overflows
    a, z = -400.3, 10j
    v = eval_U(a, z)
    assert cmath.isfinite(v.value) and cmath.isfinite(v.derivative)
    assert v.est_accuracy <= 1e-11
    with mp.workdps(40):
        ref = mp.pcfu(a, mp.mpc(z))
        got = mp.mpc(v.value) * mp.exp(v.exponent)
        assert abs(got - ref) <= 1e-11 * abs(ref)


def test_series_declines_overflowing_origin_data_without_warnings():
    # the double Maclaurin series declines where its origin data leave
    # double range, and eval_U falls through to mpmath: 1/Gamma
    # overflows at a = -400.3 and -3000.3 (where 2^(-a/2) would too),
    # U(a,0) itself at -330, and U(a,0), U'(a,0) underflow at 600.3 and
    # 3000.3; the chain entry of eval_U_near_zero tries taylor first,
    # which answers at (-400.3, 10j) and (-330, 10j)
    for a, z in [(-400.3, 10j), (-3000.3, 1j), (-330.0, 10j),
                 (600.3, 0.5), (3000.3, 1j)]:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert pcf_eval._eval_series_double(a, z).est_accuracy \
                == math.inf
            v = eval_U(a, z)
            w = eval_U_near_zero(a, z)
        assert v.method == "series"
        for x in (v, w):
            u, du = oracles.mp_U_pair(a, z, exponent=x.exponent)
            assert abs(x.value - u) <= 1e-12 * abs(u), (a, z)
            assert abs(x.derivative - du) <= 1e-12 * abs(du), (a, z)


def test_evaluator_rejects_an_unknown_scale_and_another_a():
    for scale in ("absolute", "point"):
        with pytest.raises(DomainError, match=f"scale '{scale}'"):
            Evaluator(8.3, scale=scale)
    ev = Evaluator(8.3, STEP_TOL, "chain")
    with pytest.raises(DomainError, match="asked for a = 8.4"):
        ev(8.4, 1.0 + 6.0j)
    with pytest.raises(DomainError, match="asked for a = x"):
        ev("x", 1.0 + 6.0j)


def _walker_chain(case):
    """(a, points, compared): positive Hermite nodes of order n in the z
    of U, or the refined zeros m = 1..15 of the complex string of U(a,
    .), each found from the origin, every point compared; or, for
    ("walk", a, count, compared), its zeros m = 1..count found by one
    chain, the points of the indices in compared compared."""
    kind, p = case[:2]
    if kind == "hermite":
        nodes = oracles.hermite_nodes(p)
        p, points = -p - 0.5, [math.sqrt(2.0) * x for x in nodes if x > 0.0]
    elif kind == "walk":
        chain = Evaluator(p, STEP_TOL, "chain")
        return p, [t_iterate(p, zeros_apos(p, m).z, evaluator=chain).value
                   for m in range(1, case[2] + 1)], case[3]
    else:
        family = zeros_apos if p > 0 else zeros_aneg_complex
        points = [t_iterate(p, family(p, m).z).value for m in range(1, 16)]
    return p, points, range(len(points))


@pytest.mark.parametrize("case", [("hermite", 100), ("hermite", 225),
                                  ("hermite", 400), ("chain", 8.3),
                                  ("chain", 20.3), ("chain", -6.2),
                                  ("chain", -100.3),
                                  ("walk", 300.7, 15, range(3)),
                                  ("walk", 8.3, 150, range(139, 150))])
def test_walker_estimate_bounds_error(case):
    # U'-scaled error of U within the estimate, U' to 1e-12 relative, and
    # every point answered by the walk, not by its fallback.  A complex
    # chain steps each hop by one Taylor run, from the pair of the origin
    # stage's answer at the first zero, and its bound on the rounding
    # grows from zero to zero: at 300.7 the first hops are compared (from
    # the origin, t_iterate takes 4 s a zero there, and pcfu 1.7 s a
    # point), at 8.3 the zeros m = 140..150 of a walk from m = 1
    a, points, compared = _walker_chain(case)
    walk = Evaluator(a, STEP_TOL, "chain")
    for i, z in enumerate(points):
        v = walk(a, z)
        assert v.method == "taylor", z
        if i not in compared:
            continue
        ref, dref = oracles.mp_U_pair(a, z, exponent=v.exponent)
        scale = max(abs(ref), abs(dref) / (1.0 + abs(z)))
        assert abs(v.value - ref) <= v.est_accuracy * scale, z
        assert abs(v.derivative - dref) <= 1e-12 * abs(dref), z


def test_one_run_estimate_bounds_error_from_an_accurate_start():
    # from an mpmath answer at the first zero (est 1e-15), the start adds
    # next to nothing, and the estimate is the runs' rounding bound: with
    # that bound left out, the error grew to 14 times the estimate by m =
    # 60
    a = 8.3
    chain = Evaluator(a, STEP_TOL, "chain")
    points = [t_iterate(a, zeros_apos(a, m).z, evaluator=chain).value
              for m in range(1, 61)]
    walk = Evaluator(a, STEP_TOL, "chain")
    v = pcf_eval._eval_series_mp(a, points[0], 1e-15)
    walk._start = pcf_eval._start(points[0], v, walk._scale.seed)
    walk._last = v
    for m, z in enumerate(points[1:], 2):
        v = walk(a, z)
        assert v.method == "taylor", z
        if m % 6:
            continue
        ref, dref = oracles.mp_U_pair(a, z, exponent=v.exponent)
        scale = max(abs(ref), abs(dref) / (1.0 + abs(z)))
        assert abs(v.value - ref) <= v.est_accuracy * scale, z


def test_one_run_hands_a_hop_off_the_zeros_to_the_pair(monkeypatch):
    # a hop that does not end next to a zero, |U| > |U'|/(1 + |z|): its
    # one run is paired with a second, of more steps, whose difference
    # gives the estimate; the next zero is one run again, from that pair
    a = 8.3
    chain = Evaluator(a, STEP_TOL, "chain")
    z1, z2, z3 = (t_iterate(a, zeros_apos(a, m).z, evaluator=chain).value
                  for m in (1, 2, 3))
    steps = []
    run = pcf_eval._taylor_run

    def recording(*args):
        steps.append(args[3])
        return run(*args)

    monkeypatch.setattr(pcf_eval, "_taylor_run", recording)
    walk = Evaluator(a, STEP_TOL, "chain")
    walk(a, z1)
    for z, runs in ((z2, 1), ((z2 + z3) / 2, 2), (z3, 1)):
        del steps[:]
        v = walk(a, z)
        assert len(steps) == runs and v.method == "taylor", z
        if runs == 2:
            assert steps[1] == steps[0] + steps[0] // 3 + 1, z
        ref, dref = oracles.mp_U_pair(a, z, exponent=v.exponent)
        scale = max(abs(ref), abs(dref) / (1.0 + abs(z)))
        assert abs(v.value - ref) <= v.est_accuracy * scale, z
        assert abs(v.derivative - dref) <= 1e-12 * abs(dref), z
        assert (abs(ref) > scale / 2) == (runs == 2), z


def _hop_points(kind, seed):
    """(a, points) for a chain Evaluator: a family's refined zeros in
    chain order, each followed, by a seeded draw, either by the next or by
    a point between the two, at a random fraction of their distance and
    off the line through them, where U is not small."""
    rng = random.Random(seed)
    if kind == "real":
        a = -40.5
        zeros = [math.sqrt(2.0) * x for x in oracles.hermite_nodes(40)
                 if x > 0.0]
    else:
        a = 8.3
        chain = Evaluator(a, STEP_TOL, "chain")
        zeros = [t_iterate(a, zeros_apos(a, m).z, evaluator=chain).value
                 for m in range(1, 21)]
    points = [zeros[0]]
    for z, z1 in zip(zeros, zeros[1:]):
        if rng.random() < 0.5:
            off = rng.uniform(0.2, 0.8) * (z1 - z)
            if kind == "complex":
                off *= cmath.exp(1j * rng.uniform(-0.5, 0.5))
            points.append(z + off)
        points.append(z1)
    return a, points


@pytest.mark.parametrize("case", [("real", 39), ("complex", 39),
                                  ("hermite", 256), ("sweep", 8.3)],
                         ids=["real", "complex", "hermite-256", "sweep-8.3"])
def test_carried_hop_is_the_four_call_hop_bit_for_bit(monkeypatch, case):
    # a chain's carried hop takes its step count, length and term bounds
    # from one _plan call and forms the other run's start only where it
    # pairs: its answer and the start it leaves are those of the hop that
    # formed them by four calls (oracles.carried_hop), from a one-run
    # start and from a pair's, at a zero, off one, and over the limit
    seen = set()
    carried = pcf_eval.Evaluator._carried

    def comparing(self, z, limit):
        ref = oracles.carried_hop(self, z, limit)
        got = carried(self, z, limit)
        assert repr(got) == repr(ref), (self.a, z)
        if self._start is None:
            return got
        if got is None:
            outcome = "declined"
        elif len(got[1][1]) == 1:
            outcome = "one run"
        else:
            w, d, x = got[1][1][1]
            near = pcf_eval._one_run_estimate((w, d, x, 0.0), 0.0, z)
            outcome = "off a zero" if near is None else "over the limit"
        seen.add((len(self._start[1]), outcome))
        return got

    monkeypatch.setattr(pcf_eval.Evaluator, "_carried", comparing)
    kind, p = case
    if kind == "hermite":
        hermite_zeros(p)
    elif kind == "sweep":
        sweep(p, zeros_apos(p, 1).z, 20)
    else:
        a, points = _hop_points(kind, p)
        walk = Evaluator(a, STEP_TOL, "chain")
        for z in points:
            walk(a, z)
    expected = {
        "real": {(1, "one run"), (1, "off a zero"), (2, "one run"),
                 (2, "off a zero")},
        "complex": {(1, "one run"), (1, "off a zero"), (2, "one run"),
                    (2, "off a zero")},
        "hermite": {(1, "one run"), (1, "over the limit"), (2, "one run")},
        "sweep": {(1, "one run"), (1, "off a zero"), (2, "one run"),
                  (2, "off a zero")},
    }[kind]
    assert expected <= seen, seen


def _real_chain(case):
    """(a, zeros) of a real chain: hermite_zeros(n), or the positive
    family at a by _refine_family."""
    kind, p = case
    if kind == "hermite":
        return -p - 0.5, len(hermite_zeros(p)) // 2
    ms = range(1, count_positive(-2.0 * p) + 1)
    found = _refine_family("aneg-positive", p, 3, ms)
    assert all(not isinstance(got, Exception) for got in found)
    return p, len(found)


@pytest.mark.parametrize("case", [("hermite", 20), ("hermite", 100),
                                  ("hermite", 256), ("pos", -100.3)])
def test_real_one_run_estimate_bounds_error(monkeypatch, case):
    # a real hop with real data is one Taylor run in floats, as a complex
    # hop is; next to a zero its estimate, from the carried Wronskian
    # bound, is at least five times the error (pcfu at 40 digits, U' from
    # U(a + 1)), at about 25 one-run answers a chain.  A pair of runs
    # answers the first zero and any hop over the limit: at most 1.1 runs
    # a zero of H_256, against 2 while every real hop took a pair
    answers = []
    runs = []
    call = pcf_eval.Evaluator.__call__
    run = pcf_eval._taylor_run

    def recording(self, a, z):
        before = self._start
        v = call(self, a, z)
        if self._start is not before and len(self._start[1]) == 1:
            answers.append((a, complex(z), v))
        return v

    def counting(*args):
        runs.append(args[3])
        return run(*args)

    monkeypatch.setattr(pcf_eval.Evaluator, "__call__", recording)
    monkeypatch.setattr(pcf_eval, "_taylor_run", counting)
    a, count = _real_chain(case)
    assert len(answers) >= 0.9 * count
    if case == ("hermite", 256):
        assert len(runs) <= 1.1 * count
    for a, z, v in answers[::max(1, len(answers) // 25)]:
        assert v.method == "taylor" and z.imag == 0.0, z
        ref, dref = oracles.mp_U_pair(a, z, exponent=v.exponent)
        scale = max(abs(ref), abs(dref) / (1.0 + abs(z)))
        assert abs(v.value - ref) <= v.est_accuracy * scale / 5.0, z


def _snake(box, n=12):
    """The n x n grid over box = (re_min, re_max, im_min, im_max), row by
    row with every other row backwards: each point next to the one
    before it."""
    lo_x, hi_x, lo_y, hi_y = box
    xs = [lo_x + (hi_x - lo_x) * j / (n - 1) for j in range(n)]
    ys = [lo_y + (hi_y - lo_y) * i / (n - 1) for i in range(n)]
    return [complex(x, y) for i, y in enumerate(ys)
            for x in (xs if i % 2 == 0 else xs[::-1])]


PATH_BOXES = {
    "readme": (8.3, (-6.0, 0.0, 5.0, 10.0)),
    # reaches into |arg z| < pi/4, where U is recessive
    "recessive": (8.3, (0.5, 6.0, 0.0, 3.0)),
    "aneg": (-6.2, (-10.0, -4.0, 0.5, 5.0)),
    "far": (8.3, (-30.0, -20.0, 20.0, 30.0)),
    "hermite": (-30.5, (-9.0, 9.0, -1.0, 1.0)),
    # from the taylor region near the zeros out to |z| ~ 18, where the
    # asymptotic method answers; rows cross between the two
    "straddle": (8.3, (-12.0, 0.0, 4.0, 14.0)),
    # along the positive real axis, recessive, from the origin outward
    "axis": (2.5, (0.0, 7.0, 0.0, 2.0)),
    # the recessive box where a / 2 + 1/4 is not a double: mpmath answers
    # near z = 6, and must sum the series of this a and not a neighbour
    "mpmath": (0.3, (0.5, 6.0, 0.0, 3.0)),
}
# at tol 1e-11 a third of the far box goes to mpmath at |z| ~ 40, which
# takes seconds; at 1e-6 the asymptotic method answers there everywhere
PATH_CASES = [(name, tol) for name in PATH_BOXES for tol in (1e-6, 1e-11)
              if (name, tol) != ("far", 1e-11)]


def _path_failures(name, tol):
    """The points of the snake over the box where the answer of
    eval_U_path is not within 2 tol (relative) of scalar eval_U, or, at
    every 13th point, of pcfu."""
    a, box = PATH_BOXES[name]
    zs = _snake(box)
    bad = []
    for k, (z, v) in enumerate(zip(zs, eval_U_path(a, zs, tol))):
        s = eval_U(a, z, tol)
        u = v.value * math.exp(v.exponent - s.exponent)
        ok = abs(u - s.value) <= 2.0 * tol * abs(s.value)
        if k % 13 == 0:
            ref, _ = oracles.mp_U_pair(a, z, exponent=v.exponent)
            ok = ok and abs(v.value - ref) <= 2.0 * tol * abs(ref)
        if not ok:
            bad.append((z, v))
    return bad


def _check_path(name, tol):
    assert _path_failures(name, tol) == []


@pytest.mark.parametrize("name,tol", PATH_CASES)
def test_path_agrees_with_scalar_and_pcfu(name, tol):
    _check_path(name, tol)


@pytest.mark.parametrize("name,tol", PATH_CASES)
def test_path_asymptotic_answers_are_the_scalar_ones(name, tol):
    # the asymptotic method is tried first at every point of a path, as
    # in eval_U, so a carried Taylor step never takes its place: both
    # answer by it at the same points, with the same bits
    a, box = PATH_BOXES[name]
    zs = _snake(box)
    for z, v in zip(zs, eval_U_path(a, zs, tol)):
        s = eval_U(a, z, tol)
        if "asymptotic" in (v.method, s.method):
            assert repr(v) == repr(s), (a, z, tol)


@pytest.mark.parametrize("name", PATH_BOXES)
def test_grid_walk_answers_within_their_estimates(name):
    # phase-grid's walk over the same boxes at its tol: the end columns
    # upward, then each row from the end where |U| is smaller; every 7th
    # answer is within its estimate of pcfu, and the estimate within tol
    a, (lo_x, hi_x, lo_y, hi_y) = PATH_BOXES[name]
    xs = [lo_x + (hi_x - lo_x) * j / 11 for j in range(12)]
    ys = [lo_y + (hi_y - lo_y) * i / 11 for i in range(12)]
    rows = pcf_eval._eval_grid(a, xs, ys, 1e-6)
    answers = [(complex(x, y), v) for y, row in zip(ys, rows)
               for x, v in zip(xs, row)]
    assert len(answers) == 144
    for z, v in answers[::7]:
        ref, _ = oracles.mp_U_pair(a, z, exponent=v.exponent)
        assert v.est_accuracy <= 1e-6
        assert abs(v.value - ref) <= v.est_accuracy * abs(ref), (a, z)


@pytest.mark.parametrize("name,tol", [("aneg", 1e-6), ("straddle", 1e-6),
                                      ("axis", 1e-6), ("axis", 1e-11)])
def test_path_check_fails_with_additive_carried_error(monkeypatch, name,
                                                      tol):
    # after a re-seed the runs start with the error of the answer they
    # start from; adding it to the estimate instead of amplifying it by
    # the runs' growth lets the estimate pass wrong answers, which the
    # check above must see, at more than one point
    def additive(runs, ulps, z):
        (w1, d1, x1), (w2, d2, x2) = runs
        f = math.exp(x1 - x2)
        diff = max(abs(w1 * f - w2) / abs(w2), abs(d1 * f - d2) / abs(d2))
        return 100.0 * diff + ulps * pcf_eval._EPS

    relative = pcf_eval._SCALES["relative"]
    monkeypatch.setitem(pcf_eval._SCALES, "relative",
                        relative._replace(estimate=additive))
    assert len(_path_failures(name, tol)) >= 2


@pytest.mark.parametrize("a,z0,z1", [(8.3, 12.0, 11.9),
                                     (8.3, 12.0 + 1j, 11.9 + 1j),
                                     (20.3, 15.0, 14.8), (2.5, 9.0, 8.8)])
def test_carried_step_from_a_restart_bounds_its_error(a, z0, z1):
    # the taylor runs restart from the answer at z0 (|U| ~ 1e-26 at a =
    # 8.3, z = 12), whose data they start from scaled to |U| + |U'| = 1:
    # unscaled, the first step's series ended after a few terms, 1e-3 off;
    # at (20.3, 15) the scale's log, about -111, rounds by up to 1e-14 of
    # U, which the estimate must count
    ev = Evaluator(a)
    assert ev(a, z0).method != "taylor"
    v, _ = ev._carried(complex(z1), math.inf)
    u, du = oracles.mp_U_pair(a, z1, exponent=v.exponent)
    assert v.est_accuracy <= 1e-12
    assert abs(v.value - u) <= v.est_accuracy * abs(u)
    assert abs(v.derivative - du) <= v.est_accuracy * abs(du)


def test_recessive_path_stays_mostly_in_double_precision(monkeypatch):
    # restarts from asymptotic and series answers step on in doubles
    # through the recessive box, where mpmath answered 88 of its points
    # when the restarts were not scaled
    calls = []
    mpmath_stage = pcf_eval._eval_series_mp

    def counting(a, z, tol):
        calls.append(z)
        return mpmath_stage(a, z, tol)

    monkeypatch.setattr(pcf_eval, "_eval_series_mp", counting)
    a, box = PATH_BOXES["recessive"]
    eval_U_path(a, _snake(box), 1e-11)
    assert len(calls) <= 40


def _scalar_selector(a, z, tol):
    """eval_U's region map for one point, stage by stage."""
    if z != 0.0:
        cut = max(1e-13, tol * 1e-2)
        v = pcf_eval._eval_asymptotic(a, z, cut)
        if v is not None and v.est_accuracy <= tol:
            return v
    v = pcf_eval._eval_series_double(a, z)
    if v.est_accuracy <= tol:
        return v
    v = _from_origin(a, z)
    if v is not None and v.est_accuracy <= tol:
        return v
    return pcf_eval._eval_series_mp(a, z, tol)


def test_one_point_path_is_the_scalar_selector_bit_for_bit():
    methods = set()
    for a in (-30.5, -6.2, 0.3, 8.3, 20.3):
        for z in (0j, 0.7 + 0.2j, 2.0 - 1.5j, -3.0 + 4.0j, 3.5 + 1.4j,
                  5.0 + 0.5j, -7.0 + 9.0j, 12.0 - 3.0j, -25.0 + 20.0j):
            for tol in (1e-11, 1e-6):
                ref = _scalar_selector(a, z, tol)
                for v in (eval_U_path(a, [z], tol)[0], eval_U(a, z, tol)):
                    assert repr(v) == repr(ref), (a, z, tol)
                methods.add(ref.method)
    assert methods == {"asymptotic", "series", "taylor"}


@pytest.mark.parametrize("a,z0,z1,n,w,v", [
    (-30.5, 0.0, 2.3, 3, 0.7, -0.2), (8.3, 1.5, -4.0, 7, 1e-3, 0.9),
    (-400.3, 0.5, 1.0, 2, -0.4, 0.6), (0.3, 3.0, 3.01, 1, 0.5, -0.5),
    (20.3, -6.0, 6.0, 40, 1.0, 0.0)])
def test_real_taylor_run_in_floats_is_the_complex_run(a, z0, z1, n, w, v):
    # float operations round as complex ones with zero imaginary parts,
    # the rounding bound of a one-run hop's terms included
    for terms in (None, pcf_eval._plan(a, z0, z1)[2]):
        f = pcf_eval._taylor_run(a, z0, z1, n, w, v, terms)
        c = pcf_eval._taylor_run(a, complex(z0), complex(z1), n,
                                 complex(w), complex(v), terms)
        assert type(f[0]) is float and type(f[1]) is float
        assert repr((complex(f[0]), complex(f[1])) + f[2:]) == repr(c)


def test_answers_are_complex_where_real_runs_hand_back_floats(monkeypatch):
    # a real run hands its end data back as floats, which the carry and
    # the estimates take as they are; _answer alone makes the answer
    # complex.  Along hermite_zeros(40)'s chain (one-run hops) and
    # eval_U_path's walk over the axis box (pairs along the real axis),
    # every answer's value and derivative is complex, and so is every
    # zero t_iterate returns
    answers = []
    zeros = []
    ends = set()
    call = pcf_eval.Evaluator.__call__
    run = pcf_eval._run
    t_iter = refine.t_iterate

    def recording(self, a, z):
        v = call(self, a, z)
        answers.append(v)
        return v

    def typed_run(*args):
        r = run(*args)
        if r is not None:
            ends.add((type(r[0]), type(r[1])))
        return r

    def refining(*args, **kwargs):
        rz = t_iter(*args, **kwargs)
        zeros.append(rz)
        return rz

    monkeypatch.setattr(pcf_eval.Evaluator, "__call__", recording)
    monkeypatch.setattr(pcf_eval, "_run", typed_run)
    monkeypatch.setattr(refine, "t_iterate", refining)
    assert len(hermite_zeros(40)) == 40
    assert len(zeros) == 20
    a, box = PATH_BOXES["axis"]
    zs = _snake(box)
    assert sum(z.imag == 0.0 for z in zs) >= 10
    assert len(eval_U_path(a, zs)) == len(zs)
    assert ends == {(float, float), (complex, complex)}
    assert len(answers) > len(zs) + len(zeros)
    for v in answers:
        assert type(v.value) is complex and type(v.derivative) is complex
    for rz in zeros:
        assert type(rz.value) is complex


@settings(max_examples=300, deadline=None)
@given(a=st.floats(-1000.0, 1000.0), z0=st.complex_numbers(max_magnitude=200),
       z1=st.complex_numbers(max_magnitude=200), j=st.floats(0.0, 1.0),
       rho=st.floats(0.0, 1.0), theta=st.floats(0.0, 2.0 * math.pi))
def test_coefficient_bound_holds_on_every_step_disc(a, z0, z1, j, rho, theta):
    # |q(t)| = |t^2/4 + a| at a point of the path and at a point of the
    # disc of radius L = |z1 - z0| about it, which holds every step's disc
    # whatever the step count; the bound is never above |a| +
    # max(|z0|, |z1|)^2/4, so no step count grows
    plan = pcf_eval._plan(a, z0, z1)
    assume(plan is not None)  # an empty path
    q = plan[3]
    L = abs(z1 - z0)
    # the pair's plan: the same step count, length and bound, no terms
    assert pcf_eval._plan(a, z0, z1, False) == plan[:2] + (None, q)
    on_path = z0 + j * (z1 - z0)
    near = on_path + rho * L * cmath.exp(1j * theta)
    slack = 1e-12 * (abs(a) + (abs(z0) + 2.0 * L) ** 2)
    assert abs(on_path ** 2 / 4.0 + a) <= q + slack
    second = abs(z0 * z0 / 4.0 + a) + (abs(z0) + L) * L
    assert abs(near ** 2 / 4.0 + a) <= second + slack
    assert q <= abs(a) + max(abs(z0), abs(z1)) ** 2 / 4.0


def test_hermite_chain_takes_few_taylor_steps(monkeypatch):
    # the steps are sized by the coefficient next to the path: between
    # the real zeros inside the turning points |q| = |a| - x^2/4 is far
    # below |a| + x^2/4, and a pair of runs took (2, 3) or (3, 5) steps
    # where (1, 2) do; 514 steps for the 128 zeros of H_256 before, and
    # 388 while each real hop took a pair of runs, where one run of the
    # pair's shorter count, mostly one step, now takes 134
    steps = []
    run = pcf_eval._taylor_run

    def counting(a, z0, z1, n, w, v, terms=None):
        steps.append(n)
        return run(a, z0, z1, n, w, v, terms)

    monkeypatch.setattr(pcf_eval, "_taylor_run", counting)
    x = hermite_zeros(256)
    assert np.max(np.abs(x - oracles.hermite_nodes(256))) < 1e-10
    assert sum(steps) <= 1.1 * 128


def _taylor_run_inputs(rng, real):
    """(a, z0, z1, n, w, v) whose step reach |h| sqrt(|a| + |z0|^2/4) is
    log-uniform in [1e-3, 1e4]: the series of a step ends by its term
    size below a reach of about 65, at the term cap above, and overflows
    (None) from about 2 600."""
    def num(scale):
        x = rng.uniform(-scale, scale)
        return x if real else complex(x, rng.uniform(-scale, scale))

    a = rng.uniform(-500.0, 500.0)
    z0, n = num(30.0), rng.randint(1, 40)
    reach = 10.0 ** rng.uniform(-3.0, 4.0)
    h = reach / math.sqrt(abs(a) + abs(z0) ** 2 / 4.0)
    if not real:
        h *= cmath.exp(1j * rng.uniform(-math.pi, math.pi))
    elif rng.random() < 0.5:
        h = -h
    return a, z0, z0 + n * h, n, num(1.0), num(1.0)


@pytest.mark.parametrize("real", [True, False])
def test_taylor_run_is_its_loop_form_bit_for_bit(real):
    rng = random.Random(23)
    cases = [_taylor_run_inputs(rng, real) for _ in range(400)]
    one = 1.0 if real else 1.0 + 0.0j
    cases += [(1e4, 0.0 * one, one, 1, one, 0.0 * one),  # the term cap
              (-1e8, 0.0 * one, one, 1, one, 0.0 * one),  # overflow
              (8.3, 0.0 * one, one, 3, math.nan * one, one)]  # NaN data
    overflowed = 0
    for args in cases:
        r = pcf_eval._taylor_run(*args)
        assert repr(r) == repr(oracles.taylor_run_loop(*args)), args
        overflowed += r is None
        # with the rounding bound of a one-run hop (a step of reach 4,
        # _term_bound)
        terms = (math.cosh(4.0), math.sinh(4.0) / 4.0,
                 4.0 * math.sinh(4.0), math.cosh(4.0))
        r = pcf_eval._taylor_run(*args, terms)
        assert repr(r) == repr(oracles.taylor_run_loop(*args, terms)), args
    assert 10 <= overflowed < 100


def test_asym_pair_is_its_loop_form_bit_for_bit():
    rng = random.Random(23)
    inf, nan = math.inf, math.nan
    cases = [(-0.5, complex(inf, 0.0)), (nan, 0.01 + 0j), (2.0, nan + 0j),
             (8.3, complex(0.0, inf)), (-6.2, 0j), (1e300, 1e-300 + 0j)]
    for _ in range(2000):
        z = cmath.rect(10.0 ** rng.uniform(-0.5, 2.0),
                       rng.uniform(-math.pi, math.pi))
        a = rng.uniform(-60.0, 60.0)
        cases.append((a, 1.0 / (2.0 * z * z)))
    small = 0
    for a, z2inv in cases:
        r = pcf_eval.asym_pair(a, z2inv)
        assert repr(r) == repr(oracles.asym_pair_loop(a, z2inv)), (a, z2inv)
        small += r[2] < 1e-18
    # both exits are taken: terms below 1e-18, and the divergent tail
    assert 100 <= small <= len(cases) - 100, small


def test_hermite_chain_steps_in_floats(monkeypatch):
    calls = []
    run = pcf_eval._taylor_run

    def recording(a, z0, z1, n, w, v, terms=None):
        calls.append((a, z0, z1, w, v))
        return run(a, z0, z1, n, w, v, terms)

    monkeypatch.setattr(pcf_eval, "_taylor_run", recording)
    hermite_zeros(50)
    assert calls
    assert all(type(x) is float for args in calls for x in args)


def test_series_estimate_bounds_its_error():
    # at a = 8.3 the terms of the Kummer series for z = 3.5 sum to 6.6
    # times the largest one, and an estimate from the largest term alone
    # was up to 9 times below the error at these two points; then 100
    # seeded points with |z| <= 7
    rng = random.Random(7)
    points = [(8.3, 3.5), (8.3, 3.5 + 1.364j)]
    points += [(rng.uniform(-30.0, 30.0),
                cmath.rect(7.0 * math.sqrt(rng.random()),
                           rng.uniform(-math.pi, math.pi)))
               for _ in range(100)]
    bounded = 0
    for a, z in points:
        v = pcf_eval._eval_series_double(a, z)
        if v.est_accuracy == math.inf:
            continue
        bounded += 1
        u, _ = oracles.mp_U_pair(a, z, exponent=v.exponent)
        assert abs(v.value - u) <= v.est_accuracy * abs(u), (a, z)
    assert bounded >= 70


def test_asymptotic_estimate_bounds_its_error():
    # the dominant series weighs |K| = sqrt(2 pi)/|Gamma(1/2 + a)| ~ 1e9
    # at a ~ -13, and the exponent rounds by about eps |z|^2/4: at the
    # first point an estimate without them was 2.1e-16 for an error of
    # 3.9e-9.  Then 200 seeded points, a quarter of them within 0.1 of
    # |arg z| = pi, cut as eval_U cuts at tol 1e-6.  U' is the termwise
    # derivative of the same expansion: its estimate bounds its error too
    rng = random.Random(11)
    points = [(-12.948, complex(-10.637846410049079, -1.1441818552648004))]
    for k in range(200):
        th = rng.uniform(-math.pi, math.pi)
        if k % 4 == 0:
            th = math.copysign(math.pi - rng.uniform(0.0, 0.1), th)
        points.append((rng.uniform(-40.0, 40.0),
                       cmath.rect(rng.uniform(5.0, 30.0), th)))
    answered = 0
    for a, z in points:
        v = pcf_eval._eval_asymptotic(a, z, 1e-8)
        if v is None:
            continue
        answered += 1
        u, du = oracles.mp_U_pair(a, z, exponent=v.exponent)
        assert abs(v.value - u) <= v.est_accuracy * abs(u), (a, z)
        assert abs(v.derivative - du) <= v.est_accuracy * abs(du), (a, z)
    assert answered >= 90


def test_asymptotic_declines_in_closed_form_only_where_the_sums_do():
    # the closed-form test may decline only where asym_pair, at a or at
    # a + 1, returns a minterm above cut: Hermite-case a, a past the range
    # of log Gamma, and |a| <= 1e3, at |z| from 1e-3 to 1e154
    rng = random.Random(26)
    declined = summed = 0
    for k in range(10000):
        r = rng.random()
        if r < 0.15:
            a = -0.5 - rng.randint(0, 60)
        elif r < 0.2:
            a = rng.choice([6e305, -6e305])
        else:
            a = rng.uniform(-10.0 ** rng.uniform(-1.0, 3.0),
                            10.0 ** rng.uniform(-1.0, 3.0))
        top = 3.0 if k % 10 else 154.0
        z = cmath.rect(10.0 ** rng.uniform(-3.0, top),
                       rng.uniform(-math.pi, math.pi))
        cut = rng.choice([1e-15, 1e-13, 1e-8])
        z2inv = 1.0 / (2.0 * z * z)
        if pcf_eval._asym_declines(a, z, cut):
            declined += 1
            assert (pcf_eval.asym_pair(a, z2inv)[2] > cut
                    or pcf_eval.asym_pair(a + 1.0, z2inv)[2] > cut), \
                (a, z, cut)
        else:
            summed += 1
    assert declined >= 3000 and summed >= 3000


@pytest.mark.parametrize("z", [71 + 39j, -71 + 39j, -71 - 39j, 71 - 39j,
                               150 - 100j, -150 + 100j])
def test_a_minus_half_far_out_is_the_gaussian(z):
    # U(-1/2, z) = e^{-z^2/4} and U' = -z/2 U; beyond |arg z| = pi/2 the
    # recurrence's U(1/2, z) is e^{|z^2|/2}-fold larger, weighed by 0
    v = eval_U(-0.5, z)
    g = cmath.exp(v.exponent + z * z / 4.0)  # e^exponent / e^{-z^2/4}
    assert abs(v.value * g - 1.0) <= v.est_accuracy + 1e-15
    assert abs(v.derivative * g + z / 2.0) <= \
        (v.est_accuracy + 1e-15) * abs(z / 2.0)


@pytest.mark.parametrize("a,z", [(300.7, 6.16 - 0.11j), (300.7, 6.16),
                                 (300.7, 3.0), (1000.3, 2 + 1j),
                                 (2000.3, 2 + 1j), (3000.3, 2 + 1j)])
def test_large_a_mpmath_answer_is_within_its_estimate(a, z):
    # at z = 6.16 the terms that U(300.7, 0) and U'(300.7, 0) weigh cancel
    # by 93 digits: rounds below that cancel to noise, once to 0, which
    # two rounds took for agreement, and U (1e-355) leaves the double range;
    # at 2000.3 and 3000.3 (z = 2 + i) three rounds cancel to noise, which
    # leave the four compared rounds their budget
    v = eval_U(a, z)
    u, du = oracles.mp_U_pair(a, z, dps=400, exponent=v.exponent)
    assert v.exponent < -700.0
    assert abs(v.value - u) <= v.est_accuracy * abs(u)
    assert abs(v.derivative - du) <= v.est_accuracy * abs(du)


def test_rgamma_against_mpmath():
    rng = random.Random(17)
    xs = [rng.uniform(-170.0, 171.6) for _ in range(2000)]
    xs += [k + 0.5 for k in range(-170, 171)] + [-169.999, 1e-5, 171.6]
    with mp.workdps(30):
        for x in xs:
            ref = mp.rgamma(x)
            assert abs(pcf_eval._rgamma(x) - ref) <= 1e-15 * abs(ref), x
    for pole in (0.0, -1.0, -7.0, -170.0, -1e300):
        assert pcf_eval._rgamma(pole) == 0.0
    assert pcf_eval._rgamma(200.0) == 0.0
    assert pcf_eval._rgamma(-180.5) == -math.inf


def test_mpmath_rounds_reach_the_cancellation_at_large_w():
    # the Maclaurin series of U(0.5, 40) cancels about 1.5 |w| / ln 10 ~
    # 521 digits, past the start (332) plus three rounds of 15 digits
    a, z = 0.5, 40.0
    v = eval_U(a, z, tol=1e-15)
    ref, _ = oracles.mp_U_pair(a, z, dps=60, exponent=v.exponent)
    assert abs(v.value - ref) <= 1e-15 * abs(ref)


def test_mpmath_stage_raises_when_its_rounds_disagree():
    # at a = 3e5 + 0.3 the terms that U(a, 0) and U'(a, 0) weigh at z =
    # 2 + i cancel by several hundred digits: every round up to 640 digits
    # cancels to noise, and the next would pass _MP_MAX_DPS; no answer is
    # returned (at a = 3000.3, a 95-digit cancellation, the round of 175
    # digits agrees with the one of 160)
    with pytest.raises(ConvergenceError, match="more than 1000 digits"):
        eval_U(3e5 + 0.3, 2 + 1j)


@pytest.mark.parametrize("value", [complex(math.nan, math.nan),
                                   complex(math.inf, 0.0),
                                   complex(1.5e308, 1.5e308)])
def test_series_stage_declines_a_non_finite_or_overflowing_answer(
        monkeypatch, value):
    # at a = -500.3 the double series overflows next to the first complex
    # zero, z = -45.08 + 0.63i: its answer is not finite, or too large for
    # abs(); the chain entry's stage declines it instead of raising
    monkeypatch.setattr(pcf_eval, "_eval_series_double",
                        lambda a, z: pcf_eval.PcfValue(value, value, "series",
                                                       1e-16))
    ev = Evaluator(-500.3, STEP_TOL, "chain")
    assert ev._series(-45.08 + 0.63j, 1e-3) is None


@pytest.mark.parametrize("z", [0j, 1e-170, 1e-170j, (1 + 1j) * 1e-162])
def test_tiny_z_is_within_its_estimate(z):
    # below |z| ~ 1e-162 z z underflows to 0, by which the asymptotic sums
    # would divide: their stage declines there, as at z = 0
    v = eval_U(8.3, z)
    u, du = oracles.mp_U_pair(8.3, z, exponent=v.exponent)
    assert abs(v.value - u) <= v.est_accuracy * abs(u)
    assert abs(v.derivative - du) <= v.est_accuracy * abs(du)
