import cmath
import dataclasses
import math
import random
import time
import warnings

import mpmath as mp
import numpy as np
import pytest

from pcfzeros import pcf_eval
from pcfzeros.errors import ConvergenceError, DomainError, PcfzerosError
from pcfzeros.pcf_eval import (Evaluator, eval_U, eval_U_near_zero,
                               eval_U_path, eval_U_prime, eval_U_quadrature,
                               metrics, residual_eq319, winding_number)
from pcfzeros.refine import STEP_TOL, t_iterate
from pcfzeros.zeros import hermite_zeros, zeros_aneg_complex, zeros_apos

import oracles


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
    # double-precision series whose *relative* error is necessarily bad
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


def test_metrics_trivials():
    rec = metrics(1.0 + 2.0j, 1.0 + 2.0j, m=7)
    assert rec.eps1 == 0.0
    assert rec.eps2 == 0.0
    assert rec.m == 7
    rec = metrics(3.0, 3.0000003)
    assert rec.eps2 is None
    assert rec.eps1 == pytest.approx(1e-7, rel=1e-4)
    with pytest.raises(DomainError):
        metrics(1.0, 0.0)


def test_winding_number_certifies_zero():
    z = t_iterate(8.3, zeros_apos(8.3, 2, terms=3).z).value
    assert winding_number(8.3, z, 0.2) == 1
    # no zero inside a small displaced circle
    assert winding_number(8.3, z + 1.0 + 1.0j, 0.2) == 0


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
    # double range, and the selectors fall through to mpmath: 1/Gamma
    # overflows at a = -400.3 and -3000.3 (where 2^(-a/2) would too),
    # U(a,0) itself at -330, and U(a,0), U'(a,0) underflow at 600.3 and
    # 3000.3
    for a, z in [(-400.3, 10j), (-3000.3, 1j), (-330.0, 10j),
                 (600.3, 0.5), (3000.3, 1j)]:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert pcf_eval._eval_series_double(a, z).est_accuracy \
                == math.inf
            v = eval_U(a, z)
            w = eval_U_near_zero(a, z)
        assert v.method == w.method == "series"
        for x in (v, w):
            u, du = oracles.mp_U_pair(a, z, exponent=x.exponent)
            assert abs(x.value - u) <= 1e-12 * abs(u), (a, z)
            assert abs(x.derivative - du) <= 1e-12 * abs(du), (a, z)


def test_evaluator_rejects_an_unknown_scale_and_another_a():
    with pytest.raises(DomainError, match="scale 'absolute'"):
        Evaluator(8.3, scale="absolute")
    ev = Evaluator(8.3, STEP_TOL, "chain")
    with pytest.raises(DomainError, match="asked for a = 8.4"):
        ev(8.4, 1.0 + 6.0j)


def _walker_chain(case):
    """(a, points): positive Hermite nodes of order n in the z of U, or
    the refined zeros m = 1..15 of the complex string of U(a, .)."""
    kind, p = case
    if kind == "hermite":
        nodes = oracles.hermite_nodes(p)
        return -p - 0.5, [math.sqrt(2.0) * x for x in nodes if x > 0.0]
    family = zeros_apos if p > 0 else zeros_aneg_complex
    return p, [t_iterate(p, family(p, m).z).value for m in range(1, 16)]


@pytest.mark.parametrize("case", [("hermite", 100), ("hermite", 225),
                                  ("hermite", 400), ("chain", 8.3),
                                  ("chain", 20.3), ("chain", -6.2)])
def test_walker_estimate_bounds_error(case):
    # U'-scaled error of U within the estimate, U' to 1e-12 relative, and
    # every point answered by the walk, not by its fallback
    a, points = _walker_chain(case)
    walk = Evaluator(a, STEP_TOL, "chain")
    for z in points:
        v = walk(a, z)
        assert v.method == "taylor", z
        ref, dref = oracles.mp_U_pair(a, z, exponent=v.exponent)
        scale = max(abs(ref), abs(dref) / (1.0 + abs(z)))
        assert abs(v.value - ref) <= v.est_accuracy * scale, z
        assert abs(v.derivative - dref) <= 1e-12 * abs(dref), z


def _snake(box, n=12):
    """The n x n grid over box = (re_min, re_max, im_min, im_max), row by
    row with every other row backwards, as CLI phase-grid walks it."""
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


@pytest.mark.parametrize("name,tol", [("recessive", 1e-6), ("axis", 1e-6),
                                      ("axis", 1e-11)])
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
                        dataclasses.replace(relative, estimate=additive))
    assert len(_path_failures(name, tol)) >= 2


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
    # float operations round as complex ones with zero imaginary parts
    f = pcf_eval._taylor_run(a, z0, z1, n, w, v)
    c = pcf_eval._taylor_run(a, complex(z0), complex(z1), n, complex(w),
                             complex(v))
    assert type(f[0]) is float and type(f[1]) is float
    assert repr((complex(f[0]), complex(f[1]), f[2])) == repr(c)


def test_hermite_chain_steps_in_floats(monkeypatch):
    calls = []
    run = pcf_eval._taylor_run

    def recording(a, z0, z1, n, w, v):
        calls.append((a, z0, z1, w, v))
        return run(a, z0, z1, n, w, v)

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
    # |arg z| = pi, cut as eval_U cuts at tol 1e-6
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
        u, _ = oracles.mp_U_pair(a, z, exponent=v.exponent)
        assert abs(v.value - u) <= v.est_accuracy * abs(u), (a, z)
    assert answered >= 90


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


def test_mpmath_stage_raises_when_its_rounds_disagree():
    # at a = 1000.3 the rounds' starting precision ignores the a-dependent
    # cancellation: they never agree to tol, and no answer is returned
    with pytest.raises(ConvergenceError):
        eval_U(1000.3, 2 + 1j)
