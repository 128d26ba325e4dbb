import cmath
import math
import time
import warnings

import mpmath as mp
import numpy as np
import pytest

from pcfzeros import pcf_eval
from pcfzeros.errors import DomainError, PcfzerosError
from pcfzeros.pcf_eval import (TaylorWalker, eval_U, eval_U_near_zero,
                               eval_U_prime, eval_U_quadrature, metrics,
                               residual_eq319, winding_number)
from pcfzeros.refine import STEP_TOL, t_iterate
from pcfzeros.zeros import zeros_aneg_complex, zeros_apos

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


def test_taylor_estimate_bounds_error():
    # 7 a x 9 arg z x 6 |z|, spanning the recessive sector where the
    # outward integration loses accuracy and must say so
    accepted = 0
    for a in (-20.5, -20.3, -6.2, 0.3, 2.5, 8.3, 20.3):
        for i in range(9):
            for j in range(6):
                z = cmath.rect(0.5 + 13.5 * j / 5, 0.1 + 2.9 * i / 8)
                v = pcf_eval._eval_taylor(a, z)
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
        v = pcf_eval._eval_taylor(a, z)
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
    # 1/Gamma(0.75 + a/2) overflows at a = -400.3: the double Maclaurin
    # series declines before any arithmetic on the infinite origin data
    a, z = -400.3, 10j
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert pcf_eval._eval_series_double(a, z).est_accuracy == math.inf
        v = eval_U(a, z)
        w = eval_U_near_zero(a, z)
    assert v.method == w.method == "series"
    assert cmath.isfinite(v.value) and cmath.isfinite(w.value)


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
    walk = TaylorWalker(a, STEP_TOL)
    for z in points:
        v = walk(a, z)
        assert v.method == "taylor", z
        ref, dref = oracles.mp_U_pair(a, z, exponent=v.exponent)
        scale = max(abs(ref), abs(dref) / (1.0 + abs(z)))
        assert abs(v.value - ref) <= v.est_accuracy * scale, z
        assert abs(v.derivative - dref) <= 1e-12 * abs(dref), z
