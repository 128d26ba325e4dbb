import cmath
import math
import time

import mpmath as mp
import pytest

import oracles
from test_mapping import seed_targets
from pcfzeros import coeffs, mapping
from pcfzeros.coeffs import CorrectionInput, correction1, correction2
from pcfzeros.mapping import TP_RADIUS, _sigma, invert_zeta, zeta


def _inp(zh):
    zh = complex(zh)
    zt = zeta(zh)
    return CorrectionInput(z0=zh, zeta0=zt, sigma0=_sigma(zh, zt))


def test_corrections_conjugation_equivariance():
    zh = 1.3 + 0.8j
    i1 = _inp(zh)
    i2 = CorrectionInput(z0=i1.z0.conjugate(), zeta0=i1.zeta0.conjugate(),
                         sigma0=i1.sigma0.conjugate())
    assert correction1(i2) == pytest.approx(correction1(i1).conjugate())
    assert correction2(i2) == pytest.approx(correction2(i1).conjugate())


def test_corrections_real_on_real_section():
    i = _inp(2.5)
    assert abs(complex(correction1(i)).imag) < 1e-14
    assert abs(complex(correction2(i)).imag) < 1e-12


def _mp_inp(d):
    """CorrectionInput at zhat = 1 + d, at the working precision.  For
    |d| < 3/2 from the oracle's P(d) = zeta(1 + d)/d: zeta = d P, sigma =
    (P/(2 + d))^{1/2}, which nothing cancels in next to d = 0; farther
    out, where that series converges slowly or not at all (|d| >= 2),
    from the closed form oracles.mp_zeta (Re zhat > 0)."""
    d = mp.mpmathify(d)
    if abs(d) >= 1.5:
        zt = oracles.mp_zeta(1 + d)
        return CorrectionInput(z0=1 + d, zeta0=zt,
                               sigma0=mp.sqrt(zt / (d * (2 + d))))
    p = oracles.mp_zeta_over_d(d)
    return CorrectionInput(z0=1 + d, zeta0=d * p, sigma0=mp.sqrt(p / (2 + d)))


def _mp_closed(corr, d, dps):
    """corr's closed form at zhat = 1 + d, at dps digits (TP_RADIUS 0, so
    that no Taylor sum is taken)."""
    with pytest.MonkeyPatch.context() as patch, mp.workdps(dps):
        patch.setattr(coeffs, "TP_RADIUS", 0.0)
        return complex(corr(_mp_inp(d)))


def test_taylor_tables_regenerate():
    # the Taylor coefficients in d = zhat - 1 of P(d) = zeta(1 + d)/d and
    # of the two corrections, by a 64-node trapezoid rule on |d| = 1/2 at
    # 40 digits (the series converge for |d| < 2): each table holds them
    # rounded to doubles, and ends before its first term below 1e-16 of
    # its leading one at |d| = TP_RADIUS
    t0 = time.perf_counter()
    n, r = 64, mp.mpf(1) / 2
    with mp.workdps(40):
        ds = [r * mp.expjpi(mp.mpf(2 * j) / n) for j in range(n)]
        rows = [(inp.zeta0 / d, correction1(inp), correction2(inp))
                for d, inp in ((d, _mp_inp(d)) for d in ds)]
        for f, table in enumerate((mapping._P, coeffs._C1, coeffs._C2)):
            cs = [mp.fsum(row[f] * (d / r) ** -k for d, row in zip(ds, rows))
                  .real / n / r ** k for k in range(len(table) + 1)]
            assert tuple(float(c) for c in cs[:-1]) == table
            size = [abs(c) * TP_RADIUS ** k / abs(cs[0])
                    for k, c in enumerate(cs)]
            assert size[-1] < 1e-16 <= min(size[:-1])
    assert time.perf_counter() - t0 < 2.0


def test_corrections_at_the_turning_point_equal_their_limits():
    # zeta0 = 0 at z0 = 1: correction1 -> 9/280; correction2's limit is
    # its closed form at z0 = 1 + 1e-30, to 1e-30
    i = CorrectionInput(z0=1.0 + 0j, zeta0=0j, sigma0=2.0 ** (-1.0 / 3.0))
    c2 = _mp_closed(correction2, mp.mpf("1e-30"), 250)
    assert abs(correction1(i) - 9.0 / 280.0) <= 1e-15 * 9.0 / 280.0
    assert abs(correction2(i) - c2) <= 1e-15 * abs(c2)


@pytest.mark.parametrize("k", range(16))
def test_corrections_against_mpmath_through_the_turning_point(k):
    # zhat = 1 + 10^-k e^{i pi j/4} in doubles: Taylor sums within
    # TP_RADIUS, closed forms outside, against the closed forms at 50
    # digits beyond those their 1/zeta0^5 cancels
    for j in range(8):
        zh = 1.0 + 10.0 ** -k * cmath.exp(1j * math.pi * j / 4.0)
        inp = _inp(zh)
        for corr, tol in ((correction1, 1e-11), (correction2, 1e-6)):
            ref = _mp_closed(corr, mp.mpc(zh - 1.0), 50 + 6 * k)
            assert abs(corr(inp) - ref) <= tol * abs(ref), (j, corr)


def test_corrections_scale_oracle():
    # oracle: the corrections are exactly what makes the assembled zero
    # expansions converge ~u^{-2} faster per term; checked end to end in
    # test_zeros, here a magnitude sanity bound far from the turning point
    for zh in (2.0 + 1.5j, 3.0 + 0.2j):
        i = _inp(zh)
        assert abs(correction1(i)) < 5.0
        assert abs(correction2(i)) < 50.0


def test_correction2_at_seeds_far_from_the_turning_point():
    # |z0| from 2 to about 13, where no other mpmath comparison reaches:
    # the closed form at 40 digits, from z0 alone
    n = 0
    for zt0 in seed_targets(13):
        z0 = invert_zeta(zt0)
        if abs(z0) <= 2.0:
            continue
        # as zeros._assemble forms it
        inp = CorrectionInput(z0=z0, zeta0=zt0, sigma0=_sigma(z0, zt0))
        with mp.workdps(40):
            zt = oracles.mp_zeta(z0)
        assert abs(zt - zt0) <= 1e-13 * abs(zt0)  # the same branch
        ref = _mp_closed(correction2, mp.mpc(z0 - 1.0), 40)
        assert abs(correction2(inp) - ref) <= 1e-12 * abs(ref), inp
        n += 1
    assert n > 500


def test_correction2_overflow_raises():
    # |z0| ~ 1e50: every power of the closed form leaves the double range,
    # which _assemble takes as an undefined correction
    zh = 1e50 * cmath.exp(0.25j * math.pi)
    inp = _inp(zh)
    with pytest.raises(OverflowError):
        correction2(inp)
