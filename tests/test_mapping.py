import cmath
import math

import mpmath as mp
import numpy as np
import pytest

import oracles
from pcfzeros import genairy, mapping
from pcfzeros.airy import real_airy_zero
from pcfzeros.errors import DomainError
from pcfzeros.mapping import ZETA_AT_0, invert_zeta, zeta


def test_zeta_turning_point():
    assert zeta(1.0) == 0.0


def test_zeta_at_zero():
    assert abs(zeta(0.0) - ZETA_AT_0) < 1e-14
    assert ZETA_AT_0 == pytest.approx(-0.25 * (3 * math.pi) ** (2 / 3))


def test_zeta_real_on_real_section():
    for x in (0.2, 0.7, 1.3, 5.0, 40.0):
        assert zeta(x).imag == 0.0
    assert zeta(0.5).real < 0 < zeta(1.5).real


def test_zeta_branch_continuity_on_unit_circle():
    # the |zhat| >= 1 and < 1 recasts must agree across |zhat| = 1
    for k in range(20):
        th = -0.45 * math.pi + 0.9 * math.pi * k / 19.0
        zin = (1.0 - 1e-12) * cmath.exp(1j * th)
        zout = (1.0 + 1e-12) * cmath.exp(1j * th)
        assert abs(zeta(zin) - zeta(zout)) <= 1e-10 * (1 + abs(zeta(zout)))


def test_zeta_cut_rejected():
    with pytest.raises(DomainError):
        zeta(-2.0)


def test_local_expansion_near_turning_point():
    # zeta ~ 2^{1/3}(zhat-1) to first order
    for e in (1e-3, 1e-3j, -1e-3):
        r = zeta(1.0 + e) / (2.0 ** (1.0 / 3.0) * e)
        assert abs(r - 1.0) < 0.05


def test_sigma_turning_point_limit():
    # sigma = (zeta/(zhat^2-1))^{1/2} -> 2^{-1/3} as zhat -> 1
    c = 2.0 ** (1.0 / 3.0)
    assert mapping._sigma(1.0 + 0.0j, 0.0j) == pytest.approx(1.0 / c)
    zh = 1.0 + 1e-7 + 0.0j
    assert abs(mapping._sigma(zh, zeta(zh)) - 1.0 / c) < 1e-6


def test_invert_zeta_round_trip():
    rng = np.random.default_rng(3)
    n = 0
    while n < 200:
        r = math.exp(rng.uniform(math.log(0.1), math.log(50.0)))
        th = rng.uniform(-0.49 * math.pi, 0.49 * math.pi)
        zh = r * cmath.exp(1j * th)
        zt = zeta(zh)
        back = invert_zeta(zt)
        assert abs(back - zh) <= 1e-11 * (1.0 + abs(zh))
        n += 1


@pytest.mark.parametrize("delta", [10.0 ** -k for k in range(16)] + [0.2])
def test_map_against_mpmath_through_the_turning_point(delta):
    # zhat = 1 + delta e^{i pi j/4}: zeta and sigma are Taylor sums in
    # doubles within TP_RADIUS of zhat = 1 and closed forms outside, sigma
    # from (zhat - 1)(zhat + 1); both against the oracle's P(d) = zeta(1 +
    # d)/d at 50 digits
    for j in range(8):
        zh = 1.0 + delta * cmath.exp(1j * math.pi * j / 4.0)
        with mp.workdps(50):
            d = mp.mpc(zh - 1.0)
            p = oracles.mp_zeta_over_d(d)
            zt_ref, sg_ref = complex(d * p), complex(mp.sqrt(p / (2 + d)))
        zt = zeta(zh)
        assert abs(zt - zt_ref) <= 1e-14 * abs(zt_ref), j
        assert abs(mapping._sigma(zh, zt) - sg_ref) <= 1e-14 * abs(sg_ref), j


def test_invert_zeta_round_trip_near_turning_point():
    # within TP_RADIUS zeta and sigma are Taylor sums in doubles; the
    # Newton steps take sigma from _sigma all the same
    for k in range(16):
        for j in range(8):
            zh = 1.0 + 10.0 ** -k * cmath.exp(1j * math.pi * j / 4.0)
            back = invert_zeta(zeta(zh))
            assert abs(back - zh) <= 1e-14 * (1.0 + abs(zh)), (k, j)


def test_invert_zeta_anchors():
    assert abs(invert_zeta(0.0) - 1.0) < 1e-12
    assert abs(invert_zeta(ZETA_AT_0)) < 1e-10


def test_invert_zeta_negative_real_targets():
    for frac in (0.1, 0.5, 0.9, 0.999):
        zt = ZETA_AT_0 * frac
        zh = invert_zeta(zt)
        assert zh.imag == 0.0
        assert 0.0 <= zh.real <= 1.0
        assert abs(zeta(zh) - zt) < 1e-12


def test_invert_zeta_real_section_start():
    # real targets below -1/2 start from the closed form phi - sin(phi) =
    # (8/3)(-zeta)^{3/2}.  zeta increases on [0, 1), so zhat increases
    # with the target; the targets just below zeta(0), which the domain
    # check still accepts, map to zhat just below 0
    targets = np.concatenate(([ZETA_AT_0 - 5e-10, ZETA_AT_0],
                              np.linspace(ZETA_AT_0, -0.5 - 1e-12, 199)[1:]))
    prev = -math.inf
    for zt in targets:
        zh = invert_zeta(zt)
        assert zh.imag == 0.0
        assert (-1e-9 < zh.real < 0.0) if zt < ZETA_AT_0 \
            else (0.0 <= zh.real < 1.0)
        assert zh.real > prev
        prev = zh.real
        assert abs(zeta(zh) - zt) <= 1e-14 * (1.0 + abs(zt))


def test_invert_zeta_real_section_costs_at_most_two_zeta_calls(monkeypatch):
    # the Hermite targets: a_m u^{-2/3} at u = 2n + 1, the seeds of the
    # positive zeros of U(-u/2, .)
    calls = []
    zeta_fn = mapping._zeta

    def counted(zh):
        calls.append(zh)
        return zeta_fn(zh)

    monkeypatch.setattr(mapping, "_zeta", counted)
    inversions = 0
    for n in (20, 256, 1000):
        u = 2.0 * n + 1.0
        for m in range(1, n // 2 + 1):
            zt = real_airy_zero(m) * u ** (-2.0 / 3.0)
            if zt >= -0.5:
                continue
            calls.clear()
            invert_zeta(zt)
            assert 1 <= len(calls) <= 2, (n, m, len(calls))
            inversions += 1
    assert inversions > 300


def test_real_targets_are_inverted_in_floats_against_mpmath():
    # a real target is inverted in floats, on the real section.  At or
    # below -1/2 the closed-form start is accurate to rounding; elsewhere
    # the Newton loop accepts once |zeta(zhat) - target| <= 1e-14 (1 +
    # |target|), here judged by the oracle's zeta, which adds its rounding
    rng = np.random.default_rng(29)
    targets = np.concatenate(([ZETA_AT_0, -0.5, -1e-3, 1e-3, 10.0],
                              rng.uniform(ZETA_AT_0, 0.0, 60),
                              rng.uniform(0.0, 10.0, 40)))
    for zt in targets.tolist():
        zh = mapping._invert(zt, 1e-14, 60)
        assert type(zh) is float and invert_zeta(zt) == complex(zh)
        ref = oracles.mp_invert_zeta_real(zt)
        if zt <= -0.5:
            assert abs(zh - ref) <= 4e-16, zt
        else:
            with mp.workdps(oracles.DPS):
                back = oracles.mp_zeta_real(zh)
            assert abs(back - zt) <= 1.04e-14 * (1.0 + abs(zt)), zt


def test_invert_zeta_below_image_rejected():
    with pytest.raises(DomainError):
        invert_zeta(ZETA_AT_0 - 0.2)


@pytest.mark.parametrize("value,shown", [
    (math.nan, "nan is not finite"), (math.inf, "inf is not finite"),
    (-math.inf, "-inf is not finite"),
    (complex(1.0, math.nan), "(1+nanj) is not finite"),
    (complex(-math.inf, 0.0), "(-inf+0j) is not finite"),
    ("1", "'1' is not a number"), ("x", "'x' is not a number"),
    (None, "None is not a number"), ([1.0], "[1.0] is not a number")])
@pytest.mark.parametrize("fn,name", [(zeta, "zh"), (invert_zeta, "zt_target")],
                         ids=["zeta", "invert_zeta"])
def test_argument_that_is_not_a_finite_number_is_a_domain_error(fn, name,
                                                                value, shown):
    # as require_finite words it: invert_zeta took "1" as 1, raised a bare
    # ValueError for "x" and TypeError for None, and ran 60 Newton steps
    # from NaN into a ConvergenceError; zeta returned nan+0j for NaN and inf
    with pytest.raises(DomainError) as info:
        fn(value)
    assert str(info.value) == f"{name} = {shown}"


def test_real_targets_of_other_types_are_the_float_targets():
    # a float is solved without going through complex; an int, a numpy
    # float and a complex with a zero imaginary part take the complex
    # path to the same bits, and a finite target too large for its 3/2
    # power keeps its own DomainError
    for zt in (-1.0, -0.3, 2.0, 7.5):
        expect = invert_zeta(zt)
        for other in (np.float64(zt), complex(zt, 0.0)):
            assert repr(invert_zeta(other)) == repr(expect)
    assert repr(invert_zeta(2)) == repr(invert_zeta(2.0))
    with pytest.raises(DomainError, match="3/2 power"):
        invert_zeta(1e300)
    # the closed-form start's caps at pi keep a NaN, as min(nan, pi) does
    assert math.isnan(mapping._real_section_start(math.nan))


def test_invert_zeta_first_quadrant_preserved():
    zt = 5.0 * cmath.exp(1j * math.pi / 3.0)
    zh = invert_zeta(zt)
    assert zh.real > 0 and zh.imag > 0


def test_invert_zeta_large_u_form():
    # for large targets along e^{i pi/3}: zhat ~ sqrt(2 xi) up to log terms
    zt = 40.0 * cmath.exp(1j * math.pi / 3.0)
    xi = (2.0 / 3.0) * zt ** 1.5
    zh = invert_zeta(zt)
    approx = cmath.sqrt(2.0 * xi + 0.5 + cmath.log(2.0 * zh))
    assert abs(zh / approx - 1.0) < 1e-2


def test_large_zhat_start_coefficients_against_the_definition():
    # zhat^2 = 2 xi + 1/2 + ln 2zhat - sum_k _W[k] y^{k+1}, y = 1/zhat^2,
    # is the large-zhat expansion of the definition: at 40 digits what is
    # left is its next term, -(21/5120) y^5; a wrong coefficient would
    # leave a power of y below the fifth
    assert len(mapping._W) == 4
    with mp.workdps(40):
        for r in (20, 40):
            for j in range(-3, 4):
                zh = r * mp.expjpi(mp.mpf(j) / 8)
                y = 1 / zh ** 2
                rest = zh ** 2 - (oracles.mp_two_xi(zh) + mp.mpf(1) / 2
                                  + mp.log(2 * zh)
                                  - sum(c * y ** (k + 1)
                                        for k, c in enumerate(mapping._W)))
                assert abs(rest / (-mp.mpf(21) / 5120 * y ** 5) - 1) < 0.01


def seed_targets(step=1):
    """The zeta targets of every step-th seed at the seed benchmark's
    fixed a: the apos ray at a = 8.3 and 20.3 and the aneg-complex
    family at a = -6.2, m = 1..3000 (test_coeffs uses them too)."""
    ms = range(1, 3001, step)
    out = []
    for a in (8.3, 20.3):
        u = 2.0 * a
        out += [cmath.exp(1j * math.pi / 3.0) * abs(real_airy_zero(m))
                * u ** (-2.0 / 3.0) for m in ms]
    u = 12.4
    out += [genairy.complex_zeros(u, m).value * u ** (-2.0 / 3.0)
            for m in ms]
    return out


def test_invert_zeta_seed_targets_cost_few_zeta_calls(monkeypatch):
    # the large-zhat start is accurate to rounding at most of these
    # targets, so that zeta's Newton mostly only confirms it (2.62 calls a target with the
    # start's leading log term alone)
    calls = []
    zeta_fn = mapping._zeta

    def counted(zh):
        calls.append(zh)
        return zeta_fn(zh)

    monkeypatch.setattr(mapping, "_zeta", counted)
    counts = []
    for zt in seed_targets():
        calls.clear()
        invert_zeta(zt)
        counts.append(len(calls))
    assert sum(counts) / len(counts) <= 1.9
    assert 1 <= min(counts) and max(counts) <= 4


def test_cauchy_riemann_probe():
    h = 1e-6
    for zh in (2.0 + 1.0j, 0.5 + 0.5j, 3.0 - 2.0j):
        dx = (zeta(zh + h) - zeta(zh - h)) / (2 * h)
        dy = (zeta(zh + 1j * h) - zeta(zh - 1j * h)) / (2 * h)
        assert abs(dx - dy / 1j) <= 1e-6 * abs(dx)
