import cmath
import math

import pytest

from pcfzeros.airy import real_airy_zero
from pcfzeros.errors import DomainError, PolynomialCaseError
from pcfzeros.genairy import (_complex_seed, _t_series_tail, _tau_offset,
                              complex_zeros, hermite_order, identity_residual,
                              mu, neg_zeros, refine_zero, sole_positive_zero,
                              t_series, vartheta)
from pcfzeros.pcf_eval import winding_number
from pcfzeros.zeros import count_positive, m_minus, zeros_apos

import oracles


def test_mu_branches_and_periodicity():
    assert mu(1.2) == pytest.approx(2.4)
    assert mu(1.5) == pytest.approx(-1.0)
    assert mu(3.2) == pytest.approx(2.4)
    for u in (0.1, 0.9, 1.4, 1.9):
        assert mu(u) == pytest.approx(mu(u + 2.0), abs=1e-12)
        assert mu(u) == pytest.approx(mu(u + 6.0), abs=1e-12)


# a zero index outside 1..MAX_INDEX or not integral, a u that is not a
# finite number > 0, and a winding centre that is not a finite number,
# each through one check
_BAD_ARGUMENTS = [
    (real_airy_zero, ("1",)), (real_airy_zero, (math.nan,)),
    (real_airy_zero, (2.5,)), (zeros_apos, (8.3, "3")),
    (neg_zeros, (12.4, "2")), (complex_zeros, (12.4, 1j)),
    (neg_zeros, (math.inf, 1)), (neg_zeros, (-1.0, 1)),
    (complex_zeros, (math.nan, 1)), (complex_zeros, ("12.4", 1)),
    (sole_positive_zero, (math.nan,)), (sole_positive_zero, (math.inf,)),
    (sole_positive_zero, (0.0,)), (mu, (math.nan,)), (mu, (0.0,)),
    (mu, (None,)), (winding_number, (8.3, "x", 0.1)),
    (winding_number, (8.3, complex(math.nan, 1.0), 0.1)),
]


@pytest.mark.parametrize("fn, args", _BAD_ARGUMENTS,
                         ids=[f"{fn.__name__}{args!r}"
                              for fn, args in _BAD_ARGUMENTS])
def test_bad_u_index_or_centre_is_a_domain_error(fn, args):
    with pytest.raises(DomainError):
        fn(*args)


def test_mu_range():
    for k in range(200):
        u = 0.01 + k * 0.05
        assert -8.0 / 3.0 < mu(u) <= 8.0 / 3.0


def test_t_series_leading_term():
    for t in (50.0, 500.0, 5000.0):
        val = t_series(t)
        assert abs(val / t ** (2.0 / 3.0) - 1.0) < 1.0 / t


def test_t_series_against_bisected_zeros():
    # u even (mu=0): tau_m = 4m-3, and -T(3 pi tau/8) approximates the
    # m-th negative zero of the combination (here: of Bi).  At tau=5 the
    # truncated 5-term series is only good to ~1.5e-5 (small-argument
    # tail); from tau=9 on it is below 1e-6 as expected.
    u = 2.0
    t = 3.0 * math.pi * 5.0 / 8.0
    asym = -t_series(t).real
    ref = oracles.genairy_zero_bisect(u, asym - 0.2, asym + 0.2)
    err_tau5 = abs(asym - ref)
    assert err_tau5 <= 2e-5
    t = 3.0 * math.pi * 9.0 / 8.0
    asym = -t_series(t).real
    ref = oracles.genairy_zero_bisect(u, asym - 0.2, asym + 0.2)
    assert abs(asym - ref) <= 1e-6 < err_tau5


def test_neg_zeros_ordering_and_crosscheck():
    u = 12.4
    zs = [neg_zeros(u, m).value.real for m in range(1, 11)]
    assert all(b < a for a, b in zip(zs, zs[1:]))
    # cross-check a couple against the series-oracle root-finder
    for m in (2, 5):
        ref = oracles.genairy_zero_bisect(u, zs[m - 1] - 0.2, zs[m - 1] + 0.2)
        assert abs(zs[m - 1] - ref) < 1e-5


def test_neg_zero_m1_is_refined():
    z = neg_zeros(12.4, 1)
    assert z.refined
    assert z.residual < 1e-10
    ref = oracles.genairy_zero_bisect(12.4, z.value.real - 0.1,
                                      z.value.real + 0.1)
    assert abs(z.value.real - ref) < 1e-10


def test_index_shift_values():
    # M+ and M- - 1 enter the tau of the complex zeros
    assert count_positive(12.4) == 3
    assert m_minus(-6.2) - 1 == 2
    assert vartheta(12.4) == 0
    assert mu(12.4) == pytest.approx(0.8)
    assert count_positive(16.6) == 4


def test_vartheta():
    assert vartheta(1.2) == 1
    assert vartheta(12.4) == 0
    assert vartheta(3.3) == 1


def test_sole_positive_zero_exists():
    z = sole_positive_zero(1.2)
    assert z is not None
    assert z.value.real > 0
    assert abs(oracles.genairy_series(1.2, z.value.real)) <= 1e-12


def test_sole_positive_zero_absent():
    assert sole_positive_zero(12.4) is None


def test_sole_positive_zero_at_four_thirds():
    z = sole_positive_zero(4.0 / 3.0)
    assert z is not None
    assert z.value == 0


def test_complex_zeros_argument_trend():
    u = 12.4
    a5 = complex_zeros(u, 5).value
    a50 = complex_zeros(u, 50).value
    tgt = math.pi / 3.0
    assert abs(cmath.phase(a50) - tgt) < abs(cmath.phase(a5) - tgt)
    assert a5.real > 0 and a5.imag > 0


def test_complex_zeros_polynomial_case_rejected():
    with pytest.raises(PolynomialCaseError):
        complex_zeros(13.0, 1)
    # within hermite_order's 1e-12 of 2n + 1; 5 + 1e-10 lies outside it
    # and has complex zeros (test_cli's certification test)
    with pytest.raises(PolynomialCaseError):
        complex_zeros(5.0 + 5e-13, 1)


def test_hermite_order_is_exact_for_huge_u():
    # fmod(u, 2) is exact: from 2^53 on every double is an even integer
    assert hermite_order(2.0 ** 53 - 1.0) == 2 ** 52 - 1
    for u in (2.0 ** 53, 2.0 ** 53 + 2.0, 1e17, 1e300):
        assert hermite_order(u) is None
    assert hermite_order(13.0 + 5e-13) == 6
    assert hermite_order(13.0 + 2e-12) is None


def test_complex_zeros_tau_branch_example():
    # u=16.6: cos(8.3 pi) > 0, m+ = 4
    u = 16.6
    assert math.cos(0.5 * u * math.pi) > 0
    assert count_positive(u) == 4
    z1 = complex_zeros(u, 1, refine=True)
    assert z1.residual <= 1e-12


def test_refine_zero_fixed_point():
    u = 12.4
    z = complex_zeros(u, 3, refine=True).value
    again = refine_zero(u, z)
    assert abs(again.value - z) <= 1e-12 * (1.0 + abs(z))
    assert again.residual <= 1e-12


def test_refinement_shift_decreases_with_m():
    # the raw series itself: complex_zeros refines it wherever its
    # truncation estimate exceeds the refinement's accuracy
    u = 12.4
    offset = _tau_offset(u)
    d1 = abs(complex_zeros(u, 1, refine=True).value
             - _complex_seed(u, 1, offset)[1])
    d50 = abs(complex_zeros(u, 50, refine=True).value
              - _complex_seed(u, 50, offset)[1])
    assert d1 > d50


def test_zero_sets_periodic_in_u():
    for m in (1, 3):
        z1 = complex_zeros(12.4, m, refine=True).value
        z2 = complex_zeros(14.4, m, refine=True).value
        assert abs(z1 - z2) < 1e-12 * (1.0 + abs(z1))
    n1 = neg_zeros(12.4, 2, refine=True).value
    n2 = neg_zeros(14.4, 2, refine=True).value
    assert abs(n1 - n2) < 1e-12


def test_refined_real_zeros_stay_real():
    for m in (1, 2, 5):
        z = neg_zeros(16.6, m, refine=True).value
        assert abs(z.imag) <= 1e-13


def test_asymptotic_error_decreases_in_m():
    for u in (12.4, 16.6):
        errs = []
        for m in range(2, 21):
            # the raw series itself: neg_zeros refines it wherever its
            # truncation estimate exceeds the refinement's accuracy
            raw = -t_series(3.0 * math.pi * (4 * m - 3 + mu(u)) / 8.0).real
            ref = neg_zeros(u, m, refine=True).value.real
            errs.append(abs(raw - ref))
        # monotone decay until the double-precision noise floor (~1e-14)
        assert all(b <= a * 1.01 + 1e-14 for a, b in zip(errs, errs[1:]))


@pytest.mark.parametrize("u", [2.0, 5.5, 9.1, 16.6])
def test_neg_zeros_default_is_accurate_and_tail_bounds_raw_error(u):
    for m in range(2, 11):
        t = 3.0 * math.pi * (4 * m - 3 + mu(u)) / 8.0
        raw = -t_series(t).real
        # bisected to 1e-14: at m = 10 the raw error is ~2e-13, below the
        # oracle's default 1e-12 resolution
        ref = oracles.genairy_zero_bisect(u, raw - 0.2, raw + 0.2, tol=1e-14)
        # the estimate bounds the raw series' error within a factor 2 ...
        assert abs(raw - ref) <= 2.0 * _t_series_tail(t)
        # ... and, as it exceeds the refinement's accuracy, the default
        # refines
        assert abs(neg_zeros(u, m).value.real - ref) <= 1e-11


def test_raw_complex_zeros_flag_reliability_by_series_tail():
    # u = 12.4: the raw m = 1..3 zeros are 2.8e-3, 1.4e-6 and 2.2e-8 off;
    # from m = 14 on the tail estimate passes and the raw value is exact
    u = 12.4
    for m in (1, 2, 3, 14, 15, 16):
        raw = _complex_seed(u, m, _tau_offset(u))[1]
        got = complex_zeros(u, m)
        ref = complex_zeros(u, m, refine=True)
        assert ref.refined
        assert got.refined == (m < 14), m
        if not got.refined:
            assert got.value == raw
            assert abs(raw - ref.value) <= 1e-13 * abs(ref.value)


def test_refine_zero_accepts_its_noise_floor():
    # at u = 186.999 the series seeds of m >= 14 are accurate to rounding;
    # the Newton steps from them wander between 6e-14 and 1.3e-12, above
    # the step test's 1e-14 (1 + |z|), while the residual stays near 1e-14
    u = 186.999
    for m in range(14, 31):
        seed = complex_zeros(u, m)
        z = complex_zeros(u, m, refine=True)
        assert z.refined and z.residual <= 1e-12
        assert abs(z.value - seed.value) <= 1e-12 * abs(seed.value)


@pytest.mark.parametrize("u", [2.0, 5.5, 9.1, 12.4, 16.6])
def test_real_roots_match_brentq_in_few_evaluations(monkeypatch, u):
    # scipy's brentq on the same function and tolerances is the oracle
    from scipy.optimize import brentq
    from pcfzeros import genairy
    calls = []
    pair = genairy._genairy_real_pair

    def counted(u_, x):
        calls.append(x)
        return pair(u_, x)

    monkeypatch.setattr(genairy, "_genairy_real_pair", counted)
    roots = [neg_zeros(u, m, refine=True).value.real for m in range(1, 13)]
    # Newton converges fast where brentq took about 10 evaluations
    assert len(calls) / len(roots) <= 6.0
    tol = genairy._BRENT_XTOL, genairy._BRENT_RTOL
    for x in roots:
        ref = brentq(lambda s: genairy.eval_genairy_real(u, s), x - 0.05,
                     x + 0.05, xtol=tol[0], rtol=tol[1])
        assert abs(x - ref) <= tol[0] + tol[1] * abs(x)


@pytest.mark.parametrize("u", [2.0, 5.5, 9.1, 12.046, 12.138, 12.4, 12.9,
                               13.2, 16.6])
def test_real_roots_against_mpmath_findroot(u):
    # an oracle independent of the package's Airy functions: the root of
    # sin(u pi/2) Ai + cos(u pi/2) Bi found by mpmath at 40 digits from
    # each returned zero, m = 1..12 and the sole positive one
    import mpmath as mp
    from pcfzeros import genairy
    xs = [neg_zeros(u, m, refine=True).value.real for m in range(1, 13)]
    if vartheta(u) == 1:
        xs.append(sole_positive_zero(u).value.real)
    with mp.workdps(40):
        s, c = mp.sinpi(mp.mpf(u) / 2), mp.cospi(mp.mpf(u) / 2)
        for x in xs:
            ref = mp.findroot(lambda t: s * mp.airyai(t) + c * mp.airybi(t),
                              mp.mpf(x))
            tol = genairy._BRENT_XTOL + genairy._BRENT_RTOL * abs(x)
            assert abs(x - ref) <= tol, x


def test_seed_residual_is_computed_when_read(monkeypatch):
    from pcfzeros import genairy
    calls = []
    rotated = genairy.eval_ai_rotated

    def counted(l, z):
        calls.append(z)
        return rotated(l, z)

    monkeypatch.setattr(genairy, "eval_ai_rotated", counted)
    z = complex_zeros(12.4, 40)
    assert not z.refined and not calls
    r = z.residual
    assert len(calls) == 2
    # a property, not cached: a second read evaluates again
    assert z.residual == r == identity_residual(12.4, z.value)
    assert len(calls) == 6
    assert r < 1e-12
