import cmath
import math
import subprocess
import sys

import numpy as np
import pytest

from pcfzeros.airy import MAX_INDEX, real_airy_zero
from pcfzeros.errors import DomainError, PcfzerosError, PolynomialCaseError
from pcfzeros.genairy import complex_zeros, identity_residual, neg_zeros
from pcfzeros.refine import t_iterate
from pcfzeros.zeros import (ZeroApproximation, count_positive, families,
                            hermite_zeros, m_minus, zeros_aneg_complex,
                            zeros_aneg_nonpositive, zeros_aneg_positive,
                            zeros_apos)

import oracles
from oracles import residual_eq319
from test_cli import _child_env


def test_count_positive_values():
    assert count_positive(2.0) == 0
    assert count_positive(5.5) == 1
    assert count_positive(9.1) == 2
    assert count_positive(12.4) == 3
    assert count_positive(20.2) == 5
    # Hermite cases u = 2n+1
    assert count_positive(61.0) == 15
    assert count_positive(7.0) == 1
    assert count_positive(5.0) == 1


def test_count_positive_against_sign_change_oracle():
    for u in (5.5, 9.1, 12.4, 20.2):
        a = -0.5 * u
        hi = math.sqrt(2.0 * u) + 1.0
        xs = [0.05 + (hi - 0.05) * k / 180.0 for k in range(181)]
        n = oracles.sign_change_count(
            a, xs, lambda aa, x: oracles.mp_U(aa, x, dps=25).real)
        assert count_positive(u) == n


def test_m_minus_values():
    assert m_minus(-6.2) == 3
    # vartheta=1 window: u mod 2 in (1, 4/3) counts the index-0 zero
    assert m_minus(-2.55) >= 1


def _sign_changes_left_of_origin(a):
    # the grid ends at +1e-9, so that a zero at x = 0 is counted
    lo = -(2.2 * math.sqrt(-a) + 2.0)
    xs = [lo + (1e-9 - lo) * k / 199.0 for k in range(200)]
    return oracles.sign_change_count(
        a, xs, lambda aa, x: oracles.mp_U(aa, x, dps=30).real)


@pytest.mark.parametrize("a", [-2.7, -2.75, -5.72, -5.75, -5.8, -5.943,
                               -30.7606])
def test_m_minus_against_sign_change_oracle_where_tau1_below_1(a):
    # u mod 2 in [4/3, 2): tau_1 = 1 + mu(u) < 1, where the tau-series of
    # the first negative zero of Ai_u is evaluated near t = 0
    assert m_minus(a) == _sign_changes_left_of_origin(a)


@pytest.mark.parametrize("a", [-1.5, -3.4999, -5.495, -5.5, -7.5,
                               -15.4999])
def test_m_minus_against_sign_change_oracle_next_to_the_origin(a):
    # at and just below u = 4k + 3 one zero lies at or just left of the
    # origin, where its Airy-type zero maps just below zeta(0)
    assert m_minus(a) == _sign_changes_left_of_origin(a)


@pytest.mark.parametrize("u", [1.05, 6.95, 11.0 - 1e-8, 11.000001, 15.0,
                               30.95])
def test_real_zero_count_against_sign_change_oracle(u):
    # DLMF 12.11(i): floor((u + 1)/2) real zeros, n at u = 2n + 1; just
    # above an odd u the new zero comes in from far left of the turning
    # point, hence the wide grid
    a = -0.5 * u
    lo, hi = -(math.sqrt(2.0 * u) + 8.0), math.sqrt(2.0 * u) + 1.0
    xs = sorted([lo + (hi - lo) * k / 400.0 for k in range(401)] + [1e-9])
    n = oracles.sign_change_count(
        a, xs, lambda aa, x: oracles.mp_U(aa, x, dps=30).real)
    assert count_positive(u) + m_minus(a) == n


def test_m_minus_tracks_m_plus_for_large_u():
    assert abs(m_minus(-100.0) - count_positive(200.0)) <= 1


def test_families_structure():
    fams = families(8.3, complex_count=7)
    assert len(fams) == 1 and fams[0].kind == "apos-complex"
    assert fams[0].count == 7 and fams[0].u == pytest.approx(16.6)

    fams = {f.kind: f for f in families(-6.2)}
    assert fams["aneg-positive"].count == 3
    assert fams["aneg-nonpositive"].count == 3
    assert fams["aneg-complex"].count is None
    # vartheta(12.4) = 0: the non-positive zeros start at index 1
    assert fams["aneg-nonpositive"].start == 1

    # u = 1.2 <= 3: no positive zeros; vartheta = 1: index 0 comes first
    fams = {f.kind: f for f in families(-0.6)}
    assert fams["aneg-positive"].count == 0
    assert fams["aneg-nonpositive"].start == 0

    # polynomial case: no complex family
    fams = {f.kind: f for f in families(-6.5)}
    assert fams["aneg-complex"].count == 0

    with pytest.raises(DomainError):
        families(0.0)


@pytest.mark.parametrize("delta", [0.0, 4e-13, -4e-13, 2e-12, -2e-12,
                                   1e-10, -1e-10, 5e-9, -5e-9, 1e-7, -1e-7])
def test_one_hermite_case_next_to_odd_u(delta):
    # u = 2n + 1 + delta: the Hermite case, n real zeros and no complex
    # family, exactly when |delta| < 1e-12; outside it n + [delta > 0]
    # real zeros (DLMF 12.11(i)) and the complex family as requested,
    # which genairy seeds too
    for n in range(41):
        a = -(2 * n + 1 + delta) / 2.0
        hermite = abs(delta) < 1e-12
        fams = {f.kind: f for f in families(a, complex_count=3)}
        assert fams["aneg-complex"].count == (0 if hermite else 3), (n, a)
        assert count_positive(-2.0 * a) + m_minus(a) == \
            n + (delta >= 1e-12), (n, a)
        if hermite:
            with pytest.raises(PolynomialCaseError):
                complex_zeros(-2.0 * a, 1)
        else:
            assert complex_zeros(-2.0 * a, 1).value.imag > 0, (n, a)


def test_apos_zeros_second_quadrant_and_ordering():
    zs = [zeros_apos(8.3, m, terms=3).z for m in range(1, 8)]
    for z in zs:
        assert z.real < 0 < z.imag
    mods = [abs(z) for z in zs]
    assert all(b > a for a, b in zip(mods, mods[1:]))


def test_apos_term_ladder_improvement():
    for m in (1, 3):
        errs = []
        ref = t_iterate(8.3, zeros_apos(8.3, m, terms=3).z).value
        for t in (1, 2, 3):
            errs.append(abs(zeros_apos(8.3, m, terms=t).z - ref))
        assert errs[0] / errs[1] >= 10.0
        assert errs[1] / errs[2] >= 10.0


def test_aneg_positive_zeros_real_and_bracketed():
    u = 12.4
    a = -0.5 * u
    zs = [zeros_aneg_positive(a, m, terms=3).z for m in range(1, 4)]
    for z in zs:
        assert z.imag == 0.0
        assert 0.0 < z.real < math.sqrt(2.0 * u)
    # m=1 is the largest
    assert zs[0].real > zs[1].real > zs[2].real
    # they really are zeros: refinement barely moves them
    for z in zs:
        assert abs(t_iterate(a, z).value - z) < 1e-4
    with pytest.raises(DomainError):
        zeros_aneg_positive(a, 4)


def test_aneg_nonpositive_zeros_and_index_window():
    a = -6.2
    zs = [zeros_aneg_nonpositive(a, m, terms=3).z for m in (1, 2, 3)]
    for z in zs:
        assert z.imag == 0.0 and z.real <= 0.0
    # m=1 maps nearest the turning point (xhat closest to 1), i.e. it is
    # the most negative; larger m walk back toward 0
    assert zs[0].real < zs[1].real < zs[2].real
    # vartheta=0 here: no index 0, and nothing beyond M-
    with pytest.raises(DomainError):
        zeros_aneg_nonpositive(a, 0)
    with pytest.raises(DomainError, match="outside 1..3"):
        zeros_aneg_nonpositive(a, 4)


def test_aneg_nonpositive_index_zero_in_vartheta_window():
    # u = 5.1: u mod 2 = 1.1 in (1, 4/3), so the sole positive zero of the
    # Airy combination maps to an extra (index 0) non-positive zero of U
    a = -2.55
    z0 = zeros_aneg_nonpositive(a, 0, terms=3).z
    assert z0.imag == 0.0 and z0.real <= 0.0
    assert abs(t_iterate(a, z0).value - z0) < 1e-3


def _certified_distinct(a, zs):
    # each refined zero has |U/U'| small next to the local spacing, by
    # mpmath's U, and no two of them are the same zero
    for z in zs:
        u, du = oracles.mp_U_pair(a, z)
        spacing = math.pi / abs(cmath.sqrt(-0.25 * z * z - a))
        assert abs(u / du) <= 1e-10 * spacing, (a, z)
    xs = sorted(z.real for z in zs)
    assert all(b - x > 1e-6 for x, b in zip(xs, xs[1:])), xs


_REAL_FAMILY_FN = {"aneg-positive": zeros_aneg_positive,
                   "aneg-nonpositive": zeros_aneg_nonpositive}


def _refined_real_zeros(a):
    return [t_iterate(a, _REAL_FAMILY_FN[f.kind](a, m).z).value
            for f in families(a)[:2]
            for m in range(f.start, f.start + f.count)]


@pytest.mark.parametrize("a, kind", [(-5.5, "aneg-nonpositive"),
                                     (-5.495, "aneg-nonpositive"),
                                     (-7.5, "aneg-nonpositive"),
                                     (-5.5005, "aneg-positive")])
def test_zero_next_to_the_origin_is_seeded_at_the_origin(a, kind):
    # its Airy-type zero maps just below zeta(0): the seed is the origin,
    # without corrections, and refines to the zero U has there (x = 0 at
    # u = 2n + 1, odd n); the family's last index is that zero
    fam = next(f for f in families(a) if f.kind == kind)
    seed = _REAL_FAMILY_FN[kind](a, fam.start + fam.count - 1)
    assert abs(seed.z) < 1e-15 and seed.terms_used == 1
    if a in (-5.5, -7.5):
        assert abs(t_iterate(a, seed.z).value) <= 1e-12
    _certified_distinct(a, _refined_real_zeros(a))


@pytest.mark.parametrize("n, k", [(1, 5), (1, 7), (5, 6), (20, 4), (20, 6)])
@pytest.mark.parametrize("sign", [1, -1])
def test_turning_point_seeds_refine_to_distinct_zeros(n, k, sign):
    # at u = 2n + 4/3 +- 10^-k a real zero sits next to the turning point,
    # where the corrections are Taylor sums: its seed keeps all three
    # terms, each no farther from the zero than the one before
    a = -0.5 * (2 * n + 4.0 / 3.0 + sign * 10.0 ** -k)
    first = families(a)[1].start
    seeds = [zeros_aneg_nonpositive(a, first, terms=t) for t in (1, 2, 3)]
    assert seeds[2].terms_used == 3
    ref = t_iterate(a, seeds[0].z).value
    z1, z2, z3 = (abs(s.z - ref) for s in seeds)
    assert z3 <= z2 <= z1
    _certified_distinct(a, _refined_real_zeros(a))


@pytest.mark.parametrize("n", [1, 5, 20, 100])
@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("sign", [1, -1])
def test_second_correction_never_worsens_a_turning_point_seed(n, k, sign):
    # u = 2n + 4/3 +- 10^(-k/2): the first non-positive zero has |zeta0|
    # between about 1e-4 and 1e-2, where correction2's closed form, with
    # its 1/zeta0^5, would amplify the rounding of (z0, zeta0, sigma0).
    # At k = 4 all three terms are kept, and at n = 5 correction2 helps
    a = -0.5 * (2 * n + 4.0 / 3.0 + sign * 10.0 ** (-k / 2))
    first = families(a)[1].start
    z1, z2, z3 = (zeros_aneg_nonpositive(a, first, terms=t).z
                  for t in (1, 2, 3))
    ref = t_iterate(a, z1).value
    assert abs(z3 - ref) <= abs(z2 - ref)
    if k == 4:
        assert zeros_aneg_nonpositive(a, first).terms_used == 3
    if k == 4 and n == 5:
        assert abs(z3 - ref) < abs(z2 - ref)


def test_aneg_complex_second_quadrant():
    zs = [zeros_aneg_complex(-6.2, m, terms=3).z for m in range(1, 6)]
    for z in zs:
        assert z.real < 0 < z.imag
    mods = [abs(z) for z in zs]
    assert all(b > a for a, b in zip(mods, mods[1:]))


def test_aneg_complex_residual_identity():
    # the first-quadrant zero parameters satisfy the reflection identity;
    # three-term approximations hold it below 1e-6 from m=5 on
    u = 12.4
    a = -0.5 * u
    for m in (5, 8):
        w = -zeros_aneg_complex(a, m, terms=3).z.conjugate() \
            / math.sqrt(2.0 * u)
        assert residual_eq319(a, w) <= 1e-6


def test_aneg_complex_series_zeros_satisfy_the_identity():
    # from m = 14 on the tau-series zero of Ai_u is used as it is; a
    # Newton pass on the m = 17 one does not converge, though the series
    # value already holds the identity to 1.7e-13
    a = -93.4995
    u = -2.0 * a
    for m in range(14, 31):
        zeros_aneg_complex(a, m)
        assert identity_residual(u, complex_zeros(u, m).value) <= 1e-12, m


def test_bad_indices_rejected():
    # each error of the per-index functions, exactly of its class
    cases = [(zeros_apos, -1.0, 1, 3, DomainError),
             (zeros_aneg_complex, -6.5, 1, 3, PolynomialCaseError),
             (zeros_aneg_positive, -6.2, 4, 3, DomainError),  # M+ = 3
             (zeros_aneg_nonpositive, -6.2, 4, 3, DomainError)]
    for fn, a in ((zeros_apos, 8.3), (zeros_aneg_positive, -6.2),
                  (zeros_aneg_nonpositive, -6.2), (zeros_aneg_complex, -6.2)):
        cases += [(fn, a, 0, 3, DomainError), (fn, a, 1, 4, DomainError),
                  (fn, math.nan, 1, 3, DomainError)]
    for fn, a, m, terms, error in cases:
        with pytest.raises(DomainError) as info:
            fn(a, m, terms=terms)
        assert type(info.value) is error, (fn.__name__, a, m, terms)


_HUGE_INDICES = """
import time
from pcfzeros import zeros_aneg_complex, zeros_apos
t = time.perf_counter()
zs = [zeros_apos(8.3, 10**9).z, zeros_aneg_complex(-6.2, 10**9).z]
print(time.perf_counter() - t, all(z.real < 0 < z.imag for z in zs))
"""


def test_huge_indices_seed_in_milliseconds():
    # a_m comes from its series, with no table of the zeros before it
    r = subprocess.run([sys.executable, "-c", _HUGE_INDICES],
                       capture_output=True, text=True, env=_child_env(),
                       timeout=60)
    assert r.returncode == 0, r.stderr
    seconds, second_quadrant = r.stdout.split()
    assert float(seconds) < 0.1
    assert second_quadrant == "True"


def test_indices_past_exact_tau_are_a_domain_error():
    # 4m - 1 is exact in doubles up to m = MAX_INDEX = 2^51
    assert real_airy_zero(MAX_INDEX) < real_airy_zero(MAX_INDEX - 1)
    for fn, args in ((real_airy_zero, ()), (neg_zeros, (12.4,)),
                     (complex_zeros, (12.4,)), (zeros_apos, (8.3,)),
                     (zeros_aneg_complex, (-6.2,))):
        assert fn(*args, MAX_INDEX) is not None
        with pytest.raises(DomainError):
            fn(*args, MAX_INDEX + 1)


@pytest.mark.parametrize("fn, args", [
    (zeros_apos, (1e-300, 1)), (zeros_aneg_complex, (-1e-300, 1)),
    (zeros_apos, (1e-250, 2)), (zeros_apos, (5e-324, 1)),
    (zeros_aneg_complex, (-5e-324, 1)), (zeros_apos, (1e77, 1)),
    (zeros_apos, (1e300, 1)), (zeros_aneg_positive, (-1e100, 1)),
    (zeros_aneg_nonpositive, (-1e100, 1)),
    (zeros_aneg_positive, (-1.7e308, 1)), (families, (-1e20,)),
    (families, (-1e300,)),
], ids=lambda x: getattr(x, "__name__", repr(x)))
def test_extreme_a_gives_a_seed_or_a_package_error(fn, args):
    try:
        got = fn(*args)
    except PcfzerosError:
        return
    if isinstance(got, ZeroApproximation):
        assert cmath.isfinite(got.z)


def test_tiny_a_keeps_the_leading_term():
    # the corrections overflow for 0 < a < ~1e-206 (z0 ~ a^(-1/2)), and
    # u ** 2 underflows below ~1e-162: both are undefined, not raised
    for a in (1e-300, 1e-180):
        s = zeros_apos(a, 1)
        assert s.terms_used == 1
        assert s.z == zeros_apos(a, 1, terms=1).z


def test_tiny_a_seeds_down_to_the_double_range():
    # |zeta0| ~ a^{-2/3}: past |zeta0| ~ 1e40 zeta's own rounding exceeds
    # invert_zeta's tol, which a large target is accepted at instead.  As
    # a -> 0 the seed tends to a limit, which every decade reaches; from
    # a ~ 1e-308 on, (4/3) zeta0^{3/2} leaves the double range
    limit = zeros_apos(1e-300, 1).z
    for e in range(1, 306):
        z = zeros_apos(10.0 ** -e, 1).z
        assert cmath.isfinite(z), e
        if e >= 40:
            assert abs(z - limit) <= 1e-13 * abs(limit), e
    for e in range(306, 324):
        try:
            assert cmath.isfinite(zeros_apos(10.0 ** -e, 1).z)
        except DomainError:
            pass


def test_huge_u_is_not_the_hermite_case():
    # every double from 2^53 on is an even integer, so 2n + 1 is none
    assert families(-1e17, complex_count=3)[2].count == 3
    assert cmath.isfinite(zeros_aneg_complex(-1e300, 1).z)


def test_huge_a_seed_is_the_leading_term():
    # past u ~ 1.3e77 u ** 4 overflows; the steps are below an ulp anyway
    for a in (1e77, 1e300):
        assert zeros_apos(a, 1).z == zeros_apos(a, 1, terms=1).z


def test_real_counts_beyond_an_index_are_a_domain_error():
    with pytest.raises(DomainError, match="index"):
        families(-1e20)
    with pytest.raises(DomainError, match="index"):
        m_minus(-1e20)
    assert families(-1e15)[1].count == m_minus(-1e15)
    # a seed needs only its index, not the count
    assert cmath.isfinite(zeros_aneg_nonpositive(-1e20, 1).z)


def test_hermite_small_orders_exact():
    # H_2: +/- 1/sqrt(2); H_3: 0, +/- sqrt(3/2)
    z2 = hermite_zeros(2)
    assert z2 == pytest.approx([-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)],
                               abs=1e-10)
    z3 = hermite_zeros(3)
    assert z3 == pytest.approx([-math.sqrt(1.5), 0.0, math.sqrt(1.5)],
                               abs=1e-10)


def test_hermite_zeros_against_tridiagonal_oracle():
    for n in (10, 30, 225, 256, 400):
        got = hermite_zeros(n)
        ref = oracles.hermite_nodes(n)
        assert len(got) == n
        assert np.max(np.abs(got - ref)) < 1e-10


def test_hermite_bad_order():
    with pytest.raises(DomainError):
        hermite_zeros(0)
