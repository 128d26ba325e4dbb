import cmath
import contextlib
import io
import json
import math

import numpy as np
import pytest

import pcfzeros
from pcfzeros import cli, pcf_eval, refine
from pcfzeros.errors import ChainBreakError, ConvergenceError, DomainError
from pcfzeros.mapping import invert_zeta
from pcfzeros.pcf_eval import (Evaluator, PcfValue, eval_U, eval_U_path,
                               winding_number)
from pcfzeros.refine import STEP_TOL, sweep, t_iterate
from pcfzeros.zeros import (families, hermite_zeros, zeros_aneg_complex,
                            zeros_aneg_nonpositive, zeros_aneg_positive,
                            zeros_apos)

import oracles


def test_idempotence():
    z = zeros_apos(8.3, 2, terms=3).z
    r1 = t_iterate(8.3, z)
    r2 = t_iterate(8.3, r1.value)
    assert abs(r2.value - r1.value) <= 1e-13 * (1.0 + abs(r1.value))
    assert r2.iterations <= 2


def test_high_order_convergence():
    # the fixed-point map is fourth order: one step from an O(7.7e-4) seed
    # lands within ~seed_err^4 of the limit
    a = -6.2
    seed = zeros_aneg_complex(a, 3, terms=1).z
    ref = t_iterate(a, seed).value
    e0 = abs(seed - ref)
    assert 1e-4 < e0 < 1e-2
    one_step = t_iterate(a, seed, tol=1.0).value
    assert abs(one_step - ref) <= 10.0 * e0 ** 4
    # and full convergence takes only a couple of iterations
    assert t_iterate(a, seed).iterations <= 3


def test_converged_record_fields():
    z = zeros_apos(8.3, 1, terms=3).z
    r = t_iterate(8.3, z)
    assert r.seed == z
    assert r.residual <= 1e-13


def test_turning_point_guard():
    # z^2/4 + a = 0 at z = 2 sqrt(-a)
    with pytest.raises(DomainError):
        t_iterate(-4.0, 4.0)


def test_nonconvergence_raises():
    with pytest.raises(ConvergenceError):
        t_iterate(8.3, 30.0 + 30.0j, max_iter=2, tol=1e-16)


@pytest.mark.parametrize("call", [
    *[("t_iterate", {"max_iter": m}) for m in (2.5, "3", None, math.nan)],
    *[("invert_zeta", {"max_iter": m}) for m in (2.5, "3", None, math.nan, 0)],
    ("invert_zeta", {"tol": math.nan}),
    *[("refine_zero", {"max_iter": m}) for m in (2.5, "3", None, math.nan)]],
    ids=repr)
def test_iteration_limits_are_checked(call):
    # each raised a bare TypeError, or, for invert_zeta, TypeError from
    # abs(None) at max_iter 0 and ConvergenceError after 60 Newton steps
    # at tol NaN
    name, kwargs = call
    args = {"t_iterate": (8.3, zeros_apos(8.3, 1).z),
            "invert_zeta": (2.0 + 1.0j,),
            "refine_zero": (3.3, 1.0 + 1.0j)}[name]
    with pytest.raises(DomainError):
        getattr(pcfzeros, name)(*args, **kwargs)


def test_lands_on_an_exact_zero():
    # U(-5/2, z) is proportional to e^(-z^2/4) (z^2 - 1): the iterate
    # z = 1 is an exact zero, where U = 0 has no relative accuracy and
    # mpmath's 1F1 series fails; the chain evaluator's Taylor steps
    # answer there
    assert t_iterate(-2.5, zeros_aneg_positive(-2.5, 1).z).value == 1.0


@pytest.mark.parametrize("a", [20.3, 60.0, 100.3, 300.3])
def test_first_zero_for_large_a_needs_no_mpmath(monkeypatch, a):
    # from a ~ 20 the ray from z = 0 misses the chain limit at the first
    # zero, and the mpmath fallback costs seconds at a = 300.3; the origin
    # stage's path up the imaginary axis answers instead
    def refuse(*args):
        raise AssertionError("mpmath fallback reached")

    monkeypatch.setattr(pcf_eval, "_eval_series_mp", refuse)
    z = t_iterate(a, zeros_apos(a, 1).z).value
    if a <= 100.3:
        # pcfu takes seconds at a = 300.3
        u, du = oracles.mp_U_pair(a, z)
        spacing = math.pi / abs(cmath.sqrt(-z * z / 4.0 - a))
        assert abs(u / du) <= 1e-10 * spacing


@pytest.mark.parametrize("a", [-100.3, -500.3, -1000.3])
def test_first_complex_zero_for_large_negative_a_needs_no_mpmath(
        monkeypatch, a):
    # the first aneg-complex zero lies next to the negative real axis,
    # where neither the ray nor the path up the imaginary axis answers;
    # the origin stage's path along the real axis does (mpmath took
    # seconds at a = -500.3 and passed its precision cap at -1000.3)
    def refuse(*args):
        raise AssertionError("mpmath fallback reached")

    monkeypatch.setattr(pcf_eval, "_eval_series_mp", refuse)
    z = t_iterate(a, zeros_aneg_complex(a, 1).z).value
    spacing = math.pi / abs(cmath.sqrt(-z * z / 4.0 - a))
    assert oracles.mp_zero_ratio(a, z) <= 1e-10 * spacing


def test_sweep_matches_independent_ladder():
    a = 8.3
    z1 = t_iterate(a, zeros_apos(a, 1, terms=3).z).value
    chain = sweep(a, z1, 5)
    for m, link in enumerate(chain, start=1):
        zm = t_iterate(a, zeros_apos(a, m, terms=3).z).value
        assert abs(link.value - zm) <= 1e-12 * (1.0 + abs(zm))


def test_sweep_spacing_sanity():
    a = -6.2
    z1 = t_iterate(a, zeros_aneg_complex(a, 1, terms=3).z).value
    chain = sweep(a, z1, 4)
    for za, zb in zip(chain, chain[1:]):
        p = cmath.sqrt(-0.25 * za.value * za.value - a)
        spacing = math.pi / abs(p)
        assert abs(zb.value - za.value) == pytest.approx(spacing, rel=0.3)


def test_sweep_single_and_bad_count():
    z = zeros_apos(8.3, 1, terms=3).z
    assert len(sweep(8.3, z, 1)) == 1
    with pytest.raises(DomainError):
        sweep(8.3, z, 0)


def test_sweep_goes_outward():
    a = 8.3
    z1 = t_iterate(a, zeros_apos(a, 1, terms=3).z).value
    mods = [abs(r.value) for r in sweep(a, z1, 4)]
    assert all(b > m for m, b in zip(mods, mods[1:]))


def _cli_zeros(a, count):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["zeros", "--a", repr(a), "--count", str(count),
                         "--format", "json"]) == 0
    return [complex(row["z_refined_re"], row["z_refined_im"])
            for row in json.loads(out.getvalue())]


def test_sweep_chain_is_certified():
    # every zero of a walked chain has |U/U'| small next to the local
    # spacing, by mpmath's independent U: sweep's, and those of CLI zeros,
    # which walks each family
    swept = sweep(20.3, zeros_apos(20.3, 1).z, 50)
    chains = [(20.3, [link.value for link in swept], 50),
              (20.3, _cli_zeros(20.3, 150), 150),
              # 3 positive, 3 non-positive and 20 complex zeros
              (-6.2, _cli_zeros(-6.2, 20), 26)]
    for a, zs, count in chains:
        assert len(zs) == count
        for z in zs:
            u, du = oracles.mp_U_pair(a, z)
            spacing = math.pi / abs(cmath.sqrt(-0.25 * z * z - a))
            assert abs(u / du) <= 1e-10 * spacing, (a, z)


@pytest.mark.parametrize("a, z_start", [
    (8.3, zeros_apos(8.3, 1).z), (20.3, zeros_apos(20.3, 1).z),
    (-6.2, zeros_aneg_complex(-6.2, 1).z)], ids=["8.3", "20.3", "-6.2"])
def test_sweep_predicted_starts_land_on_the_bare_starts_zeros(
        monkeypatch, a, z_start):
    # each zero started from H+ plus the predicted correction is the one
    # the bare H+ start lands on, to rounding, in fewer evaluations of U
    bare = oracles.sweep_unpredicted(a, z_start, 50)
    calls = []
    call = Evaluator.__call__

    def counted(self, a, z):
        calls.append(z)
        return call(self, a, z)

    monkeypatch.setattr(Evaluator, "__call__", counted)
    swept = sweep(a, z_start, 50)
    assert len(swept) == len(bare) == 50
    for got, want in zip(swept, bare):
        assert abs(got.value - want.value) <= 1e-15 * abs(want.value)
    # 2.9-3.0 a zero from bare starts, 2.1-2.2 predicted
    assert len(calls) <= 2.3 * 50


_NAN, _INF = math.nan, math.inf


def _nan_evaluator(calls):
    def evaluate(a, z):
        calls.append(z)
        return PcfValue(complex(_NAN, 0.0), 1.0 + 0j, "series", 1e-15)
    return evaluate


@pytest.mark.parametrize("call, error", [
    (lambda calls: eval_U(_NAN, 1.0), DomainError),
    (lambda calls: eval_U(0.5, complex(_INF, 1.0)), DomainError),
    (lambda calls: t_iterate(_INF, 1.0 + 6.0j), DomainError),
    (lambda calls: t_iterate(8.3, complex(_NAN, 6.0)), DomainError),
    (lambda calls: hermite_zeros(_NAN), DomainError),
    (lambda calls: hermite_zeros(_INF), DomainError),
    (lambda calls: sweep(_NAN, 1.0 + 6.0j, 3), DomainError),
    (lambda calls: sweep(8.3, complex(1.0, _INF), 3), DomainError),
    (lambda calls: t_iterate(8.3, 1.0 + 6.0j,
                             evaluator=_nan_evaluator(calls)),
     ConvergenceError),
    (lambda calls: families(_NAN), DomainError),
    (lambda calls: zeros_apos(_INF, 1), DomainError),
    (lambda calls: zeros_apos(_NAN, 1), DomainError),
    (lambda calls: zeros_aneg_positive(_NAN, 1), DomainError),
    (lambda calls: zeros_aneg_nonpositive(_NAN, 1), DomainError),
    (lambda calls: zeros_aneg_complex(-_INF, 1), DomainError),
], ids=["eval_U-a", "eval_U-z", "t_iterate-a", "t_iterate-z",
        "hermite-nan", "hermite-inf", "sweep-a", "sweep-z",
        "t_iterate-nan-U", "families-nan", "apos-inf", "apos-nan",
        "aneg-positive-nan", "aneg-nonpositive-nan", "aneg-complex-inf"])
def test_non_finite_input_or_value_raises_package_error(call, error):
    # a non-finite input is named as such; a non-finite U stops t_iterate
    # at its first iterate, which the error carries
    calls = []
    with pytest.raises(error) as info:
        call(calls)
    if error is DomainError:
        assert "is not finite" in str(info.value)
    if error is ConvergenceError:
        assert calls == [1.0 + 6.0j] and info.value.last == 1.0 + 6.0j


_HUGE = 10 ** 400


@pytest.mark.parametrize("call", [
    lambda: eval_U(8.3, _HUGE),
    lambda: eval_U(_HUGE, 1j),
    lambda: t_iterate(_HUGE, 1j),
    lambda: t_iterate(8.3, _HUGE),
    lambda: invert_zeta(_HUGE),
    lambda: pcfzeros.zeta(_HUGE),
    lambda: zeros_apos(_HUGE, 1),
    lambda: Evaluator(_HUGE),
    lambda: sweep(_HUGE, 1j, 2),
    lambda: hermite_zeros(_HUGE),
], ids=["eval_U-z", "eval_U-a", "t_iterate-a", "t_iterate-z", "invert_zeta",
        "zeta", "zeros_apos", "Evaluator", "sweep", "hermite_zeros"])
def test_int_past_the_double_range_is_a_domain_error(call):
    # cmath.isfinite raises OverflowError for such an int ("int too large
    # to convert to float"); the package takes it as not finite, on one
    # line that does not print its 401 digits
    with pytest.raises(DomainError) as info:
        call()
    message = str(info.value)
    assert "is not finite" in message and "\n" not in message
    assert len(message) < 80


@pytest.mark.parametrize("call", [
    lambda: t_iterate(8.3, zeros_apos(8.3, 1).z, tol=_HUGE),
    lambda: sweep(8.3, zeros_apos(8.3, 1).z, 3, tol=_HUGE),
    lambda: winding_number(8.3, 1j, _HUGE),
    lambda: zeros_apos(8.3, 10 ** 5000),
    lambda: zeros_aneg_complex(-6.2, 10 ** 5000),
    lambda: zeros_aneg_positive(-6.2, 10 ** 5000),
    lambda: sweep(8.3, zeros_apos(8.3, 1).z, 3, tol=10 ** 5000),
    lambda: winding_number(8.3, 1j, 10 ** 5000),
], ids=["t_iterate-tol", "sweep-tol", "winding-radius", "zeros_apos-m",
        "zeros_aneg_complex-m", "zeros_aneg_positive-m", "sweep-long-tol",
        "winding-long-radius"])
def test_huge_int_tolerance_radius_or_index_is_a_domain_error(call):
    # each raised a bare exception: OverflowError from the step limit of
    # the chain Evaluator (tol) or from radius * e^{i theta}, which
    # compared as finite with an int past the double range, and
    # ValueError from formatting an int past 4300 digits into the
    # message; now a DomainError on one line
    with pytest.raises(DomainError) as info:
        call()
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("call, length", [
    (lambda: hermite_zeros(2.0), 2),
    (lambda: hermite_zeros(np.float64(4.0)), 4),
    (lambda: sweep(8.3, zeros_apos(8.3, 1).z, 3.0), 3),
    (lambda: hermite_zeros(2.5), None),
    (lambda: sweep(8.3, zeros_apos(8.3, 1).z, 2.5), None),
    (lambda: sweep(8.3, zeros_apos(8.3, 1).z, _NAN), None),
    (lambda: sweep(8.3, zeros_apos(8.3, 1).z, _INF), None),
    (lambda: winding_number(8.3, 1.0 + 1.0j, 0.1, 0), None),
    (lambda: winding_number(8.3, 1.0 + 1.0j, 0.1, -3), None),
], ids=["hermite-2.0", "hermite-float64-4.0", "sweep-3.0", "hermite-2.5",
        "sweep-2.5", "sweep-nan", "sweep-inf", "winding-0", "winding-neg"])
def test_counts_are_integral_values(call, length):
    # as for the zero indices (zeros_apos(8.3, 2.0) is the second zero):
    # an integral value is that int, anything else a DomainError
    if length is None:
        with pytest.raises(DomainError):
            call()
    else:
        assert len(call()) == length


@pytest.mark.parametrize("z", ["x", None, [1]])
@pytest.mark.parametrize("call", [
    lambda z: eval_U(8.3, z),
    lambda z: eval_U_path(8.3, [1.0 + 1.0j, z]),
    lambda z: t_iterate(8.3, z),
    lambda z: t_iterate(8.3, z, evaluator=Evaluator(8.3, STEP_TOL, "chain")),
], ids=["eval_U", "eval_U_path", "t_iterate", "t_iterate-evaluator"])
def test_z_that_is_not_a_number_is_a_domain_error(call, z):
    with pytest.raises(DomainError, match="is not a number"):
        call(z)


@pytest.mark.parametrize("tol", [_INF, _NAN, -1.0])
@pytest.mark.parametrize("call", [
    lambda tol: eval_U(8.3, 1.0 + 1.0j, tol=tol),
    lambda tol: Evaluator(8.3, tol, "chain"),
    lambda tol: t_iterate(8.3, zeros_apos(8.3, 1).z, tol=tol),
    lambda tol: t_iterate(8.3, zeros_apos(8.3, 1).z, tol=tol,
                          evaluator=Evaluator(8.3, STEP_TOL, "chain")),
    lambda tol: sweep(8.3, zeros_apos(8.3, 1).z, 2, tol=tol),
], ids=["eval_U", "Evaluator", "t_iterate", "t_iterate-evaluator", "sweep"])
def test_tol_that_is_not_finite_and_non_negative_is_a_domain_error(call,
                                                                    tol):
    # tol = inf took eval_U's asymptotic answer at 1 + i, 0.0203 - 0.0428i
    # where U is -2.28e-4 - 4.97e-5i, and t_iterate's first step; NaN and
    # -1 ran mpmath to 65 digits, or t_iterate to max_iter, and raised
    # ConvergenceError
    with pytest.raises(DomainError, match="tol"):
        call(tol)


_NOT_FINITE_TOL = "is not a finite number >= 0"
_MAX_ITER = "max_iter must be an integer >= 1"
# (argument, value, the DomainError's message) for t_iterate, whose a
# and z0 are named a and z; invert_zeta's zt_target is named so
_BAD_T_ITERATE = [
    ("a", _NAN, "a = nan is not finite"),
    ("a", _INF, "a = inf is not finite"),
    ("a", -_INF, "a = -inf is not finite"),
    ("a", None, "a = None is not a number"),
    ("a", "x", "a = 'x' is not a number"),
    ("z0", _NAN, "z = nan is not finite"),
    ("z0", _INF, "z = inf is not finite"),
    ("z0", -_INF, "z = -inf is not finite"),
    ("z0", None, "z = None is not a number"),
    ("z0", "x", "z = 'x' is not a number")]
_BAD_INVERT_ZETA = [
    ("zt_target", _NAN, "zt_target = nan is not finite"),
    ("zt_target", _INF, "zt_target = inf is not finite"),
    ("zt_target", -_INF, "zt_target = -inf is not finite"),
    ("zt_target", None, "zt_target = None is not a number"),
    ("zt_target", "x", "zt_target = 'x' is not a number")]
_BAD_SETTINGS = [
    ("tol", _NAN, "tol = nan " + _NOT_FINITE_TOL),
    ("tol", -1.0, "tol = -1.0 " + _NOT_FINITE_TOL),
    ("tol", _INF, "tol = inf " + _NOT_FINITE_TOL),
    ("tol", -_INF, "tol = -inf " + _NOT_FINITE_TOL),
    ("tol", None, "tol = None " + _NOT_FINITE_TOL),
    ("tol", "x", "tol = 'x' " + _NOT_FINITE_TOL),
    ("max_iter", 0, _MAX_ITER), ("max_iter", 2.5, _MAX_ITER),
    ("max_iter", _NAN, _MAX_ITER), ("max_iter", _INF, _MAX_ITER),
    ("max_iter", -_INF, _MAX_ITER), ("max_iter", None, _MAX_ITER),
    ("max_iter", "x", _MAX_ITER)]


@pytest.mark.parametrize("fn,base,arg,value,message", [
    pytest.param(fn, base, arg, value, message,
                 id=f"{fn.__name__}-{arg}={value!r}")
    for fn, base, bad in (
        (t_iterate, {"a": 8.3, "z0": -1.5 + 4.6j}, _BAD_T_ITERATE),
        (invert_zeta, {"zt_target": -1.0}, _BAD_INVERT_ZETA))
    for arg, value, message in bad + _BAD_SETTINGS])
def test_bad_arguments_are_domain_errors_with_their_messages(fn, base, arg,
                                                             value, message):
    # the checks of require_finite, _tolerance and require_count, whether
    # made by them or by a function's own test of the common types first
    with pytest.raises(DomainError) as info:
        fn(**dict(base, **{arg: value}))
    assert type(info.value) is DomainError and str(info.value) == message


def test_bad_arguments_are_checked_in_order():
    # t_iterate checks a, z0, tol, max_iter; invert_zeta tol, max_iter,
    # then its target
    with pytest.raises(DomainError, match="^a = nan is not finite$"):
        t_iterate(_NAN, None, tol=-1.0, max_iter=0)
    with pytest.raises(DomainError, match="^tol = -1.0 "):
        t_iterate(8.3, 1j, tol=-1.0, max_iter=0)
    with pytest.raises(DomainError, match="^tol = -1.0 "):
        invert_zeta(_NAN, tol=-1.0, max_iter=0)
    with pytest.raises(DomainError, match="^max_iter must be"):
        invert_zeta("x", max_iter=2.5)


@pytest.mark.parametrize("max_iter", [2.0, True, 2, 20])
def test_integral_max_iter_values_are_accepted(max_iter):
    # 2.0 is 2 and True is 1, as the zero indices take them
    z = t_iterate(8.3, zeros_apos(8.3, 1).z).value
    assert t_iterate(8.3, z, max_iter=max_iter).iterations == 1
    assert invert_zeta(-1.0, max_iter=max_iter) == invert_zeta(-1.0)


@pytest.mark.parametrize("tol", [1.0, 1e300])
@pytest.mark.parametrize("call", [
    lambda tol: eval_U(8.3, 1.0 + 1.0j, tol=tol),
    lambda tol: eval_U_path(8.3, [1.0 + 1.0j], tol=tol),
    lambda tol: Evaluator(8.3, tol, "relative"),
], ids=["eval_U", "eval_U_path", "Evaluator"])
def test_relative_tol_of_one_or_more_is_a_domain_error(call, tol):
    # tol = 1e300 took the asymptotic answer 0.0203 - 0.0428i at 1 + i,
    # where U is -2.28e-4 - 4.97e-5i: an error as large as |U| is no
    # digit.  The chain scale bounds the error of U over max(|U|, |U'|/(1
    # + |z|)) and takes such a tol
    with pytest.raises(DomainError, match="tol"):
        call(tol)
    Evaluator(8.3, tol, "chain")


def test_zero_tol_asks_for_all_the_digits_there_are():
    # eval_U answers within its estimate as for any tol; a T step is
    # never exactly 0, so t_iterate runs out of steps
    v = eval_U(8.3, 1.0 + 1.0j, tol=0.0)
    u, du = oracles.mp_U_pair(8.3, 1.0 + 1.0j)
    assert abs(v.value - u) <= 1e-13 * abs(u)
    with pytest.raises(ConvergenceError, match="did not converge"):
        t_iterate(8.3, zeros_apos(8.3, 1).z, tol=0.0)


def test_sweep_raises_when_a_step_lands_on_the_zero_before(monkeypatch):
    # every T iteration after the first starts from the first zero, so
    # the step H+ from it comes back to it
    t_iter = refine.t_iterate
    first = []

    def back_to_first(a, z, tol=STEP_TOL, evaluator=None):
        r = t_iter(a, first[0] if first else z, tol=tol, evaluator=evaluator)
        first.append(r.value)
        return r

    monkeypatch.setattr(refine, "t_iterate", back_to_first)
    with pytest.raises(ChainBreakError, match="landed back"):
        sweep(8.3, zeros_apos(8.3, 1).z, 3)
    assert len(first) == 2


def test_undefined_t_map_step_raises():
    # at z = -4.8e23, p^(1/2) U/U' rounds to i, a branch point of arctan;
    # the closed-form corrections once made it the three-term seed of the
    # zero next to the turning point at this a (now -2.589, from Taylor sums)
    with pytest.raises(ConvergenceError, match="^T\\(z\\) undefined"):
        t_iterate(-1.6666667166666664, -4.758490314673354e+23)
