"""Every public function refuses a bad argument with a DomainError.

The arguments fall into five kinds, each with one rule in pcfzeros.errors:
a real parameter (a, and x of eval_bi_real) is a finite real number; a
positive parameter (u, and the radius of winding_number) is a finite real
number > 0; a point (z, zhat, zeta, t) is a finite number; a zero index is
an integer in its family's range; a count is an integer >= 1 (families'
complex_count: None or an integer >= 0).  Each bad value of a kind, put
in place of one argument of a call that is valid as it stands, must raise
DomainError on one short line: not a bare TypeError, ValueError or
OverflowError, and not an answer.
"""
import pytest

import pcfzeros as pz

_Z = -1.3827361451259055 + 6.6036342033286323j  # Table 2's first zero
_W = 2.5 + 3.1j                                  # near complex_zeros(12.4, 2)

_NAN, _INF = float("nan"), float("inf")
_ANY = [None, "x", _NAN, _INF, -_INF, 10 ** 400]
_BAD = {
    "real": _ANY + [1j],
    "positive": _ANY + [1j, 0, -1],
    "point": _ANY,
    "index": _ANY + [1j, 0, -1],
    "count": _ANY + [1j, 0, -1],
    # None is a valid complex_count (unbounded), and so is 0
    "count0": _ANY[1:] + [1j, -1],
}

# (function, a valid call's arguments, {argument position: kind})
_CALLS = [
    (pz.eval_U, (8.3, 1.0 + 2.0j), {0: "real", 1: "point"}),
    (pz.t_iterate, (8.3, _Z), {0: "real", 1: "point"}),
    (pz.sweep, (8.3, _Z, 3), {0: "real", 1: "point", 2: "count"}),
    (pz.winding_number, (8.3, _Z, 0.1, 24),
     {0: "real", 1: "point", 2: "positive", 3: "count"}),
    (pz.families, (8.3, 5), {0: "real", 1: "count0"}),
    (pz.zeros_apos, (8.3, 1), {0: "real", 1: "index"}),
    (pz.zeros_aneg_positive, (-6.2, 1), {0: "real", 1: "index"}),
    (pz.zeros_aneg_nonpositive, (-6.2, 1), {0: "real", 1: "index"}),
    (pz.zeros_aneg_complex, (-6.2, 1), {0: "real", 1: "index"}),
    (pz.m_minus, (-6.2,), {0: "real"}),
    (pz.eval_bi_real, (1.0,), {0: "real"}),
    (pz.mu, (12.4,), {0: "positive"}),
    (pz.count_positive, (12.4,), {0: "positive"}),
    (pz.vartheta, (12.4,), {0: "positive"}),
    (pz.sole_positive_zero, (12.4,), {0: "positive"}),
    (pz.neg_zeros, (12.4, 1), {0: "positive", 1: "index"}),
    (pz.complex_zeros, (12.4, 1), {0: "positive", 1: "index"}),
    (pz.refine_zero, (12.4, _W), {0: "positive", 1: "point"}),
    (pz.real_airy_zero, (1,), {0: "index"}),
    (pz.hermite_zeros, (20,), {0: "count"}),
    (pz.eval_ai, (1.0 + 1.0j,), {0: "point"}),
    (pz.eval_ai_rotated, (1, 1.0 + 1.0j), {1: "point"}),
    (pz.zeta, (2.0 + 1.0j,), {0: "point"}),
    (pz.invert_zeta, (2.0 + 1.0j,), {0: "point"}),
    (pz.t_series, (5.0,), {0: "point"}),
]


def _label(value):
    return "10**400" if value == 10 ** 400 else repr(value)


_CASES = [
    pytest.param(fn, args[:i] + (bad,) + args[i + 1:],
                 id=f"{fn.__name__}-{i}-{kind}={_label(bad)}")
    for fn, args, kinds in _CALLS
    for i, kind in kinds.items()
    for bad in _BAD[kind]]


@pytest.mark.parametrize("fn, args", _CASES)
def test_bad_argument_is_a_domain_error(fn, args):
    with pytest.raises(pz.DomainError) as info:
        fn(*args)
    message = str(info.value)
    assert "\n" not in message and len(message) < 120


@pytest.mark.parametrize("fn, args", [
    pytest.param(fn, args, id=fn.__name__) for fn, args, _ in _CALLS])
def test_the_valid_calls_answer(fn, args):
    # each bad value above replaces one argument of a call that answers
    fn(*args)


def test_t_series_at_zero_is_a_domain_error():
    # its terms divide by powers of t: this was a ZeroDivisionError
    with pytest.raises(pz.DomainError):
        pz.t_series(0.0)
