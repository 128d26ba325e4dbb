import pytest

from pcfzeros.coeffs import CorrectionInput, correction1, correction2
from pcfzeros.errors import DomainError
from pcfzeros.mapping import _sigma, zeta


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


def test_corrections_reject_turning_point_collision():
    i = CorrectionInput(z0=1.0 + 1e-9j, zeta0=1e-12 + 0j,
                       sigma0=2.0 ** (-1.0 / 3.0))
    with pytest.raises(DomainError):
        correction1(i)
    with pytest.raises(DomainError):
        correction2(i)


def test_corrections_scale_oracle():
    # oracle: the corrections are exactly what makes the assembled zero
    # expansions converge ~u^{-2} faster per term; checked end to end in
    # test_zeros, here a magnitude sanity bound far from the turning point
    for zh in (2.0 + 1.5j, 3.0 + 0.2j):
        i = _inp(zh)
        assert abs(correction1(i)) < 5.0
        assert abs(correction2(i)) < 50.0
