"""The package's result records: immutable NamedTuples whose fields read
as attributes, with keyword construction, defaults and a repr that names
every field."""
import pytest

from pcfzeros import (AiryValue, GenAiryZero, PcfValue, RefinedZero,
                      ZeroApproximation, ZeroFamily)

# each public record with the keywords of one instance, and the fields
# that keep a default when left out
_RECORDS = [
    (AiryValue, dict(value=1.0 + 2.0j, derivative=-0.5j), {"exponent": 0.0}),
    (GenAiryZero, dict(index=3, kind="complex-first-quadrant",
                       value=1.5 + 2.5j, refined=False, u=12.4), {}),
    (PcfValue, dict(value=0.25 + 0.5j, derivative=-1.0 + 0.0j,
                    method="taylor", est_accuracy=1e-13), {"exponent": 0.0}),
    (RefinedZero, dict(value=-1.38 + 6.6j, seed=-1.4 + 6.6j, iterations=2,
                       residual=1e-15), {}),
    (ZeroFamily, dict(kind="aneg-nonpositive", a=-6.2, u=12.4, count=3),
     {"start": 1}),
    (ZeroApproximation, dict(m=1, kind="apos-complex", z0=2.0 + 1.0j,
                             terms=(0.1 + 0.0j, 0.01 + 0.0j),
                             zhat=2.1 + 1.0j, z=-1.38 + 6.6j, terms_used=3),
     {}),
]


@pytest.mark.parametrize("cls, kw, defaults", _RECORDS,
                         ids=[r[0].__name__ for r in _RECORDS])
def test_record_semantics(cls, kw, defaults):
    r = cls(**kw)
    assert cls._fields == tuple(kw) + tuple(defaults)
    fields = {**kw, **defaults}
    for name, value in fields.items():
        assert getattr(r, name) == value
    # a tuple of its fields: unpacks, indexes and compares as one
    assert r == tuple(fields.values())
    assert r[0] == next(iter(fields.values()))
    assert [*r] == list(fields.values())
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(r, name, 0)
    with pytest.raises(AttributeError):
        r.other = 0
    text = repr(r)
    assert text.startswith(cls.__name__ + "(")
    assert all(f"{name}={value!r}" in text for name, value in fields.items())


@pytest.mark.parametrize("cls, kw, default", [
    (PcfValue, dict(value=1j, derivative=1.0, method="series",
                    est_accuracy=1e-12, exponent=700.5), "exponent"),
    (AiryValue, dict(value=1j, derivative=1.0, exponent=-800.0), "exponent"),
    (ZeroFamily, dict(kind="aneg-nonpositive", a=-6.2, u=12.4, count=3,
                      start=0), "start"),
])
def test_record_default_can_be_given(cls, kw, default):
    assert getattr(cls(**kw), default) == kw[default]
