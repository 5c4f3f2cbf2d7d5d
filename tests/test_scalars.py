"""Exact scalar types: ring axioms, canonical forms, float agreement."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdelsarte.scalars import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    SurdSum,
    format_fraction,
    gr_i_power,
    parse_fraction,
)

fractions = st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=10**4)

gaussians = st.builds(GaussianRational, fractions, fractions)


@st.composite
def surds(draw):
    n = draw(st.integers(min_value=0, max_value=3))
    terms = {}
    for _ in range(n):
        d = draw(st.integers(min_value=1, max_value=30))
        c = draw(fractions)
        # constructor canonicalizes only coefficients; feed squarefree-ish
        # radicands through SurdSum.sqrt to stay canonical
        terms[d] = terms.get(d, Fraction(0)) + c
    out = SurdSum()
    for d, c in terms.items():
        out = out + SurdSum.sqrt(d) * c
    return out


class TestGaussianRational:
    @given(gaussians, gaussians, gaussians)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + GR_ZERO == a
        assert a * GR_ONE == a
        assert a - a == GR_ZERO

    @given(gaussians, gaussians)
    def test_division_inverts_multiplication(self, a, b):
        if b:
            assert (a * b) / b == a

    @given(gaussians)
    def test_conjugation(self, a):
        assert a.conjugate().conjugate() == a
        n = a * a.conjugate()
        assert n.im == 0 and n.re >= 0

    @given(gaussians, gaussians)
    def test_float_agreement(self, a, b):
        x, y = complex(a), complex(b)
        assert abs(complex(a * b) - x * y) <= 1e-12 * (1 + abs(x * y))
        assert abs(complex(a + b) - (x + y)) <= 1e-12 * (1 + abs(x + y))

    def test_i_powers(self):
        assert GR_I * GR_I == -GR_ONE
        assert [gr_i_power(k) for k in range(4)] == [GR_ONE, GR_I, -GR_ONE, -GR_I]
        assert gr_i_power(7) == gr_i_power(-1)

    def test_mixes_with_int_and_fraction(self):
        assert GaussianRational(1, 2) + 1 == GaussianRational(2, 2)
        assert Fraction(1, 2) * GaussianRational(2, 4) == GaussianRational(1, 2)
        assert 1 - GR_I == GaussianRational(1, -1)

    def test_zero_division_rejected(self):
        with pytest.raises(ZeroDivisionError):
            GR_ONE / GR_ZERO


operands = st.one_of(gaussians, st.integers(-10**6, 10**6), fractions)


def ref(x):
    """(re, im) reference of a GaussianRational, int or Fraction."""
    if isinstance(x, GaussianRational):
        return x.re, x.im
    return Fraction(x), Fraction(0)


def ref_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def ref_div(x, y):
    n2 = y[0] * y[0] + y[1] * y[1]
    return ref_mul(x, (y[0] / n2, -y[1] / n2))


def check_result(z, want):
    assert isinstance(z, GaussianRational)
    a, b, d = z._a, z._b, z._d
    assert d > 0 and gcd(a, b, d) == 1  # canonical triple
    assert (z.re, z.im) == want
    assert z == GaussianRational(*want)
    assert hash(z) == hash(GaussianRational(*want))


class TestGaussianRationalAgainstReference:
    """The integer triple against (Fraction, Fraction) pairs, operand by operand."""

    @given(gaussians, operands)
    @settings(max_examples=200)
    def test_arithmetic(self, a, b):
        x, y = ref(a), ref(b)
        check_result(a + b, (x[0] + y[0], x[1] + y[1]))
        check_result(b + a, (x[0] + y[0], x[1] + y[1]))
        check_result(a - b, (x[0] - y[0], x[1] - y[1]))
        check_result(b - a, (y[0] - x[0], y[1] - x[1]))
        check_result(a * b, ref_mul(x, y))
        check_result(b * a, ref_mul(x, y))
        check_result(-a, (-x[0], -x[1]))
        check_result(a.conjugate(), (x[0], -x[1]))
        if any(y):
            check_result(a / b, ref_div(x, y))
        if any(x):
            check_result(b / a, ref_div(y, x))

    @given(gaussians, operands)
    def test_equality_and_hash(self, a, b):
        assert (a == b) == (ref(a) == ref(b))
        assert (b == a) == (ref(a) == ref(b))
        if a == b:
            assert hash(a) == hash(b)
        if a.im == 0:
            assert a == a.re and hash(a) == hash(a.re)
            assert a.is_rational() == a.re
        else:
            assert a.is_rational() is None

    @given(fractions, fractions)
    def test_constructor(self, re, im):
        a = GaussianRational(re, im)
        check_result(a, (re, im))
        assert bool(a) == bool(re or im)

    def test_equal_values_hash_equal(self):
        assert len({GaussianRational(1, 0), 1}) == 1
        assert len({GaussianRational(Fraction(1, 2)), Fraction(1, 2)}) == 1
        assert len({GR_ZERO, 0, Fraction(0)}) == 1
        assert len({SurdSum.rational(3), 3, Fraction(3)}) == 1
        assert len({SurdSum(), 0}) == 1
        assert hash(SurdSum.rational(Fraction(2, 3))) == hash(Fraction(2, 3))


class TestSurdSum:
    @given(surds(), surds(), surds())
    @settings(max_examples=60)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a

    def test_sqrt_canonicalization(self):
        assert SurdSum.sqrt(8) == SurdSum.sqrt(2) * 2
        assert SurdSum.sqrt(Fraction(1, 2)) == SurdSum.sqrt(2) / 2
        assert SurdSum.sqrt(36) == SurdSum.rational(6)
        assert SurdSum.sqrt(18) * SurdSum.sqrt(2) == SurdSum.rational(6)

    def test_examples(self):
        # (sqrt(2) + sqrt(3))^2 = 5 + 2 sqrt(6)
        s = SurdSum.sqrt(2) + SurdSum.sqrt(3)
        assert s * s == SurdSum({1: 5, 6: 2})
        # (sqrt(6)/3)^2 + (sqrt(3)/3)^2 = 1  (density-1/3 code amplitudes)
        a = SurdSum.sqrt(Fraction(2, 3))
        b = SurdSum.sqrt(Fraction(1, 3))
        assert a * a + b * b == SurdSum.rational(1)

    @given(surds())
    @settings(max_examples=60)
    def test_float_agreement(self, a):
        sq = a * a
        assert abs(float(sq) - float(a) ** 2) <= 1e-9 * (1 + float(sq))

    @given(surds())
    def test_is_rational(self, a):
        r = a.is_rational()
        if r is not None:
            assert a == SurdSum.rational(r)

    def test_json_round_trip(self):
        x = SurdSum({1: Fraction(1, 3), 2: Fraction(-5, 7)})
        assert SurdSum.from_json(x.to_json()) == x

    def test_division_by_single_surd(self):
        assert SurdSum.rational(1) / SurdSum.sqrt(2) == SurdSum.sqrt(2) / 2
        with pytest.raises(ValueError):
            SurdSum.rational(1) / (SurdSum.sqrt(2) + 1)

    def test_negative_sqrt_rejected(self):
        with pytest.raises(ValueError):
            SurdSum.sqrt(-1)


def test_fraction_text_round_trip():
    for x in (Fraction(0), Fraction(5), Fraction(-3, 7), Fraction(22, 11)):
        assert parse_fraction(format_fraction(x)) == x
    assert format_fraction(Fraction(4)) == "4"
    assert format_fraction(Fraction(-1, 3)) == "-1/3"


def test_parse_zero_denominator_is_value_error():
    with pytest.raises(ValueError):
        parse_fraction("1/0")
