from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mixedchar.scalars import DVR, DVRScalar, PrimeField, QQ, is_prime, padic_valuation

from .oracles import ZZ


def test_is_prime_small():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_padic_valuation():
    assert padic_valuation(12, 2) == 2
    assert padic_valuation(12, 3) == 1
    assert padic_valuation(7, 2) == 0
    for p in (1, 0, -1):  # no valuation; p = 1 and -1 once looped forever
        with pytest.raises(ValueError, match="need p >= 2"):
            padic_valuation(2, p)
    with pytest.raises(ValueError):
        padic_valuation(0, 2)


def test_dvr_scalar_canonical_forms():
    a = DVRScalar.from_rational(Fraction(12), 2)
    assert (a.val, a.unit) == (2, Fraction(3))
    z = DVRScalar.from_rational(0, 5)
    assert z.is_zero() and z.val == 0 and z.valuation() is None
    with pytest.raises(ValueError):
        DVRScalar.from_rational(Fraction(1, 2), 2)
    # units with denominators coprime to p are fine
    b = DVRScalar.from_rational(Fraction(3, 5), 2)
    assert b.val == 0 and b.unit == Fraction(3, 5)


def test_dvr_scalar_addition_extracts_carries():
    V = DVR(2)
    a = V.from_int(2)
    b = V.from_int(6)
    s = a + b  # 8 = 2^3
    assert (s.val, s.unit) == (3, Fraction(1))
    assert (a - a).is_zero()


def test_dvr_divide_partial():
    V = DVR(3)
    a = V.from_int(18)
    b = V.from_int(3)
    q = V.divide(a, b)
    assert q.to_fraction() == 6
    assert V.divide(b, a) is None  # valuation drops, not integral
    u = V.from_int(2)
    assert V.divide(V.one(), u).to_fraction() == Fraction(1, 2)  # units invert


def test_residue_map():
    V = DVR(5)
    assert V.from_int(7).residue() == 2
    assert V.from_int(10).residue() == 0
    assert V.from_rational(Fraction(1, 2)).residue() == 3  # inverse of 2 mod 5


nonzero_rationals = st.fractions(
    min_value=Fraction(-10_000), max_value=Fraction(10_000), max_denominator=200
).filter(lambda q: q != 0)


def _coprime_to(p):
    return nonzero_rationals.filter(
        lambda q: q.denominator % p != 0
    )


@given(q1=_coprime_to(3), q2=_coprime_to(3))
def test_valuation_of_product_adds(q1, q2):
    a = DVRScalar.from_rational(q1, 3)
    b = DVRScalar.from_rational(q2, 3)
    assert (a * b).to_fraction() == q1 * q2
    assert (a * b).valuation() == a.valuation() + b.valuation()


@given(q1=_coprime_to(2), q2=_coprime_to(2))
def test_valuation_of_sum_at_least_min(q1, q2):
    a = DVRScalar.from_rational(q1, 2)
    b = DVRScalar.from_rational(q2, 2)
    s = a + b
    assert s.to_fraction() == q1 + q2
    if not s.is_zero():
        assert s.valuation() >= min(a.valuation(), b.valuation())


@given(q1=_coprime_to(5), q2=_coprime_to(5))
def test_residue_is_a_ring_map(q1, q2):
    F = PrimeField(5)
    a = DVRScalar.from_rational(q1, 5)
    b = DVRScalar.from_rational(q2, 5)
    assert (a + b).residue() == F.add(a.residue(), b.residue())
    assert (a * b).residue() == F.mul(a.residue(), b.residue())


def test_prime_field_inverse():
    F = PrimeField(7)
    for a in range(1, 7):
        assert F.mul(a, F.divide(1, a)) == 1
    with pytest.raises(ValueError):
        PrimeField(6)


def test_integer_ring_exact_divide():
    assert ZZ.divide(12, 4) == 3
    assert ZZ.divide(12, 5) is None
    assert QQ.divide(Fraction(1), Fraction(3)) == Fraction(1, 3)
