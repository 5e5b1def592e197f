import pytest

from mixedchar.monomials import MonomialIdeal, power_ideal


def test_minimalization_and_canonical_order():
    I = MonomialIdeal(2, [(2, 1), (2, 0), (0, 3), (2, 1)])
    assert I.gens == ((2, 0), (0, 3))
    with pytest.raises(ValueError):
        MonomialIdeal(2, [(1, -1)])


def test_unit_and_zero_ideals():
    assert MonomialIdeal(3, [(0, 0, 0), (1, 2, 0)]).is_unit()
    Z = MonomialIdeal(3, [])
    assert Z.is_zero()
    assert not Z.contains_monomial((0, 0, 0))


def test_membership_and_lcm():
    I = MonomialIdeal(2, [(2, 0), (0, 3)])
    assert I.contains_monomial((2, 5))
    assert not I.contains_monomial((1, 2))
    assert I.lcm_exponent() == (2, 3)


def test_power_ideal_scales_exponents():
    I = MonomialIdeal(2, [(1, 0), (0, 2)])
    I3 = power_ideal(I, 3)
    assert I3.gens == ((3, 0), (0, 6))
    with pytest.raises(ValueError):
        power_ideal(I, 0)

