"""The four-element certificate over Z, checked by multiplication.

tests/fixtures/four_element_certificate.txt holds, for each of the ten
cubics m, cofactors h_i over Z with m^k = sum h_i g_i, g_i the four
Schmitt-Vogel elements.  An identity over Z holds in every ring, so it
proves the radical containment over Z_(2), over Z_2[[x]] and over every
field, and shows that radical-check's power route finds a k <= 4 for every
prime and order it accepts.
"""

import pytest

from mixedchar.groebner import POWER_BOUND, groebner_basis, power_exponent
from mixedchar.polynomials import Polynomial
from mixedchar.scalars import PrimeField, RationalField
from mixedchar.textio import reisner_ideal, schmitt_vogel_generators

from .oracles import ZZ, divisors, power, power_certificate, read_certificate

CERTIFICATE = read_certificate()


def test_the_certificate_expands_to_each_cubic_power_over_z():
    gens = schmitt_vogel_generators(ZZ)
    cubics = [Polynomial.monomial(ZZ, 6, e) for e in reisner_ideal().gens]
    assert [m for m, _, _ in CERTIFICATE] == cubics
    for m, k, cofactors in CERTIFICATE:
        assert 1 <= k <= POWER_BOUND and len(cofactors) == len(gens)
        total = Polynomial.zero(ZZ, 6)
        for h, g in zip(cofactors, gens):
            total = total + h * g
        assert total == power(m, k), m


@pytest.mark.parametrize("order", ["grlex", "lex"])
@pytest.mark.parametrize("ring", [PrimeField(2), PrimeField(3), RationalField()], ids=str)
def test_each_certificate_exponent_is_the_power_route_exponent(ring, order):
    basis = divisors(groebner_basis(schmitt_vogel_generators(ring), order), order)
    cubics = [Polynomial.monomial(ring, 6, e) for e in reisner_ideal().gens]
    assert [power_exponent(m, basis, order) for m in cubics] == [k for _, k, _ in CERTIFICATE]


def test_the_finder_reproduces_each_certificate_up_to_k_2():
    # the k = 3 cubics take about 1 s each; certificate_text() covers them
    gens = schmitt_vogel_generators(ZZ)
    small = [(m, k, cofactors) for m, k, cofactors in CERTIFICATE if k <= 2]
    assert len(small) == 4
    for m, k, cofactors in small:
        assert power_certificate(m, gens, k) == cofactors, m


def test_no_integer_certificate_below_each_exponent():
    gens = schmitt_vogel_generators(ZZ)
    for m, k, _ in CERTIFICATE:
        if k > 1:
            assert power_certificate(m, gens, k - 1) is None, m


def test_the_finder_solves_over_z_not_over_q():
    # 2 * x0 lies in (2 * x0) but x0 does not, though it does over Q
    x0 = Polynomial.variable(ZZ, 1, 0)
    assert power_certificate(x0, [x0.scale(2)], 1) is None
    assert power_certificate(x0.scale(2), [x0.scale(2)], 1) == [Polynomial.constant(ZZ, 1, 1)]
    assert power_certificate(x0.scale(6), [x0.scale(2), x0.scale(3)], 1) is not None
