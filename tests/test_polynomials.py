import random
from fractions import Fraction

import pytest

from mixedchar.scalars import DVR, PrimeField, QQ
from mixedchar.polynomials import (
    ORDER_KEYS,
    ORDER_MAX,
    Polynomial,
    exact_divide,
    exp_leq,
    exp_max,
)

from .oracles import ZZ, extend_variables, permute_variables


def P(ring, n, terms):
    return Polynomial(ring, n, terms)


def test_zero_coefficients_never_stored():
    f = P(ZZ, 2, {(1, 0): 0, (0, 1): 3})
    assert list(f.terms) == [(0, 1)]
    g = P(ZZ, 2, {(0, 1): -3})
    assert (f + g).is_zero()


def test_grlex_order_prefers_degree_then_early_variables():
    # x0^2 beats x0*x1 beats x1^2 beats x0
    f = P(ZZ, 2, {(2, 0): 1, (1, 1): 5, (0, 2): 7, (1, 0): 9})
    assert f.leading_term("grlex") == ((2, 0), 1)
    g = P(ZZ, 2, {(1, 1): 5, (0, 2): 7})
    assert g.leading_term("grlex") == ((1, 1), 5)


def _grlex_less(a, b):
    # independent comparison used as the oracle
    if sum(a) != sum(b):
        return sum(a) < sum(b)
    for x, y in zip(a, b):
        if x != y:
            return x < y
    return False


def test_grlex_leading_term_matches_pairwise_oracle():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 4)
        exps = set()
        while len(exps) < rng.randint(1, 8):
            exps.add(tuple(rng.randint(0, 6) for _ in range(n)))
        f = P(ZZ, n, {e: rng.choice([1, -1]) * rng.randint(1, 9) for e in exps})
        e_star, _ = f.leading_term("grlex")
        for e in f.terms:
            assert not _grlex_less(e_star, e)


def test_leading_monomial_invariant_under_unit_scaling():
    rng = random.Random(11)
    for _ in range(100):
        exps = {tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(5)}
        f = P(QQ, 3, {e: Fraction(rng.randint(1, 20), rng.randint(1, 7)) for e in exps})
        e1, _ = f.leading_term("grlex")
        e2, _ = f.scale(Fraction(-22, 7)).leading_term("grlex")
        assert e1 == e2


def test_multiplication_and_arity_checks():
    f = P(ZZ, 2, {(1, 0): 2, (0, 1): 1})
    g = P(ZZ, 2, {(1, 0): 1, (0, 1): -1})
    assert (f * g).terms == {(2, 0): 2, (1, 1): -1, (0, 2): -1}
    with pytest.raises(ValueError):
        f * P(ZZ, 3, {(0, 0, 0): 1})
    with pytest.raises(ValueError):
        P(ZZ, 2, {(1,): 1})


def test_exact_divide_round_trip_over_four_rings():
    rng = random.Random(3)
    V = DVR(2)
    F5 = PrimeField(5)

    def rand_poly(ring, conv, n, maxdeg, nterms):
        terms = {}
        for _ in range(nterms):
            e = tuple(rng.randint(0, maxdeg) for _ in range(n))
            c = conv(rng.choice([1, -1]) * rng.randint(1, 12))
            if not ring.is_zero(c):
                terms[e] = c
        return Polynomial(ring, n, terms)

    cases = [
        (ZZ, lambda k: k),
        (QQ, lambda k: Fraction(k, 3)),
        (F5, lambda k: k % 5),
        (V, lambda k: V.from_int(k)),
    ]
    for ring, conv in cases:
        done = 0
        while done < 25:
            g = rand_poly(ring, conv, 2, 3, 3)
            h = rand_poly(ring, conv, 2, 3, 3)
            if g.is_zero() or h.is_zero():
                continue
            f = g * h
            q = exact_divide(f, g)
            assert q is not None and q == h, (ring, f, g, h, q)
            done += 1


def test_exact_divide_detects_nondivisibility():
    x0 = Polynomial.variable(ZZ, 2, 0)
    x1 = Polynomial.variable(ZZ, 2, 1)
    one = Polynomial.constant(ZZ, 2, 1)
    f = x0 * x0 + one
    assert exact_divide(f, x0) is None
    # coefficient obstruction over Z: 2x+2 not divisible by 4? but 3 | nothing here
    g = (x0 + x1).scale(2)
    assert exact_divide(g, (x0 + x1).scale(4)) is None
    assert exact_divide(g, x0 + x1) == Polynomial.constant(ZZ, 2, 2)
    with pytest.raises(ZeroDivisionError):
        exact_divide(f, Polynomial.zero(ZZ, 2))


def test_exact_divide_respects_dvr_valuations():
    V = DVR(2)
    x = Polynomial.variable(V, 1, 0)
    f = x.scale(V.from_int(2))
    g = x.scale(V.from_int(4))
    assert exact_divide(f, g) is None  # 2x / 4x needs valuation -1
    q = exact_divide(g, f)
    assert q == Polynomial.constant(V, 1, V.from_int(2))


def test_exp_helpers():
    assert exp_max((1, 2), (3, 0)) == (3, 2)
    assert exp_leq((1, 0), (1, 2))
    assert not exp_leq((2, 0), (1, 2))


def test_permute_and_extend_variables():
    f = P(ZZ, 2, {(2, 1): 5})
    g = permute_variables(f, [1, 0])
    assert g.terms == {(1, 2): 5}
    h = extend_variables(f, 4)
    assert h.terms == {(2, 1, 0, 0): 5}
    with pytest.raises(ValueError):
        extend_variables(f, 1)


def test_order_max_picks_the_largest_exponent_under_each_order_key():
    rng = random.Random(71)
    for _ in range(200):
        n = rng.randint(1, 5)
        exps = {tuple(rng.randrange(4) for _ in range(n)) for _ in range(rng.randint(1, 12))}
        for order, key in ORDER_KEYS.items():
            assert ORDER_MAX[order](exps) == max(exps, key=key), (order, exps)
