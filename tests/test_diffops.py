import random
from math import factorial

import pytest

from mixedchar.diffops import (
    Annihilator,
    AnnihilatorEvidence,
    classify_d_submodule,
    infer_annihilator,
    pi_saturate,
)
from mixedchar.monomials import MonomialIdeal
from mixedchar.polynomials import Polynomial
from mixedchar.scalars import DVR

from tests.oracles import (
    DividedPowerOp,
    apply_op,
    compose_divided_powers,
    d_closure_constant_valuation,
    op_mod_pi,
    reduce_mod_pi,
)

V2 = DVR(2)
V5 = DVR(5)


def _rand_poly(rng, ring, n, maxdeg=4, nterms=4, maxval=3):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, maxdeg) for _ in range(n))
        if sum(e) > maxdeg:
            continue
        unit = rng.choice([1, 3, 5, 7, -1, -3]) if ring.p == 2 else rng.choice([1, 2, 3, -1, -2])
        c = ring.from_int(unit * ring.p ** rng.randint(0, maxval))
        terms[e] = c
    return Polynomial(ring, n, terms)


def test_divided_power_binomial_action():
    op = DividedPowerOp.partial(V2, 1, 0, 2)
    f = Polynomial.monomial(V2, 1, (5,))
    g = apply_op(op, f)
    assert g.terms[(3,)].to_fraction() == 10
    assert apply_op(DividedPowerOp.single(V2, 1, (2,)), f).terms[(3,)].to_fraction() == 10
    # order above the exponent kills the monomial
    assert apply_op(DividedPowerOp.partial(V2, 1, 0, 6), f).is_zero()


def test_divided_power_multivariable_product_of_binomials():
    op = DividedPowerOp.single(V2, 2, (1, 2))
    f = Polynomial.monomial(V2, 2, (3, 4))
    g = apply_op(op, f)
    assert g.terms[(2, 2)].to_fraction() == 3 * 6


def test_leibniz_rule_for_first_order_operators():
    rng = random.Random(31)
    for _ in range(200):
        ring = rng.choice([V2, V5])
        n = rng.randint(1, 3)
        i = rng.randrange(n)
        d = DividedPowerOp.partial(ring, n, i, 1)
        f = _rand_poly(rng, ring, n)
        g = _rand_poly(rng, ring, n)
        lhs = apply_op(d, f * g)
        rhs = apply_op(d, f) * g + f * apply_op(d, g)
        assert lhs == rhs


def test_iterated_partial_is_factorial_times_divided_power():
    rng = random.Random(32)
    for _ in range(150):
        ring = rng.choice([V2, V5])
        n = rng.randint(1, 3)
        i = rng.randrange(n)
        t = rng.randint(1, 4)
        f = _rand_poly(rng, ring, n)
        once = DividedPowerOp.partial(ring, n, i, 1)
        g = f
        for _ in range(t):
            g = apply_op(once, g)
        h = apply_op(DividedPowerOp.partial(ring, n, i, t), f)
        assert g == h.scale(ring.from_int(factorial(t)))


def test_composition_rule_binomial_coefficient():
    rng = random.Random(33)
    for _ in range(100):
        ring = rng.choice([V2, V5])
        n = rng.randint(1, 3)
        i = rng.randrange(n)
        s, t = rng.randint(0, 3), rng.randint(0, 3)
        f = _rand_poly(rng, ring, n)
        two_steps = apply_op(
            DividedPowerOp.partial(ring, n, i, s),
            apply_op(DividedPowerOp.partial(ring, n, i, t), f),
        )
        combined = apply_op(compose_divided_powers(ring, n, i, s, t), f)
        assert two_steps == combined


def test_full_order_divided_power_extracts_leading_coefficient():
    rng = random.Random(34)
    for _ in range(150):
        ring = rng.choice([V2, V5])
        n = rng.randint(1, 3)
        f = _rand_poly(rng, ring, n)
        if f.is_zero():
            continue
        gamma, lead = f.leading_term("grlex")
        g = apply_op(DividedPowerOp.single(ring, n, gamma), f)
        assert g == Polynomial.constant(ring, n, lead)


def test_reduction_mod_pi_commutes_with_operators():
    rng = random.Random(35)
    for _ in range(200):
        ring = rng.choice([V2, V5])
        n = rng.randint(1, 3)
        order = tuple(rng.randint(0, 2) for _ in range(n))
        op = DividedPowerOp.single(ring, n, order)
        f = _rand_poly(rng, ring, n)
        assert reduce_mod_pi(apply_op(op, f)) == apply_op(op_mod_pi(op), reduce_mod_pi(f))


def test_classifier_worked_examples():
    # p^2 x0 x1 + p^5 x0^3 at p = 2 generates pi^2 times the ring
    f = Polynomial(V2, 2, {(1, 1): V2.from_int(4), (3, 0): V2.from_int(32)})
    v = classify_d_submodule([f])
    assert v.ell == 2 and v.ideal_tag() == "(2^2)"
    # 3 x0 + 5 x1 at p = 5: the coefficient 3 is a unit
    g = Polynomial(V5, 2, {(1, 0): V5.from_int(3), (0, 1): V5.from_int(5)})
    v = classify_d_submodule([g])
    assert v.ell == 0 and v.is_unit() and v.ideal_tag() == "(1)"
    with pytest.raises(ValueError):
        classify_d_submodule([Polynomial.zero(V2, 2)])


def test_classifier_agrees_with_closure_oracle_small():
    rng = random.Random(36)
    for _ in range(60):
        p = rng.choice([2, 3])
        ring = DVR(p)
        n = rng.randint(1, 2)
        gens = []
        raw = []
        for _ in range(rng.randint(1, 2)):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                e = tuple(rng.randint(0, 3) for _ in range(n))
                if sum(e) > 3:
                    continue
                c = rng.choice([1, -1, 3]) * p ** rng.randint(0, 4)
                terms[e] = terms.get(e, 0) + c
            terms = {e: c for e, c in terms.items() if c}
            if terms:
                raw.append(terms)
                gens.append(
                    Polynomial(ring, n, {e: ring.from_int(c) for e, c in terms.items()})
                )
        if not gens:
            continue
        got = classify_d_submodule(gens).ell
        want = d_closure_constant_valuation(raw, n, p)
        assert got == want, (raw, got, want)


def test_classifier_invariant_under_module_combinations():
    rng = random.Random(37)
    for _ in range(50):
        ring = rng.choice([V2, V5])
        n = 2
        gens = [_rand_poly(rng, ring, n) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        combo = gens[0] * Polynomial.variable(ring, n, 0) + gens[-1].scale(ring.from_int(ring.p))
        base = classify_d_submodule(gens).ell
        assert classify_d_submodule(gens + [combo]).ell == base


def test_pi_saturate_strips_pi_parts():
    f = Polynomial.monomial(V2, 2, (1, 0), V2.from_int(4))
    g = Polynomial.monomial(V2, 2, (0, 3), V2.from_int(2))
    assert pi_saturate([f, g]) == MonomialIdeal(2, [(1, 0), (0, 3)])
    # a pure constant saturates to the unit ideal
    c = Polynomial.constant(V2, 2, V2.from_int(8))
    assert pi_saturate([c]).is_unit()


def test_pi_saturate_rejects_non_terms():
    f = Polynomial(V2, 2, {(1, 0): V2.one(), (0, 1): V2.one()})
    with pytest.raises(ValueError):
        pi_saturate([f])
    with pytest.raises(ValueError):
        pi_saturate([])


def test_annihilators_compare_by_value():
    a = Annihilator("pi_power", 2, 1)
    assert a == Annihilator("pi_power", 2, 1)
    assert a != Annihilator("pi_power", 2, 2)
    assert a != Annihilator("pi_power", 3, 1)
    assert a != Annihilator("zero", 2, 1)
    assert Annihilator("zero", 2) == Annihilator("zero", 2, None)
    assert a != ("pi_power", 2, 1)


def test_infer_annihilator_branches():
    assert infer_annihilator(AnnihilatorEvidence(2, nonzero=False)).tag() == "(1)"
    a = infer_annihilator(AnnihilatorEvidence(2, nonzero=True, kill_exponent=1))
    assert a == Annihilator("pi_power", 2, 1) and a.tag() == "(2)"
    assert (
        infer_annihilator(AnnihilatorEvidence(3, nonzero=True, kill_exponent=2)).tag()
        == "(3^2)"
    )
    z = infer_annihilator(
        AnnihilatorEvidence(2, nonzero=True, infinite_type_witness=True)
    )
    assert z.tag() == "(0)"
    assert (
        infer_annihilator(AnnihilatorEvidence(2, nonzero=True)).kind == "inconclusive"
    )
    with pytest.raises(ValueError):
        infer_annihilator(AnnihilatorEvidence(2, nonzero=True, kill_exponent=0))
    with pytest.raises(ValueError):
        infer_annihilator(
            AnnihilatorEvidence(
                2, nonzero=True, kill_exponent=1, infinite_type_witness=True
            )
        )
