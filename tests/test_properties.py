"""Seeded randomized identities across the algebra layers.

Each family draws its own deterministic stream and checks an algebraic law
on every draw; the case counts below are pinned so the suite always runs
over a thousand independent instances.
"""

import random
from math import factorial

from mixedchar.diffops import classify_d_submodule, pi_saturate
from mixedchar.intlinalg import IntMatrix
from mixedchar.monomials import MonomialIdeal
from mixedchar.polynomials import Polynomial
from mixedchar.scalars import DVR, PrimeField, RationalField
from mixedchar.simplicial import SimplicialComplex
from mixedchar.taylor import TaylorComplex

from .oracles import (
    DividedPowerOp,
    TaylorStrands,
    apply_op,
    coboundaries,
    compose_divided_powers,
    d_closure_constant_valuation,
    from_rows,
    op_mod_pi,
    reduce_mod_pi,
    smith_normal_form_full,
    term_ideal_min_dividing_valuation,
)

CASES = {
    "leibniz": 200,
    "composition": 200,
    "smith_form": 200,
    "double_boundary": 200,
    "closure_oracle": 100,
    "saturation_oracle": 100,
    "mod_pi": 200,
}

RINGS = (DVR(2), DVR(5), RationalField(), PrimeField(7))


def random_exponent(rng, n, deg):
    total = rng.randint(0, deg)
    cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
    bounds = [0] + cuts + [total]
    return tuple(bounds[i + 1] - bounds[i] for i in range(n))


def random_poly(rng, ring, n, terms=3, deg=3, lo=-9, hi=9):
    spec = {}
    for _ in range(terms):
        c = rng.randint(lo, hi)
        if c == 0:
            continue
        e = random_exponent(rng, n, deg)
        spec[e] = spec.get(e, 0) + c
    return Polynomial(ring, n, {e: ring.from_int(c) for e, c in spec.items() if c})


def test_divided_power_leibniz():
    rng = random.Random(9001)
    ran = 0
    for k in range(CASES["leibniz"]):
        ring = RINGS[k % len(RINGS)]
        n = rng.randint(1, 3)
        f = random_poly(rng, ring, n)
        g = random_poly(rng, ring, n)
        i = rng.randrange(n)
        t = rng.randint(1, 4)
        lhs = apply_op(DividedPowerOp.partial(ring, n, i, t), f * g)
        rhs = Polynomial.zero(ring, n)
        for a in range(t + 1):
            rhs = rhs + apply_op(DividedPowerOp.partial(ring, n, i, a), f) * apply_op(
                DividedPowerOp.partial(ring, n, i, t - a), g
            )
        assert lhs == rhs
        ran += 1
    assert ran == CASES["leibniz"]


def test_divided_power_composition_and_factorial_scaling():
    rng = random.Random(9002)
    ran = 0
    for k in range(CASES["composition"]):
        ring = RINGS[k % len(RINGS)]
        n = rng.randint(1, 3)
        f = random_poly(rng, ring, n, deg=4)
        i = rng.randrange(n)
        s = rng.randint(0, 3)
        t = rng.randint(0, 3)
        inner = apply_op(DividedPowerOp.partial(ring, n, i, t), f)
        composed = apply_op(DividedPowerOp.partial(ring, n, i, s), inner)
        assert composed == apply_op(compose_divided_powers(ring, n, i, s, t), f)
        iterated = f
        for _ in range(t):
            iterated = apply_op(DividedPowerOp.partial(ring, n, i, 1), iterated)
        scaled = apply_op(DividedPowerOp.partial(ring, n, i, t), f).scale(
            ring.from_int(factorial(t))
        )
        assert iterated == scaled
        ran += 1
    assert ran == CASES["composition"]


def test_smith_form_remultiplies():
    rng = random.Random(9003)
    ran = 0
    for _ in range(CASES["smith_form"]):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        M = from_rows(
            [
                [0 if rng.random() < 0.3 else rng.randint(-9, 9) for _ in range(n)]
                for _ in range(m)
            ]
        )
        D, U, W, Uinv, Winv = smith_normal_form_full(M)
        assert (U @ M @ W) == D
        assert (U @ Uinv) == IntMatrix.identity(m)
        assert (Winv @ W) == IntMatrix.identity(n)
        diag = [D.rows[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D.rows[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            assert a >= 0 and b >= 0
            assert b == 0 if a == 0 else b % a == 0
        ran += 1
    assert ran == CASES["smith_form"]


def test_double_boundary_vanishes():
    rng = random.Random(9004)
    ran = 0
    for _ in range(CASES["double_boundary"] // 2):
        n = rng.randint(1, 4)
        gens = {random_exponent(rng, n, 3) for _ in range(rng.randint(1, 5))}
        gens.discard((0,) * n)
        if not gens:
            gens = {(1,) + (0,) * (n - 1)}
        tc = TaylorComplex(MonomialIdeal(n, sorted(gens)))
        assert TaylorStrands(tc).validate() is None
        ran += 1
    for _ in range(CASES["double_boundary"] - CASES["double_boundary"] // 2):
        n = rng.randint(3, 6)
        facets = [tuple(sorted(rng.sample(range(n), 3)))]
        for _ in range(rng.randint(0, 3)):
            size = rng.randint(1, min(4, n))
            facets.append(tuple(sorted(rng.sample(range(n), size))))
        cx = SimplicialComplex(n, facets)
        cobs = coboundaries(cx)
        assert len(cobs) >= 2
        for low, high in zip(cobs, cobs[1:]):
            assert (high @ low).is_zero()
        ran += 1
    assert ran == CASES["double_boundary"]


def test_classifier_matches_the_span_oracle():
    rng = random.Random(9005)
    ran = 0
    for _ in range(CASES["closure_oracle"]):
        p = rng.choice((2, 3, 5))
        ring = DVR(p)
        n = rng.randint(1, 3)
        gens_terms = []
        for _ in range(rng.randint(1, 3)):
            spec = {}
            for _ in range(rng.randint(1, 3)):
                u = 0
                while u == 0 or u % p == 0:
                    u = rng.randint(-9, 9)
                c = u * p ** rng.randint(0, 5)
                e = random_exponent(rng, n, 4)
                spec[e] = spec.get(e, 0) + c
            spec = {e: c for e, c in spec.items() if c}
            if spec:
                gens_terms.append(spec)
        if not gens_terms:
            gens_terms = [{(0,) * n: p}]
        gens = [
            Polynomial(ring, n, {e: ring.from_int(c) for e, c in spec.items()})
            for spec in gens_terms
        ]
        verdict = classify_d_submodule(gens)
        assert verdict.ell == d_closure_constant_valuation(gens_terms, n, p)
        ran += 1
    assert ran == CASES["closure_oracle"]


def test_saturation_matches_the_division_oracle():
    rng = random.Random(9006)
    ran = 0
    for _ in range(CASES["saturation_oracle"]):
        p = rng.choice((2, 3))
        ring = DVR(p)
        n = rng.randint(1, 4)
        gens = [
            (random_exponent(rng, n, 4), rng.randint(0, 4))
            for _ in range(rng.randint(1, 4))
        ]
        polys = [
            Polynomial(ring, n, {e: ring.pi_power(v)}) for e, v in gens
        ]
        ideal = pi_saturate(polys)
        for e, _ in gens:
            assert ideal.contains_monomial(e)
        for _ in range(5):
            probe = random_exponent(rng, n, 5)
            expected = term_ideal_min_dividing_valuation(gens, probe) is not None
            assert ideal.contains_monomial(probe) == expected
        ran += 1
    assert ran == CASES["saturation_oracle"]


def test_reduction_mod_pi_commutes_with_operators():
    rng = random.Random(9007)
    ran = 0
    for k in range(CASES["mod_pi"]):
        ring = DVR(2 if k % 2 == 0 else 3)
        n = rng.randint(1, 3)
        terms = []
        for _ in range(rng.randint(1, 2)):
            coeff = random_poly(rng, ring, n, terms=2, deg=2)
            order = random_exponent(rng, n, 3)
            terms.append((coeff, order))
        op = DividedPowerOp(ring, n, terms)
        f = random_poly(rng, ring, n, deg=4)
        assert reduce_mod_pi(apply_op(op, f)) == apply_op(op_mod_pi(op), reduce_mod_pi(f))
        ran += 1
    assert ran == CASES["mod_pi"]


def test_case_budget_exceeds_one_thousand():
    assert sum(CASES.values()) >= 1000
