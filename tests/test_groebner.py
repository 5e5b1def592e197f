import heapq
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from mixedchar import groebner, subsets
from mixedchar.groebner import (
    buchberger,
    groebner_basis,
    monomial_ideal_member,
    normal_form,
    reduce_basis,
    spoly,
    sv_containment_check,
)
from mixedchar.monomials import MonomialIdeal
from mixedchar.polynomials import Polynomial, exp_leq
from mixedchar.scalars import DVR, PrimeField, RationalField
from mixedchar.subsets import budget
from mixedchar.textio import schmitt_vogel_generators

from . import oracles
from .oracles import buchberger_all_pairs, divisors, ideal_member, radical_member

QQ = RationalField()
F2 = PrimeField(2)
F3 = PrimeField(3)


def poly(ring, n, spec):
    return Polynomial(ring, n, {e: ring.from_int(c) for e, c in spec.items()})


def random_system(ring, rng, n=3, count=3, terms=3, deg=3):
    out = []
    for _ in range(count):
        spec = {}
        for _ in range(terms):
            e = tuple(rng.randrange(deg) for _ in range(n))
            c = rng.randrange(1, 5)
            spec[e] = c
        out.append(poly(ring, n, spec))
    return out


def test_reduced_basis_known_answer():
    # x0^3 - 2 x0 x1 and x0^2 x1 - 2 x1^2 + x0, graded order
    f1 = poly(QQ, 2, {(3, 0): 1, (1, 1): -2})
    f2 = poly(QQ, 2, {(2, 1): 1, (0, 2): -2, (1, 0): 1})
    gb = groebner_basis([f1, f2])
    expected = (
        poly(QQ, 2, {(2, 0): 1}),
        poly(QQ, 2, {(1, 1): 1}),
        Polynomial(QQ, 2, {(0, 2): Fraction(1), (1, 0): Fraction(-1, 2)}),
    )
    assert set(gb) == set(expected)
    assert ideal_member(f1, gb) and ideal_member(f2, gb)


def test_lex_elimination_on_monomial_curve():
    # parametrized by t -> (t, t^2, t^3); x0 eliminated in lex
    g1 = poly(QQ, 3, {(0, 1, 0): 1, (2, 0, 0): -1})
    g2 = poly(QQ, 3, {(0, 0, 1): 1, (3, 0, 0): -1})
    gb = groebner_basis([g1, g2], order="lex")
    relation = poly(QQ, 3, {(0, 3, 0): 1, (0, 0, 2): -1})
    assert ideal_member(relation, gb, order="lex")
    assert any(all(e[0] == 0 for e in g.terms) for g in gb)


def test_every_spair_reduces_to_zero():
    rng = random.Random(52)
    for ring in (QQ, F2):
        for trial in range(6):
            gb = divisors(groebner_basis(random_system(ring, rng)))
            for i in range(len(gb)):
                for j in range(i + 1, len(gb)):
                    assert normal_form(spoly(gb[i], gb[j]), gb).is_zero()


def test_normal_form_ignores_basis_order():
    rng = random.Random(53)
    system = random_system(QQ, rng, count=4)
    gb = list(groebner_basis(system))
    probe = random_system(QQ, rng, count=1, terms=5)[0]
    reference = normal_form(probe, divisors(gb))
    for _ in range(5):
        rng.shuffle(gb)
        assert normal_form(probe, divisors(gb)) == reference


def test_normal_form_remainder_has_no_reducible_term():
    rng = random.Random(54)
    system = random_system(F2, rng)
    gb = groebner_basis(system)
    probe = random_system(F2, rng, count=1, terms=6)[0]
    r = normal_form(probe, divisors(gb))
    lts = [g.leading_term()[0] for g in gb]
    for e in r.terms:
        assert not any(exp_leq(lt, e) for lt in lts)
    assert ideal_member(probe - r, gb)


def test_normal_form_and_spoly_match_the_arithmetic_oracles():
    rng = random.Random(61)
    for ring in (F2, F3, QQ):
        x0, x1, x2 = (Polynomial.variable(ring, 3, i) for i in range(3))
        # lt x0*x1 and lt x0 both divide every multiple of x0*x1, in both orders
        overlapping = [x0 * x1 + x2, x0 + x2]
        for order in ("grlex", "lex"):
            order_mattered = False
            for trial in range(12):
                gens = [g for g in random_system(ring, rng, count=3) if not g.is_zero()]
                listed = divisors(overlapping + gens, order)
                for a in gens + overlapping:
                    for b in gens + overlapping:
                        records = divisors([a, b], order)
                        assert spoly(*records) == oracles.arithmetic_spoly(a, b, order)
                probe = random_system(ring, rng, count=1, terms=5)[0] * (x0 * x1)
                probe = probe + random_system(ring, rng, count=1)[0]
                remainders = []
                for ds in (listed, listed[::-1]):
                    r = normal_form(probe, ds, order)
                    assert r == oracles.arithmetic_normal_form(probe, ds, order)
                    assert normal_form(r, ds, order) == r  # already reduced
                    assert normal_form(Polynomial.zero(ring, 3), ds, order).is_zero()
                    remainders.append(r)
                order_mattered |= remainders[0] != remainders[1]
            # the divisor lists are not Groebner bases, so the first-listed
            # divisor rule shows in the remainders
            assert order_mattered, (ring, order)


def test_spoly_and_normal_form_read_leading_terms_off_the_records(monkeypatch):
    """A division record is built once per element: neither spoly nor
    normal_form scans a polynomial for its leading term again."""

    def no_scan(self, order="grlex"):
        raise AssertionError("leading_term scanned again")

    for ring in (F2, QQ):
        gens = schmitt_vogel_generators(ring)
        for order in ("grlex", "lex"):
            records = divisors(gens, order)
            spolys = [oracles.arithmetic_spoly(a, b, order) for a in gens for b in gens]
            remainders = [oracles.arithmetic_normal_form(s, records, order) for s in spolys]
            with monkeypatch.context() as m:
                m.setattr(Polynomial, "leading_term", no_scan)
                got = [spoly(a, b) for a in records for b in records]
                assert got == spolys
                assert [normal_form(s, records, order) for s in got] == remainders


def test_each_new_element_scans_its_leading_term_once(monkeypatch):
    """The four radical checks (F2 and Q, grlex and lex) make 427 leading
    term scans: a generator or new element's record is its monic form's,
    read off the scan that finds the coefficient to divide by (it was 572
    when the monic form was scanned again for its record)."""
    scans = []
    real = Polynomial.leading_term

    def counted(self, order="grlex"):
        scans.append(order)
        return real(self, order)

    monkeypatch.setattr(Polynomial, "leading_term", counted)
    for order in ("grlex", "lex"):
        for ring in (F2, QQ):
            assert sv_containment_check(ring, order)["all_ok"]
    assert len(scans) == 427


def test_groebner_basis_reaches_the_traced_functions(monkeypatch):
    """perfbench/spans.py times groebner.normal_form and groebner.spoly and
    counts their calls by wrapping those module names; inlining either into
    buchberger would read zero there without failing a run."""
    calls = {"normal_form": 0, "spoly": 0}
    for name in calls:
        original = getattr(groebner, name)

        def counted(*args, name=name, original=original, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(groebner, name, counted)
    assert groebner_basis(schmitt_vogel_generators(F2))
    assert calls["normal_form"] > 0 and calls["spoly"] > 0, calls


def test_groebner_is_deterministic():
    rng = random.Random(55)
    system = random_system(QQ, rng)
    assert groebner_basis(system) == groebner_basis(list(system))


def test_unit_ideal_collapses_to_one():
    f = poly(QQ, 2, {(2, 1): 3})
    c = poly(QQ, 2, {(0, 0): 7})
    assert groebner_basis([f, c]) == (poly(QQ, 2, {(0, 0): 1}),)


def test_empty_and_zero_input():
    assert groebner_basis([]) == ()
    assert groebner_basis([Polynomial.zero(QQ, 2)]) == ()
    assert reduce_basis([]) == ()


def test_radical_membership_examples():
    for ring in (QQ, F2):
        cube = poly(ring, 2, {(2, 3): 1})
        product = poly(ring, 2, {(1, 1): 1})
        line = poly(ring, 2, {(1, 0): 1, (0, 1): 1})
        assert radical_member(product, [cube])
        assert not ideal_member(product, groebner_basis([cube]))
        assert not radical_member(line, [product])
        assert radical_member(Polynomial.zero(ring, 2), [])
        assert not radical_member(line, [])


def test_radical_membership_monotone_in_generators():
    rng = random.Random(56)
    for trial in range(5):
        system = random_system(F2, rng, count=2)
        extra = random_system(F2, rng, count=1)
        probe = random_system(F2, rng, count=1, terms=2)[0]
        if probe.is_zero():
            continue
        if radical_member(probe, system):
            assert radical_member(probe, system + extra)


def test_deadline_interrupts():
    f1 = poly(QQ, 2, {(3, 0): 1, (1, 1): -2})
    f2 = poly(QQ, 2, {(2, 1): 1, (0, 2): -2, (1, 0): 1})
    probe = poly(QQ, 2, {(1, 0): 1})
    # a budget spent before the basis starts
    with pytest.raises(TimeoutError), budget(-1.0):
        radical_member(probe, [f1, f2])


def test_the_basis_of_j_gets_the_one_deadline(monkeypatch):
    # the one reduced basis of J is built under the command's budget, and
    # each of the ten cubics checks that budget before its powers
    bases, checks = [], []

    def basis(gens, order="grlex"):
        bases.append(subsets._deadline)
        return groebner_basis(gens, order)

    def check(what):
        if what == "the radical certificate":  # not the pair loop's checks
            checks.append(subsets._deadline)

    monkeypatch.setattr(groebner, "groebner_basis", basis)
    monkeypatch.setattr(groebner, "check_deadline", check)
    with budget(600):
        deadline = subsets._deadline
        assert sv_containment_check(F2)["all_ok"]
    assert deadline is not None
    assert bases == [deadline]
    assert checks == [deadline] * 10


def test_every_power_exponent_certifies_a_member_and_is_minimal():
    """Random small ideals over F2, F3 and Q in both orders.  Each draw
    probes a member f with f^m in the ideal, m up to 7, so some members
    need more than POWER_BOUND powers, and a random polynomial, which is
    often no member.  Every k that power_exponent returns names a member
    by the Rabinowitsch oracle, with g^k in the ideal and g^(k-1) not; a
    None means no power up to POWER_BOUND lies in the ideal."""
    rng = random.Random(4242)
    certified = members_past_the_bound = non_members = 0
    for order in ("grlex", "lex"):
        for ring in (F2, F3, QQ):
            for trial in range(6):
                f = random_system(ring, rng, n=2, count=1, terms=2, deg=2)[0]
                if f.is_zero() or f.is_constant():
                    continue
                gens = [oracles.power(f, rng.randint(1, 7))]
                gens += random_system(ring, rng, n=2, count=1, terms=2, deg=4)
                basis = groebner_basis(gens, order)
                probe = random_system(ring, rng, n=2, count=1, terms=2, deg=2)[0]
                for g in (f, probe):
                    expected = radical_member(g, gens, order)
                    k = groebner.power_exponent(g, divisors(basis, order), order)
                    if k is None:
                        for j in range(1, groebner.POWER_BOUND + 1):
                            assert not ideal_member(oracles.power(g, j), basis, order), (g, gens, j)
                    else:  # the certificate: g^k is in the ideal, g^(k-1) is not
                        assert expected, (g, gens)
                        assert ideal_member(oracles.power(g, k), basis, order)
                        assert k == 1 or not ideal_member(oracles.power(g, k - 1), basis, order)
                    certified += k is not None
                    members_past_the_bound += k is None and expected
                    non_members += not expected
    assert certified and members_past_the_bound and non_members, (
        certified, members_past_the_bound, non_members,
    )


def test_field_coefficients_required():
    ring = DVR(2)
    f = Polynomial.variable(ring, 2, 0)
    with pytest.raises(ValueError):
        groebner_basis([f])


def test_monomial_ideal_member_by_terms():
    ideal = MonomialIdeal(2, [(2, 0), (0, 3)])
    inside = poly(QQ, 2, {(2, 1): 5, (1, 3): -1})
    outside = poly(QQ, 2, {(2, 1): 5, (1, 1): -1})
    assert monomial_ideal_member(inside, ideal)
    assert not monomial_ideal_member(outside, ideal)


def test_four_element_containment_certificate():
    for ring in (F2, QQ):
        with budget(60):
            out = sv_containment_check(ring)
        assert out["all_ok"]
        assert out["generators_in_ideal"] == [True] * 4
        assert out["radical_members"] == [True] * 10
        assert out["field"] == ring.name


@pytest.mark.parametrize("order", ["grlex", "lex"])
def test_pair_pruning_keeps_the_reduced_basis_and_the_radical_verdict(order, monkeypatch):
    rng = random.Random(57 if order == "grlex" else 58)
    for ring in (F2, F3, QQ):
        # rational coefficients grow fast: the all-pairs loop takes seconds
        # on some three-variable systems, and the radical test adds a variable
        n = 2 if ring is QQ else 3
        for trial in range(8):
            system = random_system(ring, rng, n=n)
            pruned = reduce_basis(buchberger(system, order), order)
            assert pruned == reduce_basis(buchberger_all_pairs(system, order), order)
            system = random_system(ring, rng, n=2)
            probe = random_system(ring, rng, n=2, count=1, terms=2)[0]
            verdict = radical_member(probe, system, order)
            with monkeypatch.context() as m:
                m.setattr(groebner, "buchberger", buchberger_all_pairs)
                assert radical_member(probe, system, order) == verdict


def test_pair_pruning_forms_fewer_s_polynomials_on_the_certificate(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append(1)
        return spoly(a, b)

    monkeypatch.setattr(groebner, "spoly", counted)
    monkeypatch.setattr(oracles, "spoly", counted)
    for order in ("grlex", "lex"):
        formed = []
        for loop in (buchberger, buchberger_all_pairs):
            del calls[:]
            with monkeypatch.context() as m:
                m.setattr(groebner, "buchberger", loop)
                assert sv_containment_check(F2, order)["all_ok"]
            formed.append(len(calls))
        assert 0 < formed[0] < formed[1], (order, formed)


def library_pair_trace(gens, order, monkeypatch):
    """groebner.buchberger run with its pops, updates and S-remainders
    recorded, in the shape of oracles.reference_pair_trace; each remainder
    is checked against oracles.arithmetic_normal_form as it is made."""
    pops, actives, remainders = [], [], []
    update, nf = groebner._update, groebner.normal_form

    def recorded_pop(heap):
        pair = heapq.heappop(heap)
        pops.append(pair[1:3])
        return pair

    def recorded_update(*args):
        actives.append(update(*args))
        return actives[-1]

    def recorded_normal_form(f, listed, order):
        remainders.append(nf(f, listed, order))
        assert remainders[-1] == oracles.arithmetic_normal_form(f, listed, order)
        return remainders[-1]

    with monkeypatch.context() as m:
        m.setattr(groebner, "heapq", SimpleNamespace(heappop=recorded_pop, heapify=heapq.heapify))
        m.setattr(groebner, "_update", recorded_update)
        m.setattr(groebner, "normal_form", recorded_normal_form)
        basis = buchberger(gens, order)
    return (pops, actives, remainders), basis


def test_pair_updates_and_remainders_match_the_reference_loop(monkeypatch):
    """The field kernels, support masks and once-per-lcm update do the same
    work in the same order as the pairwise update and generic division
    they replaced (oracles.reference_update, reference_normal_form), on the
    four generators and seeded random systems over F2, F3 and Q in both
    orders: the same pairs popped, the same active set after every update,
    and every S-remainder equal to both references and to the arithmetic
    oracle."""
    rng = random.Random(4343)
    remainders = []
    for ring in (F2, F3, QQ):
        systems = [schmitt_vogel_generators(ring)]
        systems += [random_system(ring, rng, n=3, count=4, terms=3) for _ in range(6)]
        for order in ("grlex", "lex"):
            for gens in systems:
                trace, basis = library_pair_trace(gens, order, monkeypatch)
                reference, reference_basis = oracles.reference_pair_trace(gens, order)
                assert trace[0] == reference[0], (ring, order, "popped pairs")
                assert trace[1] == reference[1], (ring, order, "active sets")
                assert trace[2] == reference[2], (ring, order, "S-remainders")
                assert basis == reference_basis
                remainders += trace[2]
    assert any(r.is_zero() for r in remainders) and not all(r.is_zero() for r in remainders)


def test_more_variables_than_the_support_masks_hold_are_refused():
    # _update reads coprime pairs off one bit per variable
    n = groebner.MAX_VARIABLES + 1
    gens = [Polynomial.variable(F2, n, 0), Polynomial.variable(F2, n, n - 1)]
    with pytest.raises(ValueError, match="variables"):
        groebner_basis(gens)
    assert len(groebner_basis([Polynomial.variable(F2, n - 1, i) for i in (0, n - 2)])) == 2
