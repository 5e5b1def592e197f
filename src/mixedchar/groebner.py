"""Buchberger's algorithm over field coefficients, and the four-element certificate.

Pairs are processed smallest lcm first and pruned by the Gebauer-Moeller
update (Gebauer and Moeller, J. Symb. Comput. 6, 1988; Becker and
Weispfenning, Groebner Bases, 1993, section 5.5): Buchberger's chain
criterion together with the coprime criterion, where a coprime pair
still takes part in the chain test among the new pairs before it is
dropped.  A skipped pair's S-polynomial reduces to zero once the pairs
kept do, so nothing is approximated.  The returned basis is reduced:
monic, no leading term divides another, and every element is in normal
form with respect to the rest, so it is canonical for the ideal and
order whichever pairs were reduced.

The arithmetic is specialised to the two coefficient fields buchberger
accepts (_kernel).  Over F_p a coefficient is an int in [0, p); over Q it
is an int while integral and a Fraction only when not, which in the
certificate's bases is 3 coefficients of 67.  Every divisor and S-pair
partner the library passes is monic, so a leading coefficient of 1 is
used as it is, with no division.  Each basis element gets one division
record, built once (divisor): leading exponent, leading coefficient, the
support mask of the leading exponent, one bit per variable that occurs
(support_mask, the "short exponent vector" of Bachmann and Schoenemann,
ISSAC 1998), and the element.  Division, S-polynomials and the pair
update read the records; one AND of masks rejects most divisors and
decides whether a pair is coprime.  The Gebauer-Moeller test among the
new pairs is decided once per distinct lcm (_update), which keeps the
same pairs as testing each pair against every other.  Polynomials the
kernel builds skip the per-term checks of Polynomial(), as their terms
are canonical, and each division step finds its leading term by
ORDER_MAX, with no Python call per term.

The four-element certificate decides each cubic f by explicit powers in
one reduced basis of the ideal: the least k <= POWER_BOUND with
NF(f^k) = NF(f * NF(f^(k-1))) = 0, which holds exactly when f^k lies in
it (Cox, Little and O'Shea, Ideals, Varieties, and Algorithms, section
4.2).  An integer certificate m^k = sum h_i g_i for each of the ten
cubics, kept with the tests, shows such a k exists over every field and
over Z_(2); a cubic with no such k would read false."""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Sequence
from itertools import compress
from operator import add, le, sub

from .monomials import MonomialIdeal
from .polynomials import ORDER_KEYS, ORDER_MAX, Polynomial, exp_leq, exp_max, exp_sub
from .scalars import PrimeField, RationalField
from .subsets import check_deadline
from .textio import MAX_VARIABLES, reisner_ideal, schmitt_vogel_generators

# Largest power of a cubic the four-element certificate tries.
POWER_BOUND = 4

# one bit per variable, as many as a polynomial file may have
_BITS = tuple(1 << i for i in range(MAX_VARIABLES))


def _require_field(ring) -> None:
    if not isinstance(ring, (RationalField, PrimeField)):
        raise ValueError(f"need field coefficients, got {ring!r}")


def support_mask(e) -> int:
    """The support of an exponent as a bitmask, bit i set when e[i] > 0.

    x^a can divide x^b only when support_mask(a) & ~support_mask(b) == 0,
    so one AND rejects most divisors before the exact comparison, and two
    exponents are coprime exactly when their masks share no bit.  Only the
    first MAX_VARIABLES variables have a bit: past them a mask still
    rejects only non-divisors but no longer decides coprimality, so
    buchberger refuses more variables."""
    return sum(compress(_BITS, e))


def _integral(q):
    """A rational coefficient as an int when it is one, else the Fraction."""
    return q.numerator if q.denominator == 1 else q


def _kernel(ring) -> tuple:
    """(subtract, divide) for the field ring, in the coefficients the
    module docstring describes.

    subtract(terms, g_terms, shift, c) does terms -= c * x^shift * g in
    place, dropping the coefficients it cancels; c is never zero, so a sum
    that cancels is always one already stored.  divide(a, b) is a / b.
    An int k over Q equals Fraction(k) and hashes alike, so polynomials
    compare as they would with Fractions throughout.
    """
    _require_field(ring)
    if isinstance(ring, PrimeField):
        p = ring.p

        def subtract(terms, g_terms, shift, c):
            get = terms.get
            for t, v in g_terms.items():
                e = tuple(map(add, t, shift))
                s = (get(e, 0) - c * v) % p
                if s:
                    terms[e] = s
                else:
                    del terms[e]

        def divide(a, b):
            return a * pow(b, p - 2, p) % p

        return subtract, divide

    def subtract(terms, g_terms, shift, c):
        get = terms.get
        for t, v in g_terms.items():
            e = tuple(map(add, t, shift))
            s = get(e, 0) - c * v
            if not s:
                del terms[e]
            elif type(s) is int:
                terms[e] = s
            else:
                terms[e] = _integral(s)

    def divide(a, b):
        return _integral(ring.divide(a, b))

    return subtract, divide


def _monic(f: Polynomial, order: str) -> tuple:
    """The division record (divisor) of f over its leading coefficient,
    read off one scan of f for its leading term."""
    e, c = f.leading_term(order)
    subtract, divide = _kernel(f.ring)
    terms: dict = {}
    subtract(terms, f.terms, (0,) * f.n, -divide(1, c))
    return e, terms[e], support_mask(e), Polynomial._of(f.ring, f.n, terms)


def _multiply(f: Polynomial, g: Polynomial) -> Polynomial:
    """f * g through the field kernel."""
    subtract, _ = _kernel(f.ring)
    terms: dict = {}
    for t, v in f.terms.items():
        subtract(terms, g.terms, t, -v)
    return Polynomial._of(f.ring, f.n, terms)


def divisor(g: Polynomial, order: str = "grlex") -> tuple:
    """g's division record: (leading exponent, leading coefficient,
    support_mask of the leading exponent, g), built once per element."""
    e, c = g.leading_term(order)
    return e, c, support_mask(e), g


def spoly(a: tuple, b: tuple) -> Polynomial:
    """The S-polynomial of two division records: both leading terms lifted
    to their lcm and cancelled."""
    fe, fc, _, f = a
    ge, gc, _, g = b
    subtract, divide = _kernel(f.ring)
    lcm = exp_max(fe, ge)
    terms: dict = {}
    subtract(terms, f.terms, exp_sub(lcm, fe), -1 if fc == 1 else -divide(1, fc))
    subtract(terms, g.terms, exp_sub(lcm, ge), 1 if gc == 1 else divide(1, gc))
    return Polynomial._of(f.ring, f.n, terms)


def normal_form(f: Polynomial, divisors: Sequence[tuple], order: str = "grlex") -> Polynomial:
    """Remainder of f under full division by the divisors, in listed order.

    Each divisor is a division record (divisor), so a caller that divides
    by the same elements many times builds each record once.
    """
    subtract, divide = _kernel(f.ring)
    largest = ORDER_MAX[order]
    p, remainder = dict(f.terms), {}
    while p:
        e = largest(p)
        outside = ~support_mask(e)
        for ge, gc, m, g in divisors:
            if m & outside or not all(map(le, ge, e)):
                continue
            c = p[e]
            subtract(p, g.terms, tuple(map(sub, e, ge)), c if gc == 1 else divide(c, gc))
            break
        else:
            remainder[e] = p.pop(e)
    return Polynomial._of(f.ring, f.n, remainder)


def _update(heap, key, elements, active: list, h: int) -> list:
    """The Gebauer-Moeller update for the new element h; returns the new active set.

    elements are the records of the basis so far; heap holds the pending
    pairs as (key of lcm, i, j, lcm).  Of the new
    pairs (g, h), g active, only those whose lcm is minimal among the new
    lcms can survive: a pair whose lcm is a proper multiple of another's
    is dropped.  A minimal lcm shared with a coprime pair is dropped
    altogether (the coprime pair is treated, and not kept), and otherwise
    the first pair in active order with that lcm is kept.  This is the
    pairwise test of Gebauer and Moeller, in which a coprime pair takes part
    before it is dropped, decided once per distinct lcm.  An old pair (i, j)
    is dropped when lt(h) divides its lcm and neither lcm(i, h) nor
    lcm(j, h) equals it.  Elements whose leading term lt(h) divides stop
    pairing.
    """
    t, _, tm, _ = elements[h]
    first: dict = {}
    coprime = set()
    for g in active:
        ge, _, gm, _ = elements[g]
        lcm = tuple(map(max, ge, t))
        first.setdefault(lcm, g)
        if not gm & tm:
            coprime.add(lcm)
    minimal: list = []
    # distinct lcms of one degree never divide each other
    for lcm in sorted(first, key=sum):
        outside = ~(elements[first[lcm]][2] | tm)
        for m, o in minimal:
            if not m & outside and all(map(le, o, lcm)):
                break
        else:
            minimal.append((~outside, lcm))
    old = [
        pair
        for pair in heap
        if not all(map(le, t, pair[3]))
        or exp_max(elements[pair[1]][0], t) == pair[3]
        or exp_max(elements[pair[2]][0], t) == pair[3]
    ]
    old.extend((key(lcm), first[lcm], h, lcm) for _, lcm in minimal if lcm not in coprime)
    heap[:] = old
    heapq.heapify(heap)
    keep = [g for g in active if tm & ~elements[g][2] or not all(map(le, t, elements[g][0]))]
    return keep + [h]


def buchberger(gens: Iterable[Polynomial], order: str = "grlex") -> list:
    """A (not yet reduced) Groebner basis of the ideal the generators span.

    Pairs are pruned by the Gebauer-Moeller update (_update); a popped
    pair's S-polynomial is reduced by the active elements, whose records
    are listed anew only when an update changes the active set.  Stops
    early with the unit ideal as soon as a constant shows up; raises
    TimeoutError when the run budget passes.
    """
    basis = [g for g in gens if not g.is_zero()]
    if not basis:
        return []
    ring = basis[0].ring
    _require_field(ring)
    n = basis[0].n
    if n > len(_BITS):  # _update reads coprime pairs off the masks
        raise ValueError(f"at most {len(_BITS)} variables, got {n}")
    unit = [Polynomial.constant(ring, n, ring.one())]
    elements = [_monic(g, order) for g in basis]
    if any(g.is_constant() for *_, g in elements):
        return unit
    key = ORDER_KEYS[order]
    heap: list = []
    active: list = []
    for h in range(len(elements)):
        active = _update(heap, key, elements, active, h)
    divisors = [elements[g] for g in active]
    while heap:
        check_deadline("the Groebner basis")
        _, i, j, _ = heapq.heappop(heap)
        h = normal_form(spoly(elements[i], elements[j]), divisors, order)
        if h.is_zero():
            continue
        if h.is_constant():
            return unit
        elements.append(_monic(h, order))
        active = _update(heap, key, elements, active, len(elements) - 1)
        divisors = [elements[g] for g in active]
    return [g for *_, g in divisors]


def reduce_basis(basis: Sequence[Polynomial], order: str = "grlex") -> tuple:
    """The reduced basis: minimal leading terms, each element fully reduced."""
    if not basis:
        return ()
    key = ORDER_KEYS[order]
    ordered = sorted((divisor(g, order) for g in basis), key=lambda d: key(d[0]))
    minimal: list = []
    for d in ordered:
        if not any(exp_leq(other[0], d[0]) for other in minimal):
            minimal.append(d)
    return tuple(
        _monic(normal_form(d[3], minimal[:i] + minimal[i + 1 :], order), order)[3]
        for i, d in enumerate(minimal)
    )


def groebner_basis(gens: Iterable[Polynomial], order: str = "grlex") -> tuple:
    return reduce_basis(buchberger(gens, order), order)


def power_exponent(f: Polynomial, divisors: Sequence[tuple], order: str = "grlex"):
    """The least k <= POWER_BOUND with f^k in the ideal that a Groebner
    basis under order spans, else None.  The basis comes as division
    records (divisor), so one basis serves many f."""
    power = Polynomial.constant(f.ring, f.n, f.ring.one())
    for k in range(1, POWER_BOUND + 1):
        power = normal_form(_multiply(f, power), divisors, order)
        if power.is_zero():
            return k
    return None


def monomial_ideal_member(f: Polynomial, ideal: MonomialIdeal) -> bool:
    """Term inspection: every term must sit under some generator."""
    if f.n != ideal.n:
        raise ValueError("variable count mismatch")
    return all(ideal.contains_monomial(e) for e in f.terms)


def sv_containment_check(ring, order: str = "grlex") -> dict:
    """Both halves of the four-element containment certificate.

    The four structured cubic sums sit inside the ten-generator ideal
    termwise; each of the ten squarefree cubics has a power inside the
    ideal J the four elements span.  One reduced basis of J serves every
    cubic's power_exponent; a cubic with no power up to POWER_BOUND in J
    reads false.
    """
    _require_field(ring)
    ideal = reisner_ideal()
    four = schmitt_vogel_generators(ring)
    in_ideal = [monomial_ideal_member(g, ideal) for g in four]
    divisors = [divisor(g, order) for g in groebner_basis(four, order)]
    radical = []
    for e in ideal.gens:
        check_deadline("the radical certificate")
        cubic = Polynomial.monomial(ring, ideal.n, e)
        radical.append(power_exponent(cubic, divisors, order) is not None)
    return {
        "field": ring.name,
        "generators_in_ideal": in_ideal,
        "radical_members": radical,
        "all_ok": all(in_ideal) and all(radical),
    }
