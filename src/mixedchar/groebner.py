"""Buchberger's algorithm over field coefficients, with radical membership.

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

Radical membership adjoins an inverse variable for the candidate and
asks whether the enlarged ideal becomes the unit ideal (Rabinowitsch).
The four-element certificate first tries explicit powers in one reduced
basis of the ideal: NF(f^k) = NF(f * NF(f^(k-1))) is zero exactly when
f^k lies in it (Cox, Little and O'Shea, Ideals, Varieties, and
Algorithms, section 4.2), and Rabinowitsch decides only past POWER_BOUND.
"""

from __future__ import annotations

import heapq
import time
from collections.abc import Iterable, Sequence

from .monomials import MonomialIdeal
from .polynomials import ORDER_KEYS, Polynomial, exp_leq, exp_max, exp_sub
from .scalars import PrimeField, RationalField
from .textio import reisner_ideal, schmitt_vogel_generators

# Largest power of a candidate tried before radical_member decides it.
POWER_BOUND = 4


def _require_field(ring) -> None:
    if not isinstance(ring, (RationalField, PrimeField)):
        raise ValueError(f"need field coefficients, got {ring!r}")


def _monic(f: Polynomial, order: str) -> Polynomial:
    _, c = f.leading_term(order)
    return f.scale(f.ring.divide(f.ring.one(), c))


def spoly(f: Polynomial, g: Polynomial, order: str = "grlex") -> Polynomial:
    """The S-polynomial: both leading terms lifted to their lcm and cancelled."""
    ring = f.ring
    fe, fc = f.leading_term(order)
    ge, gc = g.leading_term(order)
    lcm = exp_max(fe, ge)
    left = f.mul_monomial(exp_sub(lcm, fe), ring.divide(ring.one(), fc))
    right = g.mul_monomial(exp_sub(lcm, ge), ring.divide(ring.one(), gc))
    return left - right


def normal_form(f: Polynomial, divisors: Sequence[tuple], order: str = "grlex") -> Polynomial:
    """Remainder of f under full division by the divisors, in listed order.

    Each divisor is a pair (leading term, g), the leading term of g under
    order as (exponent, coefficient), so a caller that divides by the same
    elements many times computes it once.
    """
    ring = f.ring
    remainder = Polynomial.zero(ring, f.n)
    p = f
    while not p.is_zero():
        e, c = p.leading_term(order)
        for (ge, gc), g in divisors:
            if exp_leq(ge, e):
                p = p - g.mul_monomial(exp_sub(e, ge), ring.divide(c, gc))
                break
        else:
            t = Polynomial.monomial(ring, f.n, e, c)
            remainder = remainder + t
            p = p - t
    return remainder


def _coprime(a, b) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def _update(heap, key, leads, active: list, h: int) -> list:
    """The Gebauer-Moeller update for the new element h; returns the new active set.

    heap holds the pending pairs as (key of lcm, i, j, lcm).  Of the pairs
    (g, h) with g active, one per minimal lcm survives; a pair whose lcm is
    a multiple of another new pair's lcm is dropped, a coprime pair takes
    part in that test before it is dropped (it counts as treated).  An old
    pair (i, j) is dropped when lt(h) divides its lcm and neither lcm(i, h)
    nor lcm(j, h) equals it.  Elements whose leading term lt(h) divides stop
    pairing.
    """
    t = leads[h][0]
    pending = [(g, exp_max(leads[g][0], t), _coprime(leads[g][0], t)) for g in active]
    kept = []
    while pending:
        g, lcm, coprime = pending.pop()
        if coprime or not any(exp_leq(o, lcm) for group in (pending, kept) for _, o, _ in group):
            kept.append((g, lcm, coprime))
    old = [
        pair
        for pair in heap
        if not exp_leq(t, pair[3])
        or exp_max(leads[pair[1]][0], t) == pair[3]
        or exp_max(leads[pair[2]][0], t) == pair[3]
    ]
    old.extend((key(lcm), g, h, lcm) for g, lcm, coprime in kept if not coprime)
    heap[:] = old
    heapq.heapify(heap)
    return [g for g in active if not exp_leq(t, leads[g][0])] + [h]


def buchberger(
    gens: Iterable[Polynomial], order: str = "grlex", deadline: float | None = None
) -> list:
    """A (not yet reduced) Groebner basis of the ideal the generators span.

    Pairs are pruned by the Gebauer-Moeller update (_update); a popped
    pair's S-polynomial is reduced by the active elements.  Stops early
    with the unit ideal as soon as a constant shows up; raises TimeoutError
    when the deadline passes.
    """
    basis = [g for g in gens if not g.is_zero()]
    if not basis:
        return []
    ring = basis[0].ring
    _require_field(ring)
    n = basis[0].n
    unit = [Polynomial.constant(ring, n, ring.one())]
    basis = [_monic(g, order) for g in basis]
    if any(g.is_constant() for g in basis):
        return unit
    key = ORDER_KEYS[order]
    leads = [g.leading_term(order) for g in basis]
    heap: list = []
    active: list = []
    for h in range(len(basis)):
        active = _update(heap, key, leads, active, h)
    while heap:
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError("basis computation passed its deadline")
        _, i, j, _ = heapq.heappop(heap)
        divisors = [(leads[g], basis[g]) for g in active]
        h = normal_form(spoly(basis[i], basis[j], order), divisors, order)
        if h.is_zero():
            continue
        if h.is_constant():
            return unit
        h = _monic(h, order)
        basis.append(h)
        leads.append(h.leading_term(order))
        active = _update(heap, key, leads, active, len(basis) - 1)
    return [basis[g] for g in active]


def reduce_basis(basis: Sequence[Polynomial], order: str = "grlex") -> tuple:
    """The reduced basis: minimal leading terms, each element fully reduced."""
    if not basis:
        return ()
    key = ORDER_KEYS[order]
    ordered = sorted(((g.leading_term(order), g) for g in basis), key=lambda t: key(t[0][0]))
    minimal: list = []
    for lead, g in ordered:
        if not any(exp_leq(other[0], lead[0]) for other, _ in minimal):
            minimal.append((lead, g))
    reduced = []
    for i, (_, g) in enumerate(minimal):
        rest = normal_form(g, minimal[:i] + minimal[i + 1 :], order)
        reduced.append(_monic(rest, order))
    return tuple(reduced)


def groebner_basis(
    gens: Iterable[Polynomial], order: str = "grlex", deadline: float | None = None
) -> tuple:
    return reduce_basis(buchberger(gens, order, deadline), order)


def radical_member(
    f: Polynomial,
    gens: Sequence[Polynomial],
    order: str = "grlex",
    deadline: float | None = None,
) -> bool:
    """Whether some power of f lands in the ideal the generators span.

    Inverts f with one extra variable: the enlarged ideal is the unit
    ideal exactly when f vanishes on the zero set of the generators.
    deadline is a time.monotonic() value (None: no limit).
    """
    if f.is_zero():
        return True
    ring = f.ring
    _require_field(ring)
    n = f.n
    ext = [g.extend_variables(n + 1) for g in gens if not g.is_zero()]
    inverse = Polynomial.variable(ring, n + 1, n)
    one = Polynomial.constant(ring, n + 1, ring.one())
    ext.append(one - inverse * f.extend_variables(n + 1))
    gb = groebner_basis(ext, order, deadline)
    return any(g.is_constant() for g in gb)


def power_exponent(f: Polynomial, basis: Sequence[Polynomial], order: str = "grlex"):
    """The least k <= POWER_BOUND with f^k in the ideal that basis spans
    (a Groebner basis under order), else None."""
    divisors = [(g.leading_term(order), g) for g in basis]
    power = Polynomial.constant(f.ring, f.n, f.ring.one())
    for k in range(1, POWER_BOUND + 1):
        power = normal_form(f * power, divisors, order)
        if power.is_zero():
            return k
    return None


def radical_member_by_powers(f, gens, basis, order: str = "grlex", deadline=None) -> bool:
    """radical_member, first tried by power_exponent in basis, a Groebner
    basis of the ideal gens span."""
    return power_exponent(f, basis, order) is not None or radical_member(f, gens, order, deadline)


def monomial_ideal_member(f: Polynomial, ideal: MonomialIdeal) -> bool:
    """Term inspection: every term must sit under some generator."""
    if f.n != ideal.n:
        raise ValueError("variable count mismatch")
    return all(ideal.contains_monomial(e) for e in f.terms)


def sv_containment_check(ring, order: str = "grlex", deadline: float | None = None) -> dict:
    """Both halves of the four-element containment certificate.

    The four structured cubic sums sit inside the ten-generator ideal
    termwise; each of the ten squarefree cubics has a power inside the
    ideal J the four elements span.  One reduced basis of J serves every
    cubic's radical_member_by_powers.  The basis, each cubic and every
    fallback share the deadline (a time.monotonic() value).
    """
    _require_field(ring)
    ideal = reisner_ideal()
    four = schmitt_vogel_generators(ring)
    in_ideal = [monomial_ideal_member(g, ideal) for g in four]
    basis = groebner_basis(four, order, deadline)
    radical = []
    for e in ideal.gens:
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError("radical certificate passed its deadline")
        cubic = Polynomial.monomial(ring, ideal.n, e)
        radical.append(radical_member_by_powers(cubic, four, basis, order, deadline))
    return {
        "field": ring.name,
        "generators_in_ideal": in_ideal,
        "radical_members": radical,
        "all_ok": all(in_ideal) and all(radical),
    }
