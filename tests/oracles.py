"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's closed-form shortcuts: the closure
oracle below builds the actual V-span of iterated operator images and reads
the constants off an echelon basis.
"""

import heapq
from fractions import Fraction
from itertools import product
from math import comb
from pathlib import Path

from mixedchar.filtrations import (
    AxiomCheck,
    AxiomReport,
    FiltrationSpec,
    FiniteLength,
    InfiniteLength,
)
from mixedchar.groebner import (
    POWER_BOUND,
    _monic,
    _require_field,
    divisor,
    groebner_basis,
    normal_form,
    spoly,
)
from mixedchar.intlinalg import (
    CohomologyBasis,
    FinAbGroup,
    IntMatrix,
    InducedMap,
    _snf,
    complex_cohomology,
    diagonal_of,
    integer_kernel,
    invariant_factors_dense,
    invariant_factors_sparse,
    matrix_rank_mod_p,
)
from mixedchar.monomials import MonomialIdeal
from mixedchar.polynomials import ORDER_KEYS, Polynomial, exp_add, exp_leq, exp_max, exp_sub
from mixedchar.reports import CLAIMS, Rows
from mixedchar.scalars import DVR, PrimeField, padic_valuation
from mixedchar.simplicial import MAX_VERTICES, SimplicialComplex
from mixedchar.subsets import bits_to_subsets, check_deadline
from mixedchar.taylor import ExtScanResult, GradedExtPiece, ascending_degrees, dvr_invariants
from mixedchar.textio import parse_polynomial, reisner_ideal, schmitt_vogel_generators


class IntegerRing:
    """Z with exact division as partial operation."""

    name = "Z"

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, k: int):
        return k

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_zero(self, a) -> bool:
        return a == 0

    def is_unit(self, a) -> bool:
        return a in (1, -1)

    def divide(self, a, b):
        """a / b if exact, else None."""
        if b == 0:
            raise ZeroDivisionError
        q, r = divmod(a, b)
        return q if r == 0 else None

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("Z")

    def __repr__(self):
        return "Z"


ZZ = IntegerRing()


def from_rows(rows) -> IntMatrix:
    """The IntMatrix with these rows (no rows: shape 0 x 0)."""
    rows = [list(r) for r in rows]
    return IntMatrix(len(rows), len(rows[0]) if rows else 0, rows)


def permute_variables(f: Polynomial, perm) -> Polynomial:
    """f with variable i moved to position perm[i]."""
    out = {}
    for e, c in f.terms.items():
        ne = [0] * f.n
        for i, k in enumerate(e):
            ne[perm[i]] = k
        out[tuple(ne)] = c
    return Polynomial(f.ring, f.n, out)


def extend_variables(f: Polynomial, m: int) -> Polynomial:
    """f re-read in a ring with m >= n variables."""
    if m < f.n:
        raise ValueError("cannot drop variables")
    pad = (0,) * (m - f.n)
    return Polynomial(f.ring, m, {e + pad: c for e, c in f.terms.items()})


def divisors(basis, order: str = "grlex") -> list:
    """The basis as groebner.normal_form's division records."""
    return [divisor(g, order) for g in basis]


def ideal_member(f: Polynomial, basis, order: str = "grlex") -> bool:
    """Membership against a basis already closed under S-remainders."""
    return normal_form(f, divisors(basis, order), order).is_zero()


def arithmetic_spoly(f: Polynomial, g: Polynomial, order: str = "grlex") -> Polynomial:
    """groebner.spoly by whole-Polynomial arithmetic: each lifted leading
    term is its own Polynomial, and their difference a third."""
    ring = f.ring
    fe, fc = f.leading_term(order)
    ge, gc = g.leading_term(order)
    lcm = exp_max(fe, ge)
    left = f * Polynomial.monomial(ring, f.n, exp_sub(lcm, fe), ring.divide(ring.one(), fc))
    right = g * Polynomial.monomial(ring, g.n, exp_sub(lcm, ge), ring.divide(ring.one(), gc))
    return left - right


def arithmetic_normal_form(f: Polynomial, divisors, order: str = "grlex") -> Polynomial:
    """groebner.normal_form by whole-Polynomial arithmetic: the same division
    steps (first listed divisor whose leading term divides the leading term
    of what is left), each step building new Polynomials."""
    ring = f.ring
    remainder = Polynomial.zero(ring, f.n)
    p = f
    while not p.is_zero():
        e, c = p.leading_term(order)
        for ge, gc, _, g in divisors:
            if exp_leq(ge, e):
                p = p - g * Polynomial.monomial(ring, f.n, exp_sub(e, ge), ring.divide(c, gc))
                break
        else:
            t = Polynomial.monomial(ring, f.n, e, c)
            remainder = remainder + t
            p = p - t
    return remainder


def _reference_subtract(terms: dict, ring, g: Polynomial, shift, c) -> None:
    """terms -= c * x^shift * g, in place, by the ring's own operations."""
    neg, zero = ring.neg(c), ring.zero()
    for t, v in g.terms.items():
        e = exp_add(t, shift)
        s = ring.add(terms.get(e, zero), ring.mul(neg, v))
        if ring.is_zero(s):
            terms.pop(e, None)
        else:
            terms[e] = s


def reference_normal_form(f: Polynomial, divisors, order: str = "grlex") -> Polynomial:
    """groebner.normal_form as the library ran it before its field kernels:
    generic ring arithmetic, every quotient by ring.divide, and each
    divisor tried by exp_leq alone."""
    ring = f.ring
    key = ORDER_KEYS[order]
    p, remainder = dict(f.terms), {}
    while p:
        e = max(p, key=key)
        c = p[e]
        for ge, gc, _, g in divisors:
            if exp_leq(ge, e):
                _reference_subtract(p, ring, g, exp_sub(e, ge), ring.divide(c, gc))
                break
        else:
            remainder[e] = p.pop(e)
    return Polynomial(ring, f.n, remainder)


def _coprime(a, b) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def reference_update(heap, key, leads, active: list, h: int) -> list:
    """groebner._update as the library ran it before it decided once per
    distinct lcm: each new pair, last active first, is tested against every
    pending and kept new pair (Gebauer and Moeller's pairwise form)."""
    t = leads[h][0]
    pending = []
    for g in active:
        lcm = exp_max(leads[g][0], t)
        pending.append((g, lcm, _coprime(leads[g][0], t), sum(lcm)))
    kept = []
    while pending:
        g, lcm, coprime, deg = pending.pop()
        if coprime or not any(
            o == lcm if d == deg else d < deg and exp_leq(o, lcm)
            for group in (pending, kept)
            for _, o, _, d in group
        ):
            kept.append((g, lcm, coprime, deg))
    old = [
        pair
        for pair in heap
        if not exp_leq(t, pair[3])
        or exp_max(leads[pair[1]][0], t) == pair[3]
        or exp_max(leads[pair[2]][0], t) == pair[3]
    ]
    old.extend((key(lcm), g, h, lcm) for g, lcm, coprime, _ in kept if not coprime)
    heap[:] = old
    heapq.heapify(heap)
    return [g for g in active if not exp_leq(t, leads[g][0])] + [h]


def reference_pair_trace(gens, order: str = "grlex"):
    """groebner.buchberger's pair loop run on reference_update and
    reference_normal_form: (the popped pairs (i, j) in order, the active
    set after each update, every S-remainder), and the basis it returns."""
    basis = [_monic(g, order)[3] for g in gens if not g.is_zero()]
    heap, active, actives, pops, remainders = [], [], [], [], []
    unit = [Polynomial.constant(basis[0].ring, basis[0].n, basis[0].ring.one())] if basis else []
    if any(g.is_constant() for g in basis):
        return (pops, actives, remainders), unit
    key = ORDER_KEYS[order]
    leads = divisors(basis, order)
    for h in range(len(basis)):
        active = reference_update(heap, key, leads, active, h)
        actives.append(active)
    while heap:
        _, i, j, _ = heapq.heappop(heap)
        pops.append((i, j))
        listed = [leads[g] for g in active]
        h = reference_normal_form(spoly(leads[i], leads[j]), listed, order)
        remainders.append(h)
        if h.is_zero():
            continue
        if h.is_constant():
            return (pops, actives, remainders), unit
        basis.append(_monic(h, order)[3])
        leads.append(divisor(basis[-1], order))
        active = reference_update(heap, key, leads, active, len(basis) - 1)
        actives.append(active)
    return (pops, actives, remainders), [basis[g] for g in active]


def buchberger_all_pairs(gens, order: str = "grlex") -> list:
    """Buchberger's loop with the coprime criterion alone: every other pair,
    smallest lcm first, is reduced by the whole basis so far.

    The pair loop the library ran before the Gebauer-Moeller update, with
    its signature, so it can stand in for groebner.buchberger.
    """
    basis = [g for g in gens if not g.is_zero()]
    if not basis:
        return []
    ring = basis[0].ring
    _require_field(ring)
    n = basis[0].n
    unit = [Polynomial.constant(ring, n, ring.one())]
    basis = [_monic(g, order)[3] for g in basis]
    if any(g.is_constant() for g in basis):
        return unit
    key = ORDER_KEYS[order]
    lts = [g.leading_term(order)[0] for g in basis]
    heap = []

    def push_pairs(j):
        for i in range(j):
            if not _coprime(lts[i], lts[j]):
                heapq.heappush(heap, (key(exp_max(lts[i], lts[j])), i, j))

    for j in range(1, len(basis)):
        push_pairs(j)
    while heap:
        check_deadline("the Groebner basis")
        _, i, j = heapq.heappop(heap)
        listed = divisors(basis, order)
        h = normal_form(spoly(listed[i], listed[j]), listed, order)
        if h.is_zero():
            continue
        if h.is_constant():
            return unit
        basis.append(_monic(h, order)[3])
        lts.append(h.leading_term(order)[0])
        push_pairs(len(basis) - 1)
    return basis


def radical_member(f: Polynomial, gens, order: str = "grlex") -> bool:
    """Whether some power of f lands in the ideal the generators span.

    Rabinowitsch's added variable: with y inverting f, the enlarged ideal
    is the unit ideal exactly when f vanishes on the zero set of the
    generators.  Its basis comes from groebner.groebner_basis, so a test
    that swaps groebner.buchberger reaches it, and it runs under the
    run budget (subsets.budget).
    """
    if f.is_zero():
        return True
    ring = f.ring
    _require_field(ring)
    n = f.n
    ext = [extend_variables(g, n + 1) for g in gens if not g.is_zero()]
    inverse = Polynomial.variable(ring, n + 1, n)
    one = Polynomial.constant(ring, n + 1, ring.one())
    ext.append(one - inverse * extend_variables(f, n + 1))
    return any(g.is_constant() for g in groebner_basis(ext, order))


CERTIFICATE = Path(__file__).parent / "fixtures" / "four_element_certificate.txt"


def power(f: Polynomial, k: int) -> Polynomial:
    """f^k by repeated multiplication."""
    out = Polynomial.constant(f.ring, f.n, f.ring.one())
    for _ in range(k):
        out = out * f
    return out


def solve_over_integers(columns, target: dict):
    """An x with sum over c of x[c] * columns[c] == target over Z, or None.

    columns are sparse vectors {row: int}, and so is target; x is a sparse
    {column index: int}.  Elimination pivots on entries +-1 of least
    Markowitz cost, so every row operation and back substitution stays in
    Z.  The block no unit pivot reaches goes to its Smith form
    U A W = D: A y = b has an integer solution exactly when D z = U b
    does, and then y = W z.  Calls no Groebner code.
    """
    rows: dict = {}
    for c, col in enumerate(columns):
        for r, v in col.items():
            rows.setdefault(r, {})[c] = v
    b = dict(target)
    for r in b:
        rows.setdefault(r, {})
    holders = {c: set(col) for c, col in enumerate(columns)}  # column -> active rows
    pivots = []
    while True:
        best = None
        for r, row in rows.items():
            for c, v in row.items():
                if v in (1, -1):
                    cost = (len(row) - 1) * (len(holders[c]) - 1)
                    if best is None or cost < best[0]:
                        best = (cost, r, c)
        if best is None:
            break
        _, r, c = best
        prow, pb = rows.pop(r), b.pop(r, 0)
        pv = prow[c]
        for cc in prow:
            holders[cc].discard(r)
        for rr in list(holders[c]):
            row = rows[rr]
            q = row[c] * pv  # pv * pv = 1, so row - q * prow clears column c
            for cc, v in prow.items():
                s = row.get(cc, 0) - q * v
                if s:
                    row[cc] = s
                    holders[cc].add(rr)
                else:
                    row.pop(cc, None)
                    holders[cc].discard(rr)
            s = b.get(rr, 0) - q * pb
            if s:
                b[rr] = s
            else:
                b.pop(rr, None)
        pivots.append((c, pv, prow, pb))
    x = {}
    left = [r for r, row in rows.items() if row]
    if any(b.get(r) for r, row in rows.items() if not row):
        return None
    if left:
        cols = sorted({c for r in left for c in rows[r]})
        block = IntMatrix(len(left), len(cols), [[rows[r].get(c, 0) for c in cols] for r in left])
        D, U, W, _, _ = _snf(block)
        z = [0] * len(cols)
        for i, urow in enumerate(U.rows):
            v = sum(u * b.get(r, 0) for u, r in zip(urow, left))
            d = D.rows[i][i] if i < len(cols) else 0
            if v % d if d else v:
                return None
            if d:
                z[i] = v // d
        for j, c in enumerate(cols):
            s = sum(w * zi for w, zi in zip(W.rows[j], z))
            if s:
                x[c] = s
    for c, pv, prow, pb in reversed(pivots):
        s = pv * (pb - sum(v * x.get(cc, 0) for cc, v in prow.items() if cc != c))
        if s:
            x[c] = s
    return x


def power_certificate(m: Polynomial, gens, k: int):
    """Cofactors h over Z with m^k == sum of h_i * g_i, or None when there are none.

    m and the gens are homogeneous over Z, so each h_i may be taken
    homogeneous of degree k * deg(m) - deg(g_i); the columns are the
    shifts x^u * g_i and the rows the monomials of degree k * deg(m).
    """
    n = m.n
    degree = k * sum(next(iter(m.terms)))
    columns, labels = [], []
    for i, g in enumerate(gens):
        shift = degree - sum(next(iter(g.terms)))
        for u in monomial_box(n, shift) if shift >= 0 else ():
            if sum(u) == shift:
                columns.append({exp_add(e, u): c for e, c in g.terms.items()})
                labels.append((i, u))
    x = solve_over_integers(columns, power(m, k).terms)
    if x is None:
        return None
    cofactors = [{} for _ in gens]
    for c, v in x.items():
        i, u = labels[c]
        cofactors[i][u] = v
    return [Polynomial(ZZ, n, h) for h in cofactors]


def polynomial_text(f: Polynomial) -> str:
    """f as textio.parse_polynomial reads it back, largest grlex term first."""
    out = []
    for e, c in f.sorted_terms():
        mono = "*".join(f"x{i}" if k == 1 else f"x{i}^{k}" for i, k in enumerate(e) if k)
        body = mono if abs(c) == 1 and mono else "*".join(filter(None, (str(abs(c)), mono)))
        if out:
            out.append(f"{'-' if c < 0 else '+'} {body}")
        else:
            out.append(f"-{body}" if c < 0 else body)
    return " ".join(out) or "0"


def certificate_text() -> str:
    """The fixture tests/fixtures/four_element_certificate.txt, found afresh:
    for each cubic of reisner.ideal, the least k with an integer certificate
    (a few seconds, nearly all of them on the k = 3 cubics).  Regenerate with
    PYTHONPATH=src python -c "from tests.oracles import certificate_text; print(certificate_text(), end='')"
    """
    gens = schmitt_vogel_generators(ZZ)
    ideal = reisner_ideal()
    lines = [
        "# Integer certificates that each cubic m of reisner.ideal lies in the",
        "# radical of the ideal J the four elements g1..g4 of schmitt_vogel.gens",
        "# span: m^k = h1*g1 + h2*g2 + h3*g3 + h4*g4 with h1..h4 in Z[x0..x5] and",
        "# k least.  An identity over Z holds in every ring: over every field,",
        "# over Z_(2) and over Z_2[[x0..x5]].  One block per cubic, in the order",
        "# of textio.reisner_ideal().gens.  Written by tests/oracles.py",
        "# certificate_text().",
        "vars 6",
    ]
    for e in ideal.gens:
        m = Polynomial.monomial(ZZ, ideal.n, e)
        for k in range(1, POWER_BOUND + 1):
            cofactors = power_certificate(m, gens, k)
            if cofactors is not None:
                break
        else:
            raise ValueError(f"no integer certificate for {polynomial_text(m)} at k <= {POWER_BOUND}")
        lines += [f"cubic {polynomial_text(m)}", f"k {k}"]
        lines += [f"h{i} {polynomial_text(h)}" for i, h in enumerate(cofactors, 1)]
    return "\n".join(lines) + "\n"


def read_certificate(path=CERTIFICATE) -> list:
    """The fixture as (cubic, k, cofactors) over Z, one triple per cubic."""
    entries = []
    n = None
    for line in path.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, value = line.split(None, 1)
        if key == "vars":
            n = int(value)
        elif key == "cubic":
            entries.append([parse_polynomial(value, ZZ, n), None, []])
        elif key == "k":
            entries[-1][1] = int(value)
        else:
            entries[-1][2].append(parse_polynomial(value, ZZ, n))
    return entries


class DividedPowerOp:
    """Sum of terms (coefficient polynomial) * d^[order], the divided-power
    operators d^[t] on V[x] that diffops' classifier is checked against."""

    __slots__ = ("ring", "n", "terms")

    def __init__(self, ring, n: int, terms):
        # terms: list of (Polynomial coefficient, order multi-index)
        self.ring = ring
        self.n = n
        cleaned = []
        for coeff, order in terms:
            order = tuple(order)
            if len(order) != n or any(t < 0 for t in order):
                raise ValueError(f"bad operator order {order}")
            if coeff.n != n or coeff.ring != ring:
                raise ValueError("coefficient polynomial in the wrong ring")
            if not coeff.is_zero():
                cleaned.append((coeff, order))
        self.terms = tuple(cleaned)

    @classmethod
    def single(cls, ring, n: int, order: tuple, coeff: Polynomial | None = None):
        if coeff is None:
            coeff = Polynomial.constant(ring, n, ring.one())
        return cls(ring, n, [(coeff, order)])

    @classmethod
    def partial(cls, ring, n: int, i: int, t: int = 1):
        """d_i^[t] as an operator."""
        order = [0] * n
        order[i] = t
        return cls.single(ring, n, tuple(order))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for coeff, order in self.terms:
            d = "*".join(f"d{i}^[{t}]" for i, t in enumerate(order) if t)
            bits.append(f"({coeff})*{d}" if d else f"({coeff})")
        return " + ".join(bits)


def divided_power_on_monomial(ring, n: int, order: tuple, e: tuple, c):
    """d^[order] applied to c * x^e: binomial product times the shifted monomial."""
    mult = 1
    for b, t in zip(e, order):
        if t > b:
            return None
        mult *= comb(b, t)
    return exp_sub(e, order), ring.mul(c, ring.from_int(mult))


def apply_op(op: DividedPowerOp, f: Polynomial) -> Polynomial:
    """Apply the operator term by term; exact in every coefficient ring."""
    if f.ring != op.ring or f.n != op.n:
        raise ValueError("operator and polynomial rings differ")
    ring = op.ring
    out = Polynomial.zero(ring, op.n)
    for coeff, order in op.terms:
        part: dict = {}
        for e, c in f.terms.items():
            hit = divided_power_on_monomial(ring, op.n, order, e, c)
            if hit is None:
                continue
            ne, nc = hit
            s = ring.add(part.get(ne, ring.zero()), nc)
            if ring.is_zero(s):
                part.pop(ne, None)
            else:
                part[ne] = s
        out = out + coeff * Polynomial(ring, op.n, part)
    return out


def compose_divided_powers(ring, n: int, i: int, s: int, t: int) -> DividedPowerOp:
    """d_i^[s] after d_i^[t] equals C(s+t, s) * d_i^[s+t]."""
    if s < 0 or t < 0:
        raise ValueError("negative divided-power order")
    order = [0] * n
    order[i] = s + t
    coeff = Polynomial.constant(ring, n, ring.from_int(comb(s + t, s)))
    return DividedPowerOp.single(ring, n, tuple(order), coeff)


def _residue_field(ring) -> PrimeField:
    if not isinstance(ring, DVR):
        raise ValueError("expected DVR coefficients")
    return PrimeField(ring.p)


def map_coefficients(f: Polynomial, ring, fn) -> Polynomial:
    """f with every coefficient pushed through fn into another ring."""
    return Polynomial(ring, f.n, {e: fn(c) for e, c in f.terms.items()})


def reduce_mod_pi(f: Polynomial) -> Polynomial:
    """Image of a V[x] polynomial in F_p[x]."""
    return map_coefficients(f, _residue_field(f.ring), lambda c: c.residue())


def op_mod_pi(op: DividedPowerOp) -> DividedPowerOp:
    """Reduce an operator's polynomial coefficients mod pi."""
    F = _residue_field(op.ring)
    return DividedPowerOp(F, op.n, [(reduce_mod_pi(c), o) for c, o in op.terms])


def concatenate(first: FiltrationSpec, second: FiltrationSpec) -> FiltrationSpec:
    """Stack two descriptions; bound gaps add in the finite verdict."""
    return FiltrationSpec(f"{first.name}+{second.name}", first.tiers + second.tiers)


def layer_member(tier, x, j: int) -> bool:
    """x in N_j, read off the tier's entry index."""
    t = tier.entry(x)
    return t is None or t <= j


def _nu(f: Polynomial):
    vals = [c.valuation() for c in f.terms.values()]
    return min(vals) if vals else None


def quotient_membership(ell: int):
    """x in N_j for R/pi^ell, decided from the valuation at each j."""

    def member(x: Polynomial, j: int) -> bool:
        nu = _nu(x)
        if j >= 0 or nu is None or nu >= ell:
            return True
        return nu >= -j

    return member


def localization_membership(f: Polynomial):
    """x in N_j for R_f: j - e*k + nu >= 0, with N_0 everything when e = 0."""
    e = _nu(f)

    def member(x, j: int) -> bool:
        nu = _nu(x.numerator)
        if nu is None or (e == 0 and j >= 0):
            return True
        return j - e * x.f_power + nu >= 0

    return member


def shifted_membership(member):
    """The shift fault on a membership predicate: thresholds doubled."""
    return lambda x, j: member(x, 2 * j)


def axioms_per_index(spec: FiltrationSpec, members: tuple) -> AxiomReport:
    """check_axioms by asking members[tier](x, j) at every window index."""
    checks = []
    for idx, tier in enumerate(spec.tiers):
        member = members[idx]
        window = range(tier.window[0], tier.window[1] + 1)
        checks.append(AxiomCheck(idx, 1, True))
        fails2 = []
        for k, x in enumerate(tier.samples):
            if tier.zero(x):
                continue
            if tier.a is not None and member(x, tier.a):
                fails2.append(f"sample {k} lies in the declared zero layer N_{tier.a}")
            if tier.b is not None and not member(x, tier.b):
                fails2.append(f"sample {k} misses the declared full layer N_{tier.b}")
            if all(member(x, j) for j in window):
                fails2.append(f"sample {k} never exits inside the window")
            if not any(member(x, j) for j in window):
                fails2.append(f"sample {k} never enters inside the window")
        checks.append(AxiomCheck(idx, 2, not fails2, tuple(fails2)))
        fails3 = []
        for k, x in enumerate(tier.samples):
            px = tier.pi_action(x)
            for j in window:
                if member(x, j) and not member(px, j - 1):
                    fails3.append(f"pi * sample {k} escapes N_{j - 1}")
        checks.append(AxiomCheck(idx, 3, not fails3, tuple(fails3)))
        fail4 = () if tier.layer_class else ("layers declared outside the residue-ring category",)
        checks.append(AxiomCheck(idx, 4, not fail4, fail4))
        fails5 = []
        if tier.a is None and not tier.tail_iso_low:
            fails5.append("low tail: no bound and pi not an isomorphism on layers")
        if tier.b is None and not tier.tail_iso_high:
            fails5.append("high tail: no bound and pi not an isomorphism on layers")
        checks.append(AxiomCheck(idx, 5, not fails5, tuple(fails5)))
    return AxiomReport(tuple(checks))


def verdict_per_step(spec: FiltrationSpec, members: tuple):
    """finite_type_and_verdict applying pi one step at a time."""
    report = axioms_per_index(spec, members)
    if not report.ok():
        raise ValueError(f"filtration axioms fail: {report.failed_conditions()}")
    if all(t.a is not None and t.b is not None for t in spec.tiers):
        verified = True
        for tier in spec.tiers:
            for x in tier.samples:
                for _ in range(tier.b - tier.a):
                    x = tier.pi_action(x)
                verified = verified and tier.zero(x)
        return FiniteLength(sum(t.b - t.a for t in spec.tiers), verified)
    powers = 0
    for tier in spec.tiers:
        if tier.a is not None and tier.b is not None:
            continue
        steps = tier.window[1] - tier.window[0] + 4
        for x in tier.samples:
            if tier.zero(x):
                continue
            for _ in range(steps):
                x = tier.pi_action(x)
            if tier.zero(x):
                raise ValueError(
                    f"tier {tier.name}: a pi power killed a sample of an unbounded tier"
                )
        powers = max(powers, steps)
    return InfiniteLength("(0)", powers)


def _vertices(S: int) -> tuple:
    return tuple(v for v in range(S.bit_length()) if S >> v & 1)


def faces_of_cardinality(cx: SimplicialComplex, c: int) -> list:
    """The faces of cx with c vertices, as sorted vertex tuples, ascending as masks."""
    return [_vertices(F) for F in sorted(cx._faces) if F.bit_count() == c]


def sign_entries(cols, rows):
    """Sparse sign coboundary between two lists of sorted vertex tuples.

    Row T meets column S when S is T with the vertex at position k
    dropped, and the entry is (-1)^k.  Returns (entries, nrows, ncols) as
    invariant_factors_sparse takes them.  Written apart from
    subsets.coboundary_sign_entries, so it can check that builder.
    """
    colpos = {S: i for i, S in enumerate(cols)}
    entries = {}
    for ri, T in enumerate(rows):
        for k in range(len(T)):
            ci = colpos.get(T[:k] + T[k + 1 :])
            if ci is not None:
                entries[(ri, ci)] = (-1) ** k
    return entries, len(rows), len(cols)


def composite_entries(inner, outer) -> dict:
    """The nonzero entries of outer after inner, two sparse maps given as
    (entries, nrows, ncols): entry (k, j) sums outer[k, i] * inner[i, j]
    over the rows i of inner."""
    (first, first_rows, _), (second, _, second_cols) = inner, outer
    if second_cols != first_rows:
        raise ValueError("the maps do not chain")
    columns_of_row: dict = {}
    for (i, j), v in first.items():
        columns_of_row.setdefault(i, []).append((j, v))
    product: dict = {}
    for (k, i), w in second.items():
        for j, v in columns_of_row.get(i, ()):
            product[k, j] = product.get((k, j), 0) + w * v
    return {key: v for key, v in product.items() if v}


def _members(bits: int) -> list:
    """The subsets a family integer marks (bit S for the subset S), as vertex tuples."""
    return [_vertices(S) for S in range(bits.bit_length()) if bits >> S & 1]


def family_entries(col_bits: int, row_bits: int):
    """sign_entries between two families held as integers."""
    return sign_entries(_members(col_bits), _members(row_bits))


def smith_normal_form(M: IntMatrix):
    """(D, U, W) with U, W unimodular, U @ M @ W == D, diagonal chain d_i | d_{i+1}."""
    return _snf(M)[:3]


def _unimodular_inverse(M: IntMatrix) -> IntMatrix:
    """Inverse of a square integer matrix, by Gauss-Jordan over Q; it must be integral."""
    n = M.nrows
    a = [
        [Fraction(v) for v in row] + [Fraction(int(i == k)) for k in range(n)]
        for i, row in enumerate(M.rows)
    ]
    for c in range(n):
        pivot = next((i for i in range(c, n) if a[i][c]), None)
        if pivot is None:
            raise ArithmeticError("singular matrix")
        a[c], a[pivot] = a[pivot], a[c]
        a[c] = [v / a[c][c] for v in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    inverse = [row[n:] for row in a]
    if any(v.denominator != 1 for row in inverse for v in row):
        raise ArithmeticError("matrix is not unimodular")
    return IntMatrix(n, n, [[int(v) for v in row] for row in inverse])


def smith_normal_form_full(M: IntMatrix):
    """(D, U, W, Uinv, Winv): smith_normal_form with both inverses.

    Uinv is tracked by the elimination itself; Winv is W inverted exactly
    over Q, which fails unless W is unimodular, and not the Winv the
    elimination tracks, so the two can be compared.
    """
    D, U, W, Uinv, _ = _snf(M)
    return D, U, W, Uinv, _unimodular_inverse(W)


def reference_solve_in_kernel(basis: CohomologyBasis, vectors) -> list:
    """CohomologyBasis._solve_in_kernel on each vector, as the library ran
    it before it read coordinates off W^-1 of the outgoing map: one second
    Smith form U K W = D of the kernel matrix itself, then x = W y where
    D y = U b, or None when b is outside the lattice K spans."""
    D, U, W = smith_normal_form(basis.K)
    diag = diagonal_of(D)
    out = []
    for b in vectors:
        bnz = [(t, v) for t, v in enumerate(b) if v]
        y = [0] * basis.K.ncols
        for i, urow in enumerate(U.rows):
            c = sum(urow[t] * v for t, v in bnz)
            d = diag[i] if i < len(diag) else 0
            if c % d if d else c:
                out.append(None)
                break
            if d:
                y[i] = c // d
        else:
            out.append([sum(w * v for w, v in zip(wrow, y)) for wrow in W.rows])
    return out


def coboundaries(cx: SimplicialComplex) -> list:
    """Dense sign matrices of cx, cardinality c to c+1 for each c below the top."""
    top = max((F.bit_count() for F in cx._faces), default=-1)
    cards = [faces_of_cardinality(cx, c) for c in range(top + 1)]
    return [_dense(*sign_entries(cards[c], cards[c + 1])) for c in range(top)]


def complex_from_faces(n: int, faces) -> SimplicialComplex:
    """The complex with exactly these faces (bitmasks, downward closed):
    each face is given as a facet, and the closure adds nothing."""
    return SimplicialComplex(n, [_vertices(F) for F in faces])


def stanley_reisner_complex(I: MonomialIdeal) -> SimplicialComplex:
    """Complex whose faces are the squarefree monomials outside I."""
    if I.n > MAX_VERTICES:
        raise ValueError(f"too many variables for face enumeration: {I.n}")
    gen_masks = []
    for e in I.gens:
        if any(v > 1 for v in e):
            raise ValueError(f"generator {e} is not squarefree")
        gen_masks.append(sum(1 << i for i, v in enumerate(e) if v))
    return complex_from_faces(
        I.n, [S for S in range(1 << I.n) if not any(g & S == g for g in gen_masks)]
    )


def stanley_reisner_ideal(cx: SimplicialComplex) -> MonomialIdeal:
    """Ideal of minimal nonfaces; inverse of stanley_reisner_complex."""
    rows = [
        tuple(1 if S >> i & 1 else 0 for i in range(cx.n))
        for S in range(1 << cx.n)
        if not cx.has_face(bits_to_subsets(S))
    ]
    return MonomialIdeal(cx.n, rows)


def lcm_table(gens, n) -> list:
    """a[S] for each generator subset S: the exponentwise max over its members."""
    a = [(0,) * n] * (1 << len(gens))
    for s in range(1, 1 << len(gens)):
        low = s & -s
        a[s] = exp_max(a[s ^ low], gens[low.bit_length() - 1])
    return a


def subset_walk_chain_check(low, high) -> bool:
    """comparison_chain_check as a walk over all 2^r generator subsets.

    Checks, per subset and dropped element, that the comparison multiplier
    is a genuine monomial and that multiplier-times-differential agrees in
    both composition orders, on each complex's own lcm table.  This is the
    reference for the library's positional test on the generators.
    """
    if low.r != high.r or low.n != high.n:
        return False
    la, ha = lcm_table(low.gens, low.n), lcm_table(high.gens, high.n)
    for S in range(1, 1 << low.r):
        hS, lS = ha[S], la[S]
        if any(h < l for h, l in zip(hS, lS)):
            return False
        rem = S
        while rem:
            t = rem & -rem
            sub = S ^ t
            hsub, lsub = ha[sub], la[sub]
            for k in range(low.n):
                if hS[k] < hsub[k] or lS[k] < lsub[k]:
                    return False
                left = (hS[k] - hsub[k]) + (hsub[k] - lsub[k])
                right = (hS[k] - lS[k]) + (lS[k] - lsub[k])
                if left != right:
                    return False
            rem ^= t
    return True


def monomial_box(n, cap):
    """Exponents with total degree <= cap, constants last."""
    monos = [e for e in product(range(cap + 1), repeat=n) if sum(e) <= cap]
    monos.sort(key=lambda e: (sum(e), e), reverse=True)
    return monos


class _Echelon:
    """Echelon basis of a Z_(p)-submodule of Z^N, integer vectors only.

    Rows are keyed by pivot coordinate; pivot entries have minimal p-adic
    valuation among reachable vectors at that coordinate.  Multiplying a row
    by an integer coprime to p is a unit operation and keeps spans equal.
    """

    def __init__(self, p, length):
        self.p = p
        self.length = length
        self.rows = {}

    def insert(self, vec):
        vec = list(vec)
        grew = False
        while True:
            idx = next((i for i, v in enumerate(vec) if v), None)
            if idx is None:
                return grew
            if idx not in self.rows:
                self.rows[idx] = vec
                return True
            row = self.rows[idx]
            va = padic_valuation(row[idx], self.p)
            vb = padic_valuation(vec[idx], self.p)
            if vb < va:
                self.rows[idx] = vec
                vec = row
                grew = True
                continue
            ua = row[idx] // self.p**va
            f = vec[idx] // self.p**va
            vec = [ua * x - f * y for x, y in zip(vec, row)]

    def constant_valuation(self):
        row = self.rows.get(self.length - 1)
        if row is None:
            return None
        return padic_valuation(row[-1], self.p)


def d_closure_constant_valuation(gens_terms, n, p):
    """Min valuation of the pure constants in the differential closure.

    gens_terms: list of dicts exponent -> int coefficient.  Applies every
    d_i^[t] and every multiplication by a variable inside a fixed degree
    box until the V-span stabilizes, then reads the constants row.
    """
    cap = max((sum(e) for g in gens_terms for e in g), default=0)
    monos = monomial_box(n, cap)
    pos = {e: i for i, e in enumerate(monos)}

    def to_vec(terms):
        v = [0] * len(monos)
        for e, c in terms.items():
            v[pos[e]] += c
        return v

    def to_terms(vec):
        return {monos[i]: c for i, c in enumerate(vec) if c}

    def images(terms):
        out = []
        for i in range(n):
            for t in range(1, cap + 1):
                img = {}
                for e, c in terms.items():
                    if e[i] >= t:
                        ne = e[:i] + (e[i] - t,) + e[i + 1 :]
                        img[ne] = img.get(ne, 0) + comb(e[i], t) * c
                if img:
                    out.append(img)
            shifted = {}
            for e, c in terms.items():
                if sum(e) + 1 <= cap:
                    ne = e[:i] + (e[i] + 1,) + e[i + 1 :]
                    shifted[ne] = shifted.get(ne, 0) + c
            if shifted:
                out.append(shifted)
        return out

    ech = _Echelon(p, len(monos))
    for g in gens_terms:
        if g:
            ech.insert(to_vec(g))
    while True:
        grew = False
        for row in list(ech.rows.values()):
            for img in images(to_terms(row)):
                if ech.insert(to_vec(img)):
                    grew = True
        if not grew:
            break
    return ech.constant_valuation()


def term_ideal_min_dividing_valuation(gens, e):
    """Min coefficient valuation among generators dividing x^e; None if none.

    gens: list of (exponent, valuation) pairs describing terms c*x^exp with
    nu(c) = valuation.  A term c*x^e lies in the ideal iff nu(c) is at least
    this minimum, since the coefficient ideal at x^e is generated by the
    dividing generators' coefficients.
    """
    vals = [v for (g, v) in gens if all(a <= b for a, b in zip(g, e))]
    return min(vals) if vals else None


def full_block_injective(induced, p=None):
    """Injectivity of an InducedMap through the whole presentation.

    The kernel block is [pres | -diag(target relations)] over every
    presentation coordinate, relation-1 components included; each integer
    kernel vector, cut to its source part, must lie in the source relation
    lattice (after inverting every prime but p when p is given).  This is
    the reference for the library's block on surviving components.
    """
    source, target, pres = induced.source, induced.target, induced.pres_matrix
    ks = source.presentation_rank()
    kt = target.presentation_rank()
    block = IntMatrix(kt, ks + kt)
    for i in range(kt):
        block.rows[i][:ks] = pres.rows[i]
        block.rows[i][ks + i] = -target.xdiag[i]
    for vec in integer_kernel(block):
        y = vec[:ks]
        if p is None:
            ok = source.in_relation_lattice(y)
        else:
            ok = source.in_relation_lattice_localized(y, p)
        if not ok:
            return False
    return True


def is_injective(induced) -> bool:
    """Integral injectivity of an InducedMap on its reduced kernel block.

    The library only asks p-locally (is_injective_localized); this is the
    same block test with no prime inverted, the integral reference.
    """
    if induced.source.group.is_trivial():
        return True
    return induced._kernel_in(induced.source.in_relation_lattice)


def _dense(entries, nrows, ncols):
    M = IntMatrix(nrows, ncols)
    for (i, j), v in entries.items():
        M.rows[i][j] = v
    return M


# A strand depends only on its basis bitmasks, so these are shared by every
# TaylorStrands, across degrees, levels and ideals.
_STRAND_STATS = {}
_SIZE_MASKS: dict = {}


def size_masks(r: int) -> list:
    """For each s, the family of all subsets of {0..r-1} with s elements,
    as one integer with bit S set for each member S."""
    if r not in _SIZE_MASKS:
        masks = [0] * (r + 1)
        for s in range(1 << r):
            masks[s.bit_count()] |= 1 << s
        _SIZE_MASKS[r] = masks
    return _SIZE_MASKS[r]


_STRAND_BASES = {}
_STRAND_INCLUSIONS = {}


class TaylorStrands:
    """Degree-alpha strands of a Taylor complex, over its 2^r generator subsets.

    An independent route to every Ext group and map, the reference for
    the library's nerve complexes.  The basis at spot j is {S : |S| = j,
    a_S >= tau}, tau = max(-alpha, 0): the size-j subsets ANDed with one
    threshold mask per coordinate.  The coboundary keeps the signs of the
    resolution differential.  Multiplication by a variable and the passage
    to the next power level both enlarge the basis, and the induced map is
    the basis inclusion.
    """

    def __init__(self, tc):
        self.tc = tc
        self.r = tc.r
        self.n = tc.n
        self.a = lcm_table(tc.gens, tc.n)
        self.a_full = self.a[-1]
        self.masks = size_masks(self.r)
        self._thr = [
            [self._threshold_mask(i, v) for v in range(self.a_full[i] + 1)]
            for i in range(self.n)
        ]

    def _threshold_mask(self, i, v):
        bits = 0
        for s, e in enumerate(self.a):
            if e[i] >= v:
                bits |= 1 << s
        return bits

    def differential_entries(self, j):
        """Entries of the boundary F_j -> F_{j-1}: (S, S_dropped, sign, exponent)."""
        if not 0 < j <= self.r:
            return []
        out = []
        for S in bits_to_subsets(self.masks[j]):
            aS = self.a[S]
            pos = 0
            rem = S
            while rem:
                low = rem & -rem
                sub = S ^ low
                sign = 1 if pos % 2 == 0 else -1
                out.append((S, sub, sign, exp_sub(aS, self.a[sub])))
                pos += 1
                rem ^= low
        return out

    def validate(self):
        """Check the double boundary vanishes, accumulated per monomial."""
        for j in range(2, self.r + 1):
            lower = {}
            for T, sub, sign, e in self.differential_entries(j - 1):
                lower.setdefault(T, []).append((sub, sign, e))
            acc = {}
            for S, mid, s1, e1 in self.differential_entries(j):
                for sub, s2, e2 in lower.get(mid, ()):
                    key = (S, sub, exp_add(e1, e2))
                    acc[key] = acc.get(key, 0) + s1 * s2
            if any(acc.values()):
                raise ArithmeticError("double boundary does not vanish")

    def level_bits(self, tau, j):
        """Bitmask of the subsets of size j with a_S >= tau."""
        if not 0 <= j <= self.r:
            return 0
        bits = self.masks[j]
        for i, v in enumerate(tau):
            if v > 0:
                if v > self.a_full[i]:
                    return 0
                bits &= self._thr[i][v]
                if not bits:
                    return 0
        return bits

    def strand_triple(self, j, alpha):
        tau = tuple(max(-a, 0) for a in alpha)
        return tuple(self.level_bits(tau, k) for k in (j - 1, j, j + 1))

    def strand_matrices(self, j, alpha):
        """(d_in, d_out) of the degree-alpha strand around spot j, dense."""
        below, here, above = self.strand_triple(j, alpha)
        return (
            _dense(*family_entries(below, here)),
            _dense(*family_entries(here, above)),
        )

    def mask_classes(self, i, lo, hi):
        """The values lo..hi of coordinate i, grouped by the threshold mask
        they select, each group ascending."""
        groups = {}
        for v in range(lo, hi + 1):
            t = -v if v < 0 else 0
            mask = self._thr[i][t] if t <= self.a_full[i] else 0
            groups.setdefault(mask, []).append(v)
        return list(groups.values())

    @staticmethod
    def _stats_of(cols, rows):
        key = (cols, rows)
        if key not in _STRAND_STATS:
            rank, factors = invariant_factors_sparse(*family_entries(cols, rows))
            _STRAND_STATS[key] = (rank, tuple(factors))
        return _STRAND_STATS[key]

    def group(self, j, alpha):
        below, here, above = self.strand_triple(j, alpha)
        if not here:
            return FinAbGroup.trivial()
        rank_in, torsion = self._stats_of(below, here) if below else (0, ())
        rank_out = self._stats_of(here, above)[0] if above else 0
        return FinAbGroup(here.bit_count() - rank_in - rank_out, torsion)

    @staticmethod
    def basis(triple):
        if triple not in _STRAND_BASES:
            below, here, above = triple
            d_in = _dense(*family_entries(below, here)) if below else None
            d_out = _dense(*family_entries(here, above)) if above else None
            _STRAND_BASES[triple] = CohomologyBasis(d_in, d_out, here.bit_count())
        return _STRAND_BASES[triple]

    def inclusion(self, j, alpha, target, target_alpha):
        """The InducedMap of the basis inclusion into target's strand (TaylorStrands)."""
        key = (self.strand_triple(j, alpha), target.strand_triple(j, target_alpha))
        if key not in _STRAND_INCLUSIONS:
            src_triple, tgt_triple = key
            if src_triple[1] & ~tgt_triple[1]:
                raise ValueError("source strand basis not contained in the target basis")
            src = self.basis(src_triple)
            tgt = self.basis(tgt_triple)
            tpos = {S: i for i, S in enumerate(bits_to_subsets(tgt_triple[1]))}
            chain = IntMatrix(tgt.dim, src.dim)
            for ci, S in enumerate(bits_to_subsets(src_triple[1])):
                chain.rows[tpos[S]][ci] = 1
            _STRAND_INCLUSIONS[key] = InducedMap(src, tgt, chain)
        return _STRAND_INCLUSIONS[key]


def degree_by_degree_scan(tc, j, box=None, shell=True):
    """TaylorComplex.support_scan computed one degree at a time on Taylor strands.

    Every degree of the box, then every degree of its one-step enlargement
    outside the box, gets its own strand group; no grouping into classes
    and no nerve.  Each nonzero degree is a product of one-value ranges,
    and products carry no complex.  This is the reference for the
    library's class-grouped nerve scan.
    """
    strands = TaylorStrands(tc)
    if box is None:
        box = tc.default_box()
    box = tuple((int(lo), int(hi)) for lo, hi in box)
    products = []
    count = 0
    for alpha in product(*(range(lo, hi + 1) for lo, hi in box)):
        count += 1
        group = strands.group(j, alpha)
        if not group.is_trivial():
            products.append((_point(alpha), group, None, None))
    offenders = []
    if shell:
        for alpha in product(*(range(lo - 1, hi + 2) for lo, hi in box)):
            if all(lo <= a <= hi for a, (lo, hi) in zip(alpha, box)):
                continue
            count += 1
            group = strands.group(j, alpha)
            if not group.is_trivial():
                offenders.append((_point(alpha), group, None, None))
    return ExtScanResult(
        j=j,
        box=box,
        products=products,
        shell_checked=shell,
        shell_products=offenders,
        degrees_scanned=count,
    )


def shell_offenders(scan) -> tuple:
    """The degrees of a scan's shell products, ascending."""
    return tuple(alpha for alpha, _ in ascending_degrees(scan.shell_products))


def _point(alpha) -> tuple:
    return tuple(range(a, a + 1) for a in alpha)


def scan_by_degree(tc, j, box=None, shell=True):
    """TaylorComplex.support_scan read one degree at a time off ext_piece.

    Every degree of the box padded by one step (shell) or of the box alone
    gets its own ext_piece, in ascending alpha; no runs.  Returns (the
    nonzero degrees inside the box as (alpha, group, complex, card), the
    nonzero degrees outside it ascending, the count of degrees).
    """
    if box is None:
        box = tc.default_box()
    pad = 1 if shell else 0
    pieces = []
    offenders = []
    count = 0
    for alpha in product(*(range(lo - pad, hi + pad + 1) for lo, hi in box)):
        count += 1
        piece = tc.ext_piece(j, alpha)
        if piece.group.is_trivial():
            continue
        if all(lo <= a <= hi for a, (lo, hi) in zip(alpha, box)):
            pieces.append((alpha, piece.group, piece.complex, piece.card))
        else:
            offenders.append(alpha)
    return pieces, offenders, count


def support_per_piece(complexes: dict, j: int, p: int, box=None) -> list:
    """pipeline.scan_levels's support by level, dvr_invariants read off every piece.

    Per level: {level, support_size, support, free_rank_total,
    kill_exponent}, as in scan_levels's details.  This is the reference
    for scan_levels, which reads the invariants once per product of a scan.
    """
    out = []
    for ell, tc in sorted(complexes.items()):
        support = []
        for piece in tc.support_scan(j, box=box).pieces:
            free, exps = dvr_invariants(piece.group, p)
            if free or exps:
                support.append(
                    {"alpha": list(piece.alpha), "free_rank": free, "pi_exponents": list(exps)}
                )
        free_total = sum(s["free_rank"] for s in support)
        exp_top = max((s["pi_exponents"][-1] for s in support if s["pi_exponents"]), default=0)
        out.append(
            {
                "level": ell,
                "support_size": len(support),
                "support": support,
                "free_rank_total": free_total,
                "kill_exponent": None if free_total else exp_top,
            }
        )
    return out


def per_degree_transitions(complexes: dict, support: dict, p: int) -> list:
    """pipeline.check_transitions decided degree by degree.

    Per level pair: {level, checked, all_injective, transitions}, the
    transitions a list of {alpha, injective}, one per degree of
    support[ell] in ascending alpha.  Every target is the next level's own
    ext_piece, and every map with both sides nonzero goes through the
    restriction's InducedMap, identities included.  This is the reference
    for check_transitions, which decides once per cell of runs.
    """
    pairs = []
    for ell in range(1, len(complexes)):
        high = complexes[ell + 1]
        transitions = []
        for piece in support[ell]:
            target = high.ext_piece(piece.j, piece.alpha)
            if not piece.complex.has_subcomplex(target.complex):
                raise ValueError("the higher level's complex is not a subcomplex")
            if piece.is_nonzero() and target.is_nonzero():
                induced = piece.complex.restriction(target.complex, piece.card)
                injective = induced.is_injective_localized(p)
            else:
                free, exps = dvr_invariants(piece.group, p)
                injective = free == 0 and not exps
            transitions.append({"alpha": list(piece.alpha), "injective": injective})
        pairs.append(
            {
                "level": ell,
                "checked": len(transitions),
                "all_injective": all(t["injective"] for t in transitions),
                "transitions": transitions,
            }
        )
    return pairs


def pairwise_facets(faces):
    """Maximal members of a family of bitmasks, each tested against every other.

    The O(faces^2) search the library's one-vertex extension test replaced.
    """
    return tuple(
        sorted(
            tuple(bits_to_subsets(F))
            for F in faces
            if not any(F != G and F & G == F for G in faces)
        )
    )


def is_cone_by_apex(cx) -> bool:
    """Whether some vertex v makes every face F of cx have F + v a face.

    A search over all vertices and faces, apart from the library's test on
    facets.  The void complex has no apex.
    """
    faces = cx._faces
    return bool(faces) and any(all(F | 1 << v in faces for F in faces) for v in range(cx.n))


def dense_reduced_cohomology(cx, coeff="Z"):
    """Reduced cohomology of cx from its dense coboundary matrices, one field at a time.

    Z goes through complex_cohomology spot by spot, Q through the dense
    Smith form, F_p through dense Gaussian elimination mod p.  This is the
    reference for the library's single integer elimination per coboundary.
    """
    if cx.is_void():
        return {}
    deltas = coboundaries(cx)
    top = len(deltas)
    if coeff == "Z":
        if not deltas:
            return {-1: FinAbGroup(1)}
        return {i: complex_cohomology(deltas, i + 1) for i in range(-1, top)}
    if coeff == "Q":
        ranks = [invariant_factors_dense(M)[0] for M in deltas]
    else:
        ranks = [matrix_rank_mod_p(M, coeff) for M in deltas]
    counts = cx.face_counts()
    table = {}
    for i in range(-1, top):
        c = i + 1
        r_in = ranks[c - 1] if c >= 1 else 0
        r_out = ranks[c] if c < len(ranks) else 0
        table[i] = counts[c] - r_in - r_out
    return table


def link_by_faces(cx, W) -> SimplicialComplex:
    """The link of the vertex set W, read off every face of cx: the faces G
    containing W, less W.  Void when W is not a face.  The library builds
    links from facets instead."""
    m = sum(1 << v for v in W)
    return complex_from_faces(cx.n, [G ^ m for G in cx._faces if G & m == m])


def per_field_hochster_levels(cx, coeff):
    """Hochster's nonzero spots over one field, every link's cohomology dense.

    The scan as it ran before all fields shared one elimination and before
    the library collapsed complexes: every face support, its link from the
    faces, and that link's cohomology over this field alone.
    """
    levels = set()
    for c, count in enumerate(cx.face_counts()):
        if not count:
            continue
        for W in faces_of_cardinality(cx, c):
            for spot, d in dense_reduced_cohomology(link_by_faces(cx, W), coeff).items():
                if d:
                    levels.add(spot + len(W) + 1)
    return tuple(sorted(levels))


def canonical(obj):
    """JSON-ready copy: tuples and Rows to lists, Fractions to 'a/b', floats rejected.

    The reference for reports.encode: json.dumps(canonical(x),
    sort_keys=True, indent=2) gives the bytes of the report encoder.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        raise ValueError(f"float {obj!r} has no canonical form; use int or Fraction")
    if isinstance(obj, Fraction):
        return str(obj.numerator) if obj.denominator == 1 else f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            if not isinstance(k, str):
                raise ValueError(f"non-string key {k!r}")
            out[k] = canonical(v)
        return out
    if isinstance(obj, (list, tuple, Rows)):
        return [canonical(v) for v in obj]
    describe = getattr(obj, "describe", None)
    if callable(describe):
        return canonical(describe())
    raise ValueError(f"cannot serialize {type(obj).__name__}")


def coefficient(f: Polynomial, e) -> object:
    """The coefficient of x^e in f; the ring's zero when e is not a term."""
    return f.terms.get(tuple(e), f.ring.zero())


def claims_markdown() -> str:
    """The claim registry rendered as docs/claims.md; the bundled file must equal it."""
    lines = [
        "# Claim registry",
        "",
        "Statements the command line can check, cited by id in every",
        'report\'s "claims" list.  A claim\'s status is "verified", or',
        '"verified (evidence-at-level-N)" when the conclusion follows from',
        "the first N computed levels of a direct system by the classification",
        "of annihilators of differential modules, or \"failed\" when the",
        "computation ran and contradicted the statement.",
        "",
        "Under each statement are the claim's \"result\" texts for either",
        "status.  The run fills in {levels}, the levels computed; {verdict},",
        "the verdict's tag; {stage}, the first pipeline stage that did not",
        "certify; and {violated}, the violated (tier, condition) pairs.  Of",
        "two failed texts, the first is used when its field is known.",
        "",
    ]
    for cid, (statement, *results) in CLAIMS.items():
        lines.append(f"- **{cid}** - {statement}")
        for status, texts in zip(("verified", "failed"), results):
            texts = (texts,) if isinstance(texts, str) else texts
            shown = " or ".join(f"`{t.replace('{{', '{').replace('}}', '}')}`" for t in texts)
            lines.append(f"  - {status}: {shown}")
    lines.append("")
    return "\n".join(lines)
