"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's closed-form shortcuts: the closure
oracle below builds the actual V-span of iterated operator images and reads
the constants off an echelon basis.
"""

import heapq
import time
from fractions import Fraction
from itertools import product
from math import comb

from mixedchar.diffops import DividedPowerOp
from mixedchar.filtrations import FiltrationSpec
from mixedchar.groebner import _coprime, _monic, _require_field, normal_form, spoly
from mixedchar.intlinalg import (
    CohomologyBasis,
    FinAbGroup,
    IntMatrix,
    InducedMap,
    _snf,
    complex_cohomology,
    integer_kernel,
    invariant_factors_dense,
    invariant_factors_sparse,
    matrix_rank_mod_p,
)
from mixedchar.monomials import MonomialIdeal
from mixedchar.polynomials import ORDER_KEYS, Polynomial, exp_add, exp_max, exp_sub
from mixedchar.scalars import DVR, PrimeField, padic_valuation
from mixedchar.simplicial import MAX_VERTICES, SimplicialComplex
from mixedchar.subsets import bits_to_subsets
from mixedchar.taylor import ExtScanResult, GradedExtPiece


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


def divisors(basis, order: str = "grlex") -> list:
    """The basis as groebner.normal_form's (leading term, g) pairs."""
    return [(g.leading_term(order), g) for g in basis]


def ideal_member(f: Polynomial, basis, order: str = "grlex") -> bool:
    """Membership against a basis already closed under S-remainders."""
    return normal_form(f, divisors(basis, order), order).is_zero()


def buchberger_all_pairs(gens, order: str = "grlex", deadline=None) -> list:
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
    basis = [_monic(g, order) for g in basis]
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
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError("basis computation passed its deadline")
        _, i, j = heapq.heappop(heap)
        h = normal_form(spoly(basis[i], basis[j], order), divisors(basis, order), order)
        if h.is_zero():
            continue
        if h.is_constant():
            return unit
        basis.append(_monic(h, order))
        lts.append(h.leading_term(order)[0])
        push_pairs(len(basis) - 1)
    return basis


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


def reduce_mod_pi(f: Polynomial) -> Polynomial:
    """Image of a V[x] polynomial in F_p[x]."""
    F = _residue_field(f.ring)
    return f.map_coefficients(F, lambda c: c.residue())


def op_mod_pi(op: DividedPowerOp) -> DividedPowerOp:
    """Reduce an operator's polynomial coefficients mod pi."""
    F = _residue_field(op.ring)
    return DividedPowerOp(F, op.n, [(reduce_mod_pi(c), o) for c, o in op.terms])


def concatenate(first: FiltrationSpec, second: FiltrationSpec) -> FiltrationSpec:
    """Stack two descriptions; bound gaps add in the finite verdict."""
    return FiltrationSpec(f"{first.name}+{second.name}", first.tiers + second.tiers)


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


def _members(bits: int) -> list:
    """The subsets a family integer marks (bit S for the subset S), as vertex tuples."""
    return [_vertices(S) for S in range(bits.bit_length()) if bits >> S & 1]


def family_entries(col_bits: int, row_bits: int):
    """sign_entries between two families held as integers."""
    return sign_entries(_members(col_bits), _members(row_bits))


def smith_normal_form(M: IntMatrix):
    """(D, U, W) with U, W unimodular, U @ M @ W == D, diagonal chain d_i | d_{i+1}."""
    return _snf(M, want_u=True, want_w=True)[:3]


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
    over Q, which fails unless W is unimodular.
    """
    D, U, W, Uinv = _snf(M, want_u=True, want_w=True, want_uinv=True)
    return D, U, W, Uinv, _unimodular_inverse(W)


def coboundaries(cx: SimplicialComplex) -> list:
    """Dense sign matrices of cx, cardinality c to c+1 for each c below the top."""
    top = max((F.bit_count() for F in cx._faces), default=-1)
    cards = [faces_of_cardinality(cx, c) for c in range(top + 1)]
    return [_dense(*sign_entries(cards[c], cards[c + 1])) for c in range(top)]


def stanley_reisner_complex(I: MonomialIdeal) -> SimplicialComplex:
    """Complex whose faces are the squarefree monomials outside I."""
    if I.n > MAX_VERTICES:
        raise ValueError(f"too many variables for face enumeration: {I.n}")
    gen_masks = []
    for e in I.gens:
        if any(v > 1 for v in e):
            raise ValueError(f"generator {e} is not squarefree")
        gen_masks.append(sum(1 << i for i, v in enumerate(e) if v))
    return SimplicialComplex.from_faces(
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
        tau = self.tc.tau_of(alpha)
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
    and no nerve.  Pieces carry strand triples.  This is the reference for
    the library's class-grouped nerve scan.
    """
    strands = TaylorStrands(tc)
    if box is None:
        box = tc.default_box()
    box = tuple((int(lo), int(hi)) for lo, hi in box)
    pieces = []
    count = 0
    for alpha in product(*(range(lo, hi + 1) for lo, hi in box)):
        count += 1
        group = strands.group(j, alpha)
        if not group.is_trivial():
            pieces.append(GradedExtPiece(tc, j, alpha, group, strands.strand_triple(j, alpha)))
    offenders = []
    if shell:
        for alpha in product(*(range(lo - 1, hi + 2) for lo, hi in box)):
            if all(lo <= a <= hi for a, (lo, hi) in zip(alpha, box)):
                continue
            count += 1
            if not strands.group(j, alpha).is_trivial():
                offenders.append(alpha)
    return ExtScanResult(
        j=j,
        box=box,
        pieces=tuple(pieces),
        shell_checked=shell,
        shell_clean=not offenders,
        shell_offenders=tuple(offenders),
        degrees_scanned=count,
    )


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


def per_field_hochster_levels(cx, coeff):
    """Hochster's nonzero spots over one field, every link's cohomology dense.

    The scan as it ran before all fields shared one elimination: every face
    support, its link, and that link's cohomology over this field alone.
    """
    levels = set()
    for c, count in enumerate(cx.face_counts()):
        if not count:
            continue
        for W in faces_of_cardinality(cx, c):
            for spot, d in dense_reduced_cohomology(cx.link(W), coeff).items():
                if d:
                    levels.add(spot + len(W) + 1)
    return tuple(sorted(levels))


def canonical(obj):
    """JSON-ready copy: tuples to lists, Fractions to 'a/b', floats rejected.

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
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    describe = getattr(obj, "describe", None)
    if callable(describe):
        return canonical(describe())
    raise ValueError(f"cannot serialize {type(obj).__name__}")
