"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's closed-form shortcuts: the closure
oracle below builds the actual V-span of iterated operator images and reads
the constants off an echelon basis.
"""

from itertools import product
from math import comb

from mixedchar.intlinalg import (
    CohomologyBasis,
    FinAbGroup,
    IntMatrix,
    InducedMap,
    complex_cohomology,
    integer_kernel,
    invariant_factors_dense,
    invariant_factors_sparse,
    matrix_rank_mod_p,
)
from mixedchar.polynomials import exp_add, exp_sub
from mixedchar.scalars import padic_valuation
from mixedchar.subsets import bits_to_subsets, coboundary_sign_entries, size_masks
from mixedchar.taylor import ExtScanResult, GradedExtPiece


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


def _dense(entries, nrows, ncols):
    M = IntMatrix(nrows, ncols)
    for (i, j), v in entries.items():
        M.rows[i][j] = v
    return M


# A strand depends only on its basis bitmasks, so these are shared by every
# TaylorStrands, across degrees, levels and ideals.
_STRAND_STATS = {}
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
        self.a = tc.a
        self.a_full = tc.a_full
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
            _dense(*coboundary_sign_entries(below, here)),
            _dense(*coboundary_sign_entries(here, above)),
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
            rank, factors = invariant_factors_sparse(*coboundary_sign_entries(cols, rows))
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
            d_in = _dense(*coboundary_sign_entries(below, here)) if below else None
            d_out = _dense(*coboundary_sign_entries(here, above)) if above else None
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


def dense_reduced_cohomology(cx, coeff="Z"):
    """Reduced cohomology of cx from its dense coboundary matrices, one field at a time.

    Z goes through complex_cohomology spot by spot, Q through the dense
    Smith form, F_p through dense Gaussian elimination mod p.  This is the
    reference for the library's single integer elimination per coboundary.
    """
    if cx.is_void():
        return {}
    deltas = cx.coboundaries()
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
        for W in cx.faces_of_cardinality(c):
            for spot, d in dense_reduced_cohomology(cx.link(W), coeff).items():
                if d:
                    levels.add(spot + len(W) + 1)
    return tuple(sorted(levels))
