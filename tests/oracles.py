"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's closed-form shortcuts: the closure
oracle below builds the actual V-span of iterated operator images and reads
the constants off an echelon basis.
"""

from itertools import product
from math import comb

from mixedchar.intlinalg import (
    FinAbGroup,
    IntMatrix,
    complex_cohomology,
    integer_kernel,
    invariant_factors_dense,
    matrix_rank_mod_p,
)
from mixedchar.scalars import padic_valuation
from mixedchar.subsets import bits_to_subsets
from mixedchar.taylor import ExtScanResult


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


def degree_by_degree_scan(tc, j, box=None, shell=True):
    """TaylorComplex.support_scan computed one degree at a time.

    Every degree of the box, then every degree of its one-step enlargement
    outside the box, gets its own ext_piece; no grouping by threshold mask.
    This is the reference for the library's class-grouped scan.
    """
    if box is None:
        box = tc.default_box()
    box = tuple((int(lo), int(hi)) for lo, hi in box)
    pieces = []
    count = 0
    for alpha in product(*(range(lo, hi + 1) for lo, hi in box)):
        count += 1
        piece = tc.ext_piece(j, alpha)
        if piece.is_nonzero():
            pieces.append(piece)
    offenders = []
    if shell:
        for alpha in product(*(range(lo - 1, hi + 2) for lo, hi in box)):
            if all(lo <= a <= hi for a, (lo, hi) in zip(alpha, box)):
                continue
            count += 1
            if tc.ext_piece(j, alpha).is_nonzero():
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
