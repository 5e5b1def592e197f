"""Taylor complexes of monomial ideals and their graded Ext strands.

For an ordered generating list g_1..g_r the Taylor complex has one free
summand per subset S of {1..r}, twisted by a_S, the exponentwise max over
the members.  Dualizing into the ring and restricting to one multidegree
alpha leaves a finite complex of free Z-modules: the basis at spot j is
{S : |S| = j, a_S >= tau} with tau = max(-alpha, 0) coordinatewise, and
the coboundary keeps only the signs of the resolution differential, so
every strand matrix has entries in {-1, 0, 1}.  Cohomology of a strand is
exact integer linear algebra, and support scans, multiplication maps and
level transition maps all reduce to strands.

A strand depends on alpha only through its basis sets, and the basis set
at spot j is the size-j subsets ANDed with one threshold mask per
coordinate: all subsets when tau_i = 0, the subsets with (a_S)_i >= tau_i
when 0 < tau_i <= (a_full)_i, none beyond.  Degrees whose coordinates
select the same masks therefore share one strand, which is how support
scans run: once per class product of masks, not once per degree (the
graded piece depends only on the support pattern of tau, as in Mustata,
"Local cohomology at monomial ideals", J. Symb. Comput. 2000).

Basis sets are bigint bitmasks over the 2^r subset indices.  A strand's
matrices depend only on those bitmasks, not on the ideal, so invariant
factors and presentation bases are cached globally and shared across
degrees, levels, and ideals whose subset combinatorics agree.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from math import comb, prod
from operator import attrgetter
from typing import Optional

from .intlinalg import (
    CohomologyBasis,
    FinAbGroup,
    IntMatrix,
    InducedMap,
    invariant_factors_sparse,
)
from .monomials import MonomialIdeal, power_ideal
from .polynomials import MultiIndex, exp_add, exp_max, exp_sub
from .subsets import bits_to_subsets, coboundary_sign_entries, size_masks

MAX_GENERATORS = 12

_STATS_CACHE: dict = {}
_BASIS_CACHE: dict = {}
_INDUCED_CACHE: dict = {}


def check_deadline(deadline: Optional[float], what: str):
    """Raise TimeoutError once time.monotonic() passes deadline (None: never)."""
    if deadline is not None and time.monotonic() > deadline:
        raise TimeoutError(f"{what} passed the --timeout-secs budget")


def _strand_stats(col_bits: int, row_bits: int):
    """(rank, nontrivial invariant factors) of the coboundary between basis sets."""
    key = (col_bits, row_bits)
    hit = _STATS_CACHE.get(key)
    if hit is None:
        entries, nr, nc = coboundary_sign_entries(col_bits, row_bits)
        rank, factors = invariant_factors_sparse(entries, nr, nc)
        hit = (rank, tuple(factors))
        _STATS_CACHE[key] = hit
    return hit


def _dense_coboundary(col_bits: int, row_bits: int) -> IntMatrix:
    entries, nr, nc = coboundary_sign_entries(col_bits, row_bits)
    M = IntMatrix(nr, nc)
    for (i, j), v in entries.items():
        M.rows[i][j] = v
    return M


def _strand_basis(triple) -> CohomologyBasis:
    basis = _BASIS_CACHE.get(triple)
    if basis is None:
        below, here, above = triple
        d_in = _dense_coboundary(below, here) if below else None
        d_out = _dense_coboundary(here, above) if above else None
        basis = CohomologyBasis(d_in, d_out, here.bit_count())
        _BASIS_CACHE[triple] = basis
    return basis


def _induced_inclusion(src_triple, tgt_triple) -> InducedMap:
    key = (src_triple, tgt_triple)
    induced = _INDUCED_CACHE.get(key)
    if induced is None:
        if src_triple[1] & ~tgt_triple[1]:
            raise ValueError("source strand basis not contained in the target basis")
        src = _strand_basis(src_triple)
        tgt = _strand_basis(tgt_triple)
        tpos = {S: i for i, S in enumerate(bits_to_subsets(tgt_triple[1]))}
        chain = IntMatrix(tgt.dim, src.dim)
        for ci, S in enumerate(bits_to_subsets(src_triple[1])):
            chain.rows[tpos[S]][ci] = 1
        induced = InducedMap(src, tgt, chain)
        _INDUCED_CACHE[key] = induced
    return induced


class TaylorComplex:
    """The subset complex of an ordered monomial generating list.

    >>> from .monomials import MonomialIdeal
    >>> tc = TaylorComplex(MonomialIdeal(2, [(1, 0), (0, 1)]))
    >>> [tc.rank(j) for j in range(3)]
    [1, 2, 1]
    >>> tc.ext_piece(2, (-1, -1)).group
    Z
    """

    __slots__ = ("ideal", "gens", "n", "r", "a", "a_full", "_thr")

    def __init__(
        self,
        ideal: MonomialIdeal,
        generator_order=None,
        max_generators: int = MAX_GENERATORS,
    ):
        gens = ideal.gens
        if generator_order is not None:
            if sorted(generator_order) != list(range(len(gens))):
                raise ValueError("generator_order must permute the generator list")
            gens = tuple(gens[k] for k in generator_order)
        if len(gens) > max_generators:
            raise ValueError(
                f"Taylor complex too large: {len(gens)} generators, cap {max_generators}"
            )
        self.ideal = ideal
        self.gens = gens
        self.n = ideal.n
        self.r = len(gens)
        zero = (0,) * self.n
        a = [zero] * (1 << self.r)
        for s in range(1, 1 << self.r):
            low = s & -s
            a[s] = exp_max(a[s ^ low], gens[low.bit_length() - 1])
        self.a = a
        self.a_full = a[-1]
        self._thr = [
            [self._threshold_mask(i, v) for v in range(self.a_full[i] + 1)]
            for i in range(self.n)
        ]
        self.validate()

    def _threshold_mask(self, i: int, v: int) -> int:
        bits = 0
        for s, e in enumerate(self.a):
            if e[i] >= v:
                bits |= 1 << s
        return bits

    def rank(self, j: int) -> int:
        return comb(self.r, j) if 0 <= j <= self.r else 0

    def differential_entries(self, j: int):
        """Entries of the boundary F_j -> F_{j-1}: (S, S_dropped, sign, exponent)."""
        if not 0 < j <= self.r:
            return []
        out = []
        for S in bits_to_subsets(size_masks(self.r)[j]):
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
            lower: dict = {}
            for T, sub, sign, e in self.differential_entries(j - 1):
                lower.setdefault(T, []).append((sub, sign, e))
            acc: dict = {}
            for S, mid, s1, e1 in self.differential_entries(j):
                for sub, s2, e2 in lower.get(mid, ()):
                    key = (S, sub, exp_add(e1, e2))
                    acc[key] = acc.get(key, 0) + s1 * s2
            if any(acc.values()):
                raise ArithmeticError("double boundary does not vanish")

    @staticmethod
    def tau_of(alpha) -> MultiIndex:
        return tuple(-a if a < 0 else 0 for a in alpha)

    def level_bits(self, tau, j: int) -> int:
        """Bitmask of the subsets of size j with a_S >= tau."""
        if not 0 <= j <= self.r:
            return 0
        bits = size_masks(self.r)[j]
        for i, v in enumerate(tau):
            if v > 0:
                if v > self.a_full[i]:
                    return 0
                bits &= self._thr[i][v]
                if not bits:
                    return 0
        return bits

    def strand_triple(self, j: int, alpha):
        if len(alpha) != self.n:
            raise ValueError("degree length does not match the variable count")
        tau = self.tau_of(alpha)
        return (
            self.level_bits(tau, j - 1),
            self.level_bits(tau, j),
            self.level_bits(tau, j + 1),
        )

    def strand_matrices(self, j: int, alpha):
        """(d_in, d_out) of the degree-alpha strand around spot j, dense."""
        below, here, above = self.strand_triple(j, alpha)
        return _dense_coboundary(below, here), _dense_coboundary(here, above)

    def ext_piece(self, j: int, alpha) -> "GradedExtPiece":
        below, here, above = triple = self.strand_triple(j, alpha)
        dim = here.bit_count()
        if dim == 0:
            group = FinAbGroup.trivial()
        else:
            rank_in, torsion = _strand_stats(below, here) if below else (0, ())
            rank_out = _strand_stats(here, above)[0] if above else 0
            group = FinAbGroup(dim - rank_in - rank_out, torsion)
        return GradedExtPiece(self, j, tuple(alpha), group, triple)

    def default_box(self):
        return tuple((-self.a_full[i], 0) for i in range(self.n))

    def _mask_classes(self, i: int, lo: int, hi: int) -> list:
        """The values lo..hi of coordinate i, grouped by the threshold mask
        they select, each group ascending."""
        groups: dict = {}
        for v in range(lo, hi + 1):
            t = -v if v < 0 else 0
            mask = self._thr[i][t] if t <= self.a_full[i] else 0
            groups.setdefault(mask, []).append(v)
        return list(groups.values())

    def support_scan(
        self, j: int, box=None, shell: bool = True, deadline: Optional[float] = None
    ) -> "ExtScanResult":
        """All nonzero Ext pieces in the box, ascending in alpha.

        With shell=True the scan also walks the one-step enlargement of the
        box; nonzero pieces found there are reported as offenders, meaning
        the box truncates the support.

        Each coordinate's scanned values are grouped by the threshold mask
        they select.  level_bits is the AND of exactly these masks with the
        size-j subsets, so every degree in a product of classes has the
        same strand triple, hence the same group: one ext_piece per class
        product is exact, and only the nonzero ones are expanded into
        degrees.  degrees_scanned still counts degrees.  deadline is a
        time.monotonic() value, checked once per class product.
        """
        if box is None:
            box = self.default_box()
        box = tuple((int(lo), int(hi)) for lo, hi in box)
        if len(box) != self.n or any(lo > hi for lo, hi in box):
            raise ValueError("invalid scan box")
        pad = 1 if shell else 0
        classes = [
            self._mask_classes(i, lo - pad, hi + pad) for i, (lo, hi) in enumerate(box)
        ]
        pieces = []
        offenders = []
        for combo in itertools.product(*classes):
            check_deadline(deadline, f"Ext^{j} support scan")
            found = self.ext_piece(j, tuple(values[0] for values in combo))
            if not found.is_nonzero():
                continue
            for alpha in itertools.product(*combo):
                if all(lo <= a <= hi for a, (lo, hi) in zip(alpha, box)):
                    pieces.append(GradedExtPiece(self, j, alpha, found.group, found.triple))
                else:
                    offenders.append(alpha)
        pieces.sort(key=attrgetter("alpha"))
        offenders.sort()
        return ExtScanResult(
            j=j,
            box=box,
            pieces=tuple(pieces),
            shell_checked=shell,
            shell_clean=not offenders,
            shell_offenders=tuple(offenders),
            degrees_scanned=prod(hi - lo + 1 + 2 * pad for lo, hi in box),
        )

    def mult_map(self, j: int, alpha, i: int) -> "MultMapReport":
        """The map on Ext pieces induced by multiplication with the i-th variable."""
        if not 0 <= i < self.n:
            raise ValueError("variable index out of range")
        alpha = tuple(alpha)
        target_alpha = tuple(a + (1 if k == i else 0) for k, a in enumerate(alpha))
        src = self.ext_piece(j, alpha)
        tgt = self.ext_piece(j, target_alpha)
        induced, matrix = _maybe_induced(src, tgt)
        return MultMapReport(
            j=j,
            alpha=alpha,
            variable=i,
            target_alpha=target_alpha,
            source_group=src.group,
            target_group=tgt.group,
            matrix=matrix,
            zero=induced is None or induced.is_zero(),
            induced=induced,
            source=src,
            target=tgt,
        )


class GradedExtPiece:
    """One multidegree of Ext^j of the ambient ring modulo a monomial ideal.

    The group is reported over Z; over the p-local base ring only the free
    rank and the p-primary torsion survive, which dvr_invariants extracts.
    """

    __slots__ = ("complex", "j", "alpha", "group", "triple")

    def __init__(self, tc, j, alpha, group, triple):
        self.complex = tc
        self.j = j
        self.alpha = alpha
        self.group = group
        self.triple = triple

    def is_nonzero(self) -> bool:
        return not self.group.is_trivial()

    @property
    def basis(self) -> CohomologyBasis:
        return _strand_basis(self.triple)

    def dvr_invariants(self, p: int):
        """(free rank, ascending pi-adic exponents of the surviving torsion)."""
        exps = []
        for d in self.group.factors:
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            if e:
                exps.append(e)
        return self.group.free_rank, tuple(sorted(exps))

    def describe(self) -> dict:
        return {
            "alpha": list(self.alpha),
            "j": self.j,
            "group": self.group.describe(),
        }

    def __repr__(self):
        return f"GradedExtPiece(j={self.j}, alpha={self.alpha}, {self.group!r})"


def _maybe_induced(src: GradedExtPiece, tgt: GradedExtPiece):
    """(InducedMap or None, component matrix), skipping dense work whenever
    one side has no surviving components; None means the map is zero."""
    scomp = src.group.free_rank + len(src.group.factors)
    tcomp = tgt.group.free_rank + len(tgt.group.factors)
    if scomp == 0 or tcomp == 0:
        return None, [[0] * scomp for _ in range(tcomp)]
    induced = _induced_inclusion(src.triple, tgt.triple)
    return induced, induced.component_matrix()


@dataclass(frozen=True)
class MultMapReport:
    j: int
    alpha: tuple
    variable: int
    target_alpha: tuple
    source_group: FinAbGroup
    target_group: FinAbGroup
    matrix: list
    zero: bool
    induced: object
    source: GradedExtPiece
    target: GradedExtPiece

    def describe(self) -> dict:
        return {
            "j": self.j,
            "alpha": list(self.alpha),
            "variable": self.variable,
            "source": self.source_group.describe(),
            "target": self.target_group.describe(),
            "matrix": self.matrix,
            "zero": self.zero,
        }


@dataclass(frozen=True)
class ExtScanResult:
    j: int
    box: tuple
    pieces: tuple
    shell_checked: bool
    shell_clean: bool
    shell_offenders: tuple
    degrees_scanned: int

    def complete_support(self) -> bool:
        return self.shell_checked and self.shell_clean

    def describe(self) -> dict:
        return {
            "j": self.j,
            "box": [list(iv) for iv in self.box],
            "pieces": [p.describe() for p in self.pieces],
            "shell": {
                "checked": self.shell_checked,
                "clean": self.shell_clean,
                "offenders": [list(a) for a in self.shell_offenders],
            },
            "degrees_scanned": self.degrees_scanned,
        }


@dataclass(frozen=True)
class TransitionMapReport:
    ell: int
    j: int
    alpha: tuple
    source_group: FinAbGroup
    target_group: FinAbGroup
    matrix: list
    injective: bool
    chain_checked: bool
    induced: object
    source: GradedExtPiece
    target: GradedExtPiece

    def describe(self) -> dict:
        return {
            "ell": self.ell,
            "j": self.j,
            "alpha": list(self.alpha),
            "source": self.source_group.describe(),
            "target": self.target_group.describe(),
            "matrix": self.matrix,
            "injective": self.injective,
            "chain_checked": self.chain_checked,
        }


def comparison_chain_check(low: TaylorComplex, high: TaylorComplex) -> bool:
    """Verify e_S -> x^(a_S-high minus a_S-low) e_S is a chain map.

    Checks, per subset and dropped element, that the comparison multiplier
    is a genuine monomial and that multiplier-times-differential agrees in
    both composition orders; the sign patterns coincide by construction.
    """
    if low.r != high.r or low.n != high.n:
        return False
    for S in range(1, 1 << low.r):
        hS, lS = high.a[S], low.a[S]
        if any(h < l for h, l in zip(hS, lS)):
            return False
        rem = S
        while rem:
            t = rem & -rem
            sub = S ^ t
            hsub, lsub = high.a[sub], low.a[sub]
            for k in range(low.n):
                if hS[k] < hsub[k] or lS[k] < lsub[k]:
                    return False
                left = (hS[k] - hsub[k]) + (hsub[k] - lsub[k])
                right = (hS[k] - lS[k]) + (lS[k] - lsub[k])
                if left != right:
                    return False
            rem ^= t
    return True


def transition_between(
    low: TaylorComplex,
    high: TaylorComplex,
    ell: int,
    j: int,
    alpha,
    check_chain: bool = True,
) -> TransitionMapReport:
    """Induced map on degree-alpha Ext pieces from the comparison chain map.

    `low` resolves the smaller (level-ell) ideal, `high` the next level; the
    dual of the comparison map restricts to the basis inclusion on strands.
    """
    alpha = tuple(alpha)
    if check_chain and not comparison_chain_check(low, high):
        raise ValueError("comparison map is not a chain map between these complexes")
    src = low.ext_piece(j, alpha)
    tgt = high.ext_piece(j, alpha)
    if src.triple[1] & ~tgt.triple[1]:
        raise ValueError("strand basis does not embed under the comparison map")
    induced, matrix = _maybe_induced(src, tgt)
    if induced is None:
        injective = src.group.is_trivial()
    else:
        injective = induced.is_injective()
    return TransitionMapReport(
        ell=ell,
        j=j,
        alpha=alpha,
        source_group=src.group,
        target_group=tgt.group,
        matrix=matrix,
        injective=injective,
        chain_checked=check_chain,
        induced=induced,
        source=src,
        target=tgt,
    )


def ext_graded_piece(ideal: MonomialIdeal, j: int, alpha) -> GradedExtPiece:
    return TaylorComplex(ideal).ext_piece(j, alpha)


def ext_support_scan(
    ideal: MonomialIdeal, j: int, box=None, shell: bool = True
) -> ExtScanResult:
    return TaylorComplex(ideal).support_scan(j, box=box, shell=shell)


def mult_map(ideal: MonomialIdeal, j: int, alpha, i: int) -> MultMapReport:
    return TaylorComplex(ideal).mult_map(j, alpha, i)


def transition_map(
    ideal: MonomialIdeal, ell: int, j: int, alpha, check_chain: bool = True
) -> TransitionMapReport:
    """Level-ell to level-(ell+1) transition on the degree-alpha Ext piece."""
    if ell < 1:
        raise ValueError("level must be >= 1")
    low = TaylorComplex(power_ideal(ideal, ell))
    high = TaylorComplex(power_ideal(ideal, ell + 1))
    return transition_between(low, high, ell, j, alpha, check_chain=check_chain)
