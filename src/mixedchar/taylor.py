"""Graded Ext of monomial quotients, computed on nerve complexes.

For an ordered generating list g_1..g_r of a monomial ideal I, the Taylor
complex resolves A/I with one free summand per subset S of the generators,
twisted by a_S, the exponentwise max over the members.  Dualized into the
ring and restricted to one multidegree alpha it is the cochain complex of
the full simplex on the generators relative to

    Delta = union over the i with tau_i > 0 of the simplex on V_i,
    tau = max(-alpha, 0),  V_i = {g : g_i < tau_i},

because a_S >= tau says exactly that S lies in no V_i.  The full simplex
is acyclic, so

    Ext^j(A/I, A)_alpha = H~^{j-2}(Delta; Z),

the spot of the size-(j-1) faces in the augmented cochain complex of
Delta, which is void (no faces at all, not even the empty one) when
tau = 0.  Delta is the nerve of the sets U_g = {i : g_i < tau_i} of
active variables: a set of generators is a face when their U_g have a
common member.  By Dowker's theorem and the nerve lemma (Bjorner,
"Topological methods", Handbook of Combinatorics, 1995) it has the
cohomology of the nerve N_tau on the variables used by Mustata, "Local
cohomology at monomial ideals", J. Symb. Comput. 2000.  Delta is the one
computed here, as a simplicial.SimplicialComplex on the r generators
whose facets are the maximal V_i: it has at most 2^r faces however many
variables there are, where N_tau has up to 2^n.  The coboundaries have
entries in {-1, 0, 1}, and a complex with a generator in every maximal
V_i is a cone (simplicial.link_is_cone at the empty face), acyclic, with
no elimination.  Otherwise the group is read off the complex's
coboundary_invariants, the same route as simplicial.reduced_cohomology.

Multiplication by x_i and the passage from one power level to the next
both shrink every V_i (and may deactivate a variable), so the target
complex is a subcomplex of the source complex.  The induced map on Ext
is restriction of cochains from the source to the target.

The complex depends on alpha only through the V_i, and V_i changes only
where tau_i passes a distinct exponent of coordinate i.  tau_i = 0 (no
V_i) is a class of its own, apart from tau_i > 0 with V_i empty.  Support
scans compute one piece per product of these breakpoint classes, whatever
the width of the box or the size of the exponents.

Two levels are compared by position, with no table of the lcms a_S.
The comparison map e_S -> x^(a_S-high minus a_S-low) e_S between the
Taylor resolutions of two generating lists commutes with the
differentials whenever its multipliers are monomials, and a_S is a max
over S, so it is a chain map exactly when each generator of the higher
list is divisible by the generator in the same position of the lower
one (comparison_chain_check), an O(r*n) test.

A piece keeps Delta's faces of sizes j-2, j-1 and j as sorted tuples of
generator bitmasks.  Complexes are cached by their V_i, and presentation
bases and restriction maps by those face tuples, shared across degrees,
levels and ideals, each cache holding at most subsets.CACHE_LIMIT
entries; a complex keeps its own eliminations.
"""

from __future__ import annotations

import itertools
from math import comb, prod
from operator import attrgetter

from .intlinalg import CohomologyBasis, FinAbGroup, IntMatrix, InducedMap
# the layer trace (perfbench/spans.py) wraps this name in this module
from .intlinalg import invariant_factors_sparse  # noqa: F401
from .monomials import MonomialIdeal
from .polynomials import MultiIndex
from .scalars import padic_valuation
from .simplicial import SimplicialComplex, link_is_cone
from .subsets import bits_to_subsets, cache_put, check_deadline, coboundary_sign_entries

# input validation: Delta on r generators has up to 2^r faces
MAX_GENERATORS = 12

_NERVE_CACHE: dict = {}
_BASIS_CACHE: dict = {}
_RESTRICTION_CACHE: dict = {}


def _nerve(r: int, simplices: frozenset):
    """(Delta, whether it is a cone) on r generators.

    simplices holds the nonempty V_i as generator bitmasks; the faces are
    the empty face and the subsets of each.  When one generator lies in
    every maximal V_i, every face lies in a maximal V_i with it, so the
    complex is a cone over that generator, hence acyclic.
    """
    key = (r, simplices)
    hit = _NERVE_CACHE.get(key)
    if hit is None:
        maximal = [F for F in simplices if not any(F != G and F & G == F for G in simplices)]
        cx = SimplicialComplex(r, [bits_to_subsets(F) for F in maximal] or [()])
        hit = cache_put(_NERVE_CACHE, key, (cx, link_is_cone(maximal, 0)))
    return hit


def _dense_coboundary(cols, rows) -> IntMatrix:
    entries, nr, nc = coboundary_sign_entries(cols, rows)
    M = IntMatrix(nr, nc)
    for (i, j), v in entries.items():
        M.rows[i][j] = v
    return M


def _nerve_basis(triple) -> CohomologyBasis:
    basis = _BASIS_CACHE.get(triple)
    if basis is None:
        below, here, above = triple
        d_in = _dense_coboundary(below, here) if below else None
        d_out = _dense_coboundary(here, above) if above else None
        basis = cache_put(_BASIS_CACHE, triple, CohomologyBasis(d_in, d_out, len(here)))
    return basis


def _is_subcomplex(src_triple, tgt_triple) -> bool:
    """Whether every face of the target's face tuples is a face of the source's."""
    return all(s is t or set(t).issubset(s) for s, t in zip(src_triple, tgt_triple))


def _restriction(src_triple, tgt_triple) -> InducedMap:
    """Restriction of cochains to a subcomplex, on cohomology at one spot.

    The chain matrix has a 1 where a target face is the same face of the
    source complex.
    """
    key = (src_triple, tgt_triple)
    induced = _RESTRICTION_CACHE.get(key)
    if induced is None:
        if not _is_subcomplex(src_triple, tgt_triple):
            raise ValueError("target complex is not a subcomplex of the source complex")
        src = _nerve_basis(src_triple)
        tgt = _nerve_basis(tgt_triple)
        spos = {F: c for c, F in enumerate(src_triple[1])}
        chain = IntMatrix(tgt.dim, src.dim)
        for row, F in enumerate(tgt_triple[1]):
            chain.rows[row][spos[F]] = 1
        induced = cache_put(_RESTRICTION_CACHE, key, InducedMap(src, tgt, chain))
    return induced


class TaylorComplex:
    """Ext of the quotient by an ordered monomial generating list.

    The name is the resolution's: the ranks, a_full (the exponent of the
    lcm of all generators) and the comparison check describe the Taylor
    complex, but no table of the 2^r lcms a_S is built.  Every group and
    map is computed on Delta.

    >>> from .monomials import MonomialIdeal
    >>> tc = TaylorComplex(MonomialIdeal(2, [(1, 0), (0, 1)]))
    >>> [tc.rank(j) for j in range(3)]
    [1, 2, 1]
    >>> tc.ext_piece(2, (-1, -1)).group
    Z
    """

    __slots__ = ("ideal", "gens", "n", "r", "a_full", "_classes")

    def __init__(self, ideal: MonomialIdeal, generator_order=None):
        gens = ideal.gens
        if generator_order is not None:
            if sorted(generator_order) != list(range(len(gens))):
                raise ValueError("generator_order must permute the generator list")
            gens = tuple(gens[k] for k in generator_order)
        if len(gens) > MAX_GENERATORS:
            raise ValueError(
                f"Taylor complex too large: {len(gens)} generators, cap {MAX_GENERATORS}"
            )
        self.ideal = ideal
        self.gens = gens
        self.n = ideal.n
        self.r = len(gens)
        self.a_full = ideal.lcm_exponent()
        self._classes = [self._breakpoint_classes(i) for i in range(self.n)]

    def _below(self, i: int, t: int) -> int:
        """V_i at tau_i = t: the bitmask of generators g with g_i < t."""
        return sum(1 << k for k, g in enumerate(self.gens) if g[i] < t)

    def _breakpoint_classes(self, i: int) -> list:
        """Coordinate i's classes of tau_i >= 1 as (first, last, V_i), ascending.

        V_i changes only just past a distinct exponent of coordinate i, so
        the classes are the runs between consecutive exponents; the last
        one (last None) is unbounded and has every generator in V_i.
        """
        out = []
        first = 1
        for cut in sorted({g[i] for g in self.gens if g[i] > 0}):
            out.append((first, cut, self._below(i, first)))
            first = cut + 1
        out.append((first, None, self._below(i, first)))
        return out

    def rank(self, j: int) -> int:
        return comb(self.r, j) if 0 <= j <= self.r else 0

    @staticmethod
    def tau_of(alpha) -> MultiIndex:
        return tuple(-a if a < 0 else 0 for a in alpha)

    def _cover(self, alpha) -> tuple:
        """Per variable: None where tau_i = 0, else V_i."""
        tau = self.tau_of(alpha)
        return tuple(None if t == 0 else self._below(i, t) for i, t in enumerate(tau))

    def _piece(self, j: int, alpha: tuple, cover: tuple) -> "GradedExtPiece":
        tau_zero = all(members is None for members in cover)
        if self.r == 0:  # A/(0) = A: Z at spot 0 (the empty face) in the degrees alpha >= 0
            triple = ((), (0,) if j == 0 and tau_zero else (), ())
            group = FinAbGroup(len(triple[1]))
        elif tau_zero:  # the void complex
            triple = ((), (), ())
            group = FinAbGroup.trivial()
        else:
            nerve, cone = _nerve(self.r, frozenset(filter(None, cover)))
            group = FinAbGroup.trivial()
            if not cone:
                (r_in, t_in), (r_out, _) = nerve.coboundary_invariants((j - 2, j - 1), False, None)
                group = FinAbGroup(len(nerve.faces_of_size(j - 1)) - r_in - r_out, t_in)
            return GradedExtPiece(self, j, alpha, group, nerve)
        return GradedExtPiece(self, j, alpha, group, triple)

    def ext_piece(self, j: int, alpha) -> "GradedExtPiece":
        alpha = tuple(alpha)
        if len(alpha) != self.n:
            raise ValueError("degree length does not match the variable count")
        return self._piece(j, alpha, self._cover(alpha))

    def default_box(self):
        return tuple((-self.a_full[i], 0) for i in range(self.n))

    def _scan_classes(self, i: int, lo: int, hi: int) -> list:
        """The values lo..hi of coordinate i as (first, last, V_i or None) runs."""
        out = [(max(lo, 0), hi, None)] if hi >= 0 else []
        for tfirst, tlast, members in self._classes[i]:
            first = lo if tlast is None else max(lo, -tlast)
            last = min(hi, -tfirst)
            if first <= last:
                out.append((first, last, members))
        return out

    def support_scan(
        self, j: int, box=None, shell: bool = True, deadline: float | None = None
    ) -> "ExtScanResult":
        """All nonzero Ext pieces in the box, ascending in alpha.

        With shell=True the scan also walks the one-step enlargement of the
        box; nonzero pieces found there are reported as offenders, meaning
        the box truncates the support.

        Each coordinate's scanned values split into runs with one V_i (or
        tau_i = 0).  Every degree in a product of runs has the same complex,
        hence the same group: one piece per product is exact, and only the
        nonzero ones are expanded into degrees.  degrees_scanned still
        counts degrees.  deadline is a time.monotonic() value, checked once
        per product and every 1024 degrees of an expansion.
        """
        if box is None:
            box = self.default_box()
        box = tuple((int(lo), int(hi)) for lo, hi in box)
        if len(box) != self.n or any(lo > hi for lo, hi in box):
            raise ValueError("invalid scan box")
        pad = 1 if shell else 0
        classes = [
            self._scan_classes(i, lo - pad, hi + pad) for i, (lo, hi) in enumerate(box)
        ]
        what = f"Ext^{j} support scan"
        pieces = []
        offenders = []
        for combo in itertools.product(*classes):
            check_deadline(deadline, what)
            corner = tuple(first for first, _, _ in combo)
            found = self._piece(j, corner, tuple(members for _, _, members in combo))
            if not found.is_nonzero():
                continue
            group, triple = found.group, found.triple
            runs = [range(first, last + 1) for first, last, _ in combo]
            for k, alpha in enumerate(itertools.product(*runs)):
                if not k & 1023:
                    check_deadline(deadline, what)
                if all(lo <= a <= hi for a, (lo, hi) in zip(alpha, box)):
                    pieces.append(GradedExtPiece(self, j, alpha, group, triple))
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
    triple holds the complex's faces of sizes j-2, j-1 and j, each a
    sorted tuple of generator bitmasks.  It may be given as Delta itself,
    which then lists them on first use: most pieces are cones, and nothing
    reads their faces.
    """

    __slots__ = ("complex", "j", "alpha", "group", "_triple")

    def __init__(self, tc, j, alpha, group, triple):
        self.complex = tc
        self.j = j
        self.alpha = alpha
        self.group = group
        self._triple = triple

    @property
    def triple(self) -> tuple:
        if isinstance(self._triple, SimplicialComplex):
            sizes = (self.j - 2, self.j - 1, self.j)
            self._triple = tuple(self._triple.faces_of_size(k) for k in sizes)
        return self._triple

    def is_nonzero(self) -> bool:
        return not self.group.is_trivial()

    @property
    def basis(self) -> CohomologyBasis:
        return _nerve_basis(self.triple)

    def dvr_invariants(self, p: int):
        """(free rank, ascending pi-adic exponents of the surviving torsion)."""
        exps = (padic_valuation(d, p) for d in self.group.factors)
        return self.group.free_rank, tuple(sorted(e for e in exps if e))

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
    induced = _restriction(src.triple, tgt.triple)
    return induced, induced.component_matrix()


class MultMapReport:
    __slots__ = (
        "j", "alpha", "variable", "target_alpha", "source_group", "target_group",
        "matrix", "zero", "induced", "source", "target",
    )

    def __init__(
        self,
        j: int,
        alpha: tuple,
        variable: int,
        target_alpha: tuple,
        source_group: FinAbGroup,
        target_group: FinAbGroup,
        matrix: list,
        zero: bool,
        induced: object,
        source: GradedExtPiece,
        target: GradedExtPiece,
    ):
        self.j = j
        self.alpha = alpha
        self.variable = variable
        self.target_alpha = target_alpha
        self.source_group = source_group
        self.target_group = target_group
        self.matrix = matrix
        self.zero = zero
        self.induced = induced
        self.source = source
        self.target = target

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


class ExtScanResult:
    __slots__ = (
        "j", "box", "pieces", "shell_checked", "shell_clean", "shell_offenders",
        "degrees_scanned",
    )

    def __init__(
        self,
        j: int,
        box: tuple,
        pieces: tuple,
        shell_checked: bool,
        shell_clean: bool,
        shell_offenders: tuple,
        degrees_scanned: int,
    ):
        self.j = j
        self.box = box
        self.pieces = pieces
        self.shell_checked = shell_checked
        self.shell_clean = shell_clean
        self.shell_offenders = shell_offenders
        self.degrees_scanned = degrees_scanned

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


class TransitionMapReport:
    __slots__ = (
        "ell", "j", "alpha", "source_group", "target_group", "matrix", "induced", "source",
        "target",
    )

    def __init__(
        self,
        ell: int,
        j: int,
        alpha: tuple,
        source_group: FinAbGroup,
        target_group: FinAbGroup,
        matrix: list,
        induced: object,
        source: GradedExtPiece,
        target: GradedExtPiece,
    ):
        self.ell = ell
        self.j = j
        self.alpha = alpha
        self.source_group = source_group
        self.target_group = target_group
        self.matrix = matrix
        self.induced = induced
        self.source = source
        self.target = target


def comparison_chain_check(low: TaylorComplex, high: TaylorComplex) -> bool:
    """Whether e_S -> x^(a_S-high minus a_S-low) e_S is a chain map.

    It is one exactly when every multiplier is a monomial, that is when
    a_S of high is at least a_S of low for every generator subset S: the
    differential multiplies by x^(a_S - a_T) for T = S minus one
    generator, and both composites then multiply by x^(a_S-high minus
    a_T-low).  a_S is the exponentwise max over the members of S, so the
    inequality holds for every S once it holds for the one-element
    subsets: generator k of high is at least generator k of low in every
    coordinate.
    """
    return (
        low.r == high.r
        and low.n == high.n
        and all(all(h >= l for h, l in zip(hg, lg)) for hg, lg in zip(high.gens, low.gens))
    )


def require_chain_map(low: TaylorComplex, high: TaylorComplex) -> None:
    """Raise ValueError unless comparison_chain_check(low, high) holds."""
    if not comparison_chain_check(low, high):
        raise ValueError("comparison map is not a chain map between these complexes")


def transition_between(
    source: GradedExtPiece, target: GradedExtPiece, ell: int
) -> TransitionMapReport:
    """Induced map from source to target, the next level's piece at the
    same j and alpha.

    source is a piece of the smaller (level-ell) ideal's complex, target
    one of the complex resolving the next level.  The comparison map must
    be a chain map (require_chain_map, checked once per level pair by the
    caller).  Each V_i only shrinks from low to high, so the high complex
    is a subcomplex of the low one and the map is restriction of cochains.
    Injectivity is asked of induced, p-locally (pipeline.check_transitions).
    """
    if (target.j, target.alpha) != (source.j, source.alpha):
        raise ValueError("a transition maps a piece to the piece of the same j and alpha")
    if not _is_subcomplex(source.triple, target.triple):
        raise ValueError("the higher level's complex is not a subcomplex of the lower level's")
    induced, matrix = _maybe_induced(source, target)
    return TransitionMapReport(
        ell=ell,
        j=source.j,
        alpha=source.alpha,
        source_group=source.group,
        target_group=target.group,
        matrix=matrix,
        induced=induced,
        source=source,
        target=target,
    )

