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
no elimination.  Otherwise the group is SimplicialComplex.reduced_groups,
the same route as simplicial.reduced_cohomology: it is read off the
eliminations of the complex's strong-collapse core, which has the same
cohomology and is found once per complex.  A group is a homotopy
invariant, so it needs no chain map of the collapse; bases and induced
maps do, and Delta reads them off its own faces
(SimplicialComplex.basis and SimplicialComplex.restriction).

Multiplication by x_i and the passage from one power level to the next
both shrink every V_i (and may deactivate a variable), so the target
complex is a subcomplex of the source complex.  The induced map on Ext
is restriction of cochains from the source to the target, one PieceMap
for both (TaylorComplex.mult_map and transition_between).  Where the
target complex is the source complex (at the same card) it is the
identity, read off the group with no basis.  For a squarefree ideal
every transition out of a nonzero piece is one: V_i at tau_i is the
generators with g_i = 0 at both levels while tau_i <= ell, and every
generator past it, where the complex is a cone.

The complex depends on alpha only through the V_i, and V_i changes only
where tau_i passes a distinct exponent of coordinate i.  tau_i = 0 (no
V_i) is a class of its own, apart from tau_i > 0 with V_i empty.  Support
scans compute one group per product of these breakpoint classes, whatever
the width of the box or the size of the exponents, and keep each nonzero
product as its ranges of degrees: a scan's size is its number of
products, not of degrees.  Cut at another complex's classes
(TaylorComplex.ext_cells), a product splits into cells on which the
source and target groups are both fixed, so a map between two levels is
decided once per cell.

Two levels are compared by position, with no table of the lcms a_S.
The comparison map e_S -> x^(a_S-high minus a_S-low) e_S between the
Taylor resolutions of two generating lists commutes with the
differentials whenever its multipliers are monomials, and a_S is a max
over S, so it is a chain map exactly when each generator of the higher
list is divisible by the generator in the same position of the lower
one (comparison_chain_check), an O(r*n) test.

Every product of runs, a scan's, a transition's cells or the one cell of
a single degree, is formed and decided in one place (TaylorComplex._cells),
and no producer puts its products in any order.  A piece keeps Delta and
the face size its group sits at; so does a product, for all of its
degrees.  ExtScanResult.pieces is a lazy view (ScanPieces) that sorts the
products by their runs' starts, walks their runs in ascending alpha
(ascending_degrees) and builds a piece only for the degree read.  A
report lists the degrees the same way, as reports.Rows (degree_rows) with
one shared tail per product or cell, so it lists a million degrees of one
product without holding a million pieces or dicts.  Complexes are cached
by their V_i, at most subsets.CACHE_LIMIT of them, and shared across
degrees, levels and ideals; a complex keeps its own core, bases and
restriction maps, and the core its eliminations.
"""

from __future__ import annotations

import itertools
from math import comb, prod

from .intlinalg import FinAbGroup
from .monomials import MonomialIdeal
from .reports import Rows
from .scalars import padic_valuation
from .simplicial import SimplicialComplex, link_is_cone
from .subsets import cache_put, check_deadline

# the layer trace (perfbench/spans.py) wraps these two names in this
# module; the calls are made in simplicial and intlinalg
from .intlinalg import invariant_factors_sparse  # noqa: F401
from .subsets import coboundary_sign_entries  # noqa: F401

# input validation: Delta on r generators has up to 2^r faces
MAX_GENERATORS = 12

_NERVE_CACHE: dict = {}


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
        cx = SimplicialComplex._from_facet_masks(r, maximal or [0])
        hit = cache_put(_NERVE_CACHE, key, (cx, link_is_cone(maximal, 0)))
    return hit


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

    def _breakpoint_classes(self, i: int) -> list:
        """Coordinate i's classes of tau_i >= 1 as (first, last, V_i), ascending.

        V_i changes only just past a distinct exponent of coordinate i, so
        the classes are the runs between consecutive exponents; the last
        one (last None) is unbounded and has every generator in V_i, the
        bitmask of the generators g with g_i < first.
        """
        cuts = sorted({g[i] for g in self.gens if g[i] > 0})
        return [
            (first, last, sum(1 << k for k, g in enumerate(self.gens) if g[i] < first))
            for first, last in zip([1] + [cut + 1 for cut in cuts], cuts + [None])
        ]

    def rank(self, j: int) -> int:
        return comb(self.r, j) if 0 <= j <= self.r else 0

    def _ext_at(self, j: int, simplices) -> tuple:
        """(group, complex, card) of Ext^j where the nonempty V_i are the
        masks in simplices, a frozenset, or None where tau = 0."""
        if self.r == 0:  # A/(0) = A: Z at the empty face (card 0) in the degrees alpha >= 0
            cx = SimplicialComplex._from_facet_masks(0, [0] if simplices is None else [])
            return FinAbGroup(len(cx.faces_of_size(j))), cx, j
        if simplices is None:  # the void complex
            void = SimplicialComplex._from_facet_masks(self.r, [])
            return FinAbGroup.trivial(), void, j - 1
        nerve, cone = _nerve(self.r, simplices)
        group = FinAbGroup.trivial() if cone else nerve.reduced_groups(range(j - 1, j))[0]
        return group, nerve, j - 1

    def _cells(self, j: int, runs, what: str):
        """(parts, (group, complex, card)) for each product of runs, one list
        of (first, last, V_i or None) runs per coordinate, parts the product's
        run in each.  Each set of V_i is decided once per call (_ext_at), and
        each product checks the run budget, naming what."""
        decided = {}  # the frozenset of a product's masks: its (group, complex, card)
        for parts in itertools.product(*runs):
            check_deadline(what)
            masks = frozenset([members for _, _, members in parts])
            ext = decided.get(masks)
            if ext is None:
                ext = decided[masks] = self._ext_at(j, _simplices(masks))
            yield parts, ext

    def ext_piece(self, j: int, alpha) -> "GradedExtPiece":
        alpha = tuple(alpha)
        if len(alpha) != self.n:
            raise ValueError("degree length does not match the variable count")
        runs = [self._scan_classes(i, a, a) for i, a in enumerate(alpha)]
        ((_, ext),) = self._cells(j, runs, f"the Ext^{j} piece")
        return GradedExtPiece(j, alpha, *ext)

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

    def ext_cells(self, j: int, ranges, what: str) -> list:
        """ranges, one nonempty range of degrees per coordinate, cut at this
        complex's breakpoint classes: one (ranges, group, complex, card)
        cell per product of the cut runs, in no set order (_cells)."""
        runs = [self._scan_classes(i, values[0], values[-1]) for i, values in enumerate(ranges)]
        return [
            (tuple(range(first, last + 1) for first, last, _ in parts), *ext)
            for parts, ext in self._cells(j, runs, what)
        ]

    def support_scan(self, j: int, box=None, shell: bool = True) -> "ExtScanResult":
        """The nonzero Ext^j in the box, as products of runs of degrees.

        With shell=True the scan also walks the one-step enlargement of the
        box; nonzero degrees found there are reported as offenders, meaning
        the box truncates the support.

        Each coordinate's scanned values split into runs with one V_i (or
        tau_i = 0), its classes.  Every degree of a product of classes has
        the same complex, hence the same group, decided once (_cells).  A
        class with every generator in V_i makes Delta the full simplex, a
        cone, so it is dropped before the products are formed.  Each nonzero
        product is cut at the box edges into products of runs lying wholly
        inside the box or wholly in the shell, each kept as (ranges, group,
        complex, card): ExtScanResult.products inside the box, and
        shell_products outside it, in no set order (ascending_degrees reads
        their degrees in ascending alpha); nothing is expanded here.
        degrees_scanned still counts degrees.
        """
        if box is None:
            box = self.default_box()
        box = tuple((int(lo), int(hi)) for lo, hi in box)
        if len(box) != self.n or any(lo > hi for lo, hi in box):
            raise ValueError("invalid scan box")
        pad = 1 if shell else 0
        full = (1 << self.r) - 1
        runs = [
            [run for run in self._scan_classes(i, lo - pad, hi + pad) if run[2] != full]
            for i, (lo, hi) in enumerate(box)
        ]
        products = []
        shell_products = []
        for parts, ext in self._cells(j, runs, f"Ext^{j} support scan"):
            if ext[0].is_trivial():
                continue
            cuts = (_cut_at_box(run[0], run[1], lo, hi) for run, (lo, hi) in zip(parts, box))
            for cut in itertools.product(*cuts):
                ranges = tuple(part for part, _ in cut)
                inside = all(within for _, within in cut)
                (products if inside else shell_products).append((ranges, *ext))
        return ExtScanResult(
            j=j,
            box=box,
            products=products,
            shell_checked=shell,
            shell_products=shell_products,
            degrees_scanned=prod(hi - lo + 1 + 2 * pad for lo, hi in box),
        )

    def mult_map(self, j: int, alpha, i: int) -> "PieceMap":
        """The map on Ext pieces induced by multiplication with the i-th variable."""
        if not 0 <= i < self.n:
            raise ValueError("variable index out of range")
        alpha = tuple(alpha)
        target_alpha = tuple(a + (1 if k == i else 0) for k, a in enumerate(alpha))
        return PieceMap(self.ext_piece(j, alpha), self.ext_piece(j, target_alpha))


def _simplices(masks: frozenset) -> frozenset | None:
    """The _ext_at key of the masks of a product, V_i per coordinate or None
    where tau_i = 0: the nonempty V_i, or None when every tau_i is 0."""
    simplices = frozenset(filter(None, masks))
    return simplices if simplices or 0 in masks else None


def _cut_at_box(first: int, last: int, lo: int, hi: int) -> list:
    """The values first..last cut at the box edges lo and hi, as
    (range, whether inside lo..hi) parts, each nonempty."""
    parts = []
    if first < lo:
        parts.append((range(first, min(last, lo - 1) + 1), False))
    if first <= hi and lo <= last:
        parts.append((range(max(first, lo), min(last, hi) + 1), True))
    if hi < last:
        parts.append((range(max(first, hi + 1), last + 1), False))
    return parts


class GradedExtPiece:
    """One multidegree of Ext^j of the ambient ring modulo a monomial ideal.

    The group is reported over Z; over the p-local base ring only the free
    rank and the p-primary torsion survive, which dvr_invariants(group, p)
    extracts.
    It is the cohomology of complex at the faces with card vertices:
    Delta at card j-1, void when tau = 0, and for the zero ideal {empty
    set} (tau = 0) or the void complex at card j.
    """

    __slots__ = ("j", "alpha", "group", "complex", "card")

    def __init__(self, j, alpha, group, cx, card):
        self.j = j
        self.alpha = alpha
        self.group = group
        self.complex = cx
        self.card = card

    def is_nonzero(self) -> bool:
        return not self.group.is_trivial()

    def describe(self, p: int) -> dict:
        """The report entry of the piece, with its invariants over Z_(p)."""
        return {"alpha": list(self.alpha), **_piece_fields(self.j, self.group, p)}

    def __repr__(self):
        return f"GradedExtPiece(j={self.j}, alpha={self.alpha}, {self.group!r})"


class PieceMap:
    """The map from source to target, two Ext pieces of one j, induced by
    restriction of cochains to the target's complex.

    identity says the target's complex is the source's at the same card:
    restriction is then the identity on cochains, so on the group, and
    matrix, zero and injectivity (pipeline._transition_injective_over) are
    read off the group with no basis.  It tests the complex by identity,
    not by its faces, which it would have to build: nerves are shared by
    their V_i (_nerve), so two pieces with the same V_i hold one object,
    and an equal complex held twice only takes the general route.
    Otherwise induced, the InducedMap, is built when read (the complex
    keeps it); it is None when either side has no surviving components,
    and then the map is zero with no dense work.  matrix is the component
    matrix, computed when read.
    """

    __slots__ = ("source", "target", "identity")

    def __init__(self, source: GradedExtPiece, target: GradedExtPiece):
        self.source = source
        self.target = target
        self.identity = source.card == target.card and source.complex is target.complex

    @property
    def induced(self):
        if self.source.is_nonzero() and self.target.is_nonzero():
            return self.source.complex.restriction(self.target.complex, self.source.card)
        return None

    @property
    def matrix(self) -> list:
        src, tgt = self.source.group, self.target.group
        cols = src.free_rank + len(src.factors)
        if self.identity:  # the identity on the surviving components
            return [[int(row == col) for col in range(cols)] for row in range(cols)]
        induced = self.induced
        if induced is not None:
            return induced.component_matrix()
        return [[0] * cols for _ in range(tgt.free_rank + len(tgt.factors))]

    @property
    def zero(self) -> bool:
        if self.identity:
            return not self.source.is_nonzero()
        induced = self.induced
        return induced is None or induced.is_zero()

    def describe(self) -> dict:
        """The report of a multiplication map; variable is the coordinate
        where the two degrees differ."""
        pairs = zip(self.source.alpha, self.target.alpha)
        return {
            "j": self.source.j,
            "alpha": list(self.source.alpha),
            "variable": next(i for i, (a, b) in enumerate(pairs) if a != b),
            "source": self.source.group.describe(),
            "target": self.target.group.describe(),
            "matrix": self.matrix,
            "zero": self.zero,
        }


def dvr_invariants(group: FinAbGroup, p: int):
    """(free rank, ascending pi-adic exponents of the surviving torsion) of
    a group over Z, read over Z_(p)."""
    exps = (padic_valuation(d, p) for d in group.factors)
    return group.free_rank, tuple(sorted(e for e in exps if e))


def _piece_fields(j: int, group: FinAbGroup, p: int) -> dict:
    """A piece's report entry but its alpha: j, the group, and its
    invariants over Z_(p)."""
    free, exps = dvr_invariants(group, p)
    return {
        "j": j,
        "group": group.describe(),
        "p_local": {"free_rank": free, "pi_exponents": list(exps)},
    }


def ascending_degrees(cells):
    """(alpha, cell) for every degree alpha of every cell, ascending in alpha.

    A cell is a tuple whose first item is its ranges, one per coordinate,
    and in each coordinate two cells' ranges are equal or disjoint: the
    products of a scan and the cells cut from them are.  The cells are
    sorted by their ranges' starts, in any order they come; no degree is
    sorted.  Ascending alpha over such a grid is then a nested walk of the
    coordinates' runs (_walk).
    """
    cells = sorted(cells, key=lambda cell: [values[0] for values in cell[0]])
    if len(cells) == 1:  # also the one degree () of no variables
        return ((alpha, cells[0]) for alpha in itertools.product(*cells[0][0]))
    return _walk(cells, (), 0)


def _walk(cells, fixed, depth):
    """The degrees of sorted cells that share their runs before depth,
    whose values there are fixed: each run at depth shared by neighbouring
    cells is walked value by value, and a lone cell is read with
    itertools.product."""
    for values, shared in itertools.groupby(cells, key=lambda cell: cell[0][depth]):
        shared = list(shared)
        if len(shared) == 1:
            cell = shared[0]
            for alpha in itertools.product(*fixed, *cell[0][depth:]):
                yield alpha, cell
        else:
            for a in values:
                yield from _walk(shared, fixed + ((a,),), depth + 1)


def _entries(cells, what: str):
    """(alpha, the cell's second item) for every degree alpha of cells,
    ascending (ascending_degrees), checking the run budget every 1024."""
    for k, (alpha, cell) in enumerate(ascending_degrees(cells)):
        if not k & 1023:
            check_deadline(what)
        yield alpha, cell[1]


def degree_count(ranges) -> int:
    """The number of degrees in a product of ranges."""
    return prod(map(len, ranges))


def degree_rows(cells, what: str) -> Rows:
    """The report list of every degree of cells, ascending in alpha, as
    reports.Rows keyed by alpha.

    A cell is (ranges, fields), fields the dict of the entry's other
    fields, one object shared by every degree of the cell and maybe by
    other cells; the cells are as ascending_degrees takes them.  The
    entries are first walked when the report is encoded, so the walk
    checks the run budget then, every 1024 entries, naming what.
    """
    fields = list({id(cell[1]): cell[1] for cell in cells}.values())
    return Rows("alpha", fields, lambda: _entries(cells, what))


class ScanPieces:
    """The pieces of products of runs, ascending in alpha, built when read.

    products are (ranges, group, complex, card) cells as ExtScanResult
    keeps them.  The length is the sum of the products' degree counts, and
    iteration is ascending_degrees, one GradedExtPiece per degree; nothing
    is stored per degree.
    """

    __slots__ = ("j", "products")

    def __init__(self, j: int, products):
        self.j = j
        self.products = products

    def __len__(self) -> int:
        return sum(degree_count(cell[0]) for cell in self.products)

    def __iter__(self):
        j = self.j
        for alpha, (_, group, cx, card) in ascending_degrees(self.products):
            yield GradedExtPiece(j, alpha, group, cx, card)

    def __getitem__(self, k: int) -> "GradedExtPiece":
        for index, piece in enumerate(self):
            if index == k:
                return piece
        raise IndexError("scan piece index out of range")


class ExtScanResult:
    """A support scan: its nonzero products of runs inside the box and in
    the shell, each (ranges, group, complex, card), in no set order
    (TaylorComplex.support_scan).

    pieces is a ScanPieces view of the products, so a scan holds no
    per-degree object until one is read; describe lists the shell's
    degrees, ascending.
    """

    __slots__ = ("j", "box", "products", "shell_checked", "shell_products", "degrees_scanned")

    def __init__(
        self,
        j: int,
        box: tuple,
        products: list,
        shell_checked: bool,
        shell_products: list,
        degrees_scanned: int,
    ):
        self.j = j
        self.box = box
        self.products = products
        self.shell_checked = shell_checked
        self.shell_products = shell_products
        self.degrees_scanned = degrees_scanned

    @property
    def pieces(self) -> ScanPieces:
        return ScanPieces(self.j, self.products)

    @property
    def shell_clean(self) -> bool:
        return not self.shell_products

    def complete_support(self) -> bool:
        return self.shell_checked and self.shell_clean

    def describe(self, p: int) -> dict:
        """The report entry of the scan, each piece with its invariants over
        Z_(p).  The pieces are reports.Rows (degree_rows): a piece's fields
        but its alpha are one dict per product, and the entries are walked
        when the report is encoded, checking the run budget every 1024 of
        them, since a scan that ends inside the budget can still hold
        millions.  So the stdlib json module cannot write this dict;
        reports.encode can.  The shell's offenders are listed here."""
        what = f"describing the Ext^{self.j} scan"
        offenders = [list(alpha) for alpha, _ in _entries(self.shell_products, what)]
        cells = [(cell[0], _piece_fields(self.j, cell[1], p)) for cell in self.products]
        return {
            "j": self.j,
            "box": [list(iv) for iv in self.box],
            "pieces": degree_rows(cells, what),
            "shell": {
                "checked": self.shell_checked,
                "clean": self.shell_clean,
                "offenders": offenders,
            },
            "degrees_scanned": self.degrees_scanned,
        }


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


def transition_between(source: GradedExtPiece, target: GradedExtPiece) -> PieceMap:
    """The PieceMap from source to target, the next level's piece at the
    same j and alpha.

    source is a piece of the smaller ideal's complex, target one of the
    complex resolving the next level.  The comparison map must be a chain
    map (require_chain_map, checked once per level pair by the caller).
    Each V_i only shrinks from low to high, so the high complex is a
    subcomplex of the low one and the map is restriction of cochains.
    Injectivity is asked of induced, p-locally (pipeline.check_transitions).
    """
    if (target.j, target.alpha) != (source.j, source.alpha):
        raise ValueError("a transition maps a piece to the piece of the same j and alpha")
    if not source.complex.has_subcomplex(target.complex):
        raise ValueError("the higher level's complex is not a subcomplex of the lower level's")
    return PieceMap(source, target)
