"""Simplicial complexes, their reduced cohomology, and graded local
cohomology of their face rings (the quotients by squarefree monomial
ideals) via links.

Faces are vertex bitmasks and complexes are downward closed by
construction; a complex lists its faces of each cardinality, as a sorted
tuple of masks, on first use.  Two degenerate complexes are kept distinct: the void
complex has no faces at all, while the complex {empty set} has exactly
one face of cardinality zero.  Cochain matrices come from the shared
builder on those tuples, with vertices in sorted order and sign the
position parity of the inserted vertex.  The same type carries the nerve
complexes on which taylor computes graded Ext.

Cohomology is computed over Z: a complex eliminates the coboundary out of
each cardinality at most once, one sparse elimination giving its rank and
invariant factors, and keeps them.  The coboundary out of the empty face
is never eliminated: it is one column of +-1, of rank 1 with no torsion
once the complex has a vertex, so a core of dimension at most 0 needs no
matrix at all.  Every group is read off those in one place
(SimplicialComplex.reduced_groups): the spot of cardinality c has free
rank faces(c) - r_in - r_out and torsion the factors of the map in.
The tables over Q and every F_p follow from the Z groups by universal
coefficients.

Most links are cones, and one test (link_is_cone) finds them from the
facets alone: the link of a face W has the facets F minus W for the
facets F containing W, so when those facets share a vertex outside W
every facet of the link contains it.  A cone is acyclic over Z and every
field, so both Hochster routes skip it without building it, and taylor
skips a nerve that is a cone (W empty) without eliminating.  The shared
vertices are exactly W when W is a facet (the link is {empty set}, with
reduced cohomology Z at spot -1) and whenever the link is not a cone, so
every link that can contribute is still eliminated.

Every group is computed on the complex's strong-collapse core (Barmak and
Minian, Strong homotopy types, nerves and collapses, Discrete Comput.
Geom. 2012): while some vertex v has a link that is a cone, delete v.
This is exact over Z.  K is the union of K minus v and the closed star of
v, glued along the link of v; the star is a cone over v and the link a
cone by choice, both contractible, so K is homotopy equivalent to K minus
v and has the same reduced cohomology.  The test is link_is_cone at the
face {v}, so a vertex that is a facet (link {empty set}) or lies in no
face (void link) is never deleted.  The facets of K minus v are the sets
F minus v that no facet without v contains, so a deletion tests only the
facets through v, and only against the others.  A complex finds its core
once and keeps it, and the core keeps its own eliminations, so a taylor
nerve met at many degrees, levels or ideals collapses and eliminates
once.  Only groups move to the core.  Presentation bases
(SimplicialComplex.basis) and restriction of cochains to a subcomplex
(SimplicialComplex.restriction), the maps taylor's Ext pieces induce,
are read off the complex's own faces, since restriction needs them;
each complex keeps them.  That the builder's coboundaries compose to
zero is checked by the tests, entry for entry against an independent
builder and as a product on seeded complexes, not at run time.
"""

from __future__ import annotations

from .intlinalg import CohomologyBasis, FinAbGroup, InducedMap, IntMatrix, cochain_invariants
# the layer trace (perfbench/spans.py) wraps these two names in this module
from .intlinalg import complex_cohomology, matrix_rank_mod_p  # noqa: F401
from .scalars import is_prime
from .subsets import bits_to_subsets, cache_put, check_deadline, coboundary_sign_entries

MAX_VERTICES = 16


def _mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _check_vertex_count(n: int):
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 1..{MAX_VERTICES}")


class SimplicialComplex:
    """Downward-closed family of subsets of {0..n-1}.

    >>> cx = SimplicialComplex(3, [(0, 1), (2,)])
    >>> cx.has_face((0, 1)), cx.has_face((1, 2))
    (True, False)
    >>> cx.face_counts()
    [1, 3, 1]
    """

    __slots__ = (
        "n", "_spans", "_face_set", "_sized", "_maximal", "_invariants", "_core", "_bases",
        "_restrictions",
    )

    def __init__(self, n: int, facets):
        _check_vertex_count(n)
        spans = []
        for facet in facets:
            fm = _mask(facet)
            if fm >> n:
                raise ValueError(f"facet {tuple(facet)} has a vertex outside 0..{n - 1}")
            spans.append(fm)
        self._set_spans(n, spans, None)

    @classmethod
    def _from_facet_masks(cls, n: int, maximal) -> "SimplicialComplex":
        """The complex whose facets are these pairwise incomparable masks."""
        cx = cls.__new__(cls)
        cx._set_spans(n, maximal, tuple(maximal))
        return cx

    def _set_spans(self, n: int, spans, maximal):
        """Shared by both constructors: the masks whose subsets are the
        faces, and the facets as masks when known (else None).  Faces are
        closed downward on first use, and the rest waits until it is asked
        for."""
        self.n = n
        self._spans = spans
        self._face_set = None
        self._sized = None
        self._maximal = maximal
        self._invariants = {}
        self._core = None
        self._bases = {}
        self._restrictions = {}

    @property
    def _faces(self) -> frozenset:
        """Every face as a mask."""
        if self._face_set is None:
            faces = set()
            for fm in self._spans:
                sub = fm
                while True:
                    faces.add(sub)
                    if sub == 0:
                        break
                    sub = (sub - 1) & fm
            self._face_set = frozenset(faces)
        return self._face_set

    @property
    def _cards(self) -> tuple:
        """The faces of each cardinality as a sorted tuple of masks."""
        if self._sized is None:
            faces = self._faces
            cards = [[] for _ in range(max((F.bit_count() for F in faces), default=-1) + 1)]
            for F in faces:
                cards[F.bit_count()].append(F)
            self._sized = tuple(tuple(sorted(family)) for family in cards)
        return self._sized

    @property
    def _facet_masks(self) -> tuple:
        """The maximal faces as masks, found on first use: in a
        downward-closed family, the faces no single vertex extends."""
        if self._maximal is None:
            faces, singles = self._faces, [1 << v for v in range(self.n)]
            self._maximal = tuple(
                F for F in faces if not any(not F & b and F | b in faces for b in singles)
            )
        return self._maximal

    @property
    def facets(self) -> tuple:
        """The maximal faces as sorted vertex tuples."""
        return tuple(sorted(tuple(bits_to_subsets(F)) for F in self._facet_masks))

    def is_void(self) -> bool:
        return not self._faces

    def dim(self):
        """Largest face dimension; -1 for {empty set}, None when void."""
        if not self._faces:
            return None
        return len(self._cards) - 2

    def has_face(self, vertices) -> bool:
        return _mask(vertices) in self._faces

    def face_counts(self) -> list:
        """Number of faces per cardinality, starting at the empty face."""
        return [len(family) for family in self._cards]

    def faces_of_size(self, k: int) -> tuple:
        """The faces with k vertices as ascending masks; () past either end."""
        cards = self._cards
        return cards[k] if 0 <= k < len(cards) else ()

    def coboundary_invariants(self, cards) -> list:
        """(rank, nontrivial invariant factors) of the coboundary out of the
        faces of each cardinality in cards; (0, ()) where either side has no
        faces.

        The coboundary out of the empty face is one column of +-1, so its
        rank is 1, with no torsion, whenever the complex has a vertex; it is
        never eliminated.  Every other coboundary is eliminated over Z at
        most once per complex and kept.
        """
        faces, known = self._cards, self._invariants
        if len(faces) > 1:
            known[0] = (1, ())
        todo = [c for c in cards if 0 <= c < len(faces) - 1 and c not in known]

        def before_each():
            for c in todo:
                check_deadline(f"cohomology out of faces of cardinality {c}")
                yield coboundary_sign_entries(faces[c], faces[c + 1])

        for c, (rank, factors) in zip(todo, cochain_invariants(before_each())):
            known[c] = (rank, tuple(factors))
        return [known.get(c, (0, ())) for c in cards]

    def has_subcomplex(self, sub: "SimplicialComplex") -> bool:
        """Whether every face of sub is a face of this complex."""
        return sub is self or sub._faces <= self._faces

    def basis(self, card: int) -> CohomologyBasis:
        """The presentation basis of the cohomology at the faces with card
        vertices, read off this complex's own faces (restriction of
        cochains needs them, so not the core's).  Kept per card, at most
        subsets.CACHE_LIMIT of them."""
        basis = self._bases.get(card)
        if basis is None:
            below, here, above = (self.faces_of_size(c) for c in (card - 1, card, card + 1))
            d_in = _dense_coboundary(below, here) if below else None
            d_out = _dense_coboundary(here, above) if above else None
            basis = cache_put(self._bases, card, CohomologyBasis(d_in, d_out, len(here)))
        return basis

    def restriction(self, sub: "SimplicialComplex", card: int) -> InducedMap:
        """Restriction of cochains to the subcomplex sub, on cohomology at
        the faces with card vertices.  The chain matrix has a 1 where a face
        of sub is the same face of this complex.  Kept per faces of sub and
        card, at most subsets.CACHE_LIMIT of them."""
        key = (sub._faces, card)
        induced = self._restrictions.get(key)
        if induced is None:
            if not self.has_subcomplex(sub):
                raise ValueError("target complex is not a subcomplex of the source complex")
            src, tgt = self.basis(card), sub.basis(card)
            spos = {F: c for c, F in enumerate(self.faces_of_size(card))}
            chain = IntMatrix(tgt.dim, src.dim)
            for row, F in enumerate(sub.faces_of_size(card)):
                chain.rows[row][spos[F]] = 1
            induced = cache_put(self._restrictions, key, InducedMap(src, tgt, chain))
        return induced

    def core(self) -> "SimplicialComplex":
        """The strong-collapse core: vertices whose link is a cone deleted,
        pass after pass, until a pass deletes none.  Homotopy equivalent to
        this complex (see the module docstring), and this complex itself
        when no vertex goes.  Found once and kept; a core is its own core.

        >>> cx = SimplicialComplex(4, [(0, 1, 2, 3)])
        >>> cx.core().facets, cx.core() is cx.core()
        (((3,),), True)
        """
        if self._core is not None:
            return self if self._core is True else self._core
        facets, deleted, rescan = list(self._facet_masks), False, True
        while rescan:
            rescan = False
            for v in range(self.n):
                b = 1 << v
                if not link_is_cone(facets, b):
                    continue
                check_deadline("the strong-collapse core")
                kept = [F for F in facets if not F & b]
                facets = kept + [
                    G for G in (F ^ b for F in facets if F & b) if not any(G & H == G for H in kept)
                ]
                deleted = rescan = True
        # True marks a complex that is its own core, with no reference cycle
        # for the collector to find
        if not deleted:
            self._core = True
            return self
        core = SimplicialComplex._from_facet_masks(self.n, facets)
        core._core, self._core = True, core
        return core

    def reduced_groups(self, cards: range) -> list:
        """Reduced cohomology over Z at the spots of the faces with card
        vertices (spot card - 1) for each card in a range, computed on the
        strong-collapse core: free rank faces(card) - r_in - r_out, torsion
        the factors of the map in.  Trivial past either end.

        >>> SimplicialComplex(3, [(0, 1), (1, 2), (0, 2)]).reduced_groups(range(4))
        [0, 0, Z, 0]
        """
        core = self.core()
        stats = core.coboundary_invariants(range(cards.start - 1, cards.stop))
        return [
            FinAbGroup(len(core.faces_of_size(card)) - r_in - r_out, t_in)
            for card, (r_in, t_in), (r_out, _) in zip(cards, stats, stats[1:])
        ]

    def link(self, vertices) -> "SimplicialComplex":
        """The link of a face: facets F minus W for the facets F containing
        W, already pairwise incomparable; void when W is not a face."""
        W = _mask(vertices)
        return SimplicialComplex._from_facet_masks(
            self.n, [F ^ W for F in self._facet_masks if F & W == W]
        )

    def reduced_euler_characteristic(self) -> int:
        return sum(
            (k if c & 1 else -k) for c, k in enumerate(self.face_counts())
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimplicialComplex)
            and self.n == other.n
            and self._faces == other._faces
        )

    def __hash__(self):
        return hash((self.n, self._faces))

    def __repr__(self):
        if self.is_void():
            return f"SimplicialComplex({self.n}, void)"
        return f"SimplicialComplex({self.n}, facets={self.facets})"


def _dense_coboundary(cols, rows) -> IntMatrix:
    entries, nr, nc = coboundary_sign_entries(cols, rows)
    M = IntMatrix(nr, nc)
    for (i, j), v in entries.items():
        M.rows[i][j] = v
    return M


def reduced_cohomology(cx: SimplicialComplex, coeff="Z") -> dict:
    """Reduced cohomology table, spots -1 .. dim.

    coeff "Z" gives FinAbGroup values; "Q" or a prime p gives dimensions
    over that field.  The void complex yields an empty table, and any
    spot outside the table is zero.  A tuple of coefficients gives a dict
    of tables keyed by coefficient.  The run budget is checked once per
    vertex the core deletes and before each elimination.

    Every table comes from the Z groups (reduced_groups, on the complex's
    strong-collapse core) by universal coefficients: over Q the free rank,
    over F_p the free rank plus the factors divisible by p at the spot and
    at the spot above.
    """
    coeffs = _coefficients(coeff)
    # one past the largest facet's size: 0 for the void complex, whose tables are empty
    top = max((F.bit_count() + 1 for F in cx._facet_masks), default=0)
    # the group at each cardinality's spot, then the trivial one past the top
    groups = cx.reduced_groups(range(top + 1))
    tables = {}
    for k in coeffs:
        table = {}
        for card, (here, above) in enumerate(zip(groups, groups[1:])):
            if k == "Z":
                table[card - 1] = here
            elif k == "Q":
                table[card - 1] = here.free_rank
            else:
                table[card - 1] = here.free_rank + sum(
                    1 for d in here.factors + above.factors if d % k == 0
                )
        tables[k] = table
    return tables if isinstance(coeff, tuple) else tables[coeff]


def _coefficients(coeff) -> tuple:
    """coeff as a tuple of coefficients, each "Z", "Q" or a prime."""
    coeffs = coeff if isinstance(coeff, tuple) else (coeff,)
    for c in coeffs:
        if c not in ("Z", "Q") and not (isinstance(c, int) and is_prime(c)):
            raise ValueError(f"{c} is not prime")
    return coeffs


def link_is_cone(facet_masks, W: int) -> bool:
    """Whether the link of the face W is a cone: the facets containing W
    share a vertex outside W.  False when no facet contains W (void link)."""
    common = -1
    for F in facet_masks:
        if F & W == W:
            common &= F
    return common != -1 and common != W


def hochster_local_cohomology_piece(cx: SimplicialComplex, i: int, a, p) -> int:
    """Dimension over F_p (or Q) of the degree-a piece at spot i.

    For a <= 0 with support W the piece is the reduced link cohomology
    of W one spot below i - |W|; it vanishes unless W is a face, and when
    the link is a cone.  The run budget is checked before the link is
    built and before each elimination.
    """
    _coefficients(p)
    a = tuple(a)
    if len(a) != cx.n:
        raise ValueError(f"degree has {len(a)} entries, complex has {cx.n} vertices")
    if any(v > 0 for v in a):
        raise ValueError(f"degree {a} has a positive entry")
    check_deadline("the Hochster piece")
    W = [i_ for i_, v in enumerate(a) if v]
    if not cx.has_face(W) or link_is_cone(cx._facet_masks, _mask(W)):
        return 0
    table = reduced_cohomology(cx.link(W), coeff=p)
    return table.get(i - len(W) - 1, 0)


def hochster_nonzero_levels(cx: SimplicialComplex, p):
    """Spots i where some graded piece of the quotient's local cohomology
    over F_p (or Q) survives, by exhaustive scan over face supports.

    Each face's link is built once and eliminated once over Z, unless it
    is a cone.  p may be a tuple of fields: the result then maps each to
    its spots.  The run budget is checked once per face, once per vertex
    a link's core deletes and before each elimination.
    """
    coeffs = _coefficients(p)
    levels = {c: set() for c in coeffs}
    facet_masks = cx._facet_masks
    for W in cx._faces:
        check_deadline("the Hochster link scan")
        if link_is_cone(facet_masks, W):
            continue
        vertices = bits_to_subsets(W)
        for c, table in reduced_cohomology(cx.link(vertices), coeffs).items():
            levels[c].update(spot + len(vertices) + 1 for spot, d in table.items() if d)
    out = {c: tuple(sorted(found)) for c, found in levels.items()}
    return out if isinstance(p, tuple) else out[p]
