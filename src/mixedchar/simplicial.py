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
invariant factors, and keeps them.  Every group is read off those: the
spot of cardinality c has free rank faces(c) - r_in - r_out and torsion
the factors of the map in, and the tables over Q and every F_p follow
from the same ranks and factors.

Most links are cones, and one test (link_is_cone) finds them from the
facets alone: the link of a face W has the facets F minus W for the
facets F containing W, so when those facets share a vertex outside W
every facet of the link contains it.  A cone is acyclic over Z and every
field, so both Hochster routes skip it without building it, and taylor
skips a nerve that is a cone (W empty) without eliminating.  The shared
vertices are exactly W when W is a facet (the link is {empty set}, with
reduced cohomology Z at spot -1) and whenever the link is not a cone, so
every link that can contribute is still eliminated.
"""

from __future__ import annotations

from .intlinalg import FinAbGroup, check_composes_to_zero, cochain_invariants, rank_mod_p
# the layer trace (perfbench/spans.py) wraps these two names in this module
from .intlinalg import complex_cohomology, matrix_rank_mod_p  # noqa: F401
from .scalars import is_prime
from .subsets import bits_to_subsets, check_deadline, coboundary_sign_entries

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

    __slots__ = ("n", "_spans", "_face_set", "_sized", "_facets", "_invariants")

    def __init__(self, n: int, facets):
        _check_vertex_count(n)
        spans = []
        for facet in facets:
            fm = _mask(facet)
            if fm >> n:
                raise ValueError(f"facet {tuple(facet)} has a vertex outside 0..{n - 1}")
            spans.append(fm)
        self._set_faces(n, spans, None)

    @classmethod
    def from_faces(cls, n: int, faces) -> "SimplicialComplex":
        """The complex with exactly these faces (bitmasks, downward closed)."""
        _check_vertex_count(n)
        cx = cls.__new__(cls)
        cx._set_faces(n, (), frozenset(faces))
        return cx

    def _set_faces(self, n: int, spans, faces):
        """Shared by both constructors: the faces, or None to close the span
        masks downward on first use.  The rest waits until it is asked for."""
        self.n = n
        self._spans = spans
        self._face_set = faces
        self._sized = None
        self._facets = None
        self._invariants = {}

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
    def facets(self) -> tuple:
        """The maximal faces as sorted vertex tuples, found on first use: in a
        downward-closed family, the faces no single vertex extends."""
        if self._facets is None:
            faces, singles = self._faces, [1 << v for v in range(self.n)]
            maximal = [F for F in faces if not any(not F & b and F | b in faces for b in singles)]
            self._facets = tuple(sorted(tuple(bits_to_subsets(F)) for F in maximal))
        return self._facets

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

    def coboundary_invariants(self, cards, compose_check: bool, deadline) -> list:
        """(rank, nontrivial invariant factors) of the coboundary out of the
        faces of each cardinality in cards; (0, ()) where either side has no
        faces.

        Each coboundary is eliminated over Z at most once per complex and
        kept.  With compose_check (cards then consecutive), every
        coboundary out of cards is built and checked to compose to zero
        with the next first.  deadline (a time.monotonic() value or None) is
        checked before each elimination.
        """
        faces, known = self._cards, self._invariants
        wanted = [c for c in cards if 0 <= c < len(faces) - 1 and (compose_check or c not in known)]
        if wanted:
            maps = {c: coboundary_sign_entries(faces[c], faces[c + 1]) for c in wanted}
            if compose_check:
                check_composes_to_zero(list(maps.values()))
            todo = [c for c in wanted if c not in known]

            def before_each():
                for c in todo:
                    check_deadline(deadline, f"cohomology out of faces of cardinality {c}")
                    yield maps[c]

            for c, (rank, factors) in zip(todo, cochain_invariants(before_each())):
                known[c] = (rank, tuple(factors))
        return [known.get(c, (0, ())) for c in cards]

    def link(self, vertices) -> "SimplicialComplex":
        W = _mask(vertices)
        if W not in self._faces:
            return SimplicialComplex.from_faces(self.n, ())
        return SimplicialComplex.from_faces(
            self.n, [G ^ W for G in self._faces if G & W == W]
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


def reduced_cohomology(cx: SimplicialComplex, coeff="Z", deadline=None) -> dict:
    """Reduced cohomology table, spots -1 .. dim.

    coeff "Z" gives FinAbGroup values; "Q" or a prime p gives dimensions
    over that field.  The void complex yields an empty table, and any
    spot outside the table is zero.  A tuple of coefficients gives a dict
    of tables keyed by coefficient.  deadline (a time.monotonic() value)
    is checked before each elimination.

    Every table comes from the complex's coboundary_invariants.  With
    rank r and nontrivial invariant factors t for each coboundary, the
    spot of cardinality c has dimension faces(c) - r_in - r_out over Q, the
    same with r replaced by r minus the factors divisible by p over F_p,
    and over Z that free rank plus the torsion t_in.  The Z table first
    checks that consecutive coboundaries compose to zero.
    """
    coeffs = _coefficients(coeff)
    counts = cx.face_counts()  # empty for the void complex, so every table is too
    # the map into each cardinality's spot, then the one out of the top
    stats = cx.coboundary_invariants(range(-1, len(counts)), "Z" in coeffs, deadline)
    tables = {}
    for k in coeffs:
        table = {}
        for card, dim in enumerate(counts):
            (r_in, t_in), (r_out, t_out) = stats[card], stats[card + 1]
            if k == "Z":
                table[card - 1] = FinAbGroup(dim - r_in - r_out, t_in)
            elif k == "Q":
                table[card - 1] = dim - r_in - r_out
            else:
                table[card - 1] = dim - rank_mod_p(r_in, t_in, k) - rank_mod_p(r_out, t_out, k)
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


def hochster_local_cohomology_piece(cx: SimplicialComplex, i: int, a, p, deadline=None) -> int:
    """Dimension over F_p (or Q) of the degree-a piece at spot i.

    For a <= 0 with support W the piece is the reduced link cohomology
    of W one spot below i - |W|; it vanishes unless W is a face, and when
    the link is a cone.  deadline (a time.monotonic() value) is checked
    before the link is built and before each elimination.
    """
    _coefficients(p)
    a = tuple(a)
    if len(a) != cx.n:
        raise ValueError(f"degree has {len(a)} entries, complex has {cx.n} vertices")
    if any(v > 0 for v in a):
        raise ValueError(f"degree {a} has a positive entry")
    check_deadline(deadline, "the Hochster piece")
    W = [i_ for i_, v in enumerate(a) if v]
    if not cx.has_face(W) or link_is_cone(map(_mask, cx.facets), _mask(W)):
        return 0
    table = reduced_cohomology(cx.link(W), coeff=p, deadline=deadline)
    return table.get(i - len(W) - 1, 0)


def hochster_nonzero_levels(cx: SimplicialComplex, p, deadline=None):
    """Spots i where some graded piece of the quotient's local cohomology
    over F_p (or Q) survives, by exhaustive scan over face supports.

    Each face's link is built once and eliminated once over Z, unless it
    is a cone.  p may be a tuple of fields: the result then maps each to
    its spots.  deadline (a time.monotonic() value) is checked once per
    face.
    """
    coeffs = _coefficients(p)
    levels = {c: set() for c in coeffs}
    facet_masks = [_mask(F) for F in cx.facets]
    for W in cx._faces:
        check_deadline(deadline, "the Hochster link scan")
        if link_is_cone(facet_masks, W):
            continue
        vertices = bits_to_subsets(W)
        for c, table in reduced_cohomology(cx.link(vertices), coeffs).items():
            levels[c].update(spot + len(vertices) + 1 for spot, d in table.items() if d)
    out = {c: tuple(sorted(found)) for c, found in levels.items()}
    return out if isinstance(p, tuple) else out[p]
