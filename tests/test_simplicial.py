"""Face complexes, squarefree dictionaries, and graded piece dimensions."""

import random

import pytest

from mixedchar import simplicial
from mixedchar.intlinalg import FinAbGroup
from mixedchar.monomials import MonomialIdeal
from mixedchar.simplicial import (
    SimplicialComplex,
    hochster_local_cohomology_piece,
    hochster_nonzero_levels,
    reduced_cohomology,
)
from mixedchar.subsets import bits_to_subsets, coboundary_sign_entries
from mixedchar.textio import reisner_ideal, rp2_facets

from .conftest import RP2_FACETS, random_facets
from .oracles import (
    composite_entries,
    dense_reduced_cohomology,
    faces_of_cardinality,
    is_cone_by_apex,
    link_by_faces,
    pairwise_facets,
    per_field_hochster_levels,
    sign_entries,
    stanley_reisner_complex,
    stanley_reisner_ideal,
)

TRIVIAL = FinAbGroup(0)


def rp2():
    return SimplicialComplex(6, RP2_FACETS)


def test_fixture_facets_match_conftest():
    n, facets = rp2_facets()
    assert (n, facets) == (6, RP2_FACETS)


def test_construction_closes_downward_and_minimalizes_facets():
    cx = SimplicialComplex(3, [(0, 1), (1,), (0, 1)])
    assert cx.facets == ((0, 1),)
    assert cx.face_counts() == [1, 2, 1]
    assert cx.has_face(()) and cx.has_face((1,)) and not cx.has_face((2,))


def test_void_versus_empty_face_complex():
    void = SimplicialComplex(2, [])
    point = SimplicialComplex(2, [()])
    assert void.is_void() and void.dim() is None
    assert not point.is_void() and point.dim() == -1
    assert reduced_cohomology(void) == {}
    assert reduced_cohomology(point) == {-1: FinAbGroup(1)}
    assert reduced_cohomology(point, 5) == {-1: 1}
    assert void != point


def test_vertex_out_of_range():
    with pytest.raises(ValueError, match="outside"):
        SimplicialComplex(2, [(0, 2)])
    with pytest.raises(ValueError, match="vertex count"):
        SimplicialComplex(0, [])


def test_full_simplex_is_acyclic():
    cx = SimplicialComplex(3, [(0, 1, 2)])
    table = reduced_cohomology(cx)
    assert set(table) == {-1, 0, 1, 2}
    assert all(g == TRIVIAL for g in table.values())
    assert cx.reduced_euler_characteristic() == 0


def test_two_points():
    cx = stanley_reisner_complex(MonomialIdeal(2, [(1, 1)]))
    assert cx.facets == ((0,), (1,))
    table = reduced_cohomology(cx)
    assert table == {-1: TRIVIAL, 0: FinAbGroup(1)}


def test_circle_cohomology():
    cx = SimplicialComplex(3, [(0, 1), (1, 2), (0, 2)])
    table = reduced_cohomology(cx)
    assert table[0] == TRIVIAL and table[1] == FinAbGroup(1)


def test_rp2_cohomology_over_z():
    table = reduced_cohomology(rp2())
    assert table[-1] == TRIVIAL
    assert table[0] == TRIVIAL
    assert table[1] == TRIVIAL
    assert table[2] == FinAbGroup(0, (2,))


def test_rp2_cohomology_dimensions_over_fields():
    cx = rp2()
    assert reduced_cohomology(cx, 2) == {-1: 0, 0: 0, 1: 1, 2: 1}
    assert reduced_cohomology(cx, 3) == {-1: 0, 0: 0, 1: 0, 2: 0}
    assert reduced_cohomology(cx, "Q") == {-1: 0, 0: 0, 1: 0, 2: 0}


def _uct_dims(z_table: dict, p: int, spot: int) -> int:
    here = z_table.get(spot, TRIVIAL)
    above = z_table.get(spot + 1, TRIVIAL)
    ptor = lambda g: sum(1 for d in g.factors if d % p == 0)
    return here.free_rank + ptor(here) + ptor(above)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_universal_coefficients_consistency_random_complexes(p):
    rng = random.Random(41 + p)
    for _ in range(25):
        n = rng.randint(2, 6)
        nf = rng.randint(1, 6)
        facets = [
            tuple(sorted(rng.sample(range(n), rng.randint(1, min(4, n)))))
            for _ in range(nf)
        ]
        cx = SimplicialComplex(n, facets)
        z_table = reduced_cohomology(cx)
        p_table = reduced_cohomology(cx, p)
        for spot, d in p_table.items():
            assert d == _uct_dims(z_table, p, spot)


def test_euler_characteristic_matches_rational_dimensions():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(2, 6)
        facets = [
            tuple(sorted(rng.sample(range(n), rng.randint(1, min(4, n)))))
            for _ in range(rng.randint(1, 6))
        ]
        cx = SimplicialComplex(n, facets)
        q_table = reduced_cohomology(cx, "Q")
        chi = sum(d if i % 2 == 0 else -d for i, d in q_table.items())
        assert chi == cx.reduced_euler_characteristic()


def test_stanley_reisner_round_trip_on_reisner_ideal():
    I = reisner_ideal()
    cx = stanley_reisner_complex(I)
    assert cx == rp2()
    assert cx.face_counts() == [1, 6, 15, 10]
    assert stanley_reisner_ideal(cx) == I


def test_stanley_reisner_round_trip_random_squarefree():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 5)
        rows = []
        for _ in range(rng.randint(1, 5)):
            supp = rng.sample(range(n), rng.randint(1, n))
            rows.append(tuple(1 if i in supp else 0 for i in range(n)))
        I = MonomialIdeal(n, rows)
        assert stanley_reisner_ideal(stanley_reisner_complex(I)) == I


def test_stanley_reisner_rejects_non_squarefree():
    with pytest.raises(ValueError, match="squarefree"):
        stanley_reisner_complex(MonomialIdeal(2, [(2, 0)]))


def test_stanley_reisner_unit_ideal_is_void():
    cx = stanley_reisner_complex(MonomialIdeal(2, [(0, 0)]))
    assert cx.is_void()
    assert stanley_reisner_ideal(cx).is_unit()


def test_link_conventions():
    cx = rp2()
    assert cx.link((0, 1, 4)).facets == ((),)
    assert cx.link((0, 3, 5)).is_void()
    assert cx.link(()) == cx


def test_rp2_vertex_links_are_five_cycles():
    cx = rp2()
    for v in range(6):
        lk = cx.link((v,))
        assert lk.face_counts() == [1, 5, 5]
        table = reduced_cohomology(lk)
        assert table[0] == TRIVIAL and table[1] == FinAbGroup(1)


def test_hochster_degree_zero_matches_complex_cohomology():
    # with empty support the link is the complex itself, shifted one spot
    cx = rp2()
    zero = (0,) * 6
    for p in (2, 3):
        table = reduced_cohomology(cx, p)
        for i in range(0, 5):
            assert hochster_local_cohomology_piece(cx, i, zero, p) == table.get(i - 1, 0)


def test_hochster_worked_pieces():
    cx = rp2()
    assert hochster_local_cohomology_piece(cx, 2, (0,) * 6, 2) == 1
    # support not a face: the three vertices span a minimal nonface
    a = (-1, -1, -1, 0, 0, 0)
    assert hochster_local_cohomology_piece(cx, 3, a, 2) == 0
    # a facet support contributes at the top spot through the empty link
    b = (-1, -2, 0, 0, -1, 0)
    assert hochster_local_cohomology_piece(cx, 3, b, 2) == 1
    assert hochster_local_cohomology_piece(cx, 2, b, 2) == 0
    with pytest.raises(ValueError, match="positive"):
        hochster_local_cohomology_piece(cx, 2, (1, 0, 0, 0, 0, 0), 2)
    with pytest.raises(ValueError, match="entries"):
        hochster_local_cohomology_piece(cx, 2, (0, 0), 2)


def test_hochster_level_scan_detects_characteristic_two_only():
    cx = rp2()
    assert hochster_nonzero_levels(cx, 2) == (2, 3)
    assert hochster_nonzero_levels(cx, 3) == (3,)
    assert hochster_nonzero_levels(cx, "Q") == (3,)


def _levels_from_pieces(cx, coeff):
    """Hochster's nonzero spots read off single pieces, one per face support."""
    levels = set()
    for c in range(len(cx.face_counts())):
        for W in faces_of_cardinality(cx, c):
            a = tuple(-1 if v in W else 0 for v in range(cx.n))
            levels.update(
                i for i in range(cx.n + 1) if hochster_local_cohomology_piece(cx, i, a, coeff)
            )
    return tuple(sorted(levels))


HOCHSTER_EDGE_CASES = {
    "simplex": (SimplicialComplex(4, [(0, 1, 2, 3)]), (4,)),
    "disjoint vertices": (SimplicialComplex(4, [(0,), (1,), (2,), (3,)]), (1,)),
    "empty face only": (SimplicialComplex(3, [()]), (0,)),
    "void": (SimplicialComplex(3, []), ()),
}


@pytest.mark.parametrize("name", sorted(HOCHSTER_EDGE_CASES))
def test_both_hochster_routes_on_edge_cases(name):
    cx, expected = HOCHSTER_EDGE_CASES[name]
    for coeff in (2, 3, "Q"):
        assert hochster_nonzero_levels(cx, coeff) == expected
        assert _levels_from_pieces(cx, coeff) == expected
        assert per_field_hochster_levels(cx, coeff) == expected


def test_random_facets_rejects_a_target_its_facets_cannot_reach():
    with pytest.raises(ValueError, match="5 vertices have only 31 faces"):
        random_facets(random.Random(0), 5, 40, sizes=(2, 4))
    facets = random_facets(random.Random(0), 5, 31, sizes=(2, 4))
    assert all(2 <= len(f) <= 4 for f in facets)


def test_both_hochster_routes_match_the_oracle_on_random_complexes():
    rng = random.Random(43)
    for trial in range(12):
        n = rng.randint(6, 7)
        cx = SimplicialComplex(n, random_facets(rng, n, rng.randint(12, 48), sizes=(2, 4)))
        facet_masks = [sum(1 << v for v in F) for F in cx.facets]
        for W in cx._faces:  # a skipped link must be acyclic
            if simplicial.link_is_cone(facet_masks, W):
                lk = cx.link(bits_to_subsets(W))
                assert all(g == TRIVIAL for g in reduced_cohomology(lk).values())
        together = hochster_nonzero_levels(cx, (2, 3, "Q"))
        for coeff in (2, 3, "Q"):
            assert together[coeff] == per_field_hochster_levels(cx, coeff)
            assert _levels_from_pieces(cx, coeff) == together[coeff]


def test_the_cone_test_matches_an_apex_search_on_every_link():
    # every support W, faces or not: a non-face has the void link, no cone
    rng = random.Random(47)
    cones = others = 0
    for _ in range(40):
        n = rng.randint(5, 7)
        cx = SimplicialComplex(n, random_facets(rng, n, rng.randint(2, 30), sizes=(1, 4)))
        facet_masks = [sum(1 << v for v in F) for F in cx.facets]
        for W in range(1 << n):
            lk = cx.link(bits_to_subsets(W))
            cone = simplicial.link_is_cone(facet_masks, W)
            assert cone == is_cone_by_apex(lk), (cx, W)
            if cone:  # a cone is acyclic over Z by the dense route too
                assert all(g == TRIVIAL for g in dense_reduced_cohomology(lk, "Z").values())
            cones += cone
            others += cx.has_face(bits_to_subsets(W)) and not cone
    assert cones > 500 and others > 100, (cones, others)


def test_the_simplex_scan_builds_one_link(monkeypatch):
    built = []
    link = SimplicialComplex.link

    def counted(cx, vertices):
        built.append(tuple(vertices))
        return link(cx, vertices)

    monkeypatch.setattr(SimplicialComplex, "link", counted)
    assert hochster_nonzero_levels(SimplicialComplex(5, [range(5)]), (2, "Q")) == {2: (5,), "Q": (5,)}
    assert built == [(0, 1, 2, 3, 4)]


def _benchmark_shaped(seed):
    """A seeded complex like the benchmark's: 14-16 vertices, facets of 4-6
    vertices, about 300 faces.  Odd seeds put RP^2 on vertices 0..5 and
    random facets on the other 8-10 vertices only (200 faces: 8 vertices
    have 256 subsets), so 2-torsion and its F_2 classes reach the tables."""
    rng = random.Random(seed)
    n = 14 + seed % 3
    if seed % 2 == 0:
        return SimplicialComplex(n, random_facets(rng, n, 300))
    rest = [tuple(v + 6 for v in f) for f in random_facets(rng, n - 6, 200)]
    return SimplicialComplex(n, list(RP2_FACETS) + rest)


@pytest.mark.parametrize("seed", [301, 302, 303, 304])
def test_one_elimination_matches_the_dense_route_on_every_link(seed):
    cx = _benchmark_shaped(seed)
    faces = [W for c in range(len(cx.face_counts())) for W in faces_of_cardinality(cx, c)]
    coeffs = ("Z", "Q", 2, 3, 5)
    torsion = 0
    for k in [cx] + [cx.link(W) for W in faces]:
        assert k.facets == pairwise_facets(k._faces)
        tables = reduced_cohomology(k, coeffs)
        for coeff in coeffs:
            assert tables[coeff] == dense_reduced_cohomology(k, coeff), (k, coeff)
        torsion += sum(len(g.factors) for g in tables["Z"].values())
    assert torsion or seed % 2 == 0
    together = hochster_nonzero_levels(cx, (2, 3, 5, "Q"))
    for coeff in (2, 3, 5, "Q"):
        assert together[coeff] == hochster_nonzero_levels(cx, coeff)
        assert together[coeff] == per_field_hochster_levels(cx, coeff)


def _parity_mismatches(cx, build) -> list:
    """The cardinalities c whose coboundary out of c, by build on cx's
    faces, differs from the position-parity oracle's anywhere."""
    cards = cx._cards
    return [
        c
        for c in range(len(cards) - 1)
        if build(cards[c], cards[c + 1])
        != sign_entries(*(faces_of_cardinality(cx, d) for d in (c, c + 1)))
    ]


def _composites_off_zero(cx, build) -> list:
    """The cardinalities c where build's coboundary out of c followed by
    its coboundary out of c + 1 is not zero."""
    cards = cx._cards
    maps = [build(cards[c], cards[c + 1]) for c in range(len(cards) - 1)]
    return [c for c, pair in enumerate(zip(maps, maps[1:])) if composite_entries(*pair)]


@pytest.mark.parametrize("seed", [301, 302])
def test_builder_entries_match_the_position_parity_oracle(seed):
    # entry for entry, signs included: a uniform sign flip leaves every
    # group unchanged, so only this comparison sees one
    cx = _benchmark_shaped(seed)
    for k in [cx] + [cx.link(W) for W in faces_of_cardinality(cx, 2)]:
        assert _parity_mismatches(k, coboundary_sign_entries) == [], k


@pytest.mark.parametrize("seed", [301, 302, 303, 304])
def test_consecutive_coboundaries_compose_to_zero(seed):
    # no run-time check repeats this: on the seeded complexes, the link of
    # every face, and RP^2
    cx = _benchmark_shaped(seed)
    links = [cx.link(bits_to_subsets(W)) for W in cx._faces]
    composites = 0
    for k in [cx, rp2()] + links:
        assert _composites_off_zero(k, coboundary_sign_entries) == [], k
        composites += max(len(k._cards) - 2, 0)
    assert composites > len(links)


def test_a_flipped_sign_fails_both_builder_checks():
    # one sign of the map out of the empty face flipped: the composite is
    # no longer zero, and the entries differ from the oracle's
    def flip_first_sign(cols, rows):
        entries, nrows, ncols = coboundary_sign_entries(cols, rows)
        if tuple(cols) != (0,):
            return entries, nrows, ncols
        key = min(entries)
        return {**entries, key: -entries[key]}, nrows, ncols

    for cx in (SimplicialComplex(3, [(0, 1, 2)]), rp2(), _benchmark_shaped(301)):
        assert _composites_off_zero(cx, flip_first_sign) == [0], cx
        assert _parity_mismatches(cx, flip_first_sign) == [0], cx


# the strong-collapse core


def _suspended_rp2():
    """RP^2 on 0..5 suspended by the vertices 6 and 7: H~^3 = Z/2, and the
    link of either suspension vertex is RP^2, 2-torsion in a link."""
    return SimplicialComplex(8, [F + (a,) for F in RP2_FACETS for a in (6, 7)])


CORE_CASES = {
    "RP^2": rp2,
    "suspended RP^2": _suspended_rp2,
    "void": lambda: SimplicialComplex(3, []),
    "empty face only": lambda: SimplicialComplex(3, [()]),
    "simplex": lambda: SimplicialComplex(5, [range(5)]),
    "disjoint points": lambda: SimplicialComplex(4, [(0,), (1,), (2,), (3,)]),
    "points and an edge": lambda: SimplicialComplex(5, [(0,), (1, 2), (4,)]),
    "circle with a whisker": lambda: SimplicialComplex(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]),
}


def _core_cases(with_rp2_pieces=True):
    """The named cases, seeded random complexes shaped like the benchmark's,
    then (with_rp2_pieces) benchmark-shaped ones that carry RP^2 on 0..5."""
    cases = [pytest.param(CORE_CASES[name](), id=name) for name in sorted(CORE_CASES)]
    rng = random.Random(307)
    for trial in range(10):
        n = 14 + trial % 3
        cases.append(pytest.param(SimplicialComplex(n, random_facets(rng, n, 300)), id=f"random{trial}"))
    if with_rp2_pieces:
        cases += [pytest.param(_benchmark_shaped(seed), id=f"shaped{seed}") for seed in (305, 307, 309)]
    return cases


def _no_vertex_collapses(cx):
    masks = cx._facet_masks
    return not any(simplicial.link_is_cone(masks, 1 << v) for v in range(cx.n))


@pytest.mark.parametrize("cx", _core_cases())
def test_cohomology_on_the_core_matches_the_dense_route_on_the_whole_complex(cx):
    coeffs = ("Z", "Q", 2, 3)
    tables = reduced_cohomology(cx, coeffs)
    for coeff in coeffs:
        assert tables[coeff] == dense_reduced_cohomology(cx, coeff), coeff
    core = cx.core()
    assert _no_vertex_collapses(core) and core.facets == pairwise_facets(core._faces)
    assert core._faces <= cx._faces
    if not cx.is_void():  # homotopy equivalent, so the dense route agrees on the core
        spots = dense_reduced_cohomology(core, "Z")
        assert {s: g for s, g in tables["Z"].items() if s in spots} == spots
        assert all(g == TRIVIAL for s, g in tables["Z"].items() if s not in spots)


@pytest.mark.parametrize("cx", _core_cases(with_rp2_pieces=False))
def test_hochster_levels_on_collapsed_links_match_the_dense_route(cx):
    together = hochster_nonzero_levels(cx, (2, 3, "Q"))
    for coeff in (2, 3, "Q"):
        assert together[coeff] == per_field_hochster_levels(cx, coeff), coeff


def test_the_core_of_a_simplex_is_one_vertex():
    for n in range(1, 7):
        core = SimplicialComplex(n, [range(n)]).core()
        assert core.face_counts() == [1, 1], n


def test_the_projective_plane_is_its_own_core():
    cx = rp2()
    assert all(len(cx.link((v,)).facets) == 5 for v in range(6))  # 5-cycles, no cones
    assert cx.core() is cx


def test_a_suspension_collapses_nowhere_and_keeps_its_torsion():
    cx = _suspended_rp2()
    assert cx.core() is cx
    assert reduced_cohomology(cx)[3] == FinAbGroup(0, [2])


def test_links_from_facets_equal_links_from_faces():
    rng = random.Random(53)
    for _ in range(20):
        n = rng.randint(5, 7)
        cx = SimplicialComplex(n, random_facets(rng, n, rng.randint(2, 30), sizes=(1, 4)))
        for W in range(1 << n):
            vertices = bits_to_subsets(W)
            lk = cx.link(vertices)
            assert lk == link_by_faces(cx, vertices), (cx, W)
            assert lk.facets == pairwise_facets(lk._faces)


def test_a_core_of_dimension_at_most_zero_needs_no_matrix(monkeypatch):
    """{empty set} and m points: Z at spot -1, or Z^(m-1) at spot 0, read
    with no elimination, since the coboundary out of the empty face is a
    column of +-1.  The circle still eliminates, once: vertices to edges."""
    eliminated = []
    invariants = simplicial.cochain_invariants

    def counted(maps):
        maps = list(maps)
        eliminated.extend(maps)
        return invariants(maps)

    monkeypatch.setattr(simplicial, "cochain_invariants", counted)
    for m in range(7):
        cx = SimplicialComplex(max(m, 1), [(v,) for v in range(m)] or [()])
        for coeff in ("Z", "Q", 2):
            assert reduced_cohomology(cx, coeff) == dense_reduced_cohomology(cx, coeff), (m, coeff)
    assert eliminated == []
    circle = SimplicialComplex(3, [(0, 1), (1, 2), (0, 2)])
    assert reduced_cohomology(circle) == dense_reduced_cohomology(circle, "Z")
    assert [shape for _, *shape in eliminated] == [[3, 3]]
