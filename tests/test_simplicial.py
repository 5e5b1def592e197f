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
    dense_reduced_cohomology,
    faces_of_cardinality,
    is_cone_by_apex,
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


@pytest.mark.parametrize("seed", [301, 302])
def test_builder_entries_match_the_position_parity_oracle(seed):
    # entry for entry, signs included: a uniform sign flip leaves every
    # group unchanged, so only this comparison sees one
    cx = _benchmark_shaped(seed)
    for k in [cx] + [cx.link(W) for W in faces_of_cardinality(cx, 2)]:
        cards = k._cards
        for c in range(len(cards) - 1):
            cols, rows = (faces_of_cardinality(k, d) for d in (c, c + 1))
            assert coboundary_sign_entries(cards[c], cards[c + 1]) == sign_entries(cols, rows)


def test_integral_table_rejects_a_non_complex(monkeypatch):
    def flip_first_sign(cols, rows):
        entries, nrows, ncols = coboundary_sign_entries(cols, rows)
        if tuple(cols) != (0,):  # flip one sign of the map out of the empty face only
            return entries, nrows, ncols
        key = min(entries)
        return {**entries, key: -entries[key]}, nrows, ncols

    monkeypatch.setattr(simplicial, "coboundary_sign_entries", flip_first_sign)
    with pytest.raises(ValueError, match="compose to zero"):
        reduced_cohomology(SimplicialComplex(3, [(0, 1, 2)]), "Z")
