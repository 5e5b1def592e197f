import itertools
import random
import tracemalloc

import pytest

from mixedchar.intlinalg import FinAbGroup
from mixedchar.monomials import MonomialIdeal, power_ideal
from mixedchar.pipeline import _transition_injective_over
from mixedchar.reports import encode
from mixedchar.subsets import budget, coboundary_sign_entries
from mixedchar.taylor import (
    TaylorComplex,
    ascending_degrees,
    comparison_chain_check,
    dvr_invariants,
    require_chain_map,
    transition_between,
)

from tests.conftest import REISNER_ROWS
from tests.oracles import (
    TaylorStrands,
    _dense,
    degree_by_degree_scan,
    is_injective,
    scan_by_degree,
    shell_offenders,
    subset_walk_chain_check,
)


def reisner():
    return MonomialIdeal(6, REISNER_ROWS)


@pytest.fixture(scope="module")
def rtc():
    return TaylorComplex(reisner())


def _random_ideal(rng, n=3, max_gens=4, max_exp=2):
    gens = [
        tuple(rng.randint(0, max_exp) for _ in range(n))
        for _ in range(rng.randint(1, max_gens))
    ]
    gens = [g for g in gens if any(g)]
    return MonomialIdeal(n, gens or [(1,) + (0,) * (n - 1)])


def test_koszul_shape_and_differential():
    tc = TaylorComplex(MonomialIdeal(2, [(1, 0), (0, 1)]))
    # canonical grlex order lists (0, 1) before (1, 0)
    assert tc.gens == ((0, 1), (1, 0))
    assert [tc.rank(j) for j in range(4)] == [1, 2, 1, 0]
    strands = TaylorStrands(tc)
    assert set(strands.differential_entries(1)) == {
        (0b01, 0, 1, (0, 1)),
        (0b10, 0, 1, (1, 0)),
    }
    # removing the lower generator index carries the positive sign
    assert set(strands.differential_entries(2)) == {
        (0b11, 0b10, 1, (0, 1)),
        (0b11, 0b01, -1, (1, 0)),
    }


def test_double_boundary_vanishes_on_random_ideals():
    rng = random.Random(41)
    for _ in range(30):
        tc = TaylorComplex(_random_ideal(rng, max_gens=5, max_exp=3))
        TaylorStrands(tc).validate()


def test_koszul_ext_pieces():
    tc = TaylorComplex(MonomialIdeal(2, [(1, 0), (0, 1)]))
    assert tc.ext_piece(2, (-1, -1)).group == FinAbGroup(1)
    assert tc.ext_piece(2, (0, -1)).group.is_trivial()
    assert tc.ext_piece(2, (0, 0)).group.is_trivial()
    for alpha in itertools.product((-1, 0), repeat=2):
        assert tc.ext_piece(1, alpha).group.is_trivial()
        assert tc.ext_piece(0, alpha).group.is_trivial()


def test_principal_ideal_scan_reports_truncated_support():
    tc = TaylorComplex(MonomialIdeal(2, [(2, 1)]))
    scan = tc.support_scan(1)
    assert scan.box == ((-2, 0), (-1, 0))
    assert [p.alpha for p in scan.pieces] == [
        (-2, -1),
        (-2, 0),
        (-1, -1),
        (-1, 0),
        (0, -1),
    ]
    assert all(p.group == FinAbGroup(1) for p in scan.pieces)
    # the quotient by one monomial has pieces in every degree above -a_full,
    # so the one-step shell must flag the box as truncating
    assert not scan.shell_clean
    assert set(shell_offenders(scan)) == {(-2, 1), (-1, 1), (1, -1)}
    assert not scan.complete_support()
    # listing the shell and the pieces checks the budget too: a scan can
    # hold millions
    with pytest.raises(TimeoutError, match="describing the Ext\\^1 scan"), budget(-1.0):
        encode(scan.describe(2))
    with budget(60):
        within = encode(scan.describe(2))
    assert within == encode(scan.describe(2))


def _assert_same_scan(got, want, tc):
    """got from the class scan on nerves, want from the per-degree strand oracle."""
    assert encode(got.describe(2)) == encode(want.describe(2))
    assert list(got.describe(2)["pieces"]) == [p.describe(2) for p in want.pieces]
    assert [(p.alpha, p.j, p.group) for p in got.pieces] == [
        (p.alpha, p.j, p.group) for p in want.pieces
    ]
    # each expanded piece carries the nerve of its own degree
    assert [(p.complex, p.card) for p in got.pieces] == [
        (e.complex, e.card) for e in (tc.ext_piece(p.j, p.alpha) for p in got.pieces)
    ]
    assert shell_offenders(got) == shell_offenders(want)
    assert got.degrees_scanned == want.degrees_scanned


def _random_box(rng, tc):
    """Per coordinate lo..hi with lo from -a_full - 2, past every threshold,
    up to 1, and hi at most 2, so boxes reach into positive degrees."""
    box = []
    for top in tc.a_full:
        lo = rng.randint(-top - 2, 1)
        box.append((lo, rng.randint(lo, min(lo + 4, 2))))
    return box


def test_class_scan_matches_the_degree_by_degree_oracle():
    rng = random.Random(20261018)
    class_counts = set()
    pieces = offenders = 0
    for trial in range(150):
        ideal = _random_ideal(rng, n=rng.randint(1, 4), max_gens=5, max_exp=3)
        order = None
        if trial % 8 == 0:
            order = list(range(len(ideal.gens)))
            rng.shuffle(order)
        tc = TaylorComplex(ideal, generator_order=order)
        strands = TaylorStrands(tc)
        counts = []
        for i, top in enumerate(tc.a_full):
            # breakpoint runs group the values exactly as threshold masks do
            masks = strands.mask_classes(i, -top - 1, 1)
            runs = tc._scan_classes(i, -top - 1, 1)
            assert sorted(masks) == sorted(list(range(lo, hi + 1)) for lo, hi, _ in runs)
            counts.append(len(masks))
        class_counts.add(tuple(counts))
        for box in (None, _random_box(rng, tc)):
            for j in range(tc.r + 2):
                for shell in (True, False):
                    got = tc.support_scan(j, box=box, shell=shell)
                    want = degree_by_degree_scan(tc, j, box=box, shell=shell)
                    _assert_same_scan(got, want, tc)
                    pieces += len(got.pieces)
                    offenders += len(shell_offenders(got))
    # coordinates with different class counts inside one ideal
    assert any(len(set(counts)) > 1 for counts in class_counts)
    assert pieces > 2000 and offenders > 2000


def test_run_walk_matches_the_per_degree_oracle():
    # every degree of the padded box read off its own ext_piece, in
    # ascending alpha, against the scan's products walked run by run
    rng = random.Random(27)
    cuts = nonzero = offenders = mixed = 0
    for _ in range(150):
        tc = TaylorComplex(_random_ideal(rng, n=rng.randint(2, 4), max_gens=5, max_exp=3))
        box = []
        for i, top in enumerate(tc.a_full):
            lo = rng.randint(-top - 1, 0)
            hi = rng.randint(lo, 1)
            box.append((lo, hi))
            # box edges strictly inside a breakpoint class cut it mid-way
            for first, last, _ in tc._scan_classes(i, -top - 3, 3):
                cuts += (first < lo <= last) + (first <= hi < last)
        for j in range(tc.r + 2):
            for shell in (True, False):
                scan = tc.support_scan(j, box=box, shell=shell)
                pieces, outside, count = scan_by_degree(tc, j, box, shell)
                got = [(p.alpha, p.group, p.complex, p.card) for p in scan.pieces]
                assert got == pieces
                assert len(scan.pieces) == len(pieces)
                assert list(shell_offenders(scan)) == outside
                assert scan.shell_clean == (not outside)
                assert scan.degrees_scanned == count
                nonzero += len(pieces)
                offenders += len(outside)
                cells = scan.products + scan.shell_products
                mixed += any(a[1] != b[1] for a, b in zip(cells, cells[1:]))
    # neighbouring products with different groups: a group reused fails
    assert cuts > 300 and nonzero > 800 and offenders > 2000 and mixed > 4, (
        cuts, nonzero, offenders, mixed
    )


def test_the_degree_walk_sorts_the_cells_it_is_given():
    # a scan's products and shell products, shuffled, still walk to every
    # (alpha, cell) in ascending alpha: no producer has to order its cells
    rng = random.Random(2029)
    scans = walked = several = 0
    for _ in range(120):
        tc = TaylorComplex(_random_ideal(rng, n=rng.randint(1, 4), max_gens=5, max_exp=3))
        for box in (None, _random_box(rng, tc)):
            for j in (1, 2, 3):
                scan = tc.support_scan(j, box=box)
                cells = scan.products + scan.shell_products
                rng.shuffle(cells)
                want = sorted(
                    (alpha, cell) for cell in cells for alpha in itertools.product(*cell[0])
                )
                assert list(ascending_degrees(cells)) == want, (tc.gens, j, box)
                scans += 1
                walked += len(want)
                several += len(cells) > 2
    assert scans == 720 and walked > 5000 and several > 150, (scans, walked, several)


def test_a_huge_scan_holds_no_piece_per_degree():
    # Ext^2 of (x0^1000000, x1) is Z at a million degrees: one product
    tc = TaylorComplex(MonomialIdeal(2, [(1000000, 0), (0, 1)]))
    tracemalloc.start()
    try:
        scan = tc.support_scan(2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(scan.pieces) == 1000000 and peak < 1000000, peak
    assert len(scan.products) == 1 and scan.complete_support()
    first = scan.pieces[0]
    assert (first.alpha, first.group) == ((-1000000, -1), FinAbGroup(1))
    # one walk of the pieces: (-1, -1) is the last one, (0, -1) is none
    tail = [piece for piece in scan.pieces if piece.alpha[0] >= -1]
    assert [(piece.alpha, piece.group) for piece in tail] == [((-1, -1), FinAbGroup(1))]


def test_a_huge_scan_describes_with_no_dict_per_degree():
    # the scan report lists a million degrees of one product as Rows: one
    # shared dict for the product, the entries made only while encoding
    scan = TaylorComplex(MonomialIdeal(2, [(1000000, 0), (0, 1)])).support_scan(2)
    tracemalloc.start()
    try:
        described = scan.describe(2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1000000, peak
    # the shell is clean, so the budget is first checked as the pieces are
    # encoded
    with budget(-1.0):
        late = scan.describe(2)
        with pytest.raises(TimeoutError, match="describing the Ext\\^2 scan"):
            encode(late)
    rows = iter(described["pieces"])
    assert next(rows) == {
        "alpha": [-1000000, -1],
        "j": 2,
        "group": {"rank": 1, "torsion": []},
        "p_local": {"free_rank": 1, "pi_exponents": []},
    }


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_class_scan_matches_the_oracle_on_reisner_levels(ell):
    tc = TaylorComplex(power_ideal(reisner(), ell))
    _assert_same_scan(tc.support_scan(4), degree_by_degree_scan(tc, 4), tc)


def _covering_subset_count(rows, size):
    count = 0
    for chosen in itertools.combinations(rows, size):
        cover = [max(col) for col in zip(*chosen)]
        if all(cover):
            count += 1
    return count


def _nerve_face_count(rows, size):
    """Sets of `size` generators that all avoid some variable."""
    return sum(
        1
        for face in itertools.combinations(rows, size)
        if any(all(row[i] == 0 for row in face) for i in range(len(rows[0])))
    )


def test_reisner_ext4_piece_is_z2(rtc):
    piece = rtc.ext_piece(4, (-1,) * 6)
    assert piece.group == FinAbGroup(0, (2,))
    # strand basis sizes match a brute-force count of covering subsets
    dims = tuple(t.bit_count() for t in TaylorStrands(rtc).strand_triple(4, (-1,) * 6))
    assert dims == tuple(_covering_subset_count(REISNER_ROWS, s) for s in (3, 4, 5))
    # at tau = 1 a face of the nerve is a set of generators avoiding one variable
    dims = tuple(len(piece.complex.faces_of_size(piece.card + d)) for d in (-1, 0, 1))
    assert dims == tuple(_nerve_face_count(REISNER_ROWS, s) for s in (2, 3, 4))
    assert dvr_invariants(piece.group, 2) == (0, (1,))
    assert dvr_invariants(piece.group, 3) == (0, ())


def test_reisner_ext4_scan(rtc):
    scan = rtc.support_scan(4)
    assert [p.alpha for p in scan.pieces] == [(-1,) * 6]
    assert scan.pieces[0].group == FinAbGroup(0, (2,))
    assert scan.complete_support()
    assert scan.degrees_scanned == 2**6 + (4**6 - 2**6)


def test_reisner_ext_vanishing_spots(rtc):
    assert len(rtc.support_scan(0, shell=False).pieces) == 0
    assert len(rtc.support_scan(5, shell=False).pieces) == 0
    assert len(rtc.support_scan(6, shell=False).pieces) == 0


def test_reisner_mult_maps_out_of_support_are_zero(rtc):
    for i in range(6):
        report = rtc.mult_map(4, (-1,) * 6, i)
        assert report.zero
        assert report.target.group.is_trivial()
        assert report.matrix == []


def test_generator_order_invariance_small():
    rng = random.Random(42)
    for _ in range(25):
        ideal = _random_ideal(rng)
        tc = TaylorComplex(ideal)
        order = list(range(len(ideal.gens)))
        rng.shuffle(order)
        permuted = TaylorComplex(ideal, generator_order=order)
        for _ in range(4):
            j = rng.randint(0, len(ideal.gens))
            alpha = tuple(rng.randint(-3, 1) for _ in range(ideal.n))
            assert tc.ext_piece(j, alpha).group == permuted.ext_piece(j, alpha).group


def test_generator_order_invariance_reisner(rtc):
    order = [7, 2, 9, 0, 4, 5, 1, 8, 3, 6]
    permuted = TaylorComplex(reisner(), generator_order=order)
    for j in (4, 5):
        base = rtc.support_scan(j, shell=False)
        again = permuted.support_scan(j, shell=False)
        assert [(p.alpha, p.group) for p in base.pieces] == [
            (p.alpha, p.group) for p in again.pieces
        ]


def test_variable_relabeling_invariance():
    rng = random.Random(43)
    for _ in range(20):
        ideal = _random_ideal(rng)
        perm = list(range(ideal.n))
        rng.shuffle(perm)
        relabeled = MonomialIdeal(
            ideal.n, [tuple(g[perm[k]] for k in range(ideal.n)) for g in ideal.gens]
        )
        tc = TaylorComplex(ideal)
        tcs = TaylorComplex(relabeled)
        for _ in range(4):
            j = rng.randint(0, len(ideal.gens))
            alpha = tuple(rng.randint(-3, 1) for _ in range(ideal.n))
            salpha = tuple(alpha[perm[k]] for k in range(ideal.n))
            assert tc.ext_piece(j, alpha).group == tcs.ext_piece(j, salpha).group


def test_strand_matrices_are_signs_and_compose_to_zero(rtc):
    rng = random.Random(44)
    cases = [(rtc, 4, (-1,) * 6), (rtc, 3, (-1, -1, 0, -1, 0, -1))]
    for _ in range(20):
        tc = TaylorComplex(_random_ideal(rng))
        j = rng.randint(1, len(tc.ideal.gens))
        alpha = tuple(rng.randint(-3, 0) for _ in range(tc.n))
        cases.append((tc, j, alpha))
    nerve_maps = 0
    for tc, j, alpha in cases:
        d_in, d_out = TaylorStrands(tc).strand_matrices(j, alpha)
        for m in (d_in, d_out):
            assert all(v in (-1, 0, 1) for row in m.rows for v in row)
        assert (d_out @ d_in).is_zero()
        # the nerve coboundaries around the same spot
        piece = tc.ext_piece(j, alpha)
        below, here, above = (piece.complex.faces_of_size(piece.card + d) for d in (-1, 0, 1))
        d_in = _dense(*coboundary_sign_entries(below, here))
        d_out = _dense(*coboundary_sign_entries(here, above))
        for m in (d_in, d_out):
            assert all(v in (-1, 0, 1) for row in m.rows for v in row)
        assert (d_out @ d_in).is_zero()
        nerve_maps += bool(below and here and above)
    assert nerve_maps >= 2


def test_mult_map_composites_commute():
    tc = TaylorComplex(MonomialIdeal(2, [(2, 1)]))
    start = (-2, -1)
    via_x = tc.mult_map(1, start, 0)
    then_y = tc.mult_map(1, via_x.target.alpha, 1)
    via_y = tc.mult_map(1, start, 1)
    then_x = tc.mult_map(1, via_y.target.alpha, 0)
    assert then_y.target.alpha == then_x.target.alpha == (-1, 0)
    assert not any(m.zero for m in (via_x, then_y, via_y, then_x))
    final = then_y.induced.target
    assert final is then_x.induced.target  # shared presentation, same coordinates
    one = then_y.induced.pres_matrix @ via_x.induced.pres_matrix
    other = then_x.induced.pres_matrix @ via_y.induced.pres_matrix
    for col in range(one.ncols):
        diff = [a - b for a, b in zip(one.column(col), other.column(col))]
        assert final.in_relation_lattice(diff)


def test_mult_map_between_torsion_pieces_is_identity():
    tc2 = TaylorComplex(power_ideal(reisner(), 2))
    report = tc2.mult_map(4, (-2,) * 6, 0)
    assert report.source.group == FinAbGroup(0, (2,))
    assert report.target.group == FinAbGroup(0, (2,))
    assert report.matrix == [[1]]
    assert not report.zero
    assert is_injective(report.induced)


def test_mult_map_variable_is_the_coordinate_raised():
    tc2 = TaylorComplex(power_ideal(reisner(), 2))
    alpha = (-2,) * 6
    for i in range(6):
        report = tc2.mult_map(4, alpha, i)
        assert not report.zero
        assert report.describe()["variable"] == i
        raised = tuple(a + (k == i) for k, a in enumerate(alpha))
        for piece, want in ((report.source, alpha), (report.target, raised)):
            expected = tc2.ext_piece(4, want)
            assert (piece.j, piece.alpha, piece.group) == (4, want, expected.group)
            assert (piece.complex, piece.card) == (expected.complex, expected.card)


def test_transition_koszul():
    I = MonomialIdeal(2, [(1, 0), (0, 1)])
    low, high = TaylorComplex(I), TaylorComplex(power_ideal(I, 2))
    report = transition_between(low.ext_piece(2, (-1, -1)), high.ext_piece(2, (-1, -1)))
    assert report.source.group == FinAbGroup(1)
    assert report.target.group == FinAbGroup(1)
    assert report.matrix == [[1]]
    assert is_injective(report.induced)
    vacuous = transition_between(low.ext_piece(0, (0, 0)), high.ext_piece(0, (0, 0)))
    assert vacuous.source.group.is_trivial() and vacuous.induced is None
    assert all(_transition_injective_over(vacuous, p) for p in (2, 3))


def test_transition_reisner_level1(rtc):
    tc2 = TaylorComplex(power_ideal(reisner(), 2))
    report = transition_between(rtc.ext_piece(4, (-1,) * 6), tc2.ext_piece(4, (-1,) * 6))
    assert report.source.group == FinAbGroup(0, (2,))
    assert report.target.group == FinAbGroup(0, (2,))
    assert report.matrix == [[1]]
    assert is_injective(report.induced)
    assert report.induced.is_injective_localized(2)


def test_comparison_chain_check_rejects_unrelated_ideals():
    low = TaylorComplex(MonomialIdeal(2, [(1, 0)]))
    high = TaylorComplex(MonomialIdeal(2, [(0, 1)]))
    assert not comparison_chain_check(low, high)
    with pytest.raises(ValueError, match="not a chain map"):
        require_chain_map(low, high)
    # past the chain check the nerves refuse it too: at (-1, 0) the nerve
    # of (x1) has a vertex, the nerve of (x0) only the empty face
    with pytest.raises(ValueError, match="not a subcomplex"):
        transition_between(low.ext_piece(1, (-1, 0)), high.ext_piece(1, (-1, 0)))
    src, tgt = low.ext_piece(1, (-1, 0)), high.ext_piece(1, (-1, 0))
    with pytest.raises(ValueError, match="not a subcomplex"):
        src.complex.restriction(tgt.complex, src.card)


def _raised(rng, gens, top):
    """Each generator raised coordinatewise by 0..top."""
    return [tuple(e + rng.randint(0, top) for e in g) for g in gens]


def _ordering(rng, how, r):
    """A generator_order for r generators: as listed, reversed or shuffled."""
    order = list(range(r))
    if how == "reversed":
        order.reverse()
    elif how == "shuffled":
        rng.shuffle(order)
    return order


def test_comparison_chain_check_matches_the_subset_walk():
    rng = random.Random(20261019)
    orderings = (
        ("listed", "listed"),
        ("reversed", "reversed"),
        ("reversed", "listed"),
        ("shuffled", "listed"),
    )
    verdicts = {True: 0, False: 0}
    reordered_true = 0
    for trial in range(400):
        low_ideal = _random_ideal(rng, n=rng.randint(1, 4), max_gens=5, max_exp=3)
        if trial % 4 == 0:  # the next power level, related by construction
            high_ideal = power_ideal(low_ideal, 2)
        elif trial % 4 == 1:  # raised generators: related unless minimalizing reorders
            high_ideal = MonomialIdeal(low_ideal.n, _raised(rng, low_ideal.gens, 2))
        elif trial % 4 == 2:  # unrelated
            high_ideal = _random_ideal(rng, n=low_ideal.n, max_gens=5, max_exp=4)
        else:  # another variable count
            high_ideal = _random_ideal(rng, n=low_ideal.n + 1, max_gens=5, max_exp=4)
        for low_how, high_how in orderings:
            low_order = _ordering(rng, low_how, len(low_ideal.gens))
            high_order = _ordering(rng, high_how, len(high_ideal.gens))
            low = TaylorComplex(low_ideal, generator_order=low_order)
            high = TaylorComplex(high_ideal, generator_order=high_order)
            got = comparison_chain_check(low, high)
            assert got == subset_walk_chain_check(low, high), (low.gens, high.gens)
            verdicts[got] += 1
            reordered_true += got and low_order != sorted(low_order)
    assert verdicts[True] > 400 and verdicts[False] > 400, verdicts
    assert reordered_true > 50, reordered_true


def test_generator_cap():
    gens = [tuple(1 if k == i else 0 for k in range(13)) for i in range(13)]
    with pytest.raises(ValueError):
        TaylorComplex(MonomialIdeal(13, gens))


def test_dvr_invariants_read_off_p_parts():
    group = FinAbGroup(1, (6, 12))
    assert dvr_invariants(group, 2) == (1, (1, 2))
    assert dvr_invariants(group, 3) == (1, (1, 1))
    assert dvr_invariants(group, 5) == (1, ())
