"""The staged annihilator evidence pipeline."""

import json
import random

import pytest

from mixedchar import intlinalg, pipeline, subsets, taylor
from mixedchar.monomials import MonomialIdeal
from mixedchar.pipeline import (
    _transition_injective_over,
    annihilator_pipeline,
    build_levels,
    check_transitions,
    scan_levels,
)
from mixedchar.reports import encode
from mixedchar.taylor import ScanPieces, TaylorComplex, transition_between
from mixedchar.textio import reisner_ideal

from .oracles import canonical, per_degree_transitions, support_per_piece


def reisner_pipeline(levels):
    """The bundled ten-generator ideal at p = 2, j = 4."""
    return annihilator_pipeline(reisner_ideal(), p=2, j=4, levels=levels)


def stage(report, name):
    for s in report.stages:
        if s.name == name:
            return s
    raise AssertionError(f"no stage {name} in {[s.name for s in report.stages]}")


def test_reisner_two_levels():
    rep = reisner_pipeline(levels=2)
    assert rep.ok()
    assert rep.verdict.tag() == "(2)"
    assert [s.name for s in rep.stages] == [
        "graded_support",
        "transition_injectivity",
        "colimit_conclusion",
    ]
    s1 = stage(rep, "graded_support").details
    assert [lv["support_size"] for lv in s1["levels"]] == [1, 64]
    (entry,) = s1["levels"][0]["support"]
    assert entry["alpha"] == [-1] * 6
    assert entry["pi_exponents"] == [1]
    assert s1["kill_consistent_with_level_one"] is True
    s2 = stage(rep, "transition_injectivity").details
    assert [(p["level"], p["checked"], p["all_injective"]) for p in s2["pairs"]] == [
        (1, 1, True)
    ]
    s3 = stage(rep, "colimit_conclusion").details
    assert s3["verdict"] == "(2)"
    assert s3["status"] == "evidence-at-level-2"
    assert rep.evidence.kill_exponent == 1


@pytest.mark.parametrize("p, sizes", [(2, [1, 64, 729]), (3, [0, 0, 0])])
def test_scan_levels_reads_the_invariants_of_every_piece(p, sizes):
    # the degrees of one product of runs share a group; at p = 3 the
    # 2-torsion dies and the support is empty
    complexes = build_levels(reisner_ideal(), p, 3)
    details, support, kills, frees = scan_levels(complexes, 4, p, None)
    want = support_per_piece(complexes, 4, p)
    assert canonical([{key: lv[key] for key in want[0]} for lv in details]) == want
    assert [lv["support_size"] for lv in want] == sizes
    assert {ell: len(pieces) for ell, pieces in support.items()} == dict(zip((1, 2, 3), sizes))
    assert kills == {lv["level"]: lv["kill_exponent"] for lv in want}
    assert frees == {lv["level"]: lv["free_rank_total"] for lv in want}


@pytest.mark.parametrize("p", [2, 3])
def test_scan_levels_reads_each_group_of_a_mixed_scan(p):
    # the first cubic times a seventh variable: Ext^4 mixes Z/2 and Z pieces
    gens = [g + (int(k == 0),) for k, g in enumerate(reisner_ideal().gens)]
    complexes = build_levels(MonomialIdeal(7, gens), p, 2)
    details, _, kills, frees = scan_levels(complexes, 4, p, None)
    want = support_per_piece(complexes, 4, p)
    assert canonical([{key: lv[key] for key in want[0]} for lv in details]) == want
    assert {(s["free_rank"], tuple(s["pi_exponents"])) for s in want[0]["support"]} == (
        {(0, (1,)), (1, ())} if p == 2 else {(1, ())}
    )
    assert kills == {lv["level"]: lv["kill_exponent"] for lv in want}
    assert frees == {lv["level"]: lv["free_rank_total"] for lv in want}


def test_reisner_three_levels():
    rep = reisner_pipeline(levels=3)
    assert rep.ok() and rep.verdict.tag() == "(2)"
    s1 = stage(rep, "graded_support").details
    assert [lv["support_size"] for lv in s1["levels"]] == [1, 64, 729]
    assert all(lv["kill_exponent"] == 1 for lv in s1["levels"])
    assert all(lv["complete_support"] for lv in s1["levels"])
    s2 = stage(rep, "transition_injectivity").details
    assert [(p["level"], p["checked"]) for p in s2["pairs"]] == [(1, 1), (2, 64)]
    assert all(p["all_injective"] for p in s2["pairs"])


def test_reisner_single_level_still_concludes():
    rep = reisner_pipeline(levels=1)
    assert rep.ok() and rep.verdict.tag() == "(2)"
    s2 = stage(rep, "transition_injectivity").details
    assert s2["pairs"] == [] and "single level" in s2["note"]
    assert stage(rep, "colimit_conclusion").details["status"] == "evidence-at-level-1"


def test_complete_intersection_stays_undetermined():
    rep = annihilator_pipeline(MonomialIdeal(1, [(1,)]), p=2, j=1, levels=2)
    assert rep.ok()
    assert rep.verdict.kind == "inconclusive"
    assert rep.evidence.kill_exponent is None
    s1 = stage(rep, "graded_support").details
    assert [lv["free_rank_total"] for lv in s1["levels"]] == [1, 2]
    assert s1["kill_consistent_with_level_one"] is None
    note = stage(rep, "colimit_conclusion").details["note"]
    assert "annihilator (0) or undetermined" in note


def test_empty_support_yields_unit_annihilator():
    rep = annihilator_pipeline(MonomialIdeal(1, [(1,)]), p=2, j=2, levels=2)
    assert rep.ok()
    assert rep.verdict.tag() == "(1)"
    assert not rep.evidence.nonzero


def test_truncated_box_fails_graded_support():
    I = MonomialIdeal(2, [(2, 1)])
    rep = annihilator_pipeline(I, p=2, j=1, levels=1, box=((-1, 0), (0, 0)))
    assert not rep.ok()
    assert rep.failing_stage() == "graded_support"
    assert rep.verdict is None and rep.evidence is None
    assert [s.name for s in rep.stages] == ["graded_support"]


def test_parameter_validation():
    I = MonomialIdeal(1, [(1,)])
    with pytest.raises(ValueError, match="level"):
        annihilator_pipeline(I, levels=0)
    with pytest.raises(ValueError, match="not prime"):
        annihilator_pipeline(I, p=4)


def test_describe_encodes_as_sorted_json():
    # the support lists are reports.Rows, which only reports.encode writes
    rep = reisner_pipeline(levels=2)
    d = rep.describe()
    text = encode(d)
    assert json.loads(text) == canonical(d)
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2)
    assert d["verdict"] == "(2)"
    assert d["ideal"]["vars"] == 6
    assert len(d["ideal"]["generators"]) == 10


def test_check_transitions_checks_each_level_pair_once_from_the_scanned_pieces(monkeypatch):
    complexes = build_levels(reisner_ideal(), 2, 3)
    _, support, _, _ = scan_levels(complexes, 4, 2, None)
    chain_checks = []
    pieces_built = {ell: 0 for ell in complexes}
    level_of = {id(tc): ell for ell, tc in complexes.items()}
    check = taylor.comparison_chain_check
    ext_piece = TaylorComplex.ext_piece

    def counted(tc, j, alpha):
        pieces_built[level_of[id(tc)]] += 1
        return ext_piece(tc, j, alpha)

    monkeypatch.setattr(taylor, "comparison_chain_check", lambda *a: chain_checks.append(a) or check(*a))
    monkeypatch.setattr(TaylorComplex, "ext_piece", counted)
    pairs = check_transitions(complexes, support, 2)
    monkeypatch.undo()
    assert [pair["checked"] for pair in pairs] == [1, 64]
    assert all(pair["all_injective"] for pair in pairs)
    assert len(chain_checks) == 2
    # every target is a scanned piece of the next level: none is built again
    assert pieces_built == {1: 0, 2: 0, 3: 0}
    for ell, pair in zip((1, 2), pairs):
        low, high = complexes[ell], complexes[ell + 1]
        for piece, t in zip(support[ell], pair["transitions"]):
            alpha = piece.alpha
            rep = transition_between(low.ext_piece(4, alpha), high.ext_piece(4, alpha))
            assert t["alpha"] == list(rep.source.alpha)
            assert (rep.source.group, rep.source.complex, rep.source.card) == (
                piece.group, piece.complex, piece.card
            )


def test_check_transitions_builds_no_target_piece_and_fails_where_the_next_level_is_zero(
    monkeypatch,
):
    # Ext^2 of (x0 x2, x1 x2^2): one of the four Z pieces of level 1 sits
    # in a degree where level 2 is zero, so the next scan has no such target
    ideal = MonomialIdeal(3, [(1, 0, 1), (0, 1, 2)])
    complexes = build_levels(ideal, 2, 2)
    _, support, _, _ = scan_levels(complexes, 2, 2, None)
    scanned = {piece.alpha for piece in support[2]}
    missing = [piece.alpha for piece in support[1] if piece.alpha not in scanned]
    built = []
    ext_piece = TaylorComplex.ext_piece

    def counted(tc, j, alpha):
        built.append(alpha)
        return ext_piece(tc, j, alpha)

    monkeypatch.setattr(TaylorComplex, "ext_piece", counted)
    (pair,) = check_transitions(complexes, support, 2)
    monkeypatch.undo()
    # the targets are read off level 2's classes, missing or not
    assert (len(missing), len(support[1])) == (1, 4) and built == []
    (want,) = per_degree_transitions(complexes, support, 2)
    assert list(pair["transitions"]) == want["transitions"]
    assert (pair["checked"], pair["all_injective"]) == (want["checked"], want["all_injective"])
    high = complexes[2]
    for piece, t in zip(support[1], pair["transitions"]):
        rep = transition_between(piece, high.ext_piece(2, piece.alpha))
        assert t["injective"] == _transition_injective_over(rep, 2)
        if piece.alpha in missing:
            assert not t["injective"]
    assert not pair["all_injective"]


def _random_ideal(rng):
    """1-4 variables, 1-4 generators with exponents 0-3."""
    n = rng.randint(1, 4)
    gens = {tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 4))}
    gens.discard((0,) * n)
    return MonomialIdeal(n, gens or [(1,) + (0,) * (n - 1)])


def test_check_transitions_matches_the_per_degree_oracle(monkeypatch):
    # every entry, in order, for pipeline (every level scanned) and for
    # transition (the top level not scanned); the cells counted here are
    # the maps check_transitions decides
    rng = random.Random(28028)
    decided = []
    real = pipeline.transition_between

    def recorded(*args):
        decided.append(real(*args))
        return decided[-1]

    monkeypatch.setattr(pipeline, "transition_between", recorded)
    entries = products = failed = 0
    for _ in range(150):
        ideal = _random_ideal(rng)
        levels = rng.randint(2, 3)
        p = rng.choice((2, 3))
        complexes = build_levels(ideal, p, levels)
        j = rng.randint(1, complexes[1].r + 1)
        below_top = {ell: tc for ell, tc in complexes.items() if ell < levels}
        for scanned in (complexes, below_top):
            _, support, _, _ = scan_levels(scanned, j, p, None)
            got = check_transitions(complexes, support, p)
            want = per_degree_transitions(complexes, support, p)
            what = (ideal.gens, j, p, levels)
            assert [list(pair["transitions"]) for pair in got] == [
                pair["transitions"] for pair in want
            ], what
            for pair, oracle in zip(got, want):
                assert {k: pair[k] for k in ("level", "checked", "all_injective")} == {
                    k: oracle[k] for k in ("level", "checked", "all_injective")
                }, what
            entries += sum(pair["checked"] for pair in want)
            failed += sum(not t["injective"] for pair in want for t in pair["transitions"])
            products += sum(len(support[ell].products) for ell in range(1, levels))
    identities = sum(rep.identity for rep in decided)
    # products are cut into several cells, complexes differ across a cell
    # pair, and both answers occur
    assert len(decided) > products > 100 and entries > 5 * len(decided)
    assert len(decided) - identities > 100 and identities > 100 and failed > 100, (
        len(decided), identities, products, entries, failed
    )


def test_reisner_level_four_transitions_build_no_basis_and_no_piece(monkeypatch):
    # pipeline --p 2 --levels 4: 794 transitions in three cells, each an
    # identity of a nerve, so no map needs a basis; fresh nerves keep no
    # basis or map from earlier tests
    monkeypatch.setattr(taylor, "_NERVE_CACHE", {})
    complexes = build_levels(reisner_ideal(), 2, 4)
    _, support, _, _ = scan_levels(complexes, 4, 2, None)
    built = {"maps": 0, "bases": 0, "induced": 0, "pieces": 0}

    def counting(key, fn):
        def counted(*args):
            built[key] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(taylor.PieceMap, "__init__", counting("maps", taylor.PieceMap.__init__))
    for key, cls in (("bases", intlinalg.CohomologyBasis), ("induced", intlinalg.InducedMap)):
        monkeypatch.setattr(cls, "__init__", counting(key, cls.__init__))
    monkeypatch.setattr(TaylorComplex, "ext_piece", counting("pieces", TaylorComplex.ext_piece))
    pairs = check_transitions(complexes, support, 2)
    encode(pairs)
    assert [pair["checked"] for pair in pairs] == [1, 64, 729]
    assert all(pair["all_injective"] for pair in pairs)
    assert built == {"maps": 3, "bases": 0, "induced": 0, "pieces": 0}
    assert not hasattr(taylor.ScanPieces, "at")


def test_a_map_between_two_cards_of_one_complex_is_no_identity():
    # Ext^2 and Ext^3 of (x0^2, x1^2) at (-1, -1) read one nerve, two
    # points, at cards 1 and 2: Z, then 0.  Restriction at card 1 is no
    # identity onto the group at card 2, so the map is zero and not injective
    tc = TaylorComplex(MonomialIdeal(2, [(2, 0), (0, 2)]))
    source, target = tc.ext_piece(2, (-1, -1)), tc.ext_piece(3, (-1, -1))
    assert source.complex is target.complex and (source.card, target.card) == (1, 2)
    rep = taylor.PieceMap(source, target)
    assert not rep.identity and rep.zero and rep.matrix == []
    assert not any(_transition_injective_over(rep, p) for p in (2, 3))
    same = taylor.PieceMap(source, tc.ext_piece(2, (-2, -1)))
    assert same.identity and not same.zero and same.matrix == [[1]]


class _Clock:
    """Stands in for the time module of subsets.check_deadline."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        return self.now


def test_the_deadline_passes_inside_the_piece_and_transition_loops(monkeypatch):
    # level 4 of Reisner has 4,096 support pieces and as many transitions to
    # level 5; the clock passes the deadline at the first product's
    # invariants, and the check after them must see it, or at the first
    # transition, and the next check must see it: at the next cell, or
    # while the transitions are listed
    complexes = build_levels(reisner_ideal(), 2, 5)
    _, support, _, _ = scan_levels({4: complexes[4], 5: complexes[5]}, 4, 2, None)
    support.update({ell: ScanPieces(4, []) for ell in (1, 2, 3)})
    assert len(support[4]) == 4096
    clock = _Clock()
    monkeypatch.setattr(subsets, "time", clock)

    def passing(fn):
        def late(*args):
            clock.now = 2.0
            return fn(*args)

        return late

    monkeypatch.setattr(pipeline, "dvr_invariants", passing(pipeline.dvr_invariants))
    with pytest.raises(TimeoutError, match="level 4 support"), subsets.budget(1.0):
        scan_levels({4: complexes[4]}, 4, 2, None)
    clock.now = 0.0
    monkeypatch.setattr(pipeline, "transition_between", passing(transition_between))
    with pytest.raises(TimeoutError, match="level 4 transitions"), subsets.budget(1.0):
        encode(check_transitions(complexes, support, 2))


def test_transition_between_needs_the_target_of_the_same_degree():
    complexes = build_levels(reisner_ideal(), 2, 2)
    piece = complexes[1].ext_piece(4, (-1,) * 6)
    with pytest.raises(ValueError, match="same j and alpha"):
        transition_between(piece, complexes[2].ext_piece(4, (-2,) * 6))
    with pytest.raises(ValueError, match="same j and alpha"):
        transition_between(piece, complexes[2].ext_piece(3, (-1,) * 6))


def test_check_transitions_rejects_a_pair_that_is_not_a_chain_map():
    low = TaylorComplex(MonomialIdeal(2, [(1, 0)]))
    high = TaylorComplex(MonomialIdeal(2, [(0, 1)]))
    _, support, _, _ = scan_levels({1: low}, 1, 2, None)
    assert support[1]
    with pytest.raises(ValueError, match="not a chain map"):
        check_transitions({1: low, 2: high}, support, 2)
