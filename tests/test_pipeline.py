"""The staged annihilator evidence pipeline."""

import json

import pytest

from mixedchar import taylor
from mixedchar.monomials import MonomialIdeal
from mixedchar.pipeline import (
    _transition_injective_over,
    annihilator_pipeline,
    build_levels,
    check_transitions,
    scan_levels,
)
from mixedchar.taylor import TaylorComplex, transition_between
from mixedchar.textio import reisner_ideal


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
    assert s1["levels"][0]["support"][0]["alpha"] == [-1] * 6
    assert s1["levels"][0]["support"][0]["pi_exponents"] == [1]
    assert s1["kill_consistent_with_level_one"] is True
    s2 = stage(rep, "transition_injectivity").details
    assert [(p["level"], p["checked"], p["all_injective"]) for p in s2["pairs"]] == [
        (1, 1, True)
    ]
    s3 = stage(rep, "colimit_conclusion").details
    assert s3["verdict"] == "(2)"
    assert s3["status"] == "evidence-at-level-2"
    assert rep.evidence.kill_exponent == 1


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


def test_describe_is_json_ready():
    rep = reisner_pipeline(levels=2)
    d = rep.describe()
    text = json.dumps(d, sort_keys=True)
    assert json.loads(text) == d
    assert d["verdict"] == "(2)"
    assert d["ideal"]["vars"] == 6
    assert len(d["ideal"]["generators"]) == 10


def test_check_transitions_checks_each_level_pair_once_from_the_scanned_pieces(monkeypatch):
    complexes = build_levels(reisner_ideal(), 2, 3, None)
    _, support, _, _ = scan_levels(complexes, 4, 2, None, None)
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
    pairs = check_transitions(complexes, support, 2, None)
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
            rep = transition_between(low.ext_piece(4, alpha), high.ext_piece(4, alpha), ell)
            assert t["alpha"] == list(rep.alpha)
            assert (rep.source.group, rep.source.triple) == (piece.group, piece.triple)


def test_check_transitions_builds_only_the_targets_missing_from_the_next_scan(monkeypatch):
    # Ext^2 of (x0 x2, x1 x2^2): one of the four Z pieces of level 1 sits
    # in a degree where level 2 is zero, so the next scan has no such target
    ideal = MonomialIdeal(3, [(1, 0, 1), (0, 1, 2)])
    complexes = build_levels(ideal, 2, 2, None)
    _, support, _, _ = scan_levels(complexes, 2, 2, None, None)
    scanned = {piece.alpha for piece in support[2]}
    missing = [piece.alpha for piece in support[1] if piece.alpha not in scanned]
    built = []
    ext_piece = TaylorComplex.ext_piece

    def counted(tc, j, alpha):
        built.append(alpha)
        return ext_piece(tc, j, alpha)

    monkeypatch.setattr(TaylorComplex, "ext_piece", counted)
    (pair,) = check_transitions(complexes, support, 2, None)
    monkeypatch.undo()
    assert (len(missing), len(support[1])) == (1, 4) and built == missing
    high = complexes[2]
    for piece, t in zip(support[1], pair["transitions"]):
        rep = transition_between(piece, high.ext_piece(2, piece.alpha), 1)
        assert t["injective"] == _transition_injective_over(rep, 2)
        if piece.alpha in missing:
            assert not t["injective"]
    assert not pair["all_injective"]


def test_transition_between_needs_the_target_of_the_same_degree():
    complexes = build_levels(reisner_ideal(), 2, 2, None)
    piece = complexes[1].ext_piece(4, (-1,) * 6)
    with pytest.raises(ValueError, match="same j and alpha"):
        transition_between(piece, complexes[2].ext_piece(4, (-2,) * 6), 1)
    with pytest.raises(ValueError, match="same j and alpha"):
        transition_between(piece, complexes[2].ext_piece(3, (-1,) * 6), 1)


def test_check_transitions_rejects_a_pair_that_is_not_a_chain_map():
    low = TaylorComplex(MonomialIdeal(2, [(1, 0)]))
    high = TaylorComplex(MonomialIdeal(2, [(0, 1)]))
    _, support, _, _ = scan_levels({1: low}, 1, 2, None, None)
    assert support[1]
    with pytest.raises(ValueError, match="not a chain map"):
        check_transitions({1: low, 2: high}, support, 2, None)
