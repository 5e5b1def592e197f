"""The staged annihilator evidence pipeline."""

import json

import pytest

from mixedchar.monomials import MonomialIdeal
from mixedchar.pipeline import annihilator_pipeline
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
