"""Report serialization, claim statuses, and the claim registry."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from mixedchar.reports import (
    CLAIMS,
    FAILED,
    Claim,
    Report,
    Rows,
    check,
    encode,
    verified,
)
from tests.oracles import canonical, claims_markdown


def make_report(claims=()):
    return Report(
        command="ext",
        inputs={"p": 2, "j": 4},
        results={"rank": 0},
        claims=tuple(claims),
        timing={"degrees_scanned": 64},
    )


def test_verified_statuses():
    assert verified() == "verified"
    assert verified(2) == "verified (evidence-at-level-2)"
    assert verified(12) == "verified (evidence-at-level-12)"


def test_claim_line_matches_report_rendering():
    c = Claim("top-annihilator", "Ann = (2)", verified(2))
    assert c.line() == "Ann = (2): verified (evidence-at-level-2)"
    assert not c.failed()
    assert Claim("top-annihilator", "Ann = (2)", FAILED).failed()


def test_every_registry_entry_has_a_statement_and_two_results():
    for cid, entry in CLAIMS.items():
        statement, passed, failed = entry
        assert statement.endswith(".") and not passed.endswith("."), cid
        for text in (passed, *((failed,) if isinstance(failed, str) else failed)):
            assert isinstance(text, str) and text, cid


def test_check_picks_the_result_and_the_status():
    c = check("top-annihilator", True, 2, verdict="(2)", stage=None)
    assert c.line() == "Ann = (2): verified (evidence-at-level-2)"
    c = check("top-annihilator", False, 2, verdict="undetermined", stage=None)
    assert c.line() == "Ann = undetermined: failed"
    c = check("top-annihilator", False, 2, verdict=None, stage="graded_support")
    assert c.line() == "no conclusion: stage graded_support did not certify: failed"
    c = check("transition-injective", False, levels=3)
    assert c.result == "levels 1..3: injectivity not established"
    c = check("projective-plane-local-cohomology", True)
    assert c.result == "nonzero only in degrees {2,3} over F2 and {3} over F3, Q"


def test_check_rejects_a_result_with_missing_fields():
    with pytest.raises(ValueError, match="no result takes the fields"):
        check("top-annihilator", False, verdict=None, stage=None)
    with pytest.raises(ValueError, match="no result takes the fields"):
        check("levelwise-torsion", True)


def test_claim_rejects_unregistered_id():
    with pytest.raises(ValueError, match="unregistered claim id"):
        Claim("no-such-claim", "x", "verified")


def test_claim_rejects_malformed_status():
    for status in ("ok", "VERIFIED", "verified (evidence-at-level-0)",
                   "verified (evidence-at-level-)", "failed badly"):
        with pytest.raises(ValueError, match="bad claim status"):
            Claim("ext4-socle", "x", status)


def test_canonical_scalars_and_containers():
    assert canonical(None) is None
    assert canonical(True) is True
    assert canonical(7) == 7
    assert canonical((1, (2, 3))) == [1, [2, 3]]
    assert canonical({"a": (Fraction(1, 2), Fraction(4, 2))}) == {"a": ["1/2", "2"]}


def test_canonical_rejects_floats_and_bad_keys():
    with pytest.raises(ValueError, match="float"):
        canonical(0.5)
    with pytest.raises(ValueError, match="non-string key"):
        canonical({1: "a"})


def test_canonical_falls_back_to_describe():
    class Box:
        def describe(self):
            return {"inner": (1, 2)}

    assert canonical(Box()) == {"inner": [1, 2]}
    with pytest.raises(ValueError, match="cannot serialize"):
        canonical(object())


def test_report_exit_codes():
    assert make_report().exit_code() == 0
    good = Claim("ext4-socle", "ok", verified())
    bad = Claim("ext4-socle", "ok", FAILED)
    assert make_report([good]).exit_code() == 0
    rep = make_report([good, bad])
    assert rep.exit_code() == 2
    assert rep.failed_claims() == (bad,)


def test_report_json_is_sorted_and_newline_terminated():
    text = make_report([Claim("ext4-socle", "ok", verified())]).to_json()
    assert text.endswith("\n") and not text.endswith("\n\n")
    data = json.loads(text)
    assert list(data) == sorted(data)
    assert data["claims"] == [{"id": "ext4-socle", "result": "ok", "status": "verified"}]
    assert json.dumps(data, sort_keys=True, indent=2) + "\n" == text


class Described:
    """A report value that serializes as what describe() returns."""

    def __init__(self, inner):
        self.inner = inner

    def describe(self):
        return self.inner


def reference(obj) -> str:
    return json.dumps(canonical(obj), sort_keys=True, indent=2)


scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200).map(lambda n: n * (-1) ** (n % 2))
    | st.text()
    | st.fractions()
)
trees = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.lists(st.integers(), max_size=6)
        | st.dictionaries(st.text(), children, max_size=5)
        | children.map(Described)
    ),
    max_leaves=30,
)


@given(trees)
def test_encoder_matches_the_stdlib_encoder_on_the_canonical_copy(tree):
    assert encode(tree) == reference(tree)
    rep = Report(command="ext", inputs={"x": tree}, results=tree, claims=(),
                 timing={"degrees_scanned": 1})
    want = reference({"command": "ext", "inputs": {"x": tree}, "results": tree,
                      "claims": [], "timing": {"degrees_scanned": 1}})
    assert rep.to_json() == want + "\n"


@given(st.text(), st.sampled_from(["\"", "\\", "\n", "\x00", "\x1f", "\u00e9", "\u2028", "\U0001f600"]))
def test_encoder_escapes_strings_and_keys_like_the_stdlib(text, special):
    tree = {text + special: [special + text, {special: text}]}
    assert encode(tree) == reference(tree)


@pytest.mark.parametrize(
    "bad, message",
    [
        (0.5, "float 0.5 has no canonical form"),
        ({"a": [1, 2.0]}, "float 2.0 has no canonical form"),
        ({1: "a"}, "non-string key 1"),
        ([{"a": 1}, {(1, 2): 0}], r"non-string key \(1, 2\)"),
        (object(), "cannot serialize object"),
        ({"z": Described(object())}, "cannot serialize object"),
        # the first offender in insertion order, as in the oracle
        ({"b": 0.5, "a": object()}, "float 0.5"),
        ({"b": object(), 3: 1}, "cannot serialize object"),
        ({"b": 1, 3: 0.5}, "non-string key 3"),
    ],
)
def test_encoder_rejects_what_canonical_rejects(bad, message):
    with pytest.raises(ValueError, match=message):
        canonical(bad)
    with pytest.raises(ValueError, match=message):
        encode(bad)
    with pytest.raises(ValueError, match=message):
        Report(command="ext", inputs={}, results={"r": bad}, claims=(), timing={}).to_json()


# dicts that share one key set, in any insertion order, at several depths
# and across list elements, so the encoder reuses its cached key shapes
@st.composite
def shared_shape_trees(draw):
    keys = draw(st.lists(st.text(max_size=3), min_size=1, max_size=4, unique=True))
    leaves = (
        scalars
        | st.lists(st.integers(), max_size=4)
        | st.lists(st.integers(), max_size=4).map(tuple)
    )

    def shaped(children):
        return st.permutations(keys).flatmap(
            lambda order: st.tuples(*[children] * len(order)).map(
                lambda values: dict(zip(order, values))
            )
        )

    tree = st.recursive(
        leaves,
        lambda children: (
            shaped(children)
            | st.lists(shaped(children), min_size=1, max_size=3)
            | st.lists(children, max_size=3).map(tuple)
            | shaped(children).map(Described)
        ),
        max_leaves=25,
    )
    return draw(st.lists(tree, min_size=2, max_size=4))


@given(shared_shape_trees())
def test_encoder_reuses_key_shapes_like_the_stdlib(tree):
    assert encode(tree) == reference(tree)


def test_encoder_sorts_each_insertion_order_of_one_key_set():
    tree = [
        {"b": 1, "a": [1, 2], "c": (3,)},
        {"a": [], "c": Fraction(1, 3), "b": {"c": 0, "b": 1, "a": 2}},
        {"c": {"a": (), "b": [4]}, "b": None, "a": Described({"b": 1, "a": 2})},
    ]
    assert encode(tree) == reference(tree)


def test_encoder_nests_forty_levels_deep():
    tree = [[1, -2], {"k": (3,), "j": []}]
    for depth in range(40):
        tree = {"b": tree, "a": [depth, depth + 1]} if depth % 2 else [tree, (depth,), "s"]
    assert encode(tree) == reference(tree)


@pytest.mark.parametrize(
    "bad, message",
    [
        ([{"b": 1, "a": 2}, {"b": 0.5, "a": object()}], "float 0.5"),
        ([{"b": 1, "a": 2}, {"b": object(), "a": 0.5}], "cannot serialize object"),
        ([{"b": 1}, {"b": object(), 3: 1}], "cannot serialize object"),
        ([{"b": 1}, {"b": 2}, {"b": 2, 3: 0.5}], "non-string key 3"),
        ([{"c": 1, "a": {"y": 1, "x": 2}, "b": 3},
          {"c": {"y": 0.5, "x": object()}, "a": {"y": 0.25, "x": 1}, "b": 2.0}], "float 0.5"),
        ([{"b": [1], "a": 2}, {"b": [1, 2.0], "a": Described(object())}], "float 2.0"),
    ],
)
def test_encoder_rejects_in_insertion_order_after_a_cached_shape(bad, message):
    with pytest.raises(ValueError, match=message):
        canonical(bad)
    with pytest.raises(ValueError, match=message):
        encode(bad)


def test_claims_markdown_lists_every_id():
    text = claims_markdown()
    for cid in CLAIMS:
        assert f"- **{cid}** - " in text


def test_bundled_claims_doc_is_current():
    doc = Path(__file__).resolve().parents[1] / "docs" / "claims.md"
    assert doc.read_text() == claims_markdown()


@st.composite
def row_trees(draw):
    """Rows of entries keyed "a", under a few levels of lists and dicts."""
    fields = draw(st.lists(
        st.dictionaries(st.text(max_size=3).map(lambda k: "b" + k), trees, max_size=3),
        min_size=1, max_size=3,
    ))
    picks = draw(st.lists(
        st.tuples(st.lists(st.integers(), max_size=4).map(tuple),
                  st.integers(0, len(fields) - 1)),
        max_size=6,
    ))
    tree = Rows("a", fields, lambda: ((value, fields[k]) for value, k in picks))
    for wrap in draw(st.lists(st.booleans(), max_size=3)):
        tree = [tree] if wrap else {"x": tree, "y": 1}
    return tree


@given(row_trees())
def test_rows_encode_as_the_list_of_their_entries(tree):
    assert encode(tree) == reference(tree)


def test_rows_iterate_as_dicts():
    shared = {"free_rank": 0, "pi_exponents": [1]}
    rows = Rows("alpha", [shared], lambda: iter([((-1, -1), shared), ((-1, 0), shared)]))
    assert list(rows) == [{"alpha": [-1, -1], **shared}, {"alpha": [-1, 0], **shared}]


def test_rows_reject_a_shared_field_that_sorts_before_the_key():
    rows = Rows("b", [{"a": 1}], lambda: iter([((0,), {"a": 1})]))
    with pytest.raises(ValueError, match="sorts before"):
        encode({"rows": rows})
