import json

import pytest

from mixedchar.filtrations import (
    FiltrationSpec,
    FiniteLength,
    InfiniteLength,
    LocalizedElement,
    build_filtration_localization,
    build_filtration_quotient,
    check_axioms,
    finite_type_and_verdict,
    inject_shift_fault,
    inject_tail_fault,
)
from mixedchar.polynomials import Polynomial
from mixedchar.scalars import DVR

from .oracles import concatenate

RING = DVR(2)
PI = RING.uniformizer
ONE = Polynomial.constant(RING, 2, RING.one())
X0 = Polynomial.variable(RING, 2, 0)


def widen(spec, extra=5):
    tiers = []
    for t in spec.tiers:
        lo, hi = t.window
        tiers.append(t.copy(window=(lo - extra, hi + extra)))
    return FiltrationSpec(spec.name, tuple(tiers))


def test_quotient_axioms_all_pass():
    spec = build_filtration_quotient(2)
    report = check_axioms(spec)
    assert report.ok()
    assert len(report.checks) == 5
    assert report.failed_conditions() == ()


def test_quotient_verdicts_match_pi_power():
    for ell in (1, 2, 3):
        verdict = finite_type_and_verdict(build_filtration_quotient(ell))
        assert isinstance(verdict, FiniteLength)
        assert verdict.ell_bound == ell
        assert verdict.kill_verified
        assert verdict.tag() == f"finite-length, killed by pi^{ell}"


def test_quotient_kill_is_sharp():
    # pi^(ell-1) leaves the class of 1 alive in R/pi^ell
    for ell in (2, 3):
        tier = build_filtration_quotient(ell).tiers[0]
        x = ONE
        for _ in range(ell - 1):
            x = tier.pi_action(x)
        assert not tier.zero(x)
        assert tier.zero(tier.pi_action(x))


def test_quotient_membership_worked_example():
    tier = build_filtration_quotient(2).tiers[0]
    x = ONE.scale(PI)
    assert tier.membership(x, -1)
    assert not tier.membership(x, -2)
    assert tier.membership(Polynomial.zero(RING, 2), -2)


def test_quotient_rejects_bad_parameters():
    for ell in (0, -1):
        try:
            build_filtration_quotient(ell)
            assert False
        except ValueError as err:
            assert "ell" in str(err)


def test_localization_bounds_by_pi_content():
    plain = build_filtration_localization(X0)
    assert plain.tiers[0].a is None
    assert plain.tiers[0].b == 0

    pi_only = build_filtration_localization(Polynomial.constant(RING, 1, PI))
    assert pi_only.tiers[0].a is None
    assert pi_only.tiers[0].b is None

    mixed = build_filtration_localization(X0.scale(RING.pi_power(2)))
    assert mixed.tiers[0].a is None
    assert mixed.tiers[0].b is None


def test_localization_verdicts_are_infinite():
    fs = (X0, Polynomial.constant(RING, 1, PI), X0.scale(RING.pi_power(2)))
    for f in fs:
        spec = build_filtration_localization(f)
        assert check_axioms(spec).ok()
        verdict = finite_type_and_verdict(spec)
        assert isinstance(verdict, InfiniteLength)
        assert verdict.annihilator == "(0)"
        assert verdict.survivor_powers_checked > 0
        assert verdict.tag() == "infinite-length, annihilator (0)"


def test_localization_membership_worked_example():
    # (pi * x0) / x0^2 reduces to pi / x0, of numerator valuation one
    tier = build_filtration_localization(X0).tiers[0]
    x = LocalizedElement(X0.scale(PI), 2)
    assert tier.membership(x, -1)
    assert not tier.membership(x, -2)


def test_localization_rejects_zero():
    try:
        build_filtration_localization(Polynomial.zero(RING, 2))
        assert False
    except ValueError as err:
        assert "zero" in str(err)


def test_membership_monotone_in_j():
    specs = (
        build_filtration_quotient(3),
        build_filtration_localization(X0),
        build_filtration_localization(Polynomial.constant(RING, 1, PI)),
    )
    for spec in specs:
        tier = spec.tiers[0]
        lo, hi = tier.window
        for x in tier.samples:
            flags = [tier.membership(x, j) for j in range(lo, hi + 1)]
            assert flags == sorted(flags)


def test_pi_action_shifts_entry_index_by_one():
    tier = build_filtration_localization(X0).tiers[0]
    lo, hi = tier.window

    def entry(x):
        return next(j for j in range(lo, hi + 1) if tier.membership(x, j))

    x = LocalizedElement(ONE, 0)
    assert entry(tier.pi_action(x)) == entry(x) - 1
    y = LocalizedElement(ONE, 1)
    assert entry(tier.pi_action(y)) == entry(y) - 1


def test_shift_fault_detected_on_condition_three():
    for spec in (build_filtration_quotient(2), build_filtration_localization(X0)):
        bad = inject_shift_fault(spec)
        report = check_axioms(bad)
        assert not report.ok()
        assert report.failed_conditions() == ((0, 3),)
        failed = [c for c in report.checks if not c.ok and c.condition == 3]
        assert any("escapes" in msg for c in failed for msg in c.failures)
        try:
            finite_type_and_verdict(bad)
            assert False
        except ValueError as err:
            assert "axioms fail" in str(err)


def test_tail_fault_detected_on_condition_five():
    bad = inject_tail_fault(build_filtration_quotient(1))
    report = check_axioms(bad)
    assert report.failed_conditions() == ((0, 5),)
    bad_loc = inject_tail_fault(build_filtration_localization(X0))
    assert check_axioms(bad_loc).failed_conditions() == ((0, 5),)
    try:
        finite_type_and_verdict(bad)
        assert False
    except ValueError:
        pass


def test_tier_copy_changes_only_the_named_fields():
    tier = build_filtration_quotient(2).tiers[0]
    copied = tier.copy(a=None, tail_iso_low=False)
    for name in type(tier).__slots__:
        if name in ("a", "tail_iso_low"):
            continue
        assert getattr(copied, name) is getattr(tier, name), name
    assert (copied.a, copied.tail_iso_low) == (None, False)
    assert (tier.a, tier.tail_iso_low) == (-2, True)  # the original is untouched
    with pytest.raises(TypeError):
        tier.copy(no_such_field=1)


def test_verdict_stable_under_window_enlargement():
    finite = finite_type_and_verdict(widen(build_filtration_quotient(3)))
    assert isinstance(finite, FiniteLength) and finite.ell_bound == 3
    infinite = finite_type_and_verdict(widen(build_filtration_localization(X0)))
    assert isinstance(infinite, InfiniteLength)
    assert infinite.annihilator == "(0)"


def test_concatenation_adds_bound_gaps():
    spec = concatenate(build_filtration_quotient(1), build_filtration_quotient(2))
    assert len(spec.tiers) == 2
    verdict = finite_type_and_verdict(spec)
    assert isinstance(verdict, FiniteLength)
    assert verdict.ell_bound == 3
    assert verdict.kill_verified

    mixed = concatenate(build_filtration_quotient(2), build_filtration_localization(X0))
    assert isinstance(finite_type_and_verdict(mixed), InfiniteLength)


def test_describe_round_trips_as_json():
    spec = build_filtration_localization(X0)
    blob = json.dumps(spec.describe(), sort_keys=True)
    back = json.loads(blob)
    assert back["tiers"][0]["b"] == 0
    assert back["tiers"][0]["a"] is None

    report = check_axioms(spec)
    blob = json.dumps(report.describe(), sort_keys=True)
    assert json.loads(blob)["ok"] is True

    verdict = finite_type_and_verdict(build_filtration_quotient(2))
    assert json.loads(json.dumps(verdict.describe()))["ell_bound"] == 2
