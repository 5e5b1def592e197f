import json
import random

import pytest

from mixedchar.filtrations import (
    FiltrationSpec,
    FiniteLength,
    InfiniteLength,
    LocalizedElement,
    Tier,
    build_filtration_localization,
    build_filtration_quotient,
    check_axioms,
    finite_type_and_verdict,
    inject_shift_fault,
    inject_tail_fault,
)
from mixedchar.polynomials import Polynomial
from mixedchar.scalars import DVR
from mixedchar.textio import parse_polynomial

from .oracles import (
    axioms_per_index,
    concatenate,
    layer_member,
    localization_membership,
    quotient_membership,
    shifted_membership,
    verdict_per_step,
)

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
    assert layer_member(tier, x, -1)
    assert not layer_member(tier, x, -2)
    assert layer_member(tier, Polynomial.zero(RING, 2), -2)


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


def test_an_unbounded_tier_that_a_pi_power_kills_is_refused():
    # the quotient tier without its zero bound still passes the axioms, with
    # both tails declared isomorphic, but pi^3 kills every sample, so the
    # infinite branch's spot check must refuse it
    (tier,) = build_filtration_quotient(3).tiers
    spec = FiltrationSpec("R/pi^3 with no zero bound", (tier.copy(a=None),))
    assert tier.tail_iso_low and tier.tail_iso_high
    assert check_axioms(spec).ok()
    with pytest.raises(ValueError, match="a pi power killed a sample of an unbounded tier"):
        finite_type_and_verdict(spec)


def test_localization_membership_worked_example():
    # (pi * x0) / x0^2 reduces to pi / x0, of numerator valuation one
    tier = build_filtration_localization(X0).tiers[0]
    x = LocalizedElement(X0.scale(PI), 2)
    assert layer_member(tier, x, -1)
    assert not layer_member(tier, x, -2)


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
            flags = [layer_member(tier, x, j) for j in range(lo, hi + 1)]
            assert flags == sorted(flags)


def test_pi_action_shifts_entry_index_by_one():
    tier = build_filtration_localization(X0).tiers[0]
    lo, hi = tier.window

    def entry(x):
        return next(j for j in range(lo, hi + 1) if layer_member(tier, x, j))

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


def test_an_unbounded_tier_that_a_pi_power_kills_gets_no_infinite_verdict():
    # Z/8 layered by 2-adic valuation, N_j = 2^(-j) Z/8, declared with no
    # lower bound: the axioms hold on the window -3..0, but pi^3 kills
    # every element, so the spot check hi - lo + 4 = 7 steps past a sample
    # must refuse the infinite verdict
    def entry(x):
        x %= 8
        return None if x == 0 else 1 - (x & -x).bit_length()

    tier = Tier(
        name="Z/8 unbounded below",
        a=None,
        b=0,
        window=(-3, 0),
        entry=entry,
        pi_action=lambda x, k=1: x * 2**k % 8,
        samples=(1, 2),
        layer_class="residue ring",
    )
    spec = FiltrationSpec("killed", (tier,))
    assert check_axioms(spec).ok()
    with pytest.raises(ValueError, match="a pi power killed a sample of an unbounded tier"):
        finite_type_and_verdict(spec)


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


def _reference_models():
    """Every model the command line builds, with its per-tier membership
    predicates: quotients at p = 2 and 3, and localizations."""
    models = []
    for p in (2, 3):
        for ell in range(1, 9):
            models.append((build_filtration_quotient(ell, p), (quotient_membership(ell),)))
    for text, p in (("x0", 2), ("2", 2), ("4*x0", 2), ("x0^2+2*x1", 2), ("9*x0+3", 3)):
        f = parse_polynomial(text, DVR(p), 2)
        models.append((build_filtration_localization(f), (localization_membership(f),)))
    return models


def _outcome(verdict, *args):
    try:
        return verdict(*args).describe()
    except ValueError as err:
        return str(err)


def test_entry_index_is_the_least_member_index():
    for spec, (member,) in _reference_models():
        tier = spec.tiers[0]
        lo, hi = tier.window
        for x in tier.samples:
            for k in range(4):
                y = tier.pi_action(x, k)
                inside = [j for j in range(lo - 10, hi + 11) if member(y, j)]
                expected = None if inside[0] == lo - 10 else inside[0]
                assert tier.entry(y) == expected, (spec.name, k)


def test_entry_checks_match_the_per_index_reference():
    rng = random.Random(20)
    cases = []
    for spec, members in _reference_models():
        shifted = (inject_shift_fault(spec), (shifted_membership(members[0]),) + members[1:])
        cases += [(spec, members), shifted, (inject_tail_fault(spec), members)]
        # declared bounds one step inside the true ones, so samples sit on them
        tier = spec.tiers[0]
        inside = tier.copy(a=None if tier.a is None else tier.a + 1,
                           b=None if tier.b is None else tier.b - 1)
        cases.append((FiltrationSpec(spec.name, (inside,)), members))
        for base, base_members in ((spec, members), shifted):
            lo, hi = base.tiers[0].window
            # narrowed windows, still not empty, leave samples outside them
            for extra in (rng.randint(1, 6), -rng.randint(1, (hi - lo) // 2)):
                cases.append((widen(base, extra), base_members))
    for _ in range(40):
        (first, m1), (second, m2) = rng.sample(cases, 2)
        cases.append((concatenate(first, second), m1 + m2))
    for spec, members in cases:
        got = check_axioms(spec).describe()
        assert got == axioms_per_index(spec, members).describe(), spec.name
        assert _outcome(finite_type_and_verdict, spec) == _outcome(
            verdict_per_step, spec, members
        ), spec.name
