"""Finitely described pi-shift filtrations and the length verdict.

A module is described by a finite chain of differential submodules; each
successive quotient carries a Z-indexed chain N_j with five defining
conditions: every N_j differentially stable, intersection zero and union
everything, pi N_j inside N_(j-1), layers N_j/N_(j-1) living over the
residue ring, and multiplication by pi an isomorphism between
consecutive layers for all but finitely many j.  The finite description
keeps an explicit membership window, optional stabilization bounds
(N_a = 0, N_b = the whole quotient), and declared tail flags.

When every tier has both bounds, pi to the summed bound gap kills the
module; when a bound is missing on some tier the annihilator is zero.
Two builders realize the concrete models: the quotient R/pi^ell and the
localization R_f split along f = pi^e g with g of pi-content zero.
"""

from __future__ import annotations

from collections.abc import Callable

from .polynomials import Polynomial, exact_divide
from .scalars import DVR


def _min_valuation(f: Polynomial) -> int | None:
    """Least pi-adic coefficient valuation; None for the zero polynomial."""
    vals = [c.valuation() for c in f.terms.values()]
    return min(vals) if vals else None


class LocalizedElement:
    """numerator / f^f_power, kept with f not dividing the numerator."""

    __slots__ = ("numerator", "f_power")

    def __init__(self, numerator: Polynomial, f_power: int):
        self.numerator = numerator
        self.f_power = f_power


class Tier:
    """One quotient in the chain, with its Z-indexed layer family.

    membership(x, j) decides x in N_j for every j; pi_action and zero
    act on the same element representation as the samples.
    """

    __slots__ = (
        "name", "a", "b", "window", "membership", "pi_action", "zero", "samples",
        "layer_class", "d_stable", "layer_in_base_category", "tail_iso_low", "tail_iso_high",
    )

    def __init__(
        self,
        name: str,
        a: int | None,
        b: int | None,
        window: tuple,
        membership: Callable,
        pi_action: Callable,
        zero: Callable,
        samples: tuple,
        layer_class: str,
        d_stable: bool = True,
        layer_in_base_category: bool = True,
        tail_iso_low: bool = True,
        tail_iso_high: bool = True,
    ):
        self.name = name
        self.a = a
        self.b = b
        self.window = window
        self.membership = membership
        self.pi_action = pi_action
        self.zero = zero
        self.samples = samples
        self.layer_class = layer_class
        self.d_stable = d_stable
        self.layer_in_base_category = layer_in_base_category
        self.tail_iso_low = tail_iso_low
        self.tail_iso_high = tail_iso_high

    def copy(self, **changes) -> Tier:
        """This tier with the named fields replaced and every other kept."""
        fields = {name: getattr(self, name) for name in Tier.__slots__}
        fields.update(changes)
        return Tier(**fields)

    def describe(self) -> dict:
        return {
            "name": self.name,
            "a": self.a,
            "b": self.b,
            "window": list(self.window),
            "layer_class": self.layer_class,
            "tail_iso_low": self.tail_iso_low,
            "tail_iso_high": self.tail_iso_high,
            "samples": len(self.samples),
        }


class FiltrationSpec:
    __slots__ = ("name", "tiers")

    def __init__(self, name: str, tiers: tuple):
        self.name = name
        self.tiers = tiers

    def describe(self) -> dict:
        return {"name": self.name, "tiers": [t.describe() for t in self.tiers]}


class AxiomCheck:
    __slots__ = ("tier", "condition", "ok", "failures")

    def __init__(self, tier: int, condition: int, ok: bool, failures: tuple = ()):
        self.tier = tier
        self.condition = condition
        self.ok = ok
        self.failures = failures

    def describe(self) -> dict:
        return {
            "tier": self.tier,
            "condition": self.condition,
            "ok": self.ok,
            "failures": list(self.failures),
        }


class AxiomReport:
    __slots__ = ("checks",)

    def __init__(self, checks: tuple):
        self.checks = checks

    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failed_conditions(self) -> tuple:
        return tuple(sorted((c.tier, c.condition) for c in self.checks if not c.ok))

    def describe(self) -> dict:
        return {"ok": self.ok(), "checks": [c.describe() for c in self.checks]}


def check_axioms(spec: FiltrationSpec) -> AxiomReport:
    """The five conditions, each verified on the window and tail flags."""
    checks = []
    for idx, tier in enumerate(spec.tiers):
        lo, hi = tier.window
        js = range(lo, hi + 1)
        member = tier.membership

        fail1 = () if tier.d_stable else ("layers declared not differentially stable",)
        checks.append(AxiomCheck(idx, 1, not fail1, fail1))

        fails2 = []
        for k, x in enumerate(tier.samples):
            if tier.zero(x):
                continue
            if tier.a is not None and member(x, tier.a):
                fails2.append(f"sample {k} lies in the declared zero layer N_{tier.a}")
            if tier.b is not None and not member(x, tier.b):
                fails2.append(f"sample {k} misses the declared full layer N_{tier.b}")
            if all(member(x, j) for j in js):
                fails2.append(f"sample {k} never exits inside the window")
            if not any(member(x, j) for j in js):
                fails2.append(f"sample {k} never enters inside the window")
        checks.append(AxiomCheck(idx, 2, not fails2, tuple(fails2)))

        fails3 = []
        for k, x in enumerate(tier.samples):
            px = tier.pi_action(x)
            for j in js:
                if member(x, j) and not member(px, j - 1):
                    fails3.append(f"pi * sample {k} escapes N_{j - 1}")
        checks.append(AxiomCheck(idx, 3, not fails3, tuple(fails3)))

        fail4 = (
            ()
            if tier.layer_in_base_category and tier.layer_class
            else ("layers declared outside the residue-ring category",)
        )
        checks.append(AxiomCheck(idx, 4, not fail4, fail4))

        fails5 = []
        if tier.a is None and not tier.tail_iso_low:
            fails5.append("low tail: no bound and pi not an isomorphism on layers")
        if tier.b is None and not tier.tail_iso_high:
            fails5.append("high tail: no bound and pi not an isomorphism on layers")
        checks.append(AxiomCheck(idx, 5, not fails5, tuple(fails5)))
    return AxiomReport(tuple(checks))


class FiniteLength:
    __slots__ = ("ell_bound", "kill_verified")

    def __init__(self, ell_bound: int, kill_verified: bool):
        self.ell_bound = ell_bound
        self.kill_verified = kill_verified

    def tag(self) -> str:
        return f"finite-length, killed by pi^{self.ell_bound}"

    def describe(self) -> dict:
        return {
            "kind": "finite",
            "ell_bound": self.ell_bound,
            "kill_verified": self.kill_verified,
        }


class InfiniteLength:
    __slots__ = ("annihilator", "survivor_powers_checked")

    def __init__(self, annihilator: str = "(0)", survivor_powers_checked: int = 0):
        self.annihilator = annihilator
        self.survivor_powers_checked = survivor_powers_checked

    def tag(self) -> str:
        return f"infinite-length, annihilator {self.annihilator}"

    def describe(self) -> dict:
        return {
            "kind": "infinite",
            "annihilator": self.annihilator,
            "survivor_powers_checked": self.survivor_powers_checked,
        }


def finite_type_and_verdict(spec: FiltrationSpec):
    """FiniteLength with the summed bound gap, or InfiniteLength with (0).

    Axioms must pass first.  Finite type additionally verifies on every
    sample that the claimed pi power kills; the infinite branch spot
    checks that samples of unbounded tiers survive repeated pi action.
    """
    report = check_axioms(spec)
    if not report.ok():
        raise ValueError(f"filtration axioms fail: {report.failed_conditions()}")
    if all(t.a is not None and t.b is not None for t in spec.tiers):
        ell = sum(t.b - t.a for t in spec.tiers)
        verified = True
        for tier in spec.tiers:
            for x in tier.samples:
                for _ in range(tier.b - tier.a):
                    x = tier.pi_action(x)
                if not tier.zero(x):
                    verified = False
        return FiniteLength(ell, verified)
    powers = 0
    for tier in spec.tiers:
        if tier.a is not None and tier.b is not None:
            continue
        lo, hi = tier.window
        steps = hi - lo + 4
        for x in tier.samples:
            if tier.zero(x):
                continue
            for _ in range(steps):
                x = tier.pi_action(x)
            if tier.zero(x):
                raise ValueError(
                    f"tier {tier.name}: a pi power killed a sample of an unbounded tier"
                )
        powers = max(powers, steps)
    return InfiniteLength("(0)", powers)


def build_filtration_quotient(ell: int, p: int = 2, n: int = 2, samples=None) -> FiltrationSpec:
    """The quotient by the ell-th pi power, layered by remaining pi content.

    N_j is the image of pi^(-j) for -ell <= j <= 0, clipped to the whole
    module above and to zero below; both bounds exist and differ by ell.
    """
    if ell < 1:
        raise ValueError(f"need ell >= 1, got {ell}")
    if n < 1:
        raise ValueError("default samples need at least one variable")
    ring = DVR(p)
    pi = ring.uniformizer

    def zero(x: Polynomial) -> bool:
        nu = _min_valuation(x)
        return nu is None or nu >= ell

    def member(x: Polynomial, j: int) -> bool:
        if j >= 0 or zero(x):
            return True
        return _min_valuation(x) >= -j

    if samples is None:
        one = Polynomial.constant(ring, n, ring.one())
        x0 = Polynomial.variable(ring, n, 0)
        samples = (
            Polynomial.zero(ring, n),
            one,
            x0,
            one.scale(pi),
            x0 * x0 + x0.scale(ring.pi_power(min(ell, 2))),
        )
    tier = Tier(
        name=f"R/pi^{ell}",
        a=-ell,
        b=0,
        window=(-ell - 2, 2),
        membership=member,
        pi_action=lambda x: x.scale(pi),
        zero=zero,
        samples=tuple(samples),
        layer_class="rank-one free over the residue ring",
    )
    return FiltrationSpec(f"quotient pi^{ell}", (tier,))


def build_filtration_localization(f: Polynomial, samples=None) -> FiltrationSpec:
    """Layers of the localization at f, split along f = pi^e g.

    Membership of numerator / f^k in N_j is j - e*k + nu >= 0 with nu the
    least coefficient valuation of the canonical numerator.  With e = 0
    the chain stabilizes above at N_0 = everything; it never stabilizes
    below, and with e > 0 it stabilizes on neither side.
    """
    if f.is_zero():
        raise ValueError("cannot localize at zero")
    ring = f.ring
    if not isinstance(ring, DVR):
        raise ValueError("localization model needs DVR coefficients")
    e = _min_valuation(f)
    g = f.map_coefficients(ring, lambda c: ring.divide(c, ring.pi_power(e)))
    pi = ring.uniformizer

    def element(numerator: Polynomial, k: int) -> LocalizedElement:
        if numerator.is_zero():
            return LocalizedElement(numerator, 0)
        while k > 0:
            q = exact_divide(numerator, f)
            if q is None:
                break
            numerator = q
            k -= 1
        return LocalizedElement(numerator, k)

    def member(x: LocalizedElement, j: int) -> bool:
        nu = _min_valuation(x.numerator)
        if nu is None:
            return True
        value = j - e * x.f_power + nu
        if e == 0 and j >= 0:
            return True
        return value >= 0

    if samples is None:
        one = Polynomial.constant(ring, f.n, ring.one())
        raw = [
            (Polynomial.zero(ring, f.n), 0),
            (one, 0),
            (one, 1),
            (one.scale(pi), 2),
        ]
        if f.n >= 1:
            x0 = Polynomial.variable(ring, f.n, 0)
            raw.append((x0, 1))
            raw.append((x0.scale(ring.pi_power(2)), 1))
        samples = tuple(element(num, k) for num, k in raw)

    thresholds = []
    for x in samples:
        nu = _min_valuation(x.numerator)
        if nu is not None:
            thresholds.append(e * x.f_power - nu)
    lo = min(thresholds + [0]) - 2
    hi = max(thresholds + [0]) + 2
    tier = Tier(
        name=f"R localized at {f!r}",
        a=None,
        b=0 if e == 0 else None,
        window=(lo, hi),
        membership=member,
        pi_action=lambda x: element(x.numerator.scale(pi), x.f_power),
        zero=lambda x: x.numerator.is_zero(),
        samples=samples,
        layer_class="residue ring localized at the pi-free part",
    )
    return FiltrationSpec(f"localization at pi^{e} * unit part", (tier,))


def inject_shift_fault(spec: FiltrationSpec, tier_index: int = 0) -> FiltrationSpec:
    """Copy with one tier's thresholds doubled: pi then fails to shift
    membership by one step, breaking the shift condition on the window."""
    tier = spec.tiers[tier_index]
    orig = tier.membership
    bad = tier.copy(membership=lambda x, j: orig(x, 2 * j))
    tiers = list(spec.tiers)
    tiers[tier_index] = bad
    return FiltrationSpec(spec.name + " [shift fault]", tuple(tiers))


def inject_tail_fault(spec: FiltrationSpec, tier_index: int = 0) -> FiltrationSpec:
    """Copy with one tier's low bound forgotten and its low tail declared
    non-isomorphic, breaking the almost-everywhere isomorphism condition."""
    tier = spec.tiers[tier_index]
    bad = tier.copy(a=None, tail_iso_low=False)
    tiers = list(spec.tiers)
    tiers[tier_index] = bad
    return FiltrationSpec(spec.name + " [tail fault]", tuple(tiers))
