"""Differential submodules of V[x0..x(n-1)], V = Z_(p), and their annihilators.

The divided-power operator d_i^[t] acts on monomials by
d_i^[t](x_i^b) = C(b, t) x_i^(b-t) with an integer binomial, so it is
defined over V even when t! is not invertible.  Every nonzero
differentially stable ideal of V[x] is then pi^ell V[x]
(classify_d_submodule), and the annihilator of a differentially stable
module is (1), (pi^ell) or (0) (infer_annihilator).  Those verdicts read
coefficient valuations and the evidence a computation gathered, so no
operator is applied here; the operators themselves, with which the tests
check the classifier, live in the tests' reference oracles.  Only
polynomials are handled: power series inputs are out of scope.
"""

from __future__ import annotations

from .monomials import MonomialIdeal
from .scalars import DVR


def pi_power_tag(p: int, e: int) -> str:
    """The ideal (p^e) of Z_(p) as a tag: (1), (p) or (p^e)."""
    if e == 0:
        return "(1)"
    return f"({p})" if e == 1 else f"({p}^{e})"


class DSubmoduleVerdict:
    """Classification of the differential submodule generated by polynomials.

    Every nonzero differentially stable ideal of V[x] is pi^ell * V[x]; ell
    is the minimum pi-adic valuation over all coefficients of the generators.
    ell == 0 means the whole ring.
    """

    __slots__ = ("p", "ell")

    def __init__(self, p: int, ell: int):
        self.p = p
        self.ell = ell

    def is_unit(self) -> bool:
        return self.ell == 0

    def ideal_tag(self) -> str:
        return pi_power_tag(self.p, self.ell)


def classify_d_submodule(gens: list) -> DSubmoduleVerdict:
    """Identify the differential closure of V[x]-generators as pi^ell V[x].

    The closure's coefficients all lie in the V-span of the generators'
    coefficients, so no valuation below the minimum can appear; divided
    powers extract a coefficient of minimal valuation as a constant, so the
    minimum is attained.
    """
    ell = None
    p = None
    for g in gens:
        if not isinstance(g.ring, DVR):
            raise ValueError("generators must have DVR coefficients")
        p = g.ring.p if p is None else p
        if g.ring.p != p:
            raise ValueError("mixed primes")
        for c in g.terms.values():
            v = c.valuation()
            if ell is None or v < ell:
                ell = v
    if ell is None:
        raise ValueError("all generators are zero: the closure is the zero ideal")
    return DSubmoduleVerdict(p, ell)


def pi_saturate(gens: list) -> MonomialIdeal:
    """(I : pi^infinity) for an ideal generated by terms c * x^e.

    Stripping the pi-power from each coefficient computes the saturation on
    this class; the result is the monomial ideal of the stripped terms (unit
    coefficients are dropped since they do not change the ideal).  Non-term
    input is rejected: general saturation needs Groebner bases over V.
    """
    n = None
    exps = []
    for g in gens:
        if not isinstance(g.ring, DVR):
            raise ValueError("generators must have DVR coefficients")
        n = g.n if n is None else n
        if g.is_zero():
            continue
        if len(g.terms) != 1:
            raise ValueError(f"not a term: {g}")
        (e, _), = g.terms.items()
        exps.append(e)
    if n is None:
        raise ValueError("no generators given")
    return MonomialIdeal(n, exps)


class AnnihilatorEvidence:
    """Facts a computation established about a module M over V[x].

    nonzero: M has a nonzero element.
    kill_exponent: least ell with pi^ell M = 0 seen in the computation, or
    None when no pi-power killed M.
    infinite_type_witness: a filtration certified that no pi-power can kill M.
    """

    __slots__ = ("p", "nonzero", "kill_exponent", "infinite_type_witness")

    def __init__(
        self,
        p: int,
        nonzero: bool,
        kill_exponent: int | None = None,
        infinite_type_witness: bool = False,
    ):
        self.p = p
        self.nonzero = nonzero
        self.kill_exponent = kill_exponent
        self.infinite_type_witness = infinite_type_witness


class Annihilator:
    __slots__ = ("kind", "p", "exponent")

    def __init__(self, kind: str, p: int, exponent: int | None = None):
        self.kind = kind  # unit | pi_power | zero | inconclusive
        self.p = p
        self.exponent = exponent

    def __eq__(self, other):
        if not isinstance(other, Annihilator):
            return NotImplemented
        return (self.kind, self.p, self.exponent) == (other.kind, other.p, other.exponent)

    def tag(self) -> str:
        if self.kind == "unit":
            return pi_power_tag(self.p, 0)
        if self.kind == "pi_power":
            return pi_power_tag(self.p, self.exponent)
        if self.kind == "zero":
            return "(0)"
        return "undetermined"


def infer_annihilator(ev: AnnihilatorEvidence) -> Annihilator:
    """Annihilator of a differentially stable module from the evidence.

    Such an annihilator is differentially stable, hence (1), (pi^ell), or
    (0); the evidence picks the branch.  A zero annihilator claim needs an
    infinite-type witness, otherwise the outcome stays inconclusive.
    """
    if not ev.nonzero:
        return Annihilator("unit", ev.p)
    if ev.kill_exponent is not None:
        if ev.kill_exponent < 1:
            raise ValueError("a nonzero module cannot be killed by pi^0")
        if ev.infinite_type_witness:
            raise ValueError("contradictory evidence: killed and infinite type")
        return Annihilator("pi_power", ev.p, ev.kill_exponent)
    if ev.infinite_type_witness:
        return Annihilator("zero", ev.p)
    return Annihilator("inconclusive", ev.p)
