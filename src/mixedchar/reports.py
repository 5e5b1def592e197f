"""Deterministic run reports and the registry of checkable claims.

Every command emits one JSON report on standard output: sorted keys,
two-space indent, integers and strings only (floats are rejected, exact
rationals are rendered as "a/b"), so identical inputs produce identical
bytes.  Timing holds work counters derived from the computation itself;
wall-clock seconds go to standard error, outside the deterministic
stream.

Claims are the statements a run can check.  Each claim cited in a
report resolves to an entry in CLAIMS, the registry also rendered into
docs/claims.md; a claim's status is "verified", "verified
(evidence-at-level-N)" when the conclusion rests on finitely many
computed levels of a direct system, or "failed".
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction


CLAIMS = {
    "ext4-socle": (
        "The fourth graded Ext module of the six-variable polynomial ring "
        "modulo the ten squarefree cubics is a single Z/2 concentrated in "
        "degree (-1,...,-1); the one-step enlargement shell is empty and "
        "every multiplication map out of the piece is zero."
    ),
    "levelwise-torsion": (
        "At ideal power ell, the fourth graded Ext module of the ten-cubic "
        "quotient has exactly ell^6 nonzero pieces, each Z/2, so the whole "
        "module is killed by the prime."
    ),
    "transition-injective": (
        "The comparison chain maps between consecutive ideal powers induce "
        "injective maps over the p-local base ring on every graded Ext piece "
        "computed that is nonzero there."
    ),
    "top-annihilator": (
        "The annihilator of the direct limit of the top graded Ext modules "
        "over the p-local base ring is determined by the computed levels: "
        "a pi power when torsion persists with a uniform kill exponent, "
        "the unit ideal when the support is empty, and the zero ideal when "
        "no pi power kills."
    ),
    "four-element-radical": (
        "The four structured cubic sums lie termwise in the ten-cubic ideal "
        "and each of the ten cubics has a power inside the ideal the four "
        "elements generate, over F2 and over Q."
    ),
    "filtration-axioms": (
        "The constructed layer chain satisfies all five conditions: "
        "differential stability, zero intersection and exhaustive union, "
        "pi shifting layers down by one, layers living over the residue "
        "ring, and pi an isomorphism between consecutive layers outside a "
        "bounded window."
    ),
    "length-verdict": (
        "A chain bounded on both sides forces finite length with the "
        "summed bound gap as a pi-power kill exponent; a chain unbounded "
        "on either side forces annihilator zero."
    ),
    "projective-plane-cohomology": (
        "The six-vertex triangulation of the real projective plane has "
        "reduced integral cohomology Z/2 in degree two and zero in every "
        "other degree."
    ),
    "projective-plane-local-cohomology": (
        "The face ring of the six-vertex projective plane has local "
        "cohomology concentrated in degrees two and three over F2, and in "
        "degree three alone over F3 and over Q."
    ),
}

_STATUS_RE = re.compile(r"^(verified( \(evidence-at-level-[1-9]\d*\))?|failed)$")


def verified(level=None) -> str:
    if level is None:
        return "verified"
    return f"verified (evidence-at-level-{level})"


FAILED = "failed"


@dataclass(frozen=True)
class Claim:
    """One checked statement: registry id, instance result, and status."""

    id: str
    result: str
    status: str

    def __post_init__(self):
        if self.id not in CLAIMS:
            raise ValueError(f"unregistered claim id: {self.id}")
        if not _STATUS_RE.match(self.status):
            raise ValueError(f"bad claim status: {self.status}")

    def failed(self) -> bool:
        return self.status == FAILED

    def line(self) -> str:
        return f"{self.result}: {self.status}"

    def describe(self) -> dict:
        return {"id": self.id, "result": self.result, "status": self.status}


def canonical(obj):
    """JSON-ready copy: tuples to lists, Fractions to 'a/b', floats rejected."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        raise ValueError(f"float {obj!r} has no canonical form; use int or Fraction")
    if isinstance(obj, Fraction):
        return str(obj.numerator) if obj.denominator == 1 else f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            if not isinstance(k, str):
                raise ValueError(f"non-string key {k!r}")
            out[k] = canonical(v)
        return out
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    describe = getattr(obj, "describe", None)
    if callable(describe):
        return canonical(describe())
    raise ValueError(f"cannot serialize {type(obj).__name__}")


@dataclass(frozen=True)
class Report:
    command: str
    inputs: dict
    results: dict
    claims: tuple
    timing: dict

    def failed_claims(self) -> tuple:
        return tuple(c for c in self.claims if c.failed())

    def exit_code(self) -> int:
        return 2 if self.failed_claims() else 0

    def describe(self) -> dict:
        return canonical(
            {
                "command": self.command,
                "inputs": self.inputs,
                "results": self.results,
                "claims": [c.describe() for c in self.claims],
                "timing": self.timing,
            }
        )

    def to_json(self) -> str:
        return json.dumps(self.describe(), sort_keys=True, indent=2) + "\n"


def claims_markdown() -> str:
    """The registry rendered for docs/claims.md; tests pin the file to this."""
    lines = [
        "# Claim registry",
        "",
        "Statements the command line can check, cited by id in every",
        'report\'s "claims" list.  A claim\'s status is "verified", or',
        '"verified (evidence-at-level-N)" when the conclusion follows from',
        "the first N computed levels of a direct system by the classification",
        "of annihilators of differential modules, or \"failed\" when the",
        "computation ran and contradicted the statement.",
        "",
    ]
    for cid, statement in CLAIMS.items():
        lines.append(f"- **{cid}** - {statement}")
    lines.append("")
    return "\n".join(lines)
