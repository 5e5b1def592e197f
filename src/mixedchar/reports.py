"""Deterministic run reports and the registry of checkable claims.

Every command emits one JSON report on standard output: sorted keys,
two-space indent, integers and strings only (floats are rejected, exact
rationals are rendered as "a/b"), so identical inputs produce identical
bytes.  encode writes them in one walk of the report, byte for byte what
json.dumps(sort_keys=True, indent=2) gives on the report's JSON-ready
copy.  Timing holds work counters derived from the computation itself;
wall-clock seconds go to standard error, outside the deterministic
stream.

Claims are the statements a run can check.  Each claim cited in a
report resolves to an entry in CLAIMS, the registry also rendered into
docs/claims.md: its statement and its two result texts, verified and
failed, as str.format templates over fields the run supplies.  check
builds every claim a command reports.  A claim's status is "verified",
"verified (evidence-at-level-N)" when the conclusion rests on finitely
many computed levels of a direct system, or "failed".
"""

from __future__ import annotations

import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote


# id: (statement, result if verified, result if failed).  Results are
# str.format templates over the fields given to check; a failed result
# may list alternatives.
CLAIMS = {
    "ext4-socle": (
        "The fourth graded Ext module of the six-variable polynomial ring "
        "modulo the ten squarefree cubics is a single Z/2 concentrated in "
        "degree (-1,...,-1); the one-step enlargement shell is empty and "
        "every multiplication map out of the piece is zero.",
        "Ext^4 = Z/2 at (-1,...,-1), clean shell, six zero maps out",
        "Z/2 socle not reproduced",
    ),
    "levelwise-torsion": (
        "At ideal power ell, the fourth graded Ext module of the ten-cubic "
        "quotient has exactly ell^6 nonzero pieces, each Z/2, so the whole "
        "module is killed by the prime.",
        "levels 1..{levels}: ell^6 pieces, all Z/2",
        "levels 1..{levels}: levelwise support not reproduced",
    ),
    "transition-injective": (
        "The comparison chain maps between consecutive ideal powers induce "
        "injective maps over the p-local base ring on every graded Ext piece "
        "computed that is nonzero there.",
        "levels 1..{levels}: injective on every computed support degree",
        "levels 1..{levels}: injectivity not established",
    ),
    "top-annihilator": (
        "The annihilator of the direct limit of the top graded Ext modules "
        "over the p-local base ring is determined by the computed levels: "
        "a pi power when torsion persists with a uniform kill exponent, "
        "the unit ideal when the support is empty, and the zero ideal when "
        "no pi power kills.",
        "Ann = {verdict}",
        ("Ann = {verdict}", "no conclusion: stage {stage} did not certify"),
    ),
    "four-element-radical": (
        "The four structured cubic sums lie termwise in the ten-cubic ideal "
        "and each of the ten cubics has a power inside the ideal the four "
        "elements generate, over F2 and over Q.  A cubic f is certified by "
        "the least k <= 4 with NF(f^k) = 0 in that ideal's reduced Groebner "
        "basis, else by Rabinowitsch's added variable.",
        "4 elements inside the ideal; all 10 cubics radical members over F2 and Q",
        "containment certificate not reproduced",
    ),
    "filtration-axioms": (
        "The constructed layer chain satisfies all five conditions: "
        "differential stability, zero intersection and exhaustive union, "
        "pi shifting layers down by one, layers living over the residue "
        "ring, and pi an isomorphism between consecutive layers outside a "
        "bounded window.",
        "all five layer conditions hold on the window",
        "violated conditions (tier, condition): {violated}",
    ),
    "length-verdict": (
        "A chain bounded on both sides forces finite length with the "
        "summed bound gap as a pi-power kill exponent; a chain unbounded "
        "on either side forces annihilator zero.",
        "{verdict}",
        "{verdict}",
    ),
    "projective-plane-cohomology": (
        "The six-vertex triangulation of the real projective plane has "
        "reduced integral cohomology Z/2 in degree two and zero in every "
        "other degree.",
        "reduced integral cohomology = Z/2 in degree 2 only",
        "integral cohomology not reproduced",
    ),
    "projective-plane-local-cohomology": (
        "The face ring of the six-vertex projective plane has local "
        "cohomology concentrated in degrees two and three over F2, and in "
        "degree three alone over F3 and over Q.",
        "nonzero only in degrees {{2,3}} over F2 and {{3}} over F3, Q",
        "local cohomology degrees not reproduced",
    ),
}

_STATUS_RE = re.compile(r"^(verified( \(evidence-at-level-[1-9]\d*\))?|failed)$")


def verified(level=None) -> str:
    if level is None:
        return "verified"
    return f"verified (evidence-at-level-{level})"


FAILED = "failed"


class Claim:
    """One checked statement: registry id, instance result, and status."""

    __slots__ = ("id", "result", "status")

    def __init__(self, id: str, result: str, status: str):
        if id not in CLAIMS:
            raise ValueError(f"unregistered claim id: {id}")
        if not _STATUS_RE.match(status):
            raise ValueError(f"bad claim status: {status}")
        self.id = id
        self.result = result
        self.status = status

    def failed(self) -> bool:
        return self.status == FAILED

    def line(self) -> str:
        return f"{self.result}: {self.status}"

    def describe(self) -> dict:
        return {"id": self.id, "result": self.result, "status": self.status}


def check(cid: str, ok: bool, level: int | None = None, **fields) -> Claim:
    """Claim cid with its registry result for ok, filled in from fields.

    The status is verified(level) when ok, else FAILED.  Of alternative
    results, the first whose fields are all given and not None is taken.
    """
    texts = CLAIMS[cid][1 if ok else 2]
    given = {name: value for name, value in fields.items() if value is not None}
    for text in (texts,) if isinstance(texts, str) else texts:
        try:
            result = text.format(**given)
        except KeyError:
            continue
        return Claim(cid, result, verified(level) if ok else FAILED)
    raise ValueError(f"claim {cid}: no result takes the fields {sorted(given)}")


_INT_ONLY = {int}
# encoders of the exact leaf types; dict values are looked up here inline
_LEAVES = {
    int: int.__repr__,
    str: _quote,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def encode(obj, level: int = 0) -> str:
    """obj as sorted-key, two-space-indented JSON, nested level deep.

    The bytes are those of json.dumps(..., sort_keys=True, indent=2) on
    the JSON-ready copy with tuples as lists, Fractions as "a/b" (or "a"),
    and objects replaced by their describe(); no copy is built.  Values
    are encoded in insertion order and then sorted by key, so a float, a
    non-string key or an unknown type raises on the first offender in
    insertion order.  Most of a report is lists of ints, which are joined
    in one step.  Strings are escaped by the stdlib encoder's own
    encode_basestring_ascii.  A container is closed with one f-string, not
    a chain of +, so at most three copies of its text are alive at once.
    """
    leaf = _LEAVES.get(type(obj))
    if leaf is not None:
        return leaf(obj)
    if isinstance(obj, str):  # subclasses of the leaf types
        return _quote(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        raise ValueError(f"float {obj!r} has no canonical form; use int or Fraction")
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = "\n" + "  " * (level + 1)
        items = []
        for k, v in obj.items():
            if not isinstance(k, str):
                raise ValueError(f"non-string key {k!r}")
            leaf = _LEAVES.get(type(v))
            items.append((k, _quote(k) + ": " + (leaf(v) if leaf else encode(v, level + 1))))
        items.sort()  # keys are distinct, so only they are compared
        body = ("," + inner).join([item for _, item in items])
        return f"{{{inner}{body}{inner[:-2]}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = "\n" + "  " * (level + 1)
        if _INT_ONLY.issuperset(map(type, obj)):
            body = ("," + inner).join(map(int.__repr__, obj))
        else:
            body = ("," + inner).join([encode(v, level + 1) for v in obj])
        return f"[{inner}{body}{inner[:-2]}]"
    if isinstance(obj, Fraction):  # after the containers: an ABC check, slow
        n, d = obj.numerator, obj.denominator
        return _quote(str(n) if d == 1 else f"{n}/{d}")
    describe = getattr(obj, "describe", None)
    if callable(describe):
        return encode(describe(), level)
    raise ValueError(f"cannot serialize {type(obj).__name__}")


class Report:
    __slots__ = ("command", "inputs", "results", "claims", "timing")

    def __init__(self, command: str, inputs: dict, results: dict, claims: tuple, timing: dict):
        self.command = command
        self.inputs = inputs
        self.results = results
        self.claims = claims
        self.timing = timing

    def failed_claims(self) -> tuple:
        return tuple(c for c in self.claims if c.failed())

    def exit_code(self) -> int:
        return 2 if self.failed_claims() else 0

    def to_json(self) -> str:
        report = {
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "claims": self.claims,
            "timing": self.timing,
        }
        return encode(report) + "\n"
