"""Deterministic run reports and the registry of checkable claims.

Every command emits one JSON report on standard output: sorted keys,
two-space indent, integers and strings only (floats are rejected, exact
rationals are rendered as "a/b"), so identical inputs produce identical
bytes.  encode writes them byte for byte as json.dumps(sort_keys=True,
indent=2) does on the report's JSON-ready copy, in one walk that appends
to one buffer.  The sorted key heads of each dict shape are built once
per call, and a bad value still raises on the first offender in
insertion order.  Timing holds work counters derived from the
computation itself; wall-clock seconds go to standard error, outside the
deterministic stream.

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
        "basis.  An integer certificate f^k = sum h_i g_i at the same k "
        "(tests/fixtures/four_element_certificate.txt) shows that such a k "
        "exists over every field and over Z_(2).",
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


# whether an iterable of types holds int alone (bool is its own type)
_all_ints = {int}.issuperset
# encoders of the exact leaf types; container values are looked up here inline
_LEAVES = {
    int: repr,
    str: _quote,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _indents(level: int) -> tuple:
    """(newline into level + 1, item separator there, newline back to level)."""
    inner = "\n" + "  " * (level + 1)
    return inner, "," + inner, inner[:-2]


def _shape(keys: tuple, level: int) -> tuple:
    """A dict's sorted (key, head) pairs, its close, and its values' indents.

    A head is what precedes the key's value: "{" or ",", the newline and
    indent, and the quoted key with its ": ".
    """
    inner, _, outer = _indents(level)
    ordered = sorted(keys)  # keys are distinct strings
    heads = [("," if i else "{") + inner + _quote(k) + ": " for i, k in enumerate(ordered)]
    return tuple(zip(ordered, heads)), outer + "}", _indents(level + 1)


def encode(obj, level: int = 0) -> str:
    """obj as sorted-key, two-space-indented JSON, nested level deep.

    The bytes are those of json.dumps(..., sort_keys=True, indent=2) on
    the JSON-ready copy with tuples as lists, Fractions as "a/b" (or "a"),
    and objects replaced by their describe(); no copy is built.  One walk
    appends the pieces to one buffer, joined once at the end.  Each dict's
    sorted key heads are looked up by its keys in insertion order and its
    level, in a shape table that lives for this call only; lists of ints,
    most of a report, are joined in one step.  Strings are escaped by the
    stdlib encoder's own encode_basestring_ascii.

    A float, a non-string key or an unknown type raises on the first
    offender in insertion order.  A dict with a non-string key is walked
    in insertion order up to it.  When a value fails in sorted order, the
    values inserted before it that the walk has not reached yet are
    walked in insertion order, so an earlier offender among them raises
    instead; every value is walked at most once.
    """
    out = []
    append = out.append
    shapes = {}

    def walk(obj, level):
        kind = type(obj)
        if kind is dict:
            if not obj:
                append("{}")
                return
            keys = tuple(obj)
            shape = shapes.get((keys, level))
            if shape is None:
                if not all(isinstance(k, str) for k in keys):
                    for k, v in obj.items():
                        if not isinstance(k, str):
                            raise ValueError(f"non-string key {k!r}")
                        walk(v, level + 1)
                shape = shapes[keys, level] = _shape(keys, level)
            heads, close, (inner, sep, outer) = shape
            try:
                for key, head in heads:
                    v = obj[key]
                    kind = type(v)
                    leaf = _LEAVES.get(kind)
                    if leaf is not None:
                        append(head + leaf(v))
                    elif (kind is list or kind is tuple) and v and _all_ints(map(type, v)):
                        append(f"{head}[{inner}{sep.join(map(repr, v))}{outer}]")
                    else:
                        append(head)
                        walk(v, level + 1)
            except ValueError:
                for k in keys[: keys.index(key)]:
                    if k > key:  # inserted earlier, sorted later: not walked yet
                        walk(obj[k], level + 1)
                raise
            append(close)
        elif kind is list or kind is tuple:
            if not obj:
                append("[]")
                return
            inner, sep, outer = _indents(level)
            if _all_ints(map(type, obj)):
                append(f"[{inner}{sep.join(map(repr, obj))}{outer}]")
                return
            sub_inner, sub_sep, sub_outer = _indents(level + 1)
            head = "[" + inner
            for v in obj:
                kind = type(v)
                leaf = _LEAVES.get(kind)
                if leaf is not None:
                    append(head + leaf(v))
                elif (kind is list or kind is tuple) and v and _all_ints(map(type, v)):
                    append(f"{head}[{sub_inner}{sub_sep.join(map(repr, v))}{sub_outer}]")
                else:
                    append(head)
                    walk(v, level + 1)
                head = sep
            append(outer + "]")
        else:
            leaf = _LEAVES.get(kind)
            if leaf is not None:
                append(leaf(obj))
            elif isinstance(obj, str):  # subclasses of the leaf and container types
                append(_quote(obj))
            elif isinstance(obj, int):
                append(int.__repr__(obj))
            elif isinstance(obj, float):
                raise ValueError(f"float {obj!r} has no canonical form; use int or Fraction")
            elif isinstance(obj, dict):
                walk(dict(obj), level)
            elif isinstance(obj, (list, tuple)):
                walk(list(obj), level)
            elif isinstance(obj, Fraction):  # after the containers: an ABC check, slow
                n, d = obj.numerator, obj.denominator
                append(_quote(str(n) if d == 1 else f"{n}/{d}"))
            else:
                describe = getattr(obj, "describe", None)
                if callable(describe):
                    walk(describe(), level)
                elif kind is Rows:
                    obj.emit(append, level)
                else:
                    raise ValueError(f"cannot serialize {type(obj).__name__}")

    walk(obj, level)
    return "".join(out)


class Rows:
    """A report list of dicts that differ in one field, the rest shared.

    rows() yields (value, fields) for each entry in order: value the key
    field, a tuple of ints, and fields the dict of the other fields, one
    object shared by a run of entries; fields lists those objects, and
    every fields yielded is one of them.  key sorts before every key of
    fields, so encode renders an entry as its key and value followed by a
    tail encoded once per fields object (emit).  Iterated, the entries are
    plain dicts; a Rows has no len and no indexing, and the stdlib json
    module cannot serialize it, so a report holding one goes through
    encode (or list(rows)).
    """

    __slots__ = ("key", "fields", "rows")

    def __init__(self, key: str, fields: list, rows):
        self.key = key
        self.fields = fields
        self.rows = rows

    def __iter__(self):
        key = self.key
        return ({key: list(value), **fields} for value, fields in self.rows())

    def emit(self, append, level: int) -> None:
        """Append the list's JSON as encode writes it at level.

        An entry is the item separator and key, its value rendered by one
        %-format made once per value length, and the tail of its fields
        object, encoded once per object of self.fields.
        """
        inner, sep, outer = _indents(level)
        entry_inner, _, entry_outer = _indents(level + 1)
        value_inner, value_sep, value_outer = _indents(level + 2)
        key = self.key
        tails = {}  # id of an object of self.fields: its encoded tail
        for fields in self.fields:
            if fields and min(fields) <= key:
                raise ValueError(f"row field {min(fields)!r} sorts before {key!r}")
            tail = "," + encode(fields, level + 1)[1:] if fields else entry_outer + "}"
            tails[id(fields)] = tail
        opening = sep + "{" + entry_inner + _quote(key) + ": "
        head = "[" + opening[1:]  # the first entry follows "[" and no comma
        slots = {0: "[]"}  # value length: the %-format of a value that long
        for value, fields in self.rows():
            form = slots.get(len(value))
            if form is None:
                ints = value_sep.join(["%d"] * len(value))
                form = slots[len(value)] = f"[{value_inner}{ints}{value_outer}]"
            append(head + form % value + tails[id(fields)])
            head = opening
        append(outer + "]" if head is opening else "[]")


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
