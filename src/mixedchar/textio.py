"""Plain-text input formats and bundled fixture files.

Three formats, all line-based.  Blank lines are skipped and `#` starts a
comment that runs to the end of the line.

Ideal file: header `vars n`, then one monomial generator per line as n
space-separated exponents.

    vars 3
    1 1 0     # x0*x1
    0 0 2     # x2^2

Facet file: header `vertices n`, then one facet per line as distinct
vertex indices in [0, n).

Generator file: an optional header `vars n`, then one polynomial
expression per line; without the header n is 1 + the largest variable
index in the file.  Expressions are sums of terms; a term is
`*`-separated factors, each an integer, a fraction a/b, or a variable
power x<k> or x<k>^<e>, and every sign is followed by a term.

    vars 2
    3*x0^2*x1 - 1/2*x1
"""

from __future__ import annotations

import re

from .monomials import MonomialIdeal
from .polynomials import Polynomial

_TERM_RE = re.compile(r"[+-]?[^+-]+")
_NUMBER_RE = re.compile(r"(\d+)(?:/(\d+))?$")
_VARIABLE_RE = re.compile(r"x(\d+)(?:\^(\d+))?$")


def _coefficient(ring, num: int, den: int):
    if den == 1:
        return ring.from_int(num)
    c = ring.divide(ring.from_int(num), ring.from_int(den))
    if c is None:
        raise ValueError(f"coefficient {num}/{den} does not lie in {ring!r}")
    return c


def _parse_term(term: str, ring):
    """One signed product of factors -> (coefficient, exponent dict)."""
    sign = 1
    if term[0] in "+-":
        sign = -1 if term[0] == "-" else 1
        term = term[1:]
    if not term:
        raise ValueError("empty term")
    num, den = sign, 1
    exps: dict = {}
    for factor in term.split("*"):
        m = _NUMBER_RE.match(factor)
        if m:
            num *= int(m.group(1))
            den *= int(m.group(2) or 1)
            continue
        m = _VARIABLE_RE.match(factor)
        if m:
            i = int(m.group(1))
            exps[i] = exps.get(i, 0) + int(m.group(2) or 1)
            continue
        raise ValueError(f"bad factor {factor!r}")
    return _coefficient(ring, num, den), exps


def parse_polynomial(text: str, ring, n: int | None = None) -> Polynomial:
    """Parse one polynomial expression.

    When n is None the variable count is inferred as 1 + the largest
    index that appears, which fails on constant expressions.
    """
    compact = re.sub(r"\s+", "", text)
    if not compact:
        raise ValueError("empty expression")
    chunks = _TERM_RE.findall(compact)
    if "".join(chunks) != compact:
        raise ValueError(f"a sign with no term after it in {compact!r}")
    terms = []
    for chunk in chunks:
        try:
            terms.append(_parse_term(chunk, ring))
        except ValueError as exc:
            raise ValueError(f"in term {chunk!r}: {exc}") from None
    if n is None:
        indices = [i for _, exps in terms for i in exps]
        if not indices:
            raise ValueError(
                "cannot infer the variable count from a constant; pass n"
            )
        n = 1 + max(indices)
    f = Polynomial.zero(ring, n)
    for c, exps in terms:
        if exps and max(exps) >= n:
            raise ValueError(f"variable x{max(exps)} out of range for n={n}")
        e = tuple(exps.get(i, 0) for i in range(n))
        f = f + Polynomial.monomial(ring, n, e, c)
    return f


def _significant_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _header_value(lines, keyword: str, source: str) -> int:
    try:
        lineno, line = next(lines)
    except StopIteration:
        raise ValueError(f"{source}: empty file, expected '{keyword} <n>'")
    parts = line.split()
    if len(parts) != 2 or parts[0] != keyword or not parts[1].isdigit():
        raise ValueError(f"{source}:{lineno}: expected '{keyword} <n>', got {line!r}")
    n = int(parts[1])
    if n < 1:
        raise ValueError(f"{source}:{lineno}: need {keyword} >= 1")
    return n


def load_ideal_text(text: str, source: str = "<string>") -> MonomialIdeal:
    lines = _significant_lines(text)
    n = _header_value(lines, "vars", source)
    rows = []
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != n or not all(p.isdigit() for p in parts):
            raise ValueError(
                f"{source}:{lineno}: expected {n} nonnegative exponents, got {line!r}"
            )
        rows.append(tuple(int(p) for p in parts))
    if not rows:
        raise ValueError(f"{source}: no generator rows after the header")
    return MonomialIdeal(n, rows)


def load_facets_text(text: str, source: str = "<string>"):
    """-> (n, facets) with each facet a sorted tuple of vertex indices."""
    lines = _significant_lines(text)
    n = _header_value(lines, "vertices", source)
    facets = []
    for lineno, line in lines:
        parts = line.split()
        if not all(p.isdigit() for p in parts):
            raise ValueError(f"{source}:{lineno}: expected vertex indices, got {line!r}")
        verts = tuple(sorted(int(p) for p in parts))
        if verts and verts[-1] >= n:
            raise ValueError(f"{source}:{lineno}: vertex {verts[-1]} out of range")
        if len(set(verts)) != len(verts):
            raise ValueError(f"{source}:{lineno}: repeated vertex in {line!r}")
        facets.append(verts)
    return n, tuple(facets)


def load_generators_text(text: str, ring, source: str = "<string>") -> tuple:
    lines = list(_significant_lines(text))
    if lines and lines[0][1].split()[0] == "vars":
        n = _header_value(iter(lines), "vars", source)
        lines = lines[1:]
    else:
        indices = [int(k) for _, line in lines for k in re.findall(r"x(\d+)", line)]
        if lines and not indices:
            raise ValueError(f"{source}: cannot infer the variable count from constants")
        n = 1 + max(indices, default=0)
    gens = []
    for lineno, line in lines:
        try:
            gens.append(parse_polynomial(line, ring, n))
        except ValueError as exc:
            raise ValueError(f"{source}:{lineno}: {exc}") from None
    if not gens:
        raise ValueError(f"{source}: no generators given")
    return tuple(gens)


def bundled_text(name: str) -> str:
    # imported here: it loads zipfile, tempfile and pathlib, which only
    # the fixture readers need, not every command's start-up
    from importlib import resources

    return (resources.files("mixedchar") / "fixtures" / name).read_text(
        encoding="utf-8"
    )


def reisner_ideal() -> MonomialIdeal:
    """The ten squarefree cubics in six variables shipped with the package."""
    return load_ideal_text(bundled_text("reisner.ideal"), source="reisner.ideal")


def rp2_facets():
    """Facets of the six-vertex projective plane triangulation."""
    return load_facets_text(bundled_text("rp2_6.facets"), source="rp2_6.facets")


def schmitt_vogel_generators(ring) -> tuple:
    """Four polynomials cutting out the Reisner ideal up to radical."""
    return load_generators_text(
        bundled_text("schmitt_vogel.gens"), ring, source="schmitt_vogel.gens"
    )
