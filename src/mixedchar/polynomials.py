"""Sparse multivariate polynomials over an exact coefficient ring.

Terms are stored in a dict keyed by exponent tuples; zero coefficients are
never stored.  The variable order is x0 > x1 > ... > x(n-1), and the default
monomial order is graded lex: compare total degree first, then the exponent
tuples lexicographically.
"""

from __future__ import annotations

from operator import add, le, sub


MultiIndex = tuple  # exponent tuple, one entry per variable


def exp_add(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(map(add, a, b))


def exp_sub(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(map(sub, a, b))


def exp_leq(a: MultiIndex, b: MultiIndex) -> bool:
    """Componentwise a <= b, i.e. x^a divides x^b."""
    return all(map(le, a, b))


def exp_max(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    """Exponent of lcm(x^a, x^b)."""
    return tuple(map(max, a, b))


def grlex_key(e: MultiIndex):
    return (sum(e), e)


def lex_key(e: MultiIndex):
    return e


ORDER_KEYS = {"grlex": grlex_key, "lex": lex_key}


def _grlex_max(exponents) -> MultiIndex:
    return max(zip(map(sum, exponents), exponents))[1]


# The largest of a collection of exponents under each order, the same as
# max(..., key=ORDER_KEYS[order]) but with no Python call per exponent.
ORDER_MAX = {"grlex": _grlex_max, "lex": max}


class Polynomial:
    """A polynomial with exact coefficients from a fixed ring object.

    >>> from mixedchar.scalars import PrimeField
    >>> f = Polynomial(PrimeField(7), 2, {(1, 0): 3, (0, 2): 1})
    >>> f.leading_term()
    ((0, 2), 1)
    >>> (f * f).terms[(1, 2)]
    6
    """

    __slots__ = ("ring", "n", "terms")

    def __init__(self, ring, n: int, terms: dict | None = None):
        self.ring = ring
        self.n = n
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if len(e) != n:
                    raise ValueError(f"exponent {e} has wrong arity, expected {n}")
                if not ring.is_zero(c):
                    self.terms[tuple(e)] = c

    @classmethod
    def _of(cls, ring, n: int, terms: dict) -> "Polynomial":
        """A polynomial owning terms, which must already be canonical: every
        exponent of arity n and no zero coefficient.  No check is made."""
        f = cls.__new__(cls)
        f.ring, f.n, f.terms = ring, n, terms
        return f

    @classmethod
    def zero(cls, ring, n: int) -> "Polynomial":
        return cls(ring, n, {})

    @classmethod
    def constant(cls, ring, n: int, c) -> "Polynomial":
        return cls(ring, n, {(0,) * n: c})

    @classmethod
    def monomial(cls, ring, n: int, e: MultiIndex, c=None) -> "Polynomial":
        return cls(ring, n, {tuple(e): ring.one() if c is None else c})

    @classmethod
    def variable(cls, ring, n: int, i: int) -> "Polynomial":
        e = [0] * n
        e[i] = 1
        return cls(ring, n, {tuple(e): ring.one()})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def sorted_terms(self, order: str = "grlex") -> list:
        key = ORDER_KEYS[order]
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    def leading_term(self, order: str = "grlex"):
        """(exponent, coefficient) of the largest term in the given order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = ORDER_MAX[order](self.terms)
        return e, self.terms[e]

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        ring = self.ring
        for e, c in other.terms.items():
            s = ring.add(out.get(e, ring.zero()), c)
            if ring.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
        return Polynomial(ring, self.n, out)

    def __neg__(self) -> "Polynomial":
        ring = self.ring
        return Polynomial(ring, self.n, {e: ring.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        ring = self.ring
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = exp_add(e1, e2)
                s = ring.add(out.get(e, ring.zero()), ring.mul(c1, c2))
                if ring.is_zero(s):
                    out.pop(e, None)
                else:
                    out[e] = s
        return Polynomial(ring, self.n, out)

    def scale(self, c) -> "Polynomial":
        ring = self.ring
        if ring.is_zero(c):
            return Polynomial.zero(ring, self.n)
        return Polynomial(ring, self.n, {e: ring.mul(c, v) for e, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.n, frozenset(self.terms.items())))

    def _check(self, other: "Polynomial"):
        if self.ring != other.ring or self.n != other.n:
            raise ValueError("mixed polynomial rings")

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"x{i}" if k == 1 else f"x{i}^{k}" for i, k in enumerate(e) if k
            )
            if mono:
                bits.append(f"{c}*{mono}")
            else:
                bits.append(f"{c}")
        return " + ".join(bits)


def exact_divide(f: Polynomial, g: Polynomial) -> Polynomial | None:
    """f / g when g divides f exactly, else None.

    Greedy leading-term cancellation in grlex.  Over a domain the leading
    term of f must be the product of the leading terms of g and of the
    quotient, so each step is forced; any failure certifies nondivisibility.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    ring = f.ring
    q = Polynomial.zero(ring, f.n)
    r = f
    ge, gc = g.leading_term()
    while not r.is_zero():
        re, rc = r.leading_term()
        if not exp_leq(ge, re):
            return None
        c = ring.divide(rc, gc)
        if c is None:
            return None
        t = Polynomial.monomial(ring, f.n, exp_sub(re, ge), c)
        q = q + t
        r = r - t * g
    return q
