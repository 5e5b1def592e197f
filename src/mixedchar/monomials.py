"""Monomial ideals: minimal generators, membership, lcm and powers.

A MonomialIdeal stores only exponent tuples.  Construction minimalizes:
generators divisible by another generator are dropped, duplicates removed,
and the rest sorted in grlex so every downstream computation sees one
canonical order.
"""

from __future__ import annotations

from .polynomials import MultiIndex, exp_leq, exp_max, grlex_key


class MonomialIdeal:
    """An ideal generated by monomials x^e, e ranging over `gens`.

    >>> I = MonomialIdeal(2, [(2, 0), (2, 1)])
    >>> I.gens
    ((2, 0),)
    >>> I.contains_monomial((3, 5))
    True
    >>> MonomialIdeal(1, [(0,)]).is_unit()
    True
    """

    __slots__ = ("n", "gens")

    def __init__(self, n: int, gens):
        gens = {tuple(e) for e in gens}
        for e in gens:
            if len(e) != n or any(k < 0 for k in e):
                raise ValueError(f"bad exponent {e}")
        minimal = [
            e for e in gens if not any(exp_leq(d, e) for d in gens if d != e)
        ]
        self.n = n
        self.gens = tuple(sorted(minimal, key=grlex_key))

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        return self.gens == ((0,) * self.n,)

    def contains_monomial(self, e: MultiIndex) -> bool:
        return any(exp_leq(g, e) for g in self.gens)

    def lcm_exponent(self) -> MultiIndex:
        """Exponent of the lcm of all generators (the zero tuple if none)."""
        a = (0,) * self.n
        for g in self.gens:
            a = exp_max(a, g)
        return a

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialIdeal)
            and self.n == other.n
            and self.gens == other.gens
        )

    def __hash__(self):
        return hash((self.n, self.gens))

    def __repr__(self):
        if not self.gens:
            return "(0)"
        bits = []
        for e in self.gens:
            mono = "*".join(
                f"x{i}" if k == 1 else f"x{i}^{k}" for i, k in enumerate(e) if k
            )
            bits.append(mono if mono else "1")
        return "(" + ", ".join(bits) + ")"


def power_ideal(ideal: MonomialIdeal, ell: int) -> MonomialIdeal:
    """The ideal generated by the ell-th powers of the given generators.

    Scaling exponents preserves both divisibility and grlex order, so the
    generator list of the result corresponds to the input positionally.
    """
    if ell < 1:
        raise ValueError("power must be >= 1")
    return MonomialIdeal(ideal.n, [tuple(ell * k for k in g) for g in ideal.gens])
