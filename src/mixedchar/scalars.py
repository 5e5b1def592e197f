"""Exact coefficient rings: Z, Q, F_p, and Z localized at a prime p.

The localized ring V = Z_(p) is a discrete valuation ring with uniformizer
pi = p.  Its elements are stored as a unit part (a rational with numerator
and denominator coprime to p) times an explicit power of p, so the pi-adic
valuation is always available without factoring.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


def padic_valuation(n: int, p: int) -> int:
    """Largest e with p**e dividing n.  Undefined for n == 0 or p < 2."""
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    if p < 2:
        raise ValueError(f"no {p}-adic valuation: need p >= 2")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


class DVRScalar:
    """An element of Z_(p), kept as unit * p**val with the unit coprime to p.

    >>> a = DVRScalar.from_rational(Fraction(12), 2)
    >>> (a.val, a.unit)
    (2, Fraction(3, 1))
    >>> b = DVRScalar.from_rational(Fraction(4), 2)
    >>> (a + b).val
    4
    >>> (a + b).unit
    Fraction(1, 1)
    >>> (a * b).val
    4

    The zero element is canonical: unit == 0 and val == 0.
    """

    __slots__ = ("p", "val", "unit")

    def __init__(self, p: int, val: int, unit: Fraction):
        if unit == 0:
            val = 0
        elif unit.numerator % p == 0 or unit.denominator % p == 0:
            raise ValueError(f"unit part {unit} not coprime to {p}")
        elif val < 0:
            raise ValueError(f"negative valuation {val}: not integral at {p}")
        self.p = p
        self.val = val
        self.unit = unit

    @classmethod
    def from_rational(cls, q, p: int) -> "DVRScalar":
        q = Fraction(q)
        if q == 0:
            return cls(p, 0, Fraction(0))
        vn = padic_valuation(q.numerator, p)
        vd = padic_valuation(q.denominator, p)
        if vd > 0:
            raise ValueError(f"{q} has p in the denominator: not in Z_({p})")
        return cls(p, vn, q / p**vn)

    def to_fraction(self) -> Fraction:
        return self.unit * self.p**self.val

    def is_zero(self) -> bool:
        return self.unit == 0

    def valuation(self):
        """pi-adic valuation; None for zero (conventionally +infinity)."""
        return None if self.unit == 0 else self.val

    def residue(self) -> int:
        """Image in the residue field F_p."""
        if self.unit == 0 or self.val > 0:
            return 0
        num = self.unit.numerator % self.p
        den = self.unit.denominator % self.p
        return (num * pow(den, self.p - 2, self.p)) % self.p

    def __add__(self, other: "DVRScalar") -> "DVRScalar":
        if self.p != other.p:
            raise ValueError("mixed primes")
        if self.unit == 0:
            return other
        if other.unit == 0:
            return self
        v = min(self.val, other.val)
        s = self.unit * self.p ** (self.val - v) + other.unit * self.p ** (other.val - v)
        if s == 0:
            return DVRScalar(self.p, 0, Fraction(0))
        lift = padic_valuation(s.numerator, self.p)
        return DVRScalar(self.p, v + lift, s / self.p**lift)

    def __neg__(self) -> "DVRScalar":
        return DVRScalar(self.p, self.val, -self.unit)

    def __sub__(self, other: "DVRScalar") -> "DVRScalar":
        return self + (-other)

    def __mul__(self, other: "DVRScalar") -> "DVRScalar":
        if self.p != other.p:
            raise ValueError("mixed primes")
        if self.unit == 0 or other.unit == 0:
            return DVRScalar(self.p, 0, Fraction(0))
        return DVRScalar(self.p, self.val + other.val, self.unit * other.unit)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DVRScalar)
            and self.p == other.p
            and self.val == other.val
            and self.unit == other.unit
        )

    def __hash__(self):
        return hash((self.p, self.val, self.unit))

    def __repr__(self):
        if self.unit == 0:
            return "0"
        if self.val == 0:
            return str(self.unit)
        return f"{self.unit}*{self.p}^{self.val}"


class IntegerRing:
    """Z with exact division as partial operation."""

    name = "Z"

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, k: int):
        return k

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_zero(self, a) -> bool:
        return a == 0

    def is_unit(self, a) -> bool:
        return a in (1, -1)

    def divide(self, a, b):
        """a / b if exact, else None."""
        if b == 0:
            raise ZeroDivisionError
        q, r = divmod(a, b)
        return q if r == 0 else None

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("Z")

    def __repr__(self):
        return "Z"


class RationalField:
    name = "Q"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, k: int):
        return Fraction(k)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_zero(self, a) -> bool:
        return a == 0

    def is_unit(self, a) -> bool:
        return a != 0

    def divide(self, a, b):
        if b == 0:
            raise ZeroDivisionError
        return Fraction(a, 1) / b

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField:
    """F_p, elements stored as ints in [0, p)."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, k: int):
        return k % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def is_unit(self, a) -> bool:
        return a % self.p != 0

    def divide(self, a, b):
        if b % self.p == 0:
            raise ZeroDivisionError
        return (a * pow(b, self.p - 2, self.p)) % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("F", self.p))

    def __repr__(self):
        return self.name


class DVR:
    """Z localized at p, with uniformizer pi = p.  Elements are DVRScalar."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"Z_({p})"

    @property
    def uniformizer(self) -> "DVRScalar":
        return DVRScalar(self.p, 1, Fraction(1))

    def zero(self):
        return DVRScalar(self.p, 0, Fraction(0))

    def one(self):
        return DVRScalar(self.p, 0, Fraction(1))

    def from_int(self, k: int):
        return DVRScalar.from_rational(Fraction(k), self.p)

    def from_rational(self, q):
        return DVRScalar.from_rational(q, self.p)

    def pi_power(self, e: int):
        return DVRScalar(self.p, e, Fraction(1))

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_zero(self, a) -> bool:
        return a.is_zero()

    def is_unit(self, a) -> bool:
        return (not a.is_zero()) and a.val == 0

    def divide(self, a, b):
        """a / b when nu(a) >= nu(b), else None.  Units always divide."""
        if b.is_zero():
            raise ZeroDivisionError
        if a.is_zero():
            return self.zero()
        if a.val < b.val:
            return None
        return DVRScalar(self.p, a.val - b.val, self.unit_quotient(a, b))

    @staticmethod
    def unit_quotient(a: DVRScalar, b: DVRScalar) -> Fraction:
        return a.unit / b.unit

    def __eq__(self, other):
        return isinstance(other, DVR) and self.p == other.p

    def __hash__(self):
        return hash(("V", self.p))

    def __repr__(self):
        return self.name


ZZ = IntegerRing()
QQ = RationalField()
