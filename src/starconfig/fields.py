"""Exact coefficient fields: the rationals and prime fields GF(p).

A field object interprets plain Python values as its elements: ``Fraction``
for the rationals, ``int`` residues in ``[0, p)`` for GF(p).  Every
operation returns a canonical value, so ``==`` on values is equality of
field elements.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import UsageError

MAX_MODULUS = 2**31


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate for moduli below 2**31."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Field:
    """Shared interface of the concrete field classes below."""

    characteristic: int

    def from_int(self, value):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))


class RationalField(Field):
    """The field of rational numbers; elements are ``Fraction`` values.

    ``Fraction`` keeps itself reduced with a positive denominator, which is
    exactly the canonical representative this package relies on.
    """

    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, value):
        return Fraction(value)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(RationalField)

    def __repr__(self):
        return "QQ"


class PrimeField(Field):
    """GF(p) for a prime p; elements are int residues in [0, p)."""

    def __init__(self, p: int):
        if not isinstance(p, int) or isinstance(p, bool):
            raise UsageError(f"prime field modulus must be an int, got {p!r}")
        if p >= MAX_MODULUS:
            raise UsageError(f"modulus {p} too large (must be below 2**31)")
        if not is_prime(p):
            raise UsageError(f"modulus {p} is not prime")
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def from_int(self, value):
        return value % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash((PrimeField, self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()

#: Default modulus for bulk verification runs.  Results over GF(p) are
#: strong probabilistic evidence for the corresponding statement over the
#: rationals; rerun over QQ when an exact characteristic-zero answer is
#: required.  The Groebner core divides fraction-free on integer
#: polynomials, so QQ costs a small factor more, growing with the shape.
DEFAULT_PRIME = 32003


def GF(p: int) -> PrimeField:
    return PrimeField(p)
