"""The monomial order and the packed-integer encoding of monomials.

Polynomials carry monomials as tuples of non-negative exponents, and
every ring orders them by grevlex.  So does the Groebner core, in one
layout per arity, ``grevlex_layout(n)``; the systems it builds in more
variables, y for radical membership, h and t for intersections, put
the new variables last.  ``grevlex_widen`` carries a ring's packings
into one more variable, absent, with no unpacking, and a field shift
brings a t-free intersection element back down (see ``groebner``).

A layout packs a monomial into one int, its sort key, after Monagan &
Pearce (CASC 2007).  The int is a row of 16-bit fields, each a
0/1-weighted sum of the exponents: grevlex's key rows first (most
significant), the total degree and then the sums over the first m
variables for m = n - 1 down to 1, then the plain exponents.  So:

- comparing packed ints realizes the order;
- the product of two monomials is the sum of their ints;
- a divides b iff ``(b - a) & guard == 0``, where ``guard`` holds the
  top bit of every field;
- the top field is the total degree, ``m >> layout.degree_shift``.

The top bit of a field must stay clear, so a monomial of total degree
``DEGREE_LIMIT`` (2**15) or more is refused with a ``UsageError``.
Since every field is at most the total degree, adding two valid ints
gives a valid int exactly when no guard bit comes out set.
"""

from __future__ import annotations

from functools import cache
from operator import mul

from .errors import UsageError

FIELD_BITS = 16
FIELD_MASK = (1 << FIELD_BITS) - 1
DEGREE_LIMIT = 1 << (FIELD_BITS - 1)


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    """True if the monomial with exponents a divides the one with b."""
    return all(x <= y for x, y in zip(a, b))


def degree_error(degree):
    return UsageError(
        f"monomial of degree {degree} reaches the packed-monomial degree limit {DEGREE_LIMIT}"
    )


class Layout:
    """The grevlex packing of nvars-variable monomials."""

    __slots__ = ("units", "guard", "shifts", "degree_shift")

    def __init__(self, nvars):
        # from the top, field r for r < nvars is the sum over the first
        # nvars - r variables, so field 0 is the total degree; below them
        # come the exponents, in variable order
        top = 2 * nvars - 1
        self.degree_shift = FIELD_BITS * top
        self.shifts = tuple(FIELD_BITS * (nvars - 1 - i) for i in range(nvars))
        self.units = tuple(
            sum(1 << FIELD_BITS * (top - r) for r in range(nvars - i)) + (1 << s)
            for i, s in enumerate(self.shifts)
        )
        self.guard = sum(1 << FIELD_BITS * f + FIELD_BITS - 1 for f in range(top + 1))

    def pack(self, exps):
        degree = sum(exps)
        if degree >= DEGREE_LIMIT:
            raise degree_error(degree)
        return sum(map(mul, exps, self.units))

    def unpack(self, m):
        return tuple([(m >> s) & FIELD_MASK for s in self.shifts])


@cache
def grevlex_layout(nvars) -> Layout:
    """Graded reverse lexicographic order on nvars variables, the order
    of every ring: degree first, then the last nonzero entry of the
    exponent difference with reversed sign."""
    return Layout(nvars)


@cache
def grevlex_widen(nvars):
    """The map that takes the packing of a monomial e under
    ``grevlex_layout(nvars)`` to that of e times y^0 under
    ``grevlex_layout(nvars + 1)``, whose last variable is y, with no
    unpacking.  The wide key rows are the total degree and then the
    narrow ones, since the sum over the first nvars variables is the
    total degree when y is absent, and the plain exponents end with
    y's, 0.  So the wide int is the narrow one shifted up one field,
    for the 0 of y, with the narrow top field, the total degree, copied
    into the new top field."""
    top = grevlex_layout(nvars).degree_shift
    high = top + 2 * FIELD_BITS

    def widen(m):
        return m << FIELD_BITS | (m >> top) << high

    return widen
