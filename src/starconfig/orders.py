"""The two monomial orders and the packed-integer encoding of monomials.

Polynomials carry monomials as tuples of non-negative exponents, and
every ring orders them by grevlex.  The Groebner core needs one more
order, to eliminate an extra variable t.  So there are two layouts,
each built once per arity: ``grevlex_layout(n)`` and
``elimination_layout(n)``, whose extra last variable t goes in front.

A layout packs a monomial into one int, its sort key, after Monagan &
Pearce (CASC 2007).  The int is a row of 16-bit fields, each a
0/1-weighted sum of the exponents: the order's key rows first (most
significant), then the plain exponents, then the total degree when no
row above already holds it.  So:

- comparing packed ints realizes the order;
- the product of two monomials is the sum of their ints;
- a divides b iff ``(b - a) & guard == 0``, where ``guard`` holds the
  top bit of every field.

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


def _prefix_rows(indices, nvars):
    """Grevlex key rows over the given variables: their total, then the
    sums over the first m of them for m = len - 1 down to 1."""
    return [
        tuple(1 if i in indices[:m] else 0 for i in range(nvars))
        for m in range(len(indices), 0, -1)
    ]


class Layout:
    """The packing of n-variable monomials under one order."""

    __slots__ = ("units", "guard", "shifts")

    def __init__(self, nvars, key_rows):
        rows = list(key_rows)
        rows += [tuple(1 if j == i else 0 for j in range(nvars)) for i in range(nvars)]
        if (1,) * nvars not in rows:
            rows.append((1,) * nvars)
        top = len(rows) - 1
        field_shifts = [FIELD_BITS * (top - r) for r in range(len(rows))]
        self.units = tuple(
            sum(1 << s for s, row in zip(field_shifts, rows) if row[i]) for i in range(nvars)
        )
        self.guard = sum(1 << (s + FIELD_BITS - 1) for s in field_shifts)
        start = len(key_rows)
        self.shifts = tuple(field_shifts[start : start + nvars])

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
    return Layout(nvars, _prefix_rows(tuple(range(nvars)), nvars))


@cache
def elimination_layout(nvars) -> Layout:
    """nvars variables and an extra last one, t, in front: the power of
    t first, ties broken by grevlex on the others.

    Any monomial involving t is larger than any monomial that avoids
    it, so dropping basis elements whose leading term uses t computes
    the elimination ideal.  On t-free monomials this is the grevlex
    order of ``grevlex_layout(nvars)``.
    """
    n = nvars + 1
    return Layout(n, _prefix_rows((nvars,), n) + _prefix_rows(tuple(range(nvars)), n))
