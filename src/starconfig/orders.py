"""Monomial orders and the packed-integer encoding of monomials.

Polynomials carry monomials as tuples of non-negative exponents.  Each
order also packs an n-variable monomial into one int, its sort key
(``order.key``), after Monagan & Pearce (CASC 2007).  The int is a row
of 16-bit fields, each a 0/1-weighted sum of the exponents: the order's
key rows first (most significant), then the n plain exponents, then
the total degree when no row above already holds it.  So:

- comparing packed ints realizes the order;
- the product of two monomials is the sum of their ints;
- a divides b iff ``(b - a) & guard == 0``, where ``guard`` holds the
  top bit of every field.

The top bit of a field must stay clear, so a monomial of total degree
``DEGREE_LIMIT`` (2**15) or more is refused with a ``UsageError``.
Since every field is at most the total degree, adding two valid ints
gives a valid int exactly when no guard bit comes out set.  An order
builds the layout for a given arity on first use.
"""

from __future__ import annotations

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


class MonomialOrder:
    """A total order on monomials refining divisibility, given by the key
    rows of its packed layout."""

    def __init__(self):
        self._layouts = {}

    def key_rows(self, nvars):
        raise NotImplementedError

    def layout(self, nvars) -> Layout:
        found = self._layouts.get(nvars)
        if found is None:
            found = self._layouts[nvars] = Layout(nvars, self.key_rows(nvars))
        return found

    def key(self, exps) -> int:
        return self.layout(len(exps)).pack(exps)


class GrevLex(MonomialOrder):
    """Graded reverse lexicographic: degree first, then the last nonzero
    entry of the exponent difference with reversed sign."""

    def key_rows(self, nvars):
        return _prefix_rows(tuple(range(nvars)), nvars)

    def __eq__(self, other):
        return isinstance(other, GrevLex)

    def __hash__(self):
        return hash(GrevLex)

    def __repr__(self):
        return "grevlex"


class Lex(MonomialOrder):
    """Pure lexicographic order on exponent tuples."""

    def key_rows(self, nvars):
        return []

    def __eq__(self, other):
        return isinstance(other, Lex)

    def __hash__(self):
        return hash(Lex)

    def __repr__(self):
        return "lex"


class BlockOrder(MonomialOrder):
    """Elimination order: grevlex on a front block of variables, ties
    broken by grevlex on the remaining block.

    Any monomial involving a front variable is larger than any monomial
    that avoids them all, so dropping basis elements whose leading term
    uses a front variable computes the elimination ideal.
    """

    def __init__(self, front):
        super().__init__()
        self.front = frozenset(front)
        if not self.front or any(i < 0 for i in self.front):
            raise UsageError("front block must be a nonempty set of variable indices")

    def key_rows(self, nvars):
        front = tuple(sorted(i for i in self.front if i < nvars))
        back = tuple(i for i in range(nvars) if i not in self.front)
        if not front:
            raise UsageError("front block indices exceed the ring arity")
        return _prefix_rows(front, nvars) + _prefix_rows(back, nvars)

    def __eq__(self, other):
        return isinstance(other, BlockOrder) and other.front == self.front

    def __hash__(self):
        return hash((BlockOrder, self.front))

    def __repr__(self):
        return f"block(front={sorted(self.front)})"


GREVLEX = GrevLex()
LEX = Lex()
