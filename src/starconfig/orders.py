"""Monomial orders and exponent-tuple helpers.

Monomials are plain tuples of non-negative integer exponents.  An order
maps an exponent tuple to a flat tuple of ints (its sort key) such that
comparing keys with ``<`` realizes the order.  Flat integer keys also
negate cleanly, which the division routine uses to drive a max-heap.
"""

from __future__ import annotations

from .errors import UsageError


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_div(a, b):
    """Exponent-wise difference a / b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def mono_divides(a, b):
    """True if the monomial with exponents a divides the one with b."""
    return all(x <= y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


class MonomialOrder:
    """A total order on monomials refining divisibility."""

    def key(self, exps):
        raise NotImplementedError


class GrevLex(MonomialOrder):
    """Graded reverse lexicographic: degree first, then the last nonzero
    entry of the exponent difference with reversed sign."""

    def key(self, exps):
        return (sum(exps), *(-x for x in reversed(exps)))

    def __eq__(self, other):
        return isinstance(other, GrevLex)

    def __hash__(self):
        return hash(GrevLex)

    def __repr__(self):
        return "grevlex"


class Lex(MonomialOrder):
    """Pure lexicographic order on exponent tuples."""

    def key(self, exps):
        return tuple(exps)

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
        self.front = frozenset(front)
        if not self.front or any(i < 0 for i in self.front):
            raise UsageError("front block must be a nonempty set of variable indices")
        self._split = {}

    def _indices(self, nvars):
        cached = self._split.get(nvars)
        if cached is None:
            front = tuple(sorted(i for i in self.front if i < nvars))
            back = tuple(i for i in range(nvars) if i not in self.front)
            if not front:
                raise UsageError("front block indices exceed the ring arity")
            cached = self._split[nvars] = (front, back)
        return cached

    def key(self, exps):
        front, back = self._indices(len(exps))
        fe = [exps[i] for i in front]
        be = [exps[i] for i in back]
        return (
            sum(fe),
            *(-x for x in reversed(fe)),
            sum(be),
            *(-x for x in reversed(be)),
        )

    def __eq__(self, other):
        return isinstance(other, BlockOrder) and other.front == self.front

    def __hash__(self):
        return hash((BlockOrder, self.front))

    def __repr__(self):
        return f"block(front={sorted(self.front)})"


GREVLEX = GrevLex()
LEX = Lex()


def cmp_monomials(order: MonomialOrder, a, b) -> int:
    """Compare two monomials under the order: -1, 0, or 1."""
    if len(a) != len(b):
        raise UsageError(f"monomial arity mismatch: {len(a)} vs {len(b)}")
    ka, kb = order.key(a), order.key(b)
    if ka < kb:
        return -1
    if ka > kb:
        return 1
    return 0
