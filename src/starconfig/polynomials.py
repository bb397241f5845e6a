"""Multivariate polynomials with exact coefficients.

A Ring fixes the coefficient field, the number of variables and
display names; every ring orders its monomials by grevlex.  Polynomials
are immutable: a tuple of (exponent tuple, coefficient) pairs sorted
descending under grevlex, with no zero coefficients.  A linear form is
a row of coefficients, and ``Ring.linear`` is the one place where a row
becomes a Polynomial.  ProductOfForms is the one routine that expands a
product of rows; the product itself is named by its labels, not stored.
"""

from __future__ import annotations

from .errors import UsageError
from .fields import Field
from .orders import grevlex_layout, mono_mul


def default_names(nvars: int):
    if nvars <= 4:
        return tuple("xyzw"[:nvars])
    return tuple(f"x{i + 1}" for i in range(nvars))


class Ring:
    """Polynomial ring context: field, arity, names, and the grevlex
    layout that packs its monomials (see ``orders``)."""

    __slots__ = ("field", "nvars", "names", "layout", "_zero_exps", "_units")

    def __init__(self, field: Field, nvars: int, names=None):
        if nvars < 1:
            raise UsageError("ring needs at least one variable")
        self.field = field
        self.nvars = nvars
        self.layout = grevlex_layout(nvars)
        self.names = tuple(names) if names is not None else default_names(nvars)
        if len(self.names) != nvars:
            raise UsageError(f"expected {nvars} variable names, got {len(self.names)}")
        bad = next((x for x in self.names if not (isinstance(x, str) and x.isidentifier())), None)
        if bad is not None:
            raise UsageError(f"variable name {bad!r} is not an identifier")
        repeated = next((x for i, x in enumerate(self.names) if x in self.names[:i]), None)
        if repeated is not None:
            raise UsageError(f"variable name {repeated!r} is repeated")
        self._zero_exps = (0,) * nvars
        self._units = tuple(tuple(int(j == i) for j in range(nvars)) for i in range(nvars))

    def __eq__(self, other):
        return (
            isinstance(other, Ring)
            and self.field == other.field
            and self.nvars == other.nvars
            and self.names == other.names
        )

    def __hash__(self):
        return hash((self.field, self.nvars, self.names))

    def __repr__(self):
        return f"{self.field}[{', '.join(self.names)}]"

    def from_dict(self, coeffs: dict) -> "Polynomial":
        """Build a polynomial from {exponent tuple: coefficient}.  This
        is where zero coefficients are dropped, for the arithmetic too."""
        pack = self.layout.pack
        terms = []
        for exps, c in coeffs.items():
            if len(exps) != self.nvars:
                raise UsageError(f"exponent arity {len(exps)} in a {self.nvars}-variable ring")
            if c != self.field.zero:
                terms.append((tuple(exps), c))
        terms.sort(key=lambda t: pack(t[0]), reverse=True)
        return Polynomial(self, tuple(terms))

    @property
    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    @property
    def one(self) -> "Polynomial":
        return Polynomial(self, ((self._zero_exps, self.field.one),))

    def constant(self, c) -> "Polynomial":
        c = self.field.from_int(c) if isinstance(c, int) else c
        if c == self.field.zero:
            return self.zero
        return Polynomial(self, ((self._zero_exps, c),))

    def gen(self, i: int) -> "Polynomial":
        if not 0 <= i < self.nvars:
            raise UsageError(f"no variable with index {i}")
        return Polynomial(self, ((self._units[i], self.field.one),))

    def gens(self):
        return tuple(self.gen(i) for i in range(self.nvars))

    def linear(self, coeffs) -> "Polynomial":
        """The form sum(coeffs[i] * x_i).  Grevlex puts x_1 > ... > x_n
        on degree-1 monomials, so index order is already term order."""
        coeffs = tuple(coeffs)
        if len(coeffs) != self.nvars:
            raise UsageError(f"expected {self.nvars} coefficients, got {len(coeffs)}")
        zero = self.field.zero
        return Polynomial(self, tuple((u, c) for u, c in zip(self._units, coeffs) if c != zero))


class Polynomial:
    """Immutable polynomial: terms sorted descending under grevlex."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms):
        self.ring = ring
        self.terms = terms

    # -- inspection ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def lt(self):
        """Leading (exponents, coefficient) pair."""
        if not self.terms:
            raise UsageError("zero polynomial has no leading term")
        return self.terms[0]

    def lm(self):
        return self.lt()[0]

    def lc(self):
        return self.lt()[1]

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e, _ in self.terms)

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise UsageError("polynomials live in different rings")
            return other
        if isinstance(other, int):
            return self.ring.constant(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        f = self.ring.field
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = f.add(acc.get(e, f.zero), c)
        return self.ring.from_dict(acc)

    __radd__ = __add__

    def __neg__(self):
        f = self.ring.field
        return Polynomial(self.ring, tuple((e, f.neg(c)) for e, c in self.terms))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        f = self.ring.field
        zero = f.zero
        acc: dict = {}
        for ea, ca in self.terms:
            for eb, cb in other.terms:
                e = mono_mul(ea, eb)
                acc[e] = f.add(acc.get(e, zero), f.mul(ca, cb))
        return self.ring.from_dict(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise UsageError("negative polynomial power")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    # -- identity ------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return self == self.ring.constant(other)
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.terms))

    def __repr__(self):
        if not self.terms:
            return "0"
        names = self.ring.names
        out = []
        for e, c in self.terms:
            factors = []
            for i, p in enumerate(e):
                if p == 1:
                    factors.append(names[i])
                elif p > 1:
                    factors.append(f"{names[i]}^{p}")
            mono = "*".join(factors)
            cs = str(c)
            neg = cs.startswith("-")
            if neg:
                cs = cs[1:]
            body = cs if not mono else (mono if cs == "1" else f"{cs}*{mono}")
            if not out:
                out.append(("-" if neg else "") + body)
            else:
                out.append(("- " if neg else "+ ") + body)
        return " ".join(out)


class ProductOfForms:
    """Expansion of a product of linear forms, each a coefficient row
    over one field.

    A repeated factor is multiplied in again, so it expands as a power.
    """

    __slots__ = ("field", "factors")

    def __init__(self, field: Field, factors):
        self.field = field
        self.factors = tuple(factors)

    def expand(self, ring: Ring) -> Polynomial:
        if ring.field != self.field:
            raise UsageError("ring field does not match the forms' field")
        result = ring.one
        for row in self.factors:
            result = result * ring.linear(row)
        return result
