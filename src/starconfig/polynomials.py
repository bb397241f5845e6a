"""Multivariate polynomials with exact coefficients.

A Ring fixes the coefficient field, the number of variables and
display names; every ring orders its monomials by grevlex.  Polynomials
are immutable and have two faces.  Their terms are a tuple of
(exponent tuple, coefficient) pairs sorted descending under grevlex,
with no zero coefficients, which printing, comparison and the
arithmetic operators read.  Their packing is the same terms as packed
ints of the ring's grevlex layout (see ``orders``), descending, with
int coefficients over one positive common denominator: residues and 1
over GF(p), integers over QQ.  The Groebner core reads the packing.  A
polynomial built from terms is packed on first use, and one born
packed, as ``packed_product``, ``Ring.sum`` and the Groebner core make
them, builds its terms on first read; each face is built at most once.

A linear form is a row of coefficients, and ``Ring.linear`` is the
place where a row of field elements becomes a Polynomial.  Products of
rows are expanded two ways: ``ProductOfForms`` multiplies polynomials
in tuple terms, and ``packed_product`` multiplies integer rows straight
into packed terms.  A product itself is named by its labels, not
stored.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import UsageError
from .fields import Field
from .orders import DEGREE_LIMIT, degree_error, grevlex_layout, mono_mul


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
        return other is self or (
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

    def sum(self, polys) -> "Polynomial":
        """The sum of polynomials of this ring, added in one dict of
        packed terms over one common denominator, the lcm of theirs;
        born packed."""
        packings = []
        for f in polys:
            if f.ring != self:
                raise UsageError("polynomials live in different rings")
            packings.append(f.packed())
        den = lcm(*[d for _, d in packings])
        acc: dict = {}
        get = acc.get
        for terms, d in packings:
            scale = den // d
            for m, c in terms:
                acc[m] = get(m, 0) + c * scale
        return _born(self, acc, den)

    def linear(self, coeffs) -> "Polynomial":
        """The form sum(coeffs[i] * x_i).  Grevlex puts x_1 > ... > x_n
        on degree-1 monomials, so index order is already term order."""
        coeffs = tuple(coeffs)
        if len(coeffs) != self.nvars:
            raise UsageError(f"expected {self.nvars} coefficients, got {len(coeffs)}")
        zero = self.field.zero
        return Polynomial(self, tuple((u, c) for u, c in zip(self._units, coeffs) if c != zero))


def _born(ring: Ring, acc: dict, den: int) -> "Polynomial":
    """The polynomial of {packed monomial: int coefficient} divided by
    den, born packed: coefficients reduced mod p over GF(p), where den
    is 1, and over QQ divided with den by their common factor with it,
    so that the packing is the one its terms would give."""
    p = ring.field.characteristic
    if p:
        terms = [(m, c % p) for m, c in sorted(acc.items(), reverse=True) if c % p]
    else:
        terms = [(m, c) for m, c in sorted(acc.items(), reverse=True) if c]
        g = gcd(den, *[c for _, c in terms])
        if g != 1:
            den //= g
            terms = [(m, c // g) for m, c in terms]
    return Polynomial(ring, None, (terms, den))


def packed_product(ring: Ring, rows, den: int = 1) -> "Polynomial":
    """The product of the linear forms with these int coefficient rows,
    divided by den, born packed in the ring's layout: over GF(p) the
    rows are residues and den is 1, over QQ they are integer rows and
    den a positive int, such as the product of the scales that made
    them integers.

    A row with a single nonzero coefficient c at x_i, as every basis
    form is in adapted coordinates, is no multiplication: it adds x_i's
    unit to the packed monomial and multiplies the scalar by c.  Those
    rows make the one-term product that the expansion starts from, and
    each other row is multiplied into one dict of packed terms; a
    product of monomials is the sum of their packed ints.  Coefficients
    are reduced mod p once per row over GF(p).  A product of degree
    DEGREE_LIMIT or more does not fit and raises ``UsageError``.
    """
    p = ring.field.characteristic
    if len(rows) >= DEGREE_LIMIT:
        raise degree_error(len(rows))
    units = ring.layout.units
    shift, scalar = 0, 1
    dense = []
    for row in rows:
        factor = [(u, c) for u, c in zip(units, row) if c]
        if len(factor) == 1:
            (u, c), = factor
            shift += u
            scalar *= c
        else:
            dense.append(factor)
    acc = {shift: scalar}
    for factor in dense:
        out: dict = {}
        get = out.get
        for m, c in acc.items():
            for u, v in factor:
                mu = m + u
                out[mu] = get(mu, 0) + c * v
        acc = {m: c % p for m, c in out.items()} if p else out
    return _born(ring, acc, den)


class Polynomial:
    """Immutable polynomial, read as terms sorted descending under
    grevlex or as its packing in its ring's layout.

    _terms and _packed hold the two faces, each None until it is built
    from the other; at least one of them is set.  _packed is a pair:
    the packed terms, descending, with nonzero int coefficients, and
    the positive int they are divided by.  Callers must not mutate it.
    """

    __slots__ = ("ring", "_terms", "_packed")

    def __init__(self, ring: Ring, terms, packed=None):
        self.ring = ring
        self._terms = terms
        self._packed = packed

    @property
    def terms(self):
        """(exponent tuple, coefficient) pairs, descending; for a
        polynomial born packed, unpacked on first read."""
        terms = self._terms
        if terms is None:
            packed, den = self._packed
            unpack = self.ring.layout.unpack
            if self.ring.field.characteristic:
                terms = tuple([(unpack(m), c) for m, c in packed])
            else:
                terms = tuple([(unpack(m), Fraction(c, den)) for m, c in packed])
            self._terms = terms
        return terms

    def packed(self):
        """The pair (packed terms, den) in the ring's layout: the terms
        descending, with int coefficients that are den times the
        polynomial's, and den positive: 1 over GF(p), the lcm of the
        denominators over QQ when packed from terms.  Built once."""
        if self._packed is None:
            pack = self.ring.layout.pack
            if self.ring.field.characteristic:
                self._packed = [(pack(e), c) for e, c in self._terms], 1
            else:
                den = lcm(*[c.denominator for _, c in self._terms])
                self._packed = (
                    [(pack(e), c.numerator * (den // c.denominator)) for e, c in self._terms],
                    den,
                )
        return self._packed

    # -- inspection ----------------------------------------------------

    def is_zero(self) -> bool:
        if self._terms is None:
            return not self._packed[0]
        return not self._terms

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
    A row with a single nonzero coefficient c at x_i, as every basis
    form is in adapted coordinates, is no multiplication: it adds 1 to
    the exponent of x_i and multiplies the scalar by c.  Those rows make
    the one-term product that the expansion starts from, and only the
    other rows are multiplied into it.
    """

    __slots__ = ("field", "factors")

    def __init__(self, field: Field, factors):
        self.field = field
        self.factors = tuple(factors)

    def expand(self, ring: Ring) -> Polynomial:
        if ring.field != self.field:
            raise UsageError("ring field does not match the forms' field")
        field = self.field
        exps, scalar = ring._zero_exps, field.one
        dense = []
        for row in self.factors:
            form = ring.linear(row)
            if len(form.terms) == 1:
                (e, c), = form.terms
                exps, scalar = mono_mul(exps, e), field.mul(scalar, c)
            else:
                dense.append(form)
        result = Polynomial(ring, ((exps, scalar),))
        for form in dense:
            result = result * form
        return result
