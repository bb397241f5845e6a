"""Arrangements of linear forms and the ideals of their a-fold products.

An arrangement is an ordered list of pairwise distinct linear forms,
labelled 1..n.  Each form is its coefficient row, scaled so that its
first nonzero entry is 1, and its label is its position plus one.  The
ideal generated by all products of a distinct forms has purely
combinatorial primary structure: its minimal primes are spans of
subarrangements, which this module enumerates directly instead of
factoring anything.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

from .errors import DegenerateInputError, GenerationError, UsageError
from .fields import DEFAULT_PRIME, GF, Field, PrimeField, RationalField
from .groebner import Ideal, intersect
from .polynomials import Polynomial, ProductOfForms, Ring

# Most subsets of forms that the flat enumeration may visit, at a few
# thousand per second.  Every shape in the tests and the benchmark needs
# under 10,000; 16 forms of rank 10 need 50,642.
MAX_FLAT_SUBSETS = 100_000

# Most terms that one expanded product of forms may have, bounded before
# expanding.  The bound for 9 general forms in 11 variables, 92,378
# terms, takes 3 s to expand over GF(32003) and 9 s over QQ; the largest
# product in the benchmark bounds 495.
MAX_PRODUCT_TERMS = 250_000


def rref(field: Field, rows):
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    work = [list(r) for r in rows]
    m = len(work)
    ncols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        pr = next((i for i in range(r, m) if work[i][c] != field.zero), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = field.inv(work[r][c])
        work[r] = [field.mul(inv, v) for v in work[r]]
        for i in range(m):
            if i != r and work[i][c] != field.zero:
                f = work[i][c]
                work[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def matrix_rank(field: Field, rows) -> int:
    return len(rref(field, rows)[1])


class LinearPrime:
    """A prime ideal generated by linear forms, stored as an echelon basis.

    The echelon rows are a reduced Groebner basis of the ideal, so the
    height is just the number of rows.
    """

    __slots__ = ("field", "rows", "support")

    def __init__(self, field: Field, rows, support=()):
        self.field = field
        self.rows = rref(field, rows)[0]
        self.support = tuple(support)

    @property
    def height(self) -> int:
        return len(self.rows)

    def gens_in(self, ring: Ring):
        return tuple(ring.linear(row) for row in self.rows)

    def ideal_in(self, ring: Ring) -> Ideal:
        return Ideal(ring, self.gens_in(ring))

    def __repr__(self):
        return f"LinearPrime(height={self.height}, support={list(self.support)})"


class Arrangement:
    """Ordered, pairwise distinct linear forms labelled 1..n, each
    stored as its coefficient row with first nonzero entry 1."""

    def __init__(self, field: Field, rows, names=None):
        rows = [tuple(r) for r in rows]
        if not rows:
            raise DegenerateInputError("an arrangement needs at least one form")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise UsageError("all forms must have the same number of coefficients")

        def normalize(row):
            row = tuple(field.from_int(c) if isinstance(c, int) else c for c in row)
            lead = next((c for c in row if c != field.zero), None)
            if lead is None:
                raise DegenerateInputError("zero vector is not a linear form")
            if lead == field.one:
                return row
            inv = field.inv(lead)
            return tuple(field.mul(inv, c) for c in row)

        self.field = field
        self.nvars = width
        self.forms = tuple(normalize(row) for row in rows)
        seen = {}
        for label, row in enumerate(self.forms, 1):
            if row in seen:
                raise DegenerateInputError(f"forms {seen[row]} and {label} are proportional")
            seen[row] = label
        self.ring = Ring(field, width, names=names)
        self._rank = None
        self._flat_cache = None

    @property
    def n(self) -> int:
        return len(self.forms)

    @property
    def labels(self):
        return tuple(range(1, self.n + 1))

    def form(self, label: int):
        """The coefficient row of the form with this label."""
        if not 1 <= label <= self.n:
            raise UsageError(f"no form with label {label}")
        return self.forms[label - 1]

    def rank(self) -> int:
        if self._rank is None:
            self._rank = matrix_rank(self.field, self.forms)
        return self._rank

    def adapted(self) -> "Arrangement":
        """The same forms, labels and field, in coordinates where a
        basis of the forms are the variables.

        The basis is chosen greedily from the last form backwards, so
        on a generic arrangement it is the last rank forms, and the
        tail product shares their variables.  Basis form i, in label
        order, becomes the variable x_i, and every form is rewritten as
        its coefficients in the basis, so a basis form's row is a unit
        row.  Both come from one rref of the forms written as columns,
        last form first: the pivot columns are the greedy basis, and
        row operations keep every linear relation among columns, so
        each column holds its form's coefficients in that basis, one
        row per basis form, last form first.  A linear change of
        variables is a graded ring automorphism, and a rank below the
        number of variables leaves the forms in a polynomial subring,
        so radical membership, heights and the supports of flats, and
        with them every statement made in labels, are the same in both
        coordinates.
        """
        rows, _ = rref(self.field, list(zip(*reversed(self.forms))))
        return Arrangement(
            self.field, [[row[self.n - label] for row in reversed(rows)] for label in self.labels]
        )

    def _flats(self):
        """Every nonzero flat, as a LinearPrime whose support is the
        labels of the forms in its span.  A proper flat of height h is
        spanned by h of its forms, so one rref per subset of at most
        rank-1 labels, deduplicated by echelon rows, finds them all; the
        span of all forms comes last.  A flat's support is the union of
        the subsets whose echelon rows are its own, and that is exact:
        every form of a subset lies in its span, and a form i of a flat
        F of height h < rank extends to a basis of F of h forms, a
        subset the enumeration visits, whose reduced echelon rows are
        F's.  A flat is the span of its support, so F lies in G exactly
        when supp F lies in supp G.  Past MAX_FLAT_SUBSETS subsets the
        enumeration is refused."""
        if self._flat_cache is None:
            count = sum(comb(self.n, size) for size in range(1, self.rank()))
            if count > MAX_FLAT_SUBSETS:
                raise UsageError(
                    f"the flats of {self.n} forms of rank {self.rank()} need {count} "
                    f"subsets of forms, past the limit of {MAX_FLAT_SUBSETS}"
                )
            spans = {}  # echelon rows -> (the first prime with them, union of subsets)
            for size in range(1, self.rank()):
                for subset in combinations(self.labels, size):
                    p = LinearPrime(self.field, [self.forms[i - 1] for i in subset])
                    spans.setdefault(p.rows, (p, set()))[1].update(subset)
            for p, support in spans.values():
                p.support = tuple(sorted(support))
            top = LinearPrime(self.field, self.forms, self.labels)
            self._flat_cache = (*(p for p, _ in spans.values()), top)
        return self._flat_cache

    def s_generic_witness(self, s: int):
        """None if any s forms are independent, else the labels of the
        first dependent s-subset in lexicographic order: the least first
        s labels of a flat with height < s <= |support|.  Any dependent
        s-subset spans such a flat, whose first s labels are dependent
        and come no later."""
        if s < 1:
            raise UsageError("genericity level must be positive")
        witnesses = (p.support[:s] for p in self._flats() if p.height < s <= len(p.support))
        return min(witnesses, default=None)

    def is_s_generic(self, s: int) -> bool:
        return self.s_generic_witness(s) is None

    def product(self, labels) -> Polynomial:
        """The expanded product of the forms with these labels; a
        repeated label gives a power of its form.  A form with one
        nonzero coefficient only shifts exponents, so m other factors
        in k variables give at most C(m + k - 1, k - 1) terms; past
        MAX_PRODUCT_TERMS that bound is refused before expanding."""
        rows = [self.form(i) for i in labels]
        m = sum(len(row) - row.count(self.field.zero) > 1 for row in rows)
        bound = comb(m + self.nvars - 1, self.nvars - 1)
        if bound > MAX_PRODUCT_TERMS:
            raise UsageError(
                f"the product of forms {list(labels)} may have {bound} terms, "
                f"past the limit of {MAX_PRODUCT_TERMS}"
            )
        return ProductOfForms(self.field, rows).expand(self.ring)

    def _check_a(self, a: int):
        if not 1 <= a <= self.n:
            raise UsageError(f"fold size must lie in 1..{self.n}, got {a}")

    def afold_ideal(self, a: int) -> Ideal:
        """The ideal of all products of a distinct forms, one generator
        per a-subset of the labels in lexicographic order."""
        self._check_a(a)
        return Ideal(self.ring, tuple(self.product(s) for s in combinations(self.labels, a)))

    def _check_j(self, j: int):
        if not 0 <= j <= self.n - 1:
            raise UsageError(f"codim parameter must lie in 0..{self.n - 1}, got {j}")

    def minimal_linear_primes(self, j: int):
        """Minimal primes over the ideal of (n-j)-fold products.

        A linear prime contains every (n-j)-fold product exactly when
        its span holds at least j+1 of the forms, so the minimal primes
        are the inclusion-minimal flats with support at least j+1,
        compared as support bitmasks.  No genericity is assumed.
        """
        self._check_j(j)
        flats = [p for p in self._flats() if len(p.support) > j]
        masks = [sum(1 << i for i in p.support) for p in flats]
        minimal = [
            p for p, m in zip(flats, masks) if not any(q != m and q & ~m == 0 for q in masks)
        ]
        return tuple(sorted(minimal, key=lambda p: (p.height, p.support)))

    def height_afold(self, j: int) -> int:
        """Height of the ideal of (n-j)-fold products: the least height
        of a flat with support at least j+1, which a minimal one has."""
        self._check_j(j)
        return min(p.height for p in self._flats() if len(p.support) > j)

    def combinatorial_radical(self, j: int) -> Ideal:
        """Radical of the (n-j)-fold product ideal as an intersection of
        its minimal primes, computed by elimination.

        The primes are intersected as a balanced tree in their sorted
        order: each round intersects neighbours two at a time and
        carries an odd one over, so every elimination joins two ideals
        of similar size.  That is N-1 intersections for N primes, as a
        left fold would take, but none of them pits one ever-growing
        ideal against a single prime.  The result is the reduced
        grevlex basis of the intersection, which does not depend on
        how the intersections are grouped.
        """
        level = [p.ideal_in(self.ring) for p in self.minimal_linear_primes(j)]
        while len(level) > 1:
            pairs = [intersect(a, b) for a, b in zip(level[::2], level[1::2])]
            if len(level) % 2:
                pairs.append(level[-1])
            level = pairs
        return level[0]

    def min_distance(self) -> int:
        """n minus the largest number of forms inside a proper subspace
        of the span: the largest support of a flat of height below the
        rank.  For a k-generic spanning arrangement this equals n - k + 1."""
        r = self.rank()
        return self.n - max((len(p.support) for p in self._flats() if p.height < r), default=0)

    def __repr__(self):
        return f"Arrangement({self.n} forms in {self.nvars} vars over {self.field})"


def random_generic_arrangement(k: int, n: int, field: Field = None, seed=None) -> Arrangement:
    """Random arrangement of n forms in k variables, any k independent.

    Rejection sampling; raises GenerationError when the field is too
    small to make success plausible or sampling keeps failing.
    """
    if k < 1 or n < k:
        raise UsageError("need 1 <= k <= n")
    if field is None:
        field = GF(DEFAULT_PRIME)
    if isinstance(field, PrimeField) and field.characteristic <= n:
        raise GenerationError(
            f"field GF({field.characteristic}) is too small for {n} distinct forms"
        )
    rng = random.Random(seed)

    def sample_row():
        if isinstance(field, RationalField):
            return tuple(field.from_int(rng.randint(-9, 9)) for _ in range(k))
        p = field.characteristic
        return tuple(field.from_int(rng.randrange(p)) for _ in range(k))

    for _ in range(200):
        rows = []
        for _ in range(n):
            row = sample_row()
            while all(c == field.zero for c in row):
                row = sample_row()
            rows.append(row)
        try:
            arr = Arrangement(field, rows)
        except DegenerateInputError:
            continue
        if arr.is_s_generic(k):
            return arr
    raise GenerationError(
        f"no {k}-generic arrangement of {n} forms over {field} after 200 attempts"
    )
