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
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm, prod

from .errors import DegenerateInputError, GenerationError, UsageError
from .fields import DEFAULT_PRIME, GF, Field, PrimeField, RationalField
from .groebner import Ideal, intersect
from .polynomials import Polynomial, ProductOfForms, Ring, packed_product

# Most subsets of forms that the flat enumeration may visit, at about
# 15,000 a second over GF(32003) and 7,000 over QQ (the 2,509 subsets of
# 12 forms of rank 7 in 0.11-0.20 s and 0.25-0.49 s).  Every shape in
# the tests and the benchmark needs under 10,000 subsets; 16 forms of
# rank 10 need 50,642.
MAX_FLAT_SUBSETS = 100_000

# Most minors that the genericity test may expand; past it that test
# leaves the verdict to the flats.  Generic input needs C(n, rank) - 1
# minors and no subsets: 3,002 for 14 forms of rank 8, and 167,959 for 20
# forms of rank 11, whose flats would need 616,665 subsets.  Minors run at
# about 500,000 a second over GF(32003) (48,619 for 18 forms of rank 9 in
# 0.07-0.1 s) and 400,000 a second over QQ with one-digit input (those
# 167,959 in 0.3-0.5 s and 10 MiB), so the limit stays within about 1.5 s.
MAX_MINORS = 500_000

# Most terms that one expanded product of forms may have, bounded before
# expanding.  The bound for 9 general forms in 11 variables, 92,378
# terms, takes 3 s to expand over GF(32003) and 9 s over QQ; the largest
# product in the benchmark bounds 495.
MAX_PRODUCT_TERMS = 250_000

_ZERO = Fraction(0)

# the minors verdict of an arrangement that has not asked for it yet
_UNDECIDED = object()


def _integer_rows(field: Field, rows):
    """The modulus of the rows' arithmetic, the rows as lists of ints
    and the scale of each: p, the residues and scales 1 over GF(p);
    over QQ, 0 and each row times its scale, the lcm of its
    denominators.  A nonzero scale per row keeps every row space and
    every vanishing minor."""
    p = field.characteristic
    if p:
        return p, [[v % p for v in row] for row in rows], [1] * len(rows)
    scaled, scales = [], []
    for row in rows:
        ratios = [v.as_integer_ratio() for v in row]
        scale = lcm(*(d for _, d in ratios))
        scaled.append([n * (scale // d) for n, d in ratios])
        scales.append(scale)
    return 0, scaled, scales


def rref(field: Field, rows):
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    The elimination runs on ints in both fields, by ``_echelon``, and
    Fractions appear once, at the end, when each pivot row over QQ is
    divided by its pivot.  Reduced echelon form is unique, so the
    result does not depend on the scaling, and its entries are field
    elements: residues or Fractions.
    """
    p, work, _ = _integer_rows(field, rows)
    rows, pivots = _echelon(p, work)
    return _field_rows(p, rows, pivots), pivots


def _echelon(p, work):
    """The reduced echelon form of int rows, which it consumes, as
    (nonzero rows, pivot columns), both tuples: monic residue rows over
    GF(p), and over QQ (p = 0) each row of the reduced echelon form
    scaled to a primitive integer row with a positive pivot.  Either is
    unique to the row space.

    Over GF(p) each pivot row is made monic with one inverse; it is
    zero before its pivot column, so the rows it clears change only
    from there on.  Over QQ it is fraction-free: a row is cleared by
    cross-multiplying with the pivot row, each by the other's
    pivot-column entry over their gcd, and then divided by its content,
    so the entries stay as small as the row space allows (Bareiss, Math.
    Comp. 22, 1968).
    """
    m = len(work)
    ncols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        for pr in range(r, m):
            if work[pr][c]:
                break
        else:
            continue
        work[r], work[pr] = work[pr], work[r]
        top = work[r]
        if p:
            inv = pow(top[c], -1, p)
            tail = top[c:] = [v * inv % p for v in top[c:]]
            for i in range(m):
                f = work[i][c]
                if f and i != r:
                    row = work[i]
                    row[c:] = [(a - f * b) % p for a, b in zip(row[c:], tail)]
        else:
            content = gcd(*top)
            if content != 1:
                work[r] = top = [v // content for v in top]
            for i in range(m):
                f = work[i][c]
                if f and i != r:
                    g = gcd(top[c], f)
                    x, y = top[c] // g, f // g
                    row = [x * a - y * b for a, b in zip(work[i], top)]
                    content = gcd(*row)
                    work[i] = [v // content for v in row] if content > 1 else row
        pivots.append(c)
        r += 1
    if p:
        return tuple(map(tuple, work[:r])), tuple(pivots)
    return tuple(
        tuple(row) if row[c] > 0 else tuple([-v for v in row]) for row, c in zip(work, pivots)
    ), tuple(pivots)


def _field_rows(p, rows, pivots):
    """Echelon rows from ``_echelon`` as field elements: the residues
    over GF(p), and over QQ each row divided by its pivot."""
    if p:
        return rows
    return tuple(
        tuple([Fraction(v, row[c]) if v else _ZERO for v in row]) for row, c in zip(rows, pivots)
    )


def _all_minors_nonzero(field: Field, block) -> bool:
    """Whether every square submatrix of block is nonsingular.  Each
    s x s minor is a Laplace expansion along its first row over the
    (s-1) x (s-1) minors of its other rows, kept from the round before,
    so nested minors share their work and nothing is divided; the first
    zero minor ends the search.  The minors are taken on ints: residues
    reduced once per minor over GF(p), and over QQ the rows scaled to
    integers, which multiplies each minor by the nonzero scales of its
    rows and so leaves every zero a zero and every nonzero minor
    nonzero."""
    p, block, _ = _integer_rows(field, block)
    ncols = len(block[0]) if block else 0
    below = {(): {(): 1}}  # rows -> cols -> minor, one size down
    for s in range(1, min(len(block), ncols) + 1):
        # each column set's Laplace terms, (column, the other columns),
        # split by sign and shared by every set of rows
        expansions = []
        for cols in combinations(range(ncols), s):
            terms = [(c, cols[:t] + cols[t + 1:]) for t, c in enumerate(cols)]
            expansions.append((cols, terms[::2], terms[1::2]))
        minors = {}
        for rows in combinations(range(len(block)), s):
            first, rest = block[rows[0]], below[rows[1:]]
            dets = minors[rows] = {}
            for cols, plus, minus in expansions:
                det = sum([first[c] * rest[sub] for c, sub in plus])
                det -= sum([first[c] * rest[sub] for c, sub in minus])
                if p:
                    det %= p
                if not det:
                    return False
                dets[cols] = det
        below = minors
    return True


class LinearPrime:
    """A prime ideal generated by linear forms, stored as an echelon basis.

    The echelon rows are a reduced Groebner basis of the ideal, so the
    height is just the number of rows.  They are kept as ``_echelon``
    gives them, on ints, and turned into field elements on first read
    of ``rows``.
    """

    __slots__ = ("field", "support", "_echelon", "_rows")

    def __init__(self, field: Field, rows, support=()):
        p, work, _ = _integer_rows(field, rows)
        self._init(field, _echelon(p, work), support)

    @classmethod
    def of_echelon(cls, field: Field, echelon, support=()):
        """The prime whose integer echelon rows and pivots, as
        ``_echelon`` returns them, are echelon."""
        prime = cls.__new__(cls)
        prime._init(field, echelon, support)
        return prime

    def _init(self, field, echelon, support):
        self.field = field
        self.support = tuple(support)
        self._echelon = echelon
        self._rows = None

    @property
    def rows(self):
        """The reduced echelon rows, as field elements."""
        if self._rows is None:
            self._rows = _field_rows(self.field.characteristic, *self._echelon)
        return self._rows

    @property
    def height(self) -> int:
        return len(self._echelon[1])

    def gens_in(self, ring: Ring):
        """The reduced echelon rows as linear forms of the ring, born
        packed from the integer rows by ``packed_product``: each row
        over its pivot, which is 1 over GF(p) and positive over QQ."""
        return tuple(packed_product(ring, [row], row[c]) for row, c in zip(*self._echelon))

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
        self._top = None
        self._adapted = None
        self._generic = _UNDECIDED
        self._flat_cache = None
        self._integer_forms = None

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
        return self._top_flat().height

    def _top_flat(self) -> LinearPrime:
        """The span of all forms, the top flat, whose height is the rank;
        one elimination, built once."""
        if self._top is None:
            echelon = self._echelon_of(self.labels)
            self._top = LinearPrime.of_echelon(self.field, echelon, self.labels)
        return self._top

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
        coordinates.  Built once and cached; an adapted arrangement is
        its own: its basis forms are unit rows already, in label order,
        so the rref would return its own rows.
        """
        if self._adapted is None:
            rows, _ = rref(self.field, list(zip(*reversed(self.forms))))
            adapted = Arrangement(
                self.field,
                [[row[self.n - label] for row in reversed(rows)] for label in self.labels],
            )
            self._adapted = adapted._adapted = adapted
        return self._adapted

    def _in_general_position(self):
        """Whether the minors show every rank forms independent; cached.

        In adapted coordinates the last rank forms are the unit rows
        when they are independent.  Then a set of rank forms is a basis
        exactly when the minor of the other rows that it takes, on the
        columns of the unit rows that it leaves out, is nonzero, so
        every rank forms are independent exactly when every square
        submatrix of the first n - rank rows is nonsingular: the MDS
        criterion for a generator matrix [I | A] (MacWilliams & Sloane,
        The Theory of Error-Correcting Codes, ch. 11, Thm 8).  That is
        C(n, rank) - 1 minors.  When the last rank forms are dependent,
        a basis form is among the first rows, and the zeros of its unit
        row are vanishing minors.  So the answer is True when every
        minor is nonzero and False when one vanishes, both exact; it is
        None when there are more than MAX_MINORS of them.  Past False
        and None the queries ask the flats.
        """
        if self._generic is _UNDECIDED:
            r = self.rank()
            if comb(self.n, r) - 1 > MAX_MINORS:
                self._generic = None
            else:
                self._generic = _all_minors_nonzero(self.field, self.adapted().forms[: self.n - r])
        return self._generic

    def _flats(self):
        """Every nonzero flat, as a LinearPrime whose support is the
        labels of the forms in its span, for what the minors and j = 0
        leave open: input that the minors do not show generic.  A
        proper flat of height h is spanned by h of its forms, so one
        echelon form per subset of at most rank-1 labels, taken on the
        forms' integer rows and deduplicated by them, finds them all;
        the span of all forms comes last.  A flat's support is the
        union of the subsets whose echelon rows are its own, and that is
        exact: every form of a subset lies in its span, and a form i of
        a flat F of height h < rank extends to a basis of F of h forms,
        a subset the enumeration visits, whose reduced echelon rows are
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
            # integer echelon rows -> (their pivots, union of subsets):
            # ints hash fast, and a flat's Fractions wait for its rows
            spans = {}
            for size in range(1, self.rank()):
                for subset in combinations(self.labels, size):
                    rows, pivots = self._echelon_of(subset)
                    spans.setdefault(rows, (pivots, set()))[1].update(subset)
            flats = [
                LinearPrime.of_echelon(self.field, (rows, pivots), sorted(support))
                for rows, (pivots, support) in spans.items()
            ]
            self._flat_cache = (*flats, self._top_flat())
        return self._flat_cache

    def s_generic_witness(self, s: int):
        """None if any s forms are independent, else the labels of the
        first dependent s-subset in lexicographic order.  Past the rank
        every s forms are dependent, so the witness is (1, ..., s), or
        None when there are fewer than s forms.  Up to the rank the
        minors answer None when they show every rank forms independent,
        since then so are any fewer.  Otherwise the witness is the least
        first s labels of a flat with height < s <= |support|: any
        dependent s-subset spans such a flat, whose first s labels are
        dependent and come no later."""
        if s < 1:
            raise UsageError("genericity level must be positive")
        if s > self.rank():
            return tuple(range(1, s + 1)) if s <= self.n else None
        if self._in_general_position():
            return None
        witnesses = (p.support[:s] for p in self._flats() if p.height < s <= len(p.support))
        return min(witnesses, default=None)

    def is_s_generic(self, s: int) -> bool:
        """Whether any s forms are independent.  At the rank a vanishing
        minor answers False with no flats, since it shows some rank
        forms dependent; otherwise this asks ``s_generic_witness``."""
        if s == self.rank() and self._in_general_position() is False:
            return False
        return self.s_generic_witness(s) is None

    def _integer(self):
        """``_integer_rows`` of the forms, built once: the modulus, the
        rows as lists of ints and their scales."""
        if self._integer_forms is None:
            self._integer_forms = _integer_rows(self.field, self.forms)
        return self._integer_forms

    def _echelon_of(self, labels):
        """``_echelon`` of the forms with these labels, on their integer
        rows."""
        q, forms, _ = self._integer()
        return _echelon(q, [list(forms[i - 1]) for i in labels])

    def _refuse_large_product(self, labels, rows):
        """A form with one nonzero coefficient only shifts exponents,
        so m other factors in k variables give at most
        C(m + k - 1, k - 1) terms; past MAX_PRODUCT_TERMS that bound
        is refused before expanding.  rows are the factors' rows, of
        field elements or of ints."""
        m = sum(len(row) - row.count(0) > 1 for row in rows)
        bound = comb(m + self.nvars - 1, self.nvars - 1)
        if bound > MAX_PRODUCT_TERMS:
            raise UsageError(
                f"the product of forms {list(labels)} may have {bound} terms, "
                f"past the limit of {MAX_PRODUCT_TERMS}"
            )

    def product(self, labels) -> Polynomial:
        """The expanded product of the forms with these labels; a
        repeated label gives a power of its form.  Its terms are
        multiplied out as tuples by ``ProductOfForms``; past
        MAX_PRODUCT_TERMS the bound on them is refused before
        expanding."""
        rows = [self.form(i) for i in labels]
        self._refuse_large_product(labels, rows)
        return ProductOfForms(self.field, rows).expand(self.ring)

    def packed_product(self, labels) -> Polynomial:
        """The same polynomial as ``product(labels)``, born packed: the
        forms' integer rows, kept from the first call, are multiplied
        by the packed kernel ``polynomials.packed_product``, divided
        over QQ by the product of their scales.  Refused past
        MAX_PRODUCT_TERMS as ``product`` is."""
        for i in labels:
            self.form(i)  # refuses a label outside 1..n
        _, forms, scales = self._integer()
        rows = [forms[i - 1] for i in labels]
        self._refuse_large_product(labels, rows)
        return packed_product(self.ring, rows, prod([scales[i - 1] for i in labels]))

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
        sorted by height and support.  At j = 0 they are the n forms,
        in label order: forms are pairwise non-proportional, so each
        one's span holds no other.  When every rank forms are
        independent, a subset of fewer than rank forms spans a flat
        that holds no other form, so they are the spans of the
        (j+1)-subsets in lexicographic order, or only the span of all
        forms once j+1 >= rank.  Otherwise the flats are compared as
        support bitmasks.
        """
        self._check_j(j)
        if j == 0 or (j + 1 < self.rank() and self._in_general_position()):
            return tuple(
                LinearPrime.of_echelon(self.field, self._echelon_of(subset), subset)
                for subset in combinations(self.labels, j + 1)
            )
        if self._in_general_position():
            return (self._top_flat(),)
        flats = [p for p in self._flats() if len(p.support) > j]
        masks = [sum(1 << i for i in p.support) for p in flats]
        minimal = [
            p for p, m in zip(flats, masks) if not any(q != m and q & ~m == 0 for q in masks)
        ]
        return tuple(sorted(minimal, key=lambda p: (p.height, p.support)))

    def height_afold(self, j: int) -> int:
        """Height of the ideal of (n-j)-fold products: the least height
        of a flat with support at least j+1, which a minimal one has.
        That is 1 at j = 0, and min(j+1, rank) when every rank forms
        are independent, by the minimal primes above."""
        self._check_j(j)
        if j == 0:
            return 1
        if self._in_general_position():
            return min(j + 1, self.rank())
        return min(p.height for p in self._flats() if len(p.support) > j)

    def combinatorial_radical(self, j: int) -> Ideal:
        """Radical of the (n-j)-fold product ideal as an intersection of
        its minimal primes, computed by elimination.

        The primes are intersected as a balanced tree in their sorted
        order: each round intersects neighbours two at a time and
        carries an odd one over, so every elimination joins two ideals
        of similar size.  That is N-1 intersections for N primes, as a
        left fold would take, but none of them pits one ever-growing
        ideal against a single prime.  Linear primes, and every
        intersection of them, have homogeneous generators, so each
        elimination needs no homogenizing variable and meets its
        S-pairs in degree order.
        The result is the reduced grevlex basis of the intersection,
        which does not depend on how the intersections are grouped.
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
        rank.  When every rank forms are independent that support is
        rank - 1, and the distance n - rank + 1 meets the Singleton
        bound."""
        r = self.rank()
        if self._in_general_position():
            return self.n - r + 1
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
