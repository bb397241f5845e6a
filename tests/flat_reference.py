"""The three subset enumerations that the one enumeration of flats
replaced, kept as test references: genericity as the first dependent
s-subset, the minimal primes as the inclusion-minimal spans of
subarrangements of at most j+1 forms, and the minimum distance as the
largest support of a span of fewer than rank forms.  Span membership
is Gaussian elimination here, a row reduced against echelon rows,
independent of the union of subsets that ``Arrangement._flats`` reads
each support from and of the minors.  The spans and their supports
are computed once per arrangement, by ``reference_spans``, and the
other two references filter them."""

from itertools import combinations

from starconfig.arrangements import LinearPrime


def _pivoted(field, rows):
    """Echelon rows, each paired with its first nonzero column."""
    return [(next(c for c, x in enumerate(e) if x != field.zero), e) for e in rows]


def _residue(field, echelon, row):
    """row minus its part in the span of the pivoted echelon rows, each
    of which is 1 at its pivot and 0 at the pivot of every row before
    it, as a reduced echelon basis is; zero iff row lies in the span."""
    v = list(row)
    for c, e in echelon:
        f = v[c]
        if f != field.zero:
            v = [field.sub(x, field.mul(f, y)) for x, y in zip(v, e)]
    return v


def s_generic_witness_reference(arr, s):
    """Labels of the lexicographically first dependent s-subset, or None.

    The s-subsets are walked in lexicographic order, depth first, and
    each prefix is reduced once for all of its extensions.  The first
    label that makes an independent prefix dependent, completed by the
    smallest labels after it, is the first dependent s-subset."""
    field = arr.field

    def search(prefix, echelon):
        need = s - len(prefix)
        for i in range(prefix[-1] + 1 if prefix else 1, arr.n - need + 2):
            v = _residue(field, echelon, arr.form(i))
            pivot = next((c for c, x in enumerate(v) if x != field.zero), None)
            if pivot is None:
                return prefix + tuple(range(i, i + need))
            if need > 1:
                inv = field.inv(v[pivot])
                row = [field.mul(inv, x) for x in v]
                found = search(prefix + (i,), echelon + [(pivot, row)])
                if found:
                    return found
        return None

    return search((), []) if 0 < s <= arr.n else None


def _spanned(p, rows):
    """For each row, whether it lies in the span of the prime p."""
    field = p.field
    echelon = _pivoted(field, p.rows)
    return [all(x == field.zero for x in _residue(field, echelon, row)) for row in rows]


def _in_span(p, rows):
    """Do the rows lie in the span of the prime p?"""
    return all(_spanned(p, rows))


def _support(arr, prime):
    return tuple(i for i, inside in enumerate(_spanned(prime, arr.forms), 1) if inside)


def reference_spans(arr):
    """The span of every subarrangement of at most rank forms, once
    each, with its support found by one membership test per form.  A
    span of height h is spanned by h of its forms, so the spans of at
    most j+1 forms are the spans of height at most j+1.

    Subsets come by size, and one inside the support of a span of
    height at most its size is skipped: if it is independent it spans
    that span, and if not its span is that of a smaller subset."""
    spans = {}
    covers = []
    for size in range(1, arr.rank() + 1):
        for subset in combinations(arr.labels, size):
            if any(h <= size and covered.issuperset(subset) for h, covered in covers):
                continue
            prime = LinearPrime(arr.field, [arr.form(i) for i in subset])
            if prime.rows not in spans:
                prime.support = _support(arr, prime)
                spans[prime.rows] = prime
                covers.append((prime.height, frozenset(prime.support)))
    return tuple(spans.values())


def minimal_linear_primes_reference(spans, j):
    """Inclusion-minimal spans of at most j+1 forms with support at
    least j+1, sorted by (height, support); containment is tested on
    the echelon rows."""
    candidates = [p for p in spans if p.height <= j + 1 and len(p.support) >= j + 1]
    minimal = [
        p
        for p in candidates
        if not any(q.height < p.height and _in_span(p, q.rows) for q in candidates)
    ]
    return tuple(sorted(minimal, key=lambda p: (p.height, p.support)))


def min_distance_reference(arr, spans):
    """n minus the largest support of a span of fewer than rank forms."""
    r = arr.rank()
    return arr.n - max((len(p.support) for p in spans if p.height < r), default=0)
