"""The three subset enumerations that the one enumeration of flats
replaced, kept as test references: genericity as the first dependent
s-subset, the minimal primes as the inclusion-minimal spans of
subarrangements of at most j+1 forms, and the minimum distance as the
largest support of a span of fewer than rank forms.  Span membership
is a rank test here, independent of the union of subsets that
``Arrangement._flats`` reads each support from.  The spans and their
supports are computed once per arrangement, by ``reference_spans``,
and the other two references filter them."""

from itertools import combinations

from starconfig.arrangements import LinearPrime, matrix_rank


def s_generic_witness_reference(arr, s):
    """Labels of the lexicographically first dependent s-subset, or None."""
    if s > arr.n:
        return None
    for subset in combinations(arr.labels, s):
        if matrix_rank(arr.field, [arr.form(i) for i in subset]) < s:
            return subset
    return None


def _in_span(p, rows):
    """Do the rows lie in the span of the prime p?"""
    return matrix_rank(p.field, p.rows + tuple(rows)) == p.height


def _support(arr, prime):
    return tuple(i for i, row in enumerate(arr.forms, 1) if _in_span(prime, (row,)))


def reference_spans(arr):
    """The span of every subarrangement of at most rank forms, once
    each, with its support found by one rank test per form.  A span of
    height h is spanned by h of its forms, so the spans of at most j+1
    forms are the spans of height at most j+1."""
    spans = {}
    for size in range(1, arr.rank() + 1):
        for subset in combinations(arr.forms, size):
            prime = LinearPrime(arr.field, subset)
            if prime.rows not in spans:
                prime.support = _support(arr, prime)
                spans[prime.rows] = prime
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
