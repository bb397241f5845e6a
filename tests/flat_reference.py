"""The three subset enumerations that the one enumeration of flats
replaced, kept as test references: genericity as the first dependent
s-subset, the minimal primes as the inclusion-minimal spans of
subarrangements of at most j+1 forms, and the minimum distance as the
largest support of a span of fewer than rank forms.  Span membership
is a rank test here, so the references share no code with
``span_contains``."""

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


def minimal_linear_primes_reference(arr, j):
    """Inclusion-minimal spans with support at least j+1, sorted by
    (height, support); containment is tested on the echelon rows."""
    spans = {}
    for size in range(1, min(arr.rank(), j + 1) + 1):
        for subset in combinations(arr.forms, size):
            prime = LinearPrime(arr.field, subset)
            if prime.rows in spans:
                continue
            prime.support = _support(arr, prime)
            spans[prime.rows] = prime
    candidates = [p for p in spans.values() if len(p.support) >= j + 1]
    minimal = [
        p
        for p in candidates
        if not any(q.height < p.height and _in_span(p, q.rows) for q in candidates)
    ]
    return tuple(sorted(minimal, key=lambda p: (p.height, p.support)))


def min_distance_reference(arr):
    """n minus the largest support of a span of fewer than rank forms."""
    best = 0
    seen = set()
    for size in range(1, arr.rank()):
        for subset in combinations(arr.forms, size):
            prime = LinearPrime(arr.field, subset)
            if prime.rows in seen:
                continue
            seen.add(prime.rows)
            best = max(best, len(_support(arr, prime)))
    return arr.n - best
