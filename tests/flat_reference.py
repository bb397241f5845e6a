"""The three subset enumerations that the one enumeration of flats
replaced, kept as test references: genericity as the first dependent
s-subset, the minimal primes as the inclusion-minimal spans of
subarrangements of at most j+1 forms, and the minimum distance as the
largest support of a span of fewer than rank forms."""

from itertools import combinations

from starconfig.arrangements import LinearPrime, matrix_rank, span_contains


def s_generic_witness_reference(arr, s):
    """Labels of the lexicographically first dependent s-subset, or None."""
    if s > arr.n:
        return None
    for subset in combinations(arr.forms, s):
        if matrix_rank(arr.field, [g.coeffs for g in subset]) < s:
            return tuple(g.label for g in subset)
    return None


def _contains_span(p, q):
    return all(span_contains(p.field, p.rows, p.pivots, row) for row in q.rows)


def minimal_linear_primes_reference(arr, j):
    """Inclusion-minimal spans with support at least j+1, sorted by
    (height, support); containment is tested on the echelon rows."""
    spans = {}
    for size in range(1, min(arr.rank(), j + 1) + 1):
        for subset in combinations(arr.forms, size):
            prime = LinearPrime(arr.field, [g.coeffs for g in subset])
            if prime.rows in spans:
                continue
            prime.support = tuple(g.label for g in arr.forms if prime.contains_form(g))
            spans[prime.rows] = prime
    candidates = [p for p in spans.values() if len(p.support) >= j + 1]
    minimal = [
        p
        for p in candidates
        if not any(q.height < p.height and _contains_span(p, q) for q in candidates)
    ]
    return tuple(sorted(minimal, key=lambda p: (p.height, p.support)))


def min_distance_reference(arr):
    """n minus the largest support of a span of fewer than rank forms."""
    best = 0
    seen = set()
    for size in range(1, arr.rank()):
        for subset in combinations(arr.forms, size):
            prime = LinearPrime(arr.field, [g.coeffs for g in subset])
            if prime.rows in seen:
                continue
            seen.add(prime.rows)
            best = max(best, sum(1 for g in arr.forms if prime.contains_form(g)))
    return arr.n - best
