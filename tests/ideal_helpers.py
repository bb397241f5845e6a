"""Equality of ideals and of radicals, for tests, by mutual membership
of generators through the library's ``Ideal.contains`` and
``radical_member``."""

from starconfig.groebner import radical_member


def ideal_eq(a, b):
    """Equality as ideals: each ideal's generators lie in the other."""
    return all(b.contains(g) for g in a.gens) and all(a.contains(g) for g in b.gens)


def radical_eq(a, b):
    """Equality of radicals: generators of each lie in the other's radical."""
    return all(radical_member(g, b) for g in a.gens) and all(radical_member(g, a) for g in b.gens)
