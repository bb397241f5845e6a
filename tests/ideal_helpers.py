"""Equality of ideals and of radicals, for tests, by mutual membership
of generators through the library's ``Ideal.contains`` and
``radical_member``, and a Rabinowitsch oracle for radical membership
built only from the public API."""

from starconfig.groebner import buchberger, radical_member
from starconfig.polynomials import Ring


def ideal_eq(a, b):
    """Equality as ideals: each ideal's generators lie in the other."""
    return all(b.contains(g) for g in a.gens) and all(a.contains(g) for g in b.gens)


def radical_eq(a, b):
    """Equality of radicals: generators of each lie in the other's radical."""
    return all(radical_member(g, b) for g in a.gens) and all(radical_member(g, a) for g in b.gens)


def rabinowitsch_member(f, ideal):
    """Whether f lies in rad(I), by whether the reduced basis of
    I + <1 - y*f>, in a ring with one more variable y, is (1,)."""
    ring = ideal.ring
    ext = Ring(ring.field, ring.nvars + 1, names=ring.names + ("rabinowitsch_y",))
    y = ext.gen(ring.nvars)

    def lift(g):
        return ext.from_dict({e + (0,): c for e, c in g.terms})

    gens = [lift(g) for g in ideal.gens] + [ext.one - y * lift(f)]
    return buchberger(gens) == (ext.one,)
