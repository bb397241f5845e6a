"""The constructions that the packed intersection and the tree of
intersections replaced, kept as test references: t*a + (1-t)*b built
with ``Polynomial`` arithmetic and eliminated by the tuple-exponent
core of ``groebner_reference``, which shares no code with the packed
one, and the combinatorial radical as a left fold of those
intersections."""

import groebner_reference as ref
from starconfig.groebner import Ideal
from starconfig.polynomials import Ring


def intersect_reference(a, b):
    """Intersection by eliminating t from t*a + (1-t)*b, t last and in
    front under the reference's elimination order, with the basis
    elements free of t moved back into the ring."""
    ring = a.ring
    n = ring.nvars
    ext = Ring(ring.field, n + 1, names=ring.names + ("t",))
    t = ext.gen(n)

    def lift(g):
        return ext.from_dict({e + (0,): c for e, c in g.terms})

    gens = [t * lift(g) for g in a.gens]
    gens += [(ext.one - t) * lift(g) for g in b.gens]
    kept = [g for g in ref.buchberger(gens, "elimination") if g.lm()[-1] == 0]
    return Ideal(ring, tuple(ring.from_dict({e[:n]: c for e, c in g.terms}) for g in kept))


def fold_radical(arrangement, j):
    """The intersection of the minimal primes over the (n-j)-fold
    products, folded from the left in their sorted order."""
    primes = arrangement.minimal_linear_primes(j)
    result = primes[0].ideal_in(arrangement.ring)
    for p in primes[1:]:
        result = intersect_reference(result, p.ideal_in(arrangement.ring))
    return result
