"""Groebner bases and exact ideal arithmetic.

Buchberger with the normal selection strategy (smallest lcm first),
the coprimality criterion, and the chain criterion, followed by
minimalization and interreduction.  The reduced basis is canonical:
monic generators sorted by leading monomial, independent of input
order, so two runs over shuffled generators must agree.

Radical membership goes through the one-extra-variable trick:
f lies in rad(I) iff 1 lies in I + <1 - y*f>, which is exact both ways.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush

from .errors import UsageError
from .orders import GREVLEX, BlockOrder, mono_div, mono_divides, mono_lcm, mono_mul
from .polynomials import Polynomial, Ring


def reduce(f: Polynomial, basis) -> Polynomial:
    """Remainder of f under multivariate division by the basis.

    Every term of the result is divisible by no basis leading
    monomial.  Against a Groebner basis this is the unique normal
    form, and a zero result certifies ideal membership.
    """
    if f.is_zero():
        return f
    ring = f.ring
    fld = ring.field
    zero = fld.zero
    key = ring.order.key
    red = []
    for g in basis:
        if g.is_zero():
            continue
        if g.ring != ring:
            raise UsageError("divisor lives in a different ring")
        red.append((g.lm(), fld.inv(g.lc()), g.terms))
    work = {}
    heap = []
    for e, c in f.terms:
        work[e] = c
        heappush(heap, (tuple(-x for x in key(e)), e))
    out = {}
    while heap:
        _, e = heappop(heap)
        c = work.get(e)
        if c is None:
            continue
        for lm, lcinv, terms in red:
            if mono_divides(lm, e):
                q = mono_div(e, lm)
                factor = fld.mul(c, lcinv)
                del work[e]
                for eg, cg in terms[1:]:
                    et = mono_mul(q, eg)
                    delta = fld.mul(factor, cg)
                    cur = work.get(et)
                    if cur is None:
                        work[et] = fld.neg(delta)
                        heappush(heap, (tuple(-x for x in key(et)), et))
                    else:
                        s = fld.sub(cur, delta)
                        if s == zero:
                            del work[et]
                        else:
                            work[et] = s
                break
        else:
            del work[e]
            out[e] = c
    return ring.from_dict(out)


def _shifted(f: Polynomial, exps, coeff) -> Polynomial:
    """coeff * x^exps * f without going through generic multiplication."""
    fld = f.ring.field
    terms = tuple((mono_mul(exps, e), fld.mul(coeff, c)) for e, c in f.terms)
    return Polynomial(f.ring, terms)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """The S-polynomial: leading terms scaled to the lcm and cancelled."""
    if f.ring != g.ring:
        raise UsageError("polynomials live in different rings")
    if f.is_zero() or g.is_zero():
        raise UsageError("S-polynomial of a zero polynomial")
    fld = f.ring.field
    l = mono_lcm(f.lm(), g.lm())
    a = _shifted(f, mono_div(l, f.lm()), fld.inv(f.lc()))
    b = _shifted(g, mono_div(l, g.lm()), fld.inv(g.lc()))
    return a - b


def buchberger(gens, seed=None):
    """Reduced Groebner basis of the given generators.

    The result is canonical for the ring's order.  A seed shuffles the
    starting generators; it changes the pair schedule but must not
    change the answer, which the determinism tests rely on.
    """
    polys = [g for g in gens if not g.is_zero()]
    if not polys:
        return ()
    ring = polys[0].ring
    for g in polys:
        if g.ring != ring:
            raise UsageError("generators live in different rings")
    if seed is not None:
        rng = random.Random(seed)
        rng.shuffle(polys)
    key = ring.order.key

    basis = []
    for g in polys:
        r = reduce(g, basis).monic() if basis else g.monic()
        if not r.is_zero():
            basis.append(r)

    pending = set()
    heap = []
    for j in range(len(basis)):
        for i in range(j):
            l = mono_lcm(basis[i].lm(), basis[j].lm())
            pending.add((i, j))
            heappush(heap, (key(l), i, j))

    def chain_skippable(i, j, l):
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            if mono_divides(basis[k].lm(), l):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a not in pending and b not in pending:
                    return True
        return False

    while heap:
        lkey, i, j = heappop(heap)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        lmi, lmj = basis[i].lm(), basis[j].lm()
        l = mono_lcm(lmi, lmj)
        if l == mono_mul(lmi, lmj):
            continue
        if chain_skippable(i, j, l):
            continue
        r = reduce(s_polynomial(basis[i], basis[j]), basis)
        if r.is_zero():
            continue
        r = r.monic()
        basis.append(r)
        t = len(basis) - 1
        for i2 in range(t):
            l2 = mono_lcm(basis[i2].lm(), r.lm())
            pending.add((i2, t))
            heappush(heap, (key(l2), i2, t))

    # keep only generators whose leading monomial is not covered
    lms = [g.lm() for g in basis]
    keep = []
    for i, lm in enumerate(lms):
        covered = any(
            mono_divides(lms[k], lm) and (lms[k] != lm or k < i)
            for k in range(len(basis))
            if k != i
        )
        if not covered:
            keep.append(i)
    minimal = [basis[i] for i in keep]

    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        reduced.append(reduce(g, others).monic())
    reduced.sort(key=lambda g: key(g.lm()))
    return tuple(reduced)


class Ideal:
    """An ideal given by generators, with its Groebner basis cached."""

    def __init__(self, ring: Ring, gens):
        gens = tuple(gens)
        for g in gens:
            if not isinstance(g, Polynomial) or g.ring != ring:
                raise UsageError("generators must live in the ideal's ring")
        self.ring = ring
        self.gens = gens
        self._gb = None

    def groebner_basis(self, seed=None):
        """Reduced basis for the ring's order; a seed recomputes it with
        shuffled generators and leaves the cache alone."""
        if seed is not None:
            return buchberger(self.gens, seed=seed)
        if self._gb is None:
            self._gb = buchberger(self.gens)
        return self._gb

    def contains(self, f: Polynomial) -> bool:
        if f.ring != self.ring:
            raise UsageError("element lives in a different ring")
        return reduce(f, self.groebner_basis()).is_zero()

    def is_trivial(self) -> bool:
        gb = self.groebner_basis()
        return len(gb) == 1 and gb[0] == self.ring.one

    def __repr__(self):
        return f"Ideal({len(self.gens)} gens in {self.ring!r})"


def ideal_member(f: Polynomial, ideal: Ideal) -> bool:
    return ideal.contains(f)


def ideal_eq(a: Ideal, b: Ideal) -> bool:
    """Equality as ideals: mutual containment of generators."""
    if a.ring != b.ring:
        raise UsageError("ideals live in different rings")
    return all(b.contains(g) for g in a.gens) and all(a.contains(g) for g in b.gens)


def intersect(a: Ideal, b: Ideal) -> Ideal:
    """Intersection via t*a + (1-t)*b and elimination of t."""
    if a.ring != b.ring:
        raise UsageError("ideals live in different rings")
    ring = a.ring
    ext = ring.extended(1)
    ext = ext.with_order(BlockOrder({ext.nvars - 1}))
    t = ext.gen(ext.nvars - 1)
    gens = [t * g.extend(ext) for g in a.gens]
    gens += [(ext.one - t) * g.extend(ext) for g in b.gens]
    gb = buchberger(gens)
    kept = [g for g in gb if g.lm()[-1] == 0]
    return Ideal(ring, tuple(g.contract(ring) for g in kept))


def radical_member(f: Polynomial, ideal: Ideal) -> bool:
    """Does f lie in the radical of the ideal?

    Exact both ways: f is in rad(I) iff the ideal I + <1 - y*f> in one
    more variable y, last under grevlex, is the whole ring.
    """
    if f.ring != ideal.ring:
        raise UsageError("element lives in a different ring")
    if f.is_zero():
        return True
    ext = ideal.ring.extended(1, prefix="u").with_order(GREVLEX)
    y = ext.gen(ext.nvars - 1)
    gens = [g.extend(ext) for g in ideal.gens]
    gens.append(ext.one - y * f.extend(ext))
    gb = buchberger(gens)
    return len(gb) == 1 and gb[0] == ext.one


def radical_eq(a: Ideal, b: Ideal) -> bool:
    """Equality of radicals: generators of each lie in the other's radical."""
    if a.ring != b.ring:
        raise UsageError("ideals live in different rings")
    return all(radical_member(g, b) for g in a.gens) and all(
        radical_member(g, a) for g in b.gens
    )
