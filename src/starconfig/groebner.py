"""Groebner bases and exact ideal arithmetic.

Buchberger with the normal selection strategy (smallest lcm first),
the coprimality criterion, and the chain criterion, followed by
minimalization and interreduction.  The reduced basis is canonical:
monic generators sorted by leading monomial, independent of input
order, so two runs over shuffled generators must agree.

The core runs on packed-integer monomials (see ``orders``): it packs
each input once and unpacks the reduced basis once.  A monomial of
total degree 2**15 or more does not fit and raises ``UsageError``.
Its division loop, one for both fields, updates coefficients with
plain ``-`` and ``*`` and normalizes each term once, when it is popped
(``% p`` over GF(p)), after Monagan & Pearce (CASC 2007).  The core
stops as soon as a nonzero constant turns up, since the reduced basis
is then (1,).

Radical membership goes through the one-extra-variable trick:
f lies in rad(I) iff 1 lies in I + <1 - y*f>, which is exact both ways.
The adjoined system is packed directly and answered by that stop.
"""

from __future__ import annotations

import random
from heapq import heapify, heappop, heappush

from .errors import UsageError
from .orders import GREVLEX, BlockOrder, degree_error
from .polynomials import Polynomial, Ring

# The core works on packed terms: lists of (packed monomial, coefficient)
# pairs, descending, with no zero coefficient.  A basis element is monic
# and also kept as a divisor: its leading monomial and its tail.


def _pack(f: Polynomial, layout):
    pack = layout.pack
    return [(pack(e), c) for e, c in f.terms]


def _unpack(ring: Ring, layout, terms) -> Polynomial:
    unpack = layout.unpack
    return Polynomial(ring, tuple([(unpack(m), c) for m, c in terms]))


def _monic(terms, fld):
    c = terms[0][1]
    if c == fld.one:
        return terms
    inv = fld.inv(c)
    return [(m, fld.mul(inv, v)) for m, v in terms]


def _reduce(work, divisors, fld, layout):
    """Remainder of {packed monomial: coefficient} under division by monic
    (leading monomial, tail) divisors, tried in order; consumes work.

    Each new term is smaller than the term it replaces, so the heap
    hands out the remainder's terms already descending, and every
    monomial in work has exactly one heap entry.  Coefficients in work
    may be unnormalized: they are updated with plain ``-`` and ``*``
    and brought to canonical form only when their term is popped
    (``% p`` over GF(p), nothing over QQ), after which a zero term is
    dropped.  With no divisors this just normalizes and sorts work.
    """
    guard = layout.guard
    p = fld.characteristic
    heap = [-m for m in work]
    heapify(heap)
    out = []
    while heap:
        m = -heappop(heap)
        c = work.pop(m)
        if p:
            c %= p
        if not c:
            continue
        for lm, tail in divisors:
            q = m - lm
            if q & guard:
                continue
            for mg, cg in tail:
                mt = q + mg
                cur = work.get(mt)
                if cur is None:
                    if mt & guard:
                        raise degree_error(sum(layout.unpack(mt)))
                    work[mt] = -c * cg
                    heappush(heap, -mt)
                else:
                    work[mt] = cur - c * cg
            break
        else:
            out.append((m, c))
    return out


def _spoly(l, a, b, layout):
    """S-polynomial of monic packed a and b with lcm l, as a dict whose
    coefficients ``_reduce`` normalizes."""
    guard = layout.guard
    qa, qb = l - a[0][0], l - b[0][0]
    work = {qa + m: c for m, c in a[1:]}
    get = work.get
    for m, c in b[1:]:
        mt = qb + m
        work[mt] = get(mt, 0) - c
    for mt in work:
        if mt & guard:
            raise degree_error(sum(layout.unpack(mt)))
    return work


def reduce(f: Polynomial, basis) -> Polynomial:
    """Remainder of f under multivariate division by the basis.

    Every term of the result is divisible by no basis leading
    monomial.  Against a Groebner basis this is the unique normal
    form, and a zero result certifies ideal membership.
    """
    if f.is_zero():
        return f
    ring = f.ring
    layout = ring.order.layout(ring.nvars)
    divisors = []
    for g in basis:
        if g.is_zero():
            continue
        if g.ring != ring:
            raise UsageError("divisor lives in a different ring")
        terms = _pack(g.monic(), layout)
        divisors.append((terms[0][0], terms[1:]))
    return _unpack(ring, layout, _reduce(dict(_pack(f, layout)), divisors, ring.field, layout))


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """The S-polynomial: leading terms scaled to the lcm and cancelled."""
    if f.ring != g.ring:
        raise UsageError("polynomials live in different rings")
    if f.is_zero() or g.is_zero():
        raise UsageError("S-polynomial of a zero polynomial")
    ring = f.ring
    layout = ring.order.layout(ring.nvars)
    l = layout.pack(tuple(map(max, f.lm(), g.lm())))
    work = _spoly(l, _pack(f.monic(), layout), _pack(g.monic(), layout), layout)
    return _unpack(ring, layout, _reduce(work, (), ring.field, layout))


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
    layout = ring.order.layout(ring.nvars)
    basis = _groebner([_pack(g, layout) for g in polys], ring.field, layout)
    return tuple(_unpack(ring, layout, terms) for terms in basis)


def _groebner(packed_gens, fld, layout):
    """Reduced basis of packed generators, as monic packed terms sorted
    by leading monomial.

    Stops with the unit basis as soon as a reduced generator or an
    S-pair remainder is a nonzero constant (packed monomial 0 in every
    layout): the ideal is then the whole ring, whose reduced basis is
    (1,) whatever else the pair queue holds.
    """
    guard = layout.guard
    pack, unpack = layout.pack, layout.unpack
    unit = [[(0, fld.one)]]

    basis = []
    divisors = []
    lm_exps = []

    def append(terms):
        terms = _monic(terms, fld)
        basis.append(terms)
        divisors.append((terms[0][0], terms[1:]))
        lm_exps.append(unpack(terms[0][0]))

    def lcm(i, j):
        return pack(tuple(map(max, lm_exps[i], lm_exps[j])))

    for terms in packed_gens:
        if basis:
            terms = _reduce(dict(terms), divisors, fld, layout)
        if terms:
            if terms[0][0] == 0:
                return unit
            append(terms)

    pending = set()
    heap = []
    for j in range(len(basis)):
        for i in range(j):
            pending.add((i, j))
            heappush(heap, (lcm(i, j), i, j))

    def chain_skippable(i, j, l):
        for k, (lmk, _) in enumerate(divisors):
            if k == i or k == j:
                continue
            if not (l - lmk) & guard:
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a not in pending and b not in pending:
                    return True
        return False

    while heap:
        l, i, j = heappop(heap)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        if l == divisors[i][0] + divisors[j][0]:
            continue
        if chain_skippable(i, j, l):
            continue
        r = _reduce(_spoly(l, basis[i], basis[j], layout), divisors, fld, layout)
        if not r:
            continue
        if r[0][0] == 0:
            return unit
        append(r)
        t = len(basis) - 1
        for i2 in range(t):
            pending.add((i2, t))
            heappush(heap, (lcm(i2, t), i2, t))

    # keep only generators whose leading monomial is not covered
    lms = [lm for lm, _ in divisors]
    keep = []
    for i, lm in enumerate(lms):
        covered = any(
            not (lm - lms[k]) & guard and (lms[k] != lm or k < i)
            for k in range(len(basis))
            if k != i
        )
        if not covered:
            keep.append(i)
    minimal = [divisors[i] for i in keep]

    reduced = []
    for i in range(len(keep)):
        others = minimal[:i] + minimal[i + 1 :]
        reduced.append(_monic(_reduce(dict(basis[keep[i]]), others, fld, layout), fld))
    reduced.sort(key=lambda terms: terms[0][0])
    return reduced


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
    more variable y, last under grevlex, is the whole ring.  That system
    is packed here in the grevlex layout, each generator's terms sorted
    afresh, so the ideal's ring may have any order.
    """
    if f.ring != ideal.ring:
        raise UsageError("element lives in a different ring")
    if f.is_zero():
        return True
    fld = f.ring.field
    layout = GREVLEX.layout(f.ring.nvars + 1)
    pack = layout.pack
    gens = [sorted([(pack(e + (0,)), c) for e, c in g.terms], reverse=True) for g in ideal.gens]
    rabinowitsch = [(pack(e + (1,)), fld.neg(c)) for e, c in f.terms]
    rabinowitsch.append((0, fld.one))
    rabinowitsch.sort(reverse=True)
    gens.append(rabinowitsch)
    return _groebner(gens, fld, layout) == [[(0, fld.one)]]


def radical_eq(a: Ideal, b: Ideal) -> bool:
    """Equality of radicals: generators of each lie in the other's radical."""
    if a.ring != b.ring:
        raise UsageError("ideals live in different rings")
    return all(radical_member(g, b) for g in a.gens) and all(
        radical_member(g, a) for g in b.gens
    )
