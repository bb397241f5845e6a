"""Groebner bases and exact ideal arithmetic.

Buchberger with the normal selection strategy (smallest lcm first),
the coprimality criterion, and the chain criterion, followed by
minimalization and interreduction.  The reduced basis is canonical:
monic generators sorted by leading monomial, independent of input
order, so two runs over shuffled generators must agree.  A basis needs
only irreducible leading terms (Becker & Weispfenning, GTM 141), so
S-pair remainders are top-reduced and their tails are reduced once, at
interreduction, and only for the elements that are kept.

The core runs on packed-integer monomials (see ``orders``) and on
Python ``int`` coefficients in both fields.  Over GF(p) they are
residues and basis elements are monic; over QQ basis elements are
primitive integer polynomials with a positive leading coefficient.
Fractions exist only at the boundary: packing an input clears its
denominators, and unpacking the reduced basis divides each element by
its leading coefficient.  A monomial of total degree 2**15 or more
does not fit and raises ``UsageError``.

One division loop serves both fields.  It updates coefficients with
plain ``-`` and ``*`` and normalizes each term once, when it is popped
(``% p`` over GF(p)), after Monagan & Pearce (CASC 2007).  A divisor
whose leading coefficient is not 1, which happens only over QQ, is
applied fraction-free: the pending terms are scaled by an integer
instead of dividing by that coefficient, so the core works with a
scalar multiple of the remainder.  The core stops as soon as a nonzero
constant turns up, since the reduced basis is then (1,).

Radical membership goes through the one-extra-variable trick:
f lies in rad(I) iff 1 lies in I + <1 - y*f>, which is exact both ways.
The adjoined system is packed directly and answered by that stop.
Intersections eliminate t from t*a + (1-t)*b, packed directly too,
under the elimination layout with t in front.  Padding a grevlex-sorted
exponent tuple with a 0 or a 1 for the extra variable keeps its terms
sorted in both layouts, so neither system is sorted afresh.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from time import monotonic

from .errors import UsageError
from .orders import degree_error, elimination_layout, grevlex_layout
from .polynomials import Polynomial, Ring

# The core works on packed terms: lists of (packed monomial, int
# coefficient) pairs, descending, with no zero coefficient.  A basis
# element or divisor is one record, built by ``_record``: (leading
# monomial, (leading coefficient, tail)).


def _pack(f: Polynomial, layout, pad=()):
    """f's terms with each exponent tuple extended by pad and packed, in
    f's grevlex order, with int coefficients; and the positive int they
    were scaled by: 1 over GF(p), the lcm of the denominators over QQ."""
    pack = layout.pack
    if f.ring.field.characteristic:
        return [(pack(e + pad), c) for e, c in f.terms], 1
    den = lcm(*[c.denominator for _, c in f.terms])
    return [(pack(e + pad), c.numerator * (den // c.denominator)) for e, c in f.terms], den


def _unpack(ring: Ring, layout, terms, scale) -> Polynomial:
    """The polynomial of packed int terms divided by scale, which is
    always 1 over GF(p)."""
    unpack = layout.unpack
    if ring.field.characteristic:
        return Polynomial(ring, tuple([(unpack(m), c) for m, c in terms]))
    return Polynomial(ring, tuple([(unpack(m), Fraction(c, scale)) for m, c in terms]))


def _normalize(terms, p):
    """Nonzero packed terms normalized: monic residues over GF(p),
    primitive with a positive leading coefficient over QQ."""
    c = terms[0][1]
    if p:
        if c == 1:
            return terms
        inv = pow(c, -1, p)
        return [(m, v * inv % p) for m, v in terms]
    g = gcd(*[v for _, v in terms])
    if c < 0:
        g = -g
    if g == 1:
        return terms
    return [(m, v // g) for m, v in terms]


def _record(terms, p):
    """The basis record of nonzero packed terms, normalized."""
    terms = _normalize(terms, p)
    return terms[0][0], (terms[0][1], terms[1:])


def _reduce(work, divisors, p, layout, full=True):
    """Division of {packed monomial: int coefficient} by (leading
    monomial, (leading coefficient, tail)) divisors, tried in order;
    consumes work.  Returns the remainder's terms and the positive int
    scale they carry: they are scale times the exact remainder.

    With full false this is top reduction: it stops at the first term
    that no divisor's leading monomial divides and returns it followed
    by the pending terms as they stand, normalized and sorted.  That is
    scale times the input minus a combination of divisors, with an
    irreducible leading term, but its tail is not reduced.

    Each new term is smaller than the term it replaces, so the heap
    hands out the remainder's terms already descending, and every
    monomial in work has exactly one heap entry.  Coefficients in work
    may be unnormalized: they are updated with plain ``-`` and ``*``
    and brought to canonical form only when their term is popped
    (``% p`` over GF(p), nothing over QQ), after which a zero term is
    dropped.  Over GF(p) every divisor is monic.  Over QQ a divisor
    with leading coefficient lc is applied to a popped term with
    coefficient c fraction-free: with d = gcd(lc, c), the pending work
    and the finished remainder are multiplied by lc/d and c becomes
    c/d, so subtracting c times the tail cancels the term in integers.
    With no divisors this just normalizes and sorts work.
    """
    guard = layout.guard
    get, pop = work.get, work.pop
    heap = [-m for m in work]
    heapify(heap)
    out = []
    scale = 1
    while heap:
        m = -heappop(heap)
        c = pop(m)
        if p:
            c %= p
        if not c:
            continue
        for lm, body in divisors:
            q = m - lm
            if q & guard:
                continue
            lc, tail = body
            if lc != 1:
                d = gcd(lc, c)
                c //= d
                s = lc // d
                if s != 1:
                    scale *= s
                    for mw in work:
                        work[mw] *= s
                    out = [(mo, co * s) for mo, co in out]
            for mg, cg in tail:
                mt = q + mg
                cur = get(mt)
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
            if not full:
                for mw, cw in sorted(work.items(), reverse=True):
                    if p:
                        cw %= p
                    if cw:
                        out.append((mw, cw))
                break
    return out, scale


def _spoly(l, a, b, layout):
    """S-polynomial of basis records a and b with lcm l, up to a
    nonzero scalar, as a dict whose coefficients ``_reduce`` normalizes.

    With g = gcd(lc_a, lc_b), the tails are multiplied by lc_b/g and
    lc_a/g, so the shifted leading terms cancel in integers; both
    factors are 1 over GF(p).
    """
    guard = layout.guard
    (ma, (ca, tail_a)), (mb, (cb, tail_b)) = a, b
    g = gcd(ca, cb)
    ua, ub = cb // g, ca // g
    qa, qb = l - ma, l - mb
    work = {qa + m: c * ua for m, c in tail_a}
    get = work.get
    for m, c in tail_b:
        mt = qb + m
        work[mt] = get(mt, 0) - c * ub
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
    p = ring.field.characteristic
    layout = ring.layout
    divisors = []
    for g in basis:
        if g.is_zero():
            continue
        if g.ring != ring:
            raise UsageError("divisor lives in a different ring")
        divisors.append(_record(_pack(g, layout)[0], p))
    work, den = _pack(f, layout)
    terms, scale = _reduce(dict(work), divisors, p, layout)
    return _unpack(ring, layout, terms, den * scale)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """The S-polynomial: leading terms scaled to the lcm and cancelled."""
    if f.ring != g.ring:
        raise UsageError("polynomials live in different rings")
    if f.is_zero() or g.is_zero():
        raise UsageError("S-polynomial of a zero polynomial")
    ring = f.ring
    p = ring.field.characteristic
    layout = ring.layout
    l = layout.pack(tuple(map(max, f.lm(), g.lm())))
    a, b = _record(_pack(f, layout)[0], p), _record(_pack(g, layout)[0], p)
    terms, _ = _reduce(_spoly(l, a, b, layout), (), p, layout)
    # _spoly's result is lcm(lc_a, lc_b) times the monic S-polynomial
    return _unpack(ring, layout, terms, lcm(a[1][0], b[1][0]))


def buchberger(gens):
    """Reduced Groebner basis of the given generators.

    The result is canonical for grevlex, whatever the order of the
    generators; the determinism tests shuffle them to check that.
    """
    polys = [g for g in gens if not g.is_zero()]
    if not polys:
        return ()
    ring = polys[0].ring
    for g in polys:
        if g.ring != ring:
            raise UsageError("generators live in different rings")
    layout = ring.layout
    basis = _groebner([_pack(g, layout)[0] for g in polys], ring.field.characteristic, layout)
    return tuple(_unpack(ring, layout, terms, terms[0][1]) for terms in basis)


def check_deadline(deadline):
    """Raise TimeoutError once deadline, a ``time.monotonic()`` value,
    is reached; None never is."""
    if deadline is not None and monotonic() >= deadline:
        raise TimeoutError


def _groebner(packed_gens, p, layout, deadline=None):
    """Reduced basis of packed int generators over GF(p), or over QQ
    when p is 0, as normalized packed terms sorted by leading monomial.

    The input generators are fully reduced; S-pair remainders are only
    top-reduced, since a basis needs only irreducible leading terms;
    interreduction reduces the tails of the elements it keeps.

    Stops with the unit basis as soon as a reduced generator or an
    S-pair remainder is a nonzero constant (packed monomial 0 in every
    layout): the ideal is then the whole ring, whose reduced basis is
    (1,) whatever else the pair queue holds.  At or past deadline, a
    ``time.monotonic()`` value, the next popped S-pair raises
    ``TimeoutError``.
    """
    guard = layout.guard
    pack, unpack = layout.pack, layout.unpack
    unit = [[(0, 1)]]

    basis = []
    lm_exps = []

    def append(terms):
        basis.append(_record(terms, p))
        lm_exps.append(unpack(terms[0][0]))

    def pair_lcm(i, j):
        return pack(tuple(map(max, lm_exps[i], lm_exps[j])))

    for terms in packed_gens:
        if basis:
            terms = _reduce(dict(terms), basis, p, layout)[0]
        if terms:
            if terms[0][0] == 0:
                return unit
            append(terms)

    pending = set()
    heap = []
    for j in range(len(basis)):
        for i in range(j):
            pending.add((i, j))
            heappush(heap, (pair_lcm(i, j), i, j))

    def chain_skippable(i, j, l):
        for k, (lmk, _) in enumerate(basis):
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
        check_deadline(deadline)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        if l == basis[i][0] + basis[j][0]:
            continue
        if chain_skippable(i, j, l):
            continue
        r = _reduce(_spoly(l, basis[i], basis[j], layout), basis, p, layout, False)[0]
        if not r:
            continue
        if r[0][0] == 0:
            return unit
        append(r)
        t = len(basis) - 1
        for i2 in range(t):
            pending.add((i2, t))
            heappush(heap, (pair_lcm(i2, t), i2, t))

    # keep the first element of each leading monomial that no kept one
    # divides; a divisor never sorts after what it divides, so in
    # ascending order every element is met after its divisors
    minimal = []
    for lm, body in sorted(basis, key=lambda record: record[0]):
        if all((lm - kept) & guard for kept, _ in minimal):
            minimal.append((lm, body))

    reduced = []
    for i, (lm, (lc, tail)) in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        reduced.append(_normalize(_reduce(dict([(lm, lc), *tail]), others, p, layout)[0], p))
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

    def groebner_basis(self):
        """Reduced grevlex basis, computed once."""
        if self._gb is None:
            self._gb = buchberger(self.gens)
        return self._gb

    def contains(self, f: Polynomial) -> bool:
        if f.ring != self.ring:
            raise UsageError("element lives in a different ring")
        return reduce(f, self.groebner_basis()).is_zero()

    def __repr__(self):
        return f"Ideal({len(self.gens)} gens in {self.ring!r})"


def intersect(a: Ideal, b: Ideal) -> Ideal:
    """Intersection via t*a + (1-t)*b and elimination of t.

    The system is packed directly in ``elimination_layout`` with t last
    and in front: t*g is g's terms with t padded on, and (1-t)*g is
    the negated t-terms followed by g's own terms, both already sorted.
    The reduced basis elements whose leading monomial avoids t generate
    the intersection.  They are returned monic under that order, which
    is grevlex on t-free monomials, so their terms need no re-sort.
    """
    if a.ring != b.ring:
        raise UsageError("ideals live in different rings")
    ring = a.ring
    nvars = ring.nvars
    p = ring.field.characteristic
    layout = elimination_layout(nvars)
    gens = []
    for g in a.gens:
        if not g.is_zero():
            gens.append(_pack(g, layout, (1,))[0])
    for g in b.gens:
        if not g.is_zero():
            # (1-t)*g: each term c*m of g gives -c*t*m and c*m
            low, _ = _pack(g, layout, (0,))
            high, _ = _pack(g, layout, (1,))
            gens.append([(m, (p - c) if p else -c) for m, c in high] + low)
    unpack = layout.unpack
    kept = []
    for terms in _groebner(gens, p, layout):
        if unpack(terms[0][0])[nvars]:
            continue
        scale = terms[0][1]
        if p:
            out = [(unpack(m)[:nvars], c) for m, c in terms]
        else:
            out = [(unpack(m)[:nvars], Fraction(c, scale)) for m, c in terms]
        kept.append(Polynomial(ring, tuple(out)))
    return Ideal(ring, tuple(kept))


def radical_member(f: Polynomial, ideal: Ideal, deadline=None) -> bool:
    """Does f lie in the radical of the ideal?

    Exact both ways: f is in rad(I) iff the ideal I + <1 - y*f> in one
    more variable y, last under grevlex, is the whole ring.  That system
    is packed here in ``grevlex_layout`` with y padded on, which keeps
    every generator's terms sorted.  At or past deadline, a
    ``time.monotonic()`` value, the Groebner run raises ``TimeoutError``.
    """
    if f.ring != ideal.ring:
        raise UsageError("element lives in a different ring")
    if f.is_zero():
        return True
    p = f.ring.field.characteristic
    layout = grevlex_layout(f.ring.nvars + 1)
    gens = [_pack(g, layout, (0,))[0] for g in ideal.gens]
    # y*f - 1 spans the same ideal; its constant, -1 scaled by den, is
    # the residue p - 1 over GF(p) and -den over QQ, and comes last
    rabinowitsch, den = _pack(f, layout, (1,))
    rabinowitsch.append((0, p - den))
    gens.append(rabinowitsch)
    return _groebner(gens, p, layout, deadline) == [[(0, 1)]]
