"""Groebner bases and exact ideal arithmetic.

Buchberger with the normal strategy (Giovini et al., ISSAC 1991), the
coprimality criterion, applied where a pair is made, so that a coprime
pair is never queued, and the chain criterion.  Every system lives in
a grevlex layout (see ``orders``), whose packed lcm starts with its
degree, so the pair queue hands out the least lcm, degree first, and
no division step raises the degree.  Minimalization
and interreduction are a separate step, run only on the elements a
caller keeps: ``buchberger`` on all of them, ``intersect`` on those
free of t, and ``radical_member``, which only asks whether the basis
is (1), on none.  The reduced basis is canonical: monic generators sorted by
leading monomial, independent of input order, so two runs over
shuffled generators must agree.  A basis needs only irreducible
leading terms (Becker & Weispfenning, GTM 141), so S-pair remainders
are top-reduced and their tails are reduced once, at interreduction,
and only for the elements that are kept.

The core runs on packed-integer monomials (see ``orders``) and on
Python ``int`` coefficients in both fields.  Over GF(p) they are
residues and basis elements are monic; over QQ basis elements are
primitive integer polynomials with a positive leading coefficient.
The core reads each polynomial's packing in its own ring's layout
(see ``polynomials``), which a polynomial keeps once made, or was born
with, and clears its denominators into one positive int.  Every
polynomial the core returns in that layout, a remainder or a basis
element, is born packed over such an int, so Fractions appear only if
its terms are read.  A monomial of total degree 2**15 or more does not
fit and raises ``UsageError``: the check is made where a packing is
made, by a layout's ``pack``, a product of forms, the lcm of a pair
that is not coprime and the product with an adjoined variable, and
nowhere in the loops.

One division loop serves both fields.  It updates coefficients with
plain ``-`` and ``*`` and normalizes each term once, when it is popped
(``% p`` over GF(p)), after Monagan & Pearce (CASC 2007).  A divisor
whose leading coefficient is not 1, which happens only over QQ, is
applied fraction-free: the pending terms are scaled by an integer
instead of dividing by that coefficient, so the core works with a
scalar multiple of the remainder.  The core stops as soon as a nonzero
constant turns up, since the reduced basis is then (1,).

Radical membership is answered by that stop, in one layout per ideal
that its generators fix (see ``radical_member``): the ring's own when
each is homogeneous, where each homogeneous part g of f is tested by
I + <g - 1>, and one more variable, y, otherwise, where f is tested by
I + <1 - y*f>, built from the polynomials' own packings with no
unpacking: a y-free monomial's packing in one more variable is its own
shifted up one field (``orders.grevlex_widen``).  An ideal keeps its
generators, packed in that layout and reduced, for every test after
the first, so nothing is packed twice.
Intersections eliminate t from t*a + (1-t)*b, built the same way on
the generators homogenized by h: widened twice, with h and then t
last, a system homogeneous in (x, h) has its leading terms take the
most t, so grevlex eliminates t.  Each t-free element comes back down
by one field shift, which sets h = 1, and is interreduced only then.
On homogeneous input, such as the primes of an arrangement's radical,
h never appears.  The shifts and the homogenization keep sorted terms
sorted, and so does writing (1-t)*g' as its t-terms followed by g', so
neither system is sorted afresh.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import groupby
from math import gcd, lcm
from operator import mul
from time import monotonic

from .errors import UsageError
from .orders import FIELD_BITS, FIELD_MASK, degree_error, grevlex_layout, grevlex_widen
from .polynomials import Polynomial, Ring

# The core works on packed terms: lists of (packed monomial, int
# coefficient) pairs, descending, with no zero coefficient.  A basis
# element or divisor is one record, built by ``_record``: (leading
# monomial, (leading coefficient, tail)).  The unit ideal's basis is
# ``_UNIT``, the constant 1, whose packed monomial is 0 in every layout.
_UNIT = ((0, (1, ())),)


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
    monomial in work has exactly one heap entry.  Under grevlex it has
    no larger degree either, so no new term passes the degree limit.
    Coefficients in work may be unnormalized: they are updated with
    plain ``-`` and ``*`` and brought to canonical form only when their
    term is popped (``% p`` over GF(p), nothing over QQ), after which a
    zero term is dropped.  Over GF(p) every divisor is monic.  Over QQ a divisor
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


def _spoly(l, a, b):
    """S-polynomial of basis records a and b with lcm l, up to a
    nonzero scalar, as a dict whose coefficients ``_reduce`` normalizes.

    With g = gcd(lc_a, lc_b), the tails are multiplied by lc_b/g and
    lc_a/g, so the shifted leading terms cancel in integers; both
    factors are 1 over GF(p).  No term has a larger degree than l,
    which the caller has checked against the degree limit.
    """
    (ma, (ca, tail_a)), (mb, (cb, tail_b)) = a, b
    g = gcd(ca, cb)
    ua, ub = cb // g, ca // g
    qa, qb = l - ma, l - mb
    work = {qa + m: c * ua for m, c in tail_a}
    get = work.get
    for m, c in tail_b:
        mt = qb + m
        work[mt] = get(mt, 0) - c * ub
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
        divisors.append(_record(g.packed()[0], p))
    work, den = f.packed()
    terms, scale = _reduce(dict(work), divisors, p, layout)
    return Polynomial(ring, None, (terms, den * scale))


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """The S-polynomial: leading terms scaled to the lcm and cancelled."""
    if f.ring != g.ring:
        raise UsageError("polynomials live in different rings")
    if f.is_zero() or g.is_zero():
        raise UsageError("S-polynomial of a zero polynomial")
    ring = f.ring
    p = ring.field.characteristic
    layout = ring.layout
    a, b = _record(f.packed()[0], p), _record(g.packed()[0], p)
    l = layout.pack(tuple(map(max, layout.unpack(a[0]), layout.unpack(b[0]))))
    terms, _ = _reduce(_spoly(l, a, b), (), p, layout)
    # _spoly's result is lcm(lc_a, lc_b) times the monic S-polynomial
    return Polynomial(ring, None, (terms, lcm(a[1][0], b[1][0])))


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
    p = ring.field.characteristic
    basis = _interreduce(_groebner([g.packed()[0] for g in polys], p, layout), p, layout)
    return tuple(Polynomial(ring, None, (terms, terms[0][1])) for terms in basis)


def check_deadline(deadline):
    """Raise TimeoutError once deadline, a ``time.monotonic()`` value,
    is reached; None never is."""
    if deadline is not None and monotonic() >= deadline:
        raise TimeoutError


def _add_inputs(basis, packed_gens, p, layout):
    """Append each packed generator to the list of basis records, fully
    reduced by the records before it, and skip it when it reduces to
    zero; returns basis, or ``_UNIT`` as soon as one reduces to a
    nonzero constant."""
    for terms in packed_gens:
        if basis:
            terms = _reduce(dict(terms), basis, p, layout)[0]
        if terms:
            if terms[0][0] == 0:
                return _UNIT
            basis.append(_record(terms, p))
    return basis


def _groebner(packed_gens, p, layout, deadline=None, start=()):
    """A Groebner basis of packed int generators over GF(p), or over QQ
    when p is 0, as basis records in the order they were found.  It is
    neither minimal nor interreduced: ``_interreduce`` turns the
    records a caller keeps into a reduced basis.

    start holds basis records that are already the first basis
    elements, each reduced by those before it, as ``_add_inputs``
    leaves them; ``radical_member`` passes its ideal's generators this
    way, so that they are packed and reduced once per ideal.  The input
    generators are then fully reduced after them; S-pair remainders are
    only top-reduced, since a basis needs only irreducible leading
    terms.  Each pair's lcm is summed from the leading exponents kept
    beside the records.  A pair whose lcm is the product of its leading
    monomials is never queued, since its S-polynomial reduces to zero
    by the two alone (Buchberger's first criterion), so only the lcm of
    a queued pair meets the guard test for the degree limit.  The pair
    queue is keyed on the lcm, degree first.  The chain criterion counts
    a pair as treated once it has left the queue or was never in it:
    either way its S-polynomial has a standard representation (Becker &
    Weispfenning, GTM 141).

    Returns ``_UNIT`` as soon as a reduced generator or an S-pair
    remainder is a nonzero constant: the ideal is then the whole ring,
    whatever else the pair queue holds.  A basis of the unit ideal
    holds a constant, so a run that ends without one is not (1).  At or
    past deadline, a ``time.monotonic()`` value, the next popped S-pair
    raises ``TimeoutError``.
    """
    guard, units, unpack = layout.guard, layout.units, layout.unpack

    basis = _add_inputs(list(start), packed_gens, p, layout)
    if basis is _UNIT:
        return _UNIT
    lm_exps = []
    pending = set()
    heap = []

    def queue_pairs(j):
        # queue basis element j's pairs with those before it, each as the
        # heap entry (lcm, i, j), unless the two leading monomials are
        # coprime: the lcm is then their product.  The degree of an lcm
        # stays below twice the limit, so no field carries and a guard
        # bit is set exactly when it reaches the limit
        lm = basis[j][0]
        b = unpack(lm)
        for i, a in enumerate(lm_exps):
            l = sum(map(mul, map(max, a, b), units))
            if l == basis[i][0] + lm:
                continue
            if l & guard:
                raise degree_error(sum(map(max, a, b)))
            pending.add((i, j))
            heappush(heap, (l, i, j))
        lm_exps.append(b)

    for j in range(len(basis)):
        queue_pairs(j)

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
        pending.discard((i, j))
        if chain_skippable(i, j, l):
            continue
        r = _reduce(_spoly(l, basis[i], basis[j]), basis, p, layout, False)[0]
        if not r:
            continue
        if r[0][0] == 0:
            return _UNIT
        basis.append(_record(r, p))
        queue_pairs(len(basis) - 1)
    return basis


def _interreduce(basis, p, layout):
    """The reduced basis that the basis records span, as normalized
    packed terms sorted by leading monomial, when they are a Groebner
    basis of their ideal: only the elements whose leading monomial no
    other one divides, each with its tail reduced by the others."""
    guard = layout.guard
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
    """An ideal given by generators, with two values cached: its reduced
    Groebner basis, and the layout and start of every ``radical_member``
    run on it (see ``_radical_start``)."""

    def __init__(self, ring: Ring, gens):
        gens = tuple(gens)
        for g in gens:
            if not isinstance(g, Polynomial) or g.ring != ring:
                raise UsageError("generators must live in the ideal's ring")
        self.ring = ring
        self.gens = gens
        self._gb = None
        self._start = None

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


def _adjoin(terms, layout):
    """Packed terms times the layout's last variable, which they lack,
    as intersect builds t*g and radical_member y*f.  The leading term
    has the largest degree, so the product is refused at the degree
    limit as soon as its leading monomial reaches it."""
    unit = layout.units[-1]
    high = [(m + unit, c) for m, c in terms]
    if high[0][0] & layout.guard:
        raise degree_error(sum(layout.unpack(high[0][0])))
    return high


def intersect(a: Ideal, b: Ideal) -> Ideal:
    """Intersection via t*a + (1-t)*b and elimination of t, run on the
    homogenized generators.

    Each generator g of degree d becomes g' = h^d g(x/h), each term
    times h to d minus its degree, and the system lives in
    ``grevlex_layout(nvars + 2)``, with h and then t last.  Every basis
    element is then homogeneous in (x, h), with t of weight 0, so among
    its terms grevlex compares the power of t first: an element whose
    leading monomial avoids t avoids t, and those elements generate
    I' and J' intersected.  Setting h = 1 takes that ideal to the
    intersection, and takes a homogeneous grevlex basis with h last to
    a grevlex basis (Cox, Little & O'Shea, Ideals, Varieties, and
    Algorithms, ch. 3, ch. 4 section 3 and ch. 8 section 4).  Since one
    leading monomial can then divide another, the kept elements are
    minimalized and interreduced only after that, in the ring's own
    layout, and are born packed over their leading coefficients, as
    ``buchberger`` returns its basis.

    The packings are built with no unpacking: ``grevlex_widen`` twice
    puts h and t after a ring's variables, absent, where g' adds
    multiples of h's unit, and t*g' adds t's.  Setting h = 1 in a t-free
    packing drops its bottom two fields, h's and t's exponents, and its
    top two, the degrees over (x, h, t) and (x, h).  Every term of t*g'
    has a larger degree than any of g', so (1-t)*g', its t-terms
    followed by g' itself, comes sorted.  On homogeneous input, such as
    the primes of ``Arrangement.combinatorial_radical``, h never
    appears, and the pairs come out in degree order.
    """
    if a.ring != b.ring:
        raise UsageError("ideals live in different rings")
    ring = a.ring
    nvars = ring.nvars
    p = ring.field.characteristic
    layout = grevlex_layout(nvars + 2)
    widen_h, widen_t = grevlex_widen(nvars), grevlex_widen(nvars + 1)
    h = layout.units[nvars]
    top = ring.layout.degree_shift

    def homogenized(g):
        terms = g.packed()[0]
        d = terms[0][0] >> top
        return [(widen_t(widen_h(m)) + (d - (m >> top)) * h, c) for m, c in terms]

    gens = [_adjoin(homogenized(g), layout) for g in a.gens if not g.is_zero()]
    for g in b.gens:
        if not g.is_zero():
            # (1-t)*g': each term c*m of g' gives -c*t*m and c*m
            low = homogenized(g)
            gens.append([(m, (p - c) if p else -c) for m, c in _adjoin(low, layout)] + low)
    mask = (1 << 2 * nvars * FIELD_BITS) - 1

    def dehomogenized(m):
        return (m >> 2 * FIELD_BITS) & mask

    free = [
        (dehomogenized(lm), (lc, [(dehomogenized(m), c) for m, c in tail]))
        for lm, (lc, tail) in _groebner(gens, p, layout)
        if not lm & FIELD_MASK
    ]
    kept = _interreduce(free, p, ring.layout)
    return Ideal(ring, tuple(Polynomial(ring, None, (terms, terms[0][1])) for terms in kept))


def _radical_start(ideal: Ideal):
    """The layout of every ``radical_member`` run on the ideal and the
    records the run starts from, built by its first call and kept: the
    ring's own layout when each generator is homogeneous, and one more
    variable, y, otherwise; and its nonzero generators' packings in that
    layout, each reduced by those before it, or ``_UNIT``.  A packing is
    homogeneous when its first and last terms share their top field, the
    total degree, since the terms are sorted by it."""
    if ideal._start is None:
        ring = ideal.ring
        layout = ring.layout
        top = layout.degree_shift
        gens = [terms for terms, _ in (g.packed() for g in ideal.gens) if terms]
        if not all(t[0][0] >> top == t[-1][0] >> top for t in gens):
            layout = grevlex_layout(ring.nvars + 1)
            widen = grevlex_widen(ring.nvars)
            gens = [[(widen(m), c) for m, c in t] for t in gens]
        ideal._start = layout, _add_inputs([], gens, ring.field.characteristic, layout)
    return ideal._start


def radical_member(f: Polynomial, ideal: Ideal, deadline=None) -> bool:
    """Does f lie in the radical of the ideal?

    Exact both ways.  Every f lies in the radical of the whole ring,
    so a unit ideal answers True first.  Otherwise one system is built
    in the layout that the ideal's generators fix, and each of its
    Groebner runs starts from the ideal's kept records and builds and
    reduces only one more element, g - 1 or y*f - 1, so it meets the
    same S-pairs in the same order as a run on all the generators.  f
    is a member iff every run stops at a constant, so no basis is ever
    interreduced.

    When each generator is homogeneous, V(I) is a cone, and rad(I) is
    homogeneous (Cox, Little & O'Shea, Ideals, Varieties, and
    Algorithms, ch. 8 section 3), so f lies in it iff each homogeneous
    part of f does.  A nonzero constant part does not, I being proper.
    A part g of degree d > 0 does iff 1 lies in I + <g - 1>: if g^N
    lies in I then 1 = g^N mod g - 1, and if g(x) is not 0 at a point
    x of V(I), then lambda*x, with lambda^d = 1/g(x) over the
    algebraic closure, is a point of V(I) where g = 1.  Each g - 1 is
    g's packing, in the ring's own layout, followed by its constant.

    Any other ideal takes the Rabinowitsch system: f is in rad(I) iff
    I + <1 - y*f>, in one more variable y, last under grevlex, is the
    whole ring.  A y-free monomial's packing there is its own shifted
    up one field (``grevlex_widen``), so y*f - 1 is built from f's own
    packing, one shift per monomial, with its terms still sorted; y*f
    is refused at the degree limit.

    At or past deadline, a ``time.monotonic()`` value, a Groebner run
    raises ``TimeoutError`` when it pops an S-pair.
    """
    if f.ring != ideal.ring:
        raise UsageError("element lives in a different ring")
    if f.is_zero():
        return True
    layout, start = _radical_start(ideal)
    if start is _UNIT:
        return True
    ring = f.ring
    p = ring.field.characteristic
    terms, den = f.packed()
    if layout is not ring.layout:
        widen = grevlex_widen(ring.nvars)
        parts = [_adjoin([(widen(m), c) for m, c in terms], layout)]
    elif terms[-1][0]:
        top = layout.degree_shift
        parts = (part for _, part in groupby(terms, lambda term: term[0] >> top))
    else:
        return False
    # the constant, -1 scaled by den, is the residue p - 1 over GF(p)
    # and -den over QQ, and is the last term of g - 1 and of y*f - 1
    one = (0, p - den)
    return all(_groebner([[*g, one]], p, layout, deadline, start) is _UNIT for g in parts)
