"""Tuple-exponent Groebner core, kept as the reference for the packed one.

This is the division and Buchberger loop as it ran on exponent tuples,
with each order's key written as a tuple of ints.  It builds its own
sorted term tuples, so nothing here goes through the packed encoding;
the tests require the packed core to return the same polynomials, term
for term.

Each entry point takes the name of its order: "grevlex", the order of
every ring, or "elimination", with the last variable t in front.  Under
the second the polynomials it returns hold their terms sorted by that
order, not by their ring's grevlex, so a caller moves them back into a
ring before comparing them with anything else.  Its pair queue takes
the lcm of least degree first, the degree in all but t under
"elimination", as the packed core does; the reduced basis does not
depend on the order the pairs come in, but the run's length does.
"""

from __future__ import annotations

from heapq import heappop, heappush

from starconfig.polynomials import Polynomial


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_div(a, b):
    """Exponent-wise difference a / b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def tuple_key(order, exps):
    """Sort key of an exponent tuple under the named order, as a flat
    tuple of ints."""
    if order == "grevlex":
        return (sum(exps), *(-x for x in reversed(exps)))
    if order == "elimination":
        return (exps[-1], *tuple_key("grevlex", exps[:-1]))
    raise ValueError(f"no tuple key for {order!r}")


def monic(f):
    if f.is_zero():
        return f
    fld = f.ring.field
    inv = fld.inv(f.lc())
    return Polynomial(f.ring, tuple((e, fld.mul(inv, c)) for e, c in f.terms))


def _from_dict(ring, coeffs, order="grevlex"):
    zero = ring.field.zero
    terms = [(e, c) for e, c in coeffs.items() if c != zero]
    terms.sort(key=lambda t: tuple_key(order, t[0]), reverse=True)
    return Polynomial(ring, tuple(terms))


def reduce(f, basis, order="grevlex"):
    """Remainder of f by basis elements whose terms are sorted under order."""
    if f.is_zero():
        return f
    ring = f.ring
    fld = ring.field
    zero = fld.zero
    red = []
    for g in basis:
        if g.is_zero():
            continue
        red.append((g.lm(), fld.inv(g.lc()), g.terms))
    work = {}
    heap = []
    for e, c in f.terms:
        work[e] = c
        heappush(heap, (tuple(-x for x in tuple_key(order, e)), e))
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
                        heappush(heap, (tuple(-x for x in tuple_key(order, et)), et))
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
    return _from_dict(ring, out, order)


def _shifted(f, exps, coeff):
    fld = f.ring.field
    return {mono_mul(exps, e): fld.mul(coeff, c) for e, c in f.terms}


def s_polynomial(f, g, order="grevlex"):
    fld = f.ring.field
    l = mono_lcm(f.lm(), g.lm())
    a = _shifted(f, mono_div(l, f.lm()), fld.inv(f.lc()))
    b = _shifted(g, mono_div(l, g.lm()), fld.inv(g.lc()))
    for e, c in b.items():
        a[e] = fld.sub(a.get(e, fld.zero), c)
    return _from_dict(f.ring, a, order)


def buchberger(gens, order="grevlex"):
    polys = [_from_dict(g.ring, dict(g.terms), order) for g in gens if not g.is_zero()]
    if not polys:
        return ()

    def key(e):
        return tuple_key(order, e)

    def pair_key(l):
        # degree-first selection: the degree in all but t under
        # "elimination", the total degree under grevlex
        return (sum(l[:-1]) if order == "elimination" else sum(l), key(l))

    basis = []
    for g in polys:
        r = monic(reduce(g, basis, order) if basis else g)
        if not r.is_zero():
            basis.append(r)

    pending = set()
    heap = []
    for j in range(len(basis)):
        for i in range(j):
            l = mono_lcm(basis[i].lm(), basis[j].lm())
            pending.add((i, j))
            heappush(heap, (pair_key(l), i, j))

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
        _, i, j = heappop(heap)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        lmi, lmj = basis[i].lm(), basis[j].lm()
        l = mono_lcm(lmi, lmj)
        if l == mono_mul(lmi, lmj):
            continue
        if chain_skippable(i, j, l):
            continue
        r = reduce(s_polynomial(basis[i], basis[j], order), basis, order)
        if r.is_zero():
            continue
        r = monic(r)
        basis.append(r)
        t = len(basis) - 1
        for i2 in range(t):
            l2 = mono_lcm(basis[i2].lm(), r.lm())
            pending.add((i2, t))
            heappush(heap, (pair_key(l2), i2, t))

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
        reduced.append(monic(reduce(g, others, order)))
    reduced.sort(key=lambda g: key(g.lm()))
    return tuple(reduced)
