"""Groebner engine: division, bases, canonicity, ideal arithmetic.

Reduced bases are cross-checked against sympy, which has its own
Buchberger implementation, on a battery of deterministic fixtures.
"""

import random
import time
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st
from sympy.polys.domains import GF as SGF, QQ as SQQ

from starconfig import groebner
from starconfig.fields import GF, QQ
from starconfig.groebner import (
    Ideal,
    _groebner,
    _interreduce,
    _normalize,
    _reduce,
    buchberger,
    intersect,
    radical_member,
    reduce,
    s_polynomial,
)
from starconfig.errors import UsageError
from starconfig.orders import (
    DEGREE_LIMIT,
    grevlex_layout,
    mono_divides,
)
from starconfig.polynomials import Polynomial, Ring

import groebner_reference as ref
from ideal_helpers import ideal_eq, rabinowitsch_member, radical_eq
from intersection_reference import intersect_reference


def to_sympy(f, syms):
    expr = sympy.Integer(0)
    for e, c in f.terms:
        term = sympy.Rational(c) if f.ring.field == QQ else sympy.Integer(c)
        for s, p in zip(syms, e):
            term *= s ** p
        expr += term
    return expr


def sympy_domain(field):
    return SQQ if field == QQ else SGF(field.characteristic)


def canonical_terms(expr, syms, field):
    poly = sympy.Poly(expr, *syms, domain=sympy_domain(field))
    out = {}
    for exps, c in poly.terms():
        c = sympy.Rational(sympy_domain(field).to_sympy(c))
        if field == QQ:
            out[exps] = c
        else:
            out[exps] = int(c) % field.characteristic
    return out


def same_basis(mine, theirs, syms, field):
    mine = [canonical_terms(to_sympy(g, syms), syms, field) for g in mine]
    theirs = [canonical_terms(t, syms, field) for t in theirs]
    key = lambda d: sorted(d.items())
    return sorted(mine, key=key) == sorted(theirs, key=key)


@pytest.fixture
def R():
    return Ring(QQ, 3, names=("x", "y", "z"))


def test_reduce_reaches_an_irreducible_remainder(R):
    x, y, z = R.gens()
    basis = (x * y - 1, y * z - 1)
    f = x ** 2 * y ** 2 * z
    r = reduce(f, basis)
    lms = [g.lm() for g in basis]
    for e, _ in r.terms:
        assert not any(mono_divides(lm, e) for lm in lms)


def test_reduce_difference_stays_in_ideal(R):
    x, y, z = R.gens()
    I = Ideal(R, (x * y - z, y * z - x))
    f = x ** 3 + y ** 3 + z ** 3
    r = reduce(f, I.groebner_basis())
    assert I.contains(f - r)


def test_reduce_over_qq_by_non_monic_divisors_is_exact(R):
    """The integer core divides fraction-free and so carries a scale;
    public reduce must divide it out.  By divisors with denominators
    and leading coefficients other than 1, in either order, it returns
    the reference's exact remainder term for term, not a multiple."""
    g1 = R.from_dict({(1, 1, 0): Fraction(3, 2), (0, 0, 1): Fraction(-1, 3)})
    g2 = R.from_dict({(0, 2, 0): Fraction(5, 4), (1, 0, 0): Fraction(2, 7)})
    f = R.from_dict(
        {(2, 2, 0): Fraction(7, 3), (1, 1, 1): Fraction(1, 5), (0, 3, 0): Fraction(-4, 9), (0, 0, 2): 2}
    )
    for divisors in ((g1, g2), (g2, g1)):
        r = reduce(f, divisors)
        assert r == ref.reduce(f, divisors)
        assert any(c.denominator > 1 for _, c in r.terms)


def test_fraction_free_step_scales_by_lc_over_gcd():
    """The core cancels a term c*m by a divisor with leading coefficient
    lc after scaling everything else by lc/gcd(lc, c), and returns that
    scale with the remainder it multiplies, finished terms included."""
    layout = Ring(QQ, 2, names=("x", "y")).layout
    x, y = layout.pack((1, 0)), layout.pack((0, 1))
    six_x = [(x, (6, [(y, -1)]))]  # 6x - y
    assert _reduce({x: 12}, six_x, 0, layout) == ([(y, 2)], 1)  # 12x = 2(6x - y) + 2y
    assert _reduce({x: 4}, six_x, 0, layout) == ([(y, 2)], 3)  # remainder 2y/3
    two_y = [(y, (2, [(0, -1)]))]  # 2y - 1
    assert _reduce({x: 1, y: 1}, two_y, 0, layout) == ([(x, 2), (0, 1)], 2)  # x + 1/2


@pytest.mark.parametrize("field", [GF(32003), QQ])
def test_top_reduction_stops_at_an_irreducible_leading_term(field):
    """With full false the core stops at the first irreducible term and
    keeps the pending terms: scale times the input minus a combination
    of the divisors, with an unreduced tail.  Over QQ the divisors'
    leading coefficients 3 and 2 take the fraction-free scale path.  At
    the default the same call is the full division, whose remainder is
    the reference's."""
    ring = Ring(field, 3, names=("x", "y", "z"))
    x, y, z = ring.gens()
    p = field.characteristic
    layout = ring.layout
    basis = buchberger((3 * x * y - z + 1, 2 * y ** 2 - x * z))
    divisors = []
    for g in basis:
        terms = _normalize(g.packed()[0], p)
        divisors.append((terms[0][0], (terms[0][1], terms[1:])))
    f = (x + y + z + 1) ** 3 + x * y ** 2 * z
    packed, den = f.packed()
    assert den == 1

    top, scale = _reduce(dict(packed), divisors, p, layout, False)
    lead = layout.unpack(top[0][0])
    assert not any(mono_divides(g.lm(), lead) for g in basis)
    assert Ideal(ring, basis).contains(scale * f - Polynomial(ring, None, (top, 1)))
    if not p:
        assert any(lc != 1 for _, (lc, _) in divisors)
        assert scale > 1

    full, full_scale = _reduce(dict(packed), divisors, p, layout)
    assert Polynomial(ring, None, (full, full_scale)) == ref.reduce(f, basis)
    assert top != full  # the tail was left as it stood
    assert reduce(Polynomial(ring, None, (top, scale)), basis) == ref.reduce(f, basis)


def test_int_core_basis_contract():
    """The core's reduced basis is monic residues over GF(p) and
    primitive integer polynomials with a positive leading coefficient
    over QQ; divided by its leading coefficient it is buchberger's.
    Negated generators make negative leading coefficients turn up."""
    for ideal in _fixture_ideals():
        ring = ideal.ring
        p = ring.field.characteristic
        layout = ring.layout
        for gens in (ideal.gens, [-g for g in ideal.gens]):
            core = _interreduce(_groebner([g.packed()[0] for g in gens], p, layout), p, layout)
            for terms in core:
                coeffs = [c for _, c in terms]
                assert all(type(c) is int for c in coeffs)
                if p:
                    assert coeffs[0] == 1 and all(0 < c < p for c in coeffs)
                else:
                    assert coeffs[0] > 0 and gcd(*coeffs) == 1
            unpacked = [
                ring.from_dict({layout.unpack(m): ring.field.div(c, terms[0][1]) for m, c in terms})
                for terms in core
            ]
            assert tuple(unpacked) == ideal.groebner_basis()


def test_s_polynomial_cancels_leading_terms(R):
    x, y, z = R.gens()
    f = x ** 2 * y + z
    g = x * y ** 2 + x
    s = s_polynomial(f, g)
    # both scaled leading terms sit at x^2*y^2 and cancel
    assert s == y * z - x ** 2


def test_buchberger_known_reduced_basis(R):
    x, y, z = R.gens()
    gb = buchberger((x * y - z, y * z - x))
    assert gb == (y * z - x, x * y - z, x ** 2 - z ** 2)


def test_groebner_basis_of_trivial_and_zero_ideals(R):
    assert buchberger(()) == ()
    assert buchberger((R.zero,)) == ()
    gb = buchberger((R.one + R.gen(0), R.gen(0)))
    assert gb == (R.one,)


def _fixture_ideals():
    """Twenty deterministic small ideals over QQ and GF(32003)."""
    out = []
    rng = random.Random(918273)
    for i in range(20):
        field = QQ if i % 2 == 0 else GF(32003)
        ring = Ring(field, 3, names=("x", "y", "z"))
        gens = []
        for _ in range(rng.randint(2, 3)):
            nterms = rng.randint(2, 4)
            d = {}
            for _ in range(nterms):
                e = tuple(rng.randint(0, 2) for _ in range(3))
                d[e] = field.from_int(rng.randint(-6, 6))
            g = ring.from_dict(d)
            if not g.is_zero():
                gens.append(g)
        if not gens:
            gens = [ring.gen(0)]
        out.append(Ideal(ring, tuple(gens)))
    return out


def test_reduced_basis_matches_sympy_on_fixture_battery():
    for ideal in _fixture_ideals():
        ring = ideal.ring
        syms = sympy.symbols(ring.names)
        gb = ideal.groebner_basis()
        sgb = sympy.groebner(
            [to_sympy(g, syms) for g in ideal.gens],
            *syms,
            order="grevlex",
            domain=sympy_domain(ring.field),
        )
        assert same_basis(gb, list(sgb.exprs), syms, ring.field)


def test_basis_is_independent_of_generator_shuffle():
    for ideal in _fixture_ideals():
        base = ideal.groebner_basis()
        for seed in (1, 2):
            shuffled = list(ideal.gens)
            random.Random(seed).shuffle(shuffled)
            assert buchberger(shuffled) == base


def test_basis_spolys_reduce_to_zero():
    for ideal in _fixture_ideals()[:6]:
        gb = ideal.groebner_basis()
        for i in range(len(gb)):
            for k in range(i):
                assert reduce(s_polynomial(gb[i], gb[k]), gb).is_zero()


def test_ideal_membership(R):
    x, y, z = R.gens()
    I = Ideal(R, (x + y, y + z))
    assert I.contains(x - z)
    assert I.contains((x + y) * z ** 5)
    assert not I.contains(x)
    assert not I.contains(R.one)


def test_ideal_eq_detects_equal_and_unequal(R):
    x, y, z = R.gens()
    assert ideal_eq(Ideal(R, (x, y)), Ideal(R, (x + y, y)))
    assert not ideal_eq(Ideal(R, (x,)), Ideal(R, (x, y)))


def _same_intersection(a, b):
    """intersect returns the old construction's basis term for term,
    each element's terms sorted under grevlex."""
    got = intersect(a, b)
    assert got.ring == a.ring
    assert got.gens == intersect_reference(a, b).gens
    for g in got.gens:
        assert g == a.ring.from_dict(dict(g.terms))
    return got


def test_intersection_of_coordinate_ideals(R):
    x, y, z = R.gens()
    got = _same_intersection(Ideal(R, (x, y)), Ideal(R, (z,)))
    assert ideal_eq(got, Ideal(R, (x * z, y * z)))
    principal = _same_intersection(Ideal(R, (x,)), Ideal(R, (y,)))
    assert ideal_eq(principal, Ideal(R, (x * y,)))


def test_intersection_with_containment(R):
    x, y, z = R.gens()
    small = Ideal(R, (x * y, x * z ** 2))
    big = Ideal(R, (x,))
    assert ideal_eq(_same_intersection(small, big), small)
    assert ideal_eq(_same_intersection(big, small), small)


def test_intersection_matches_reference_with_fractions():
    R = Ring(QQ, 3, names=("x", "y", "z"))
    x, y, z = R.gens()
    h = R.constant(Fraction(1, 2))
    a = Ideal(R, (h * x * y + R.constant(Fraction(3, 7)) * z ** 2, R.constant(Fraction(-5, 3)) * y))
    b = Ideal(R, (R.constant(Fraction(2, 9)) * x - h * z, x * z + R.constant(Fraction(4, 5))))
    got = _same_intersection(a, b)
    assert any(c.denominator != 1 for g in got.gens for _, c in g.terms)


def test_intersection_with_an_ideal_without_generators(R):
    x, y, z = R.gens()
    empty = Ideal(R, ())
    zero = Ideal(R, (R.zero,))
    some = Ideal(R, (x * y + z, y ** 2))
    for a, b in ((empty, some), (some, empty), (empty, empty), (zero, some), (some, zero)):
        assert _same_intersection(a, b).gens == ()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_intersection_matches_reference(data):
    """Random ideals over both fields against the old construction."""
    field = data.draw(st.sampled_from([GF(32003), GF(7), QQ]))
    ring = Ring(field, 3, names=("x", "y", "z"))
    a = Ideal(ring, _random_polys(data.draw, ring, data.draw(st.integers(0, 2))))
    b = Ideal(ring, _random_polys(data.draw, ring, data.draw(st.integers(0, 2))))
    _same_intersection(a, b)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_homogeneous_intersection_matches_reference(data):
    """Random homogeneous ideals, whose S-pairs intersect meets in
    degree order, against the old construction."""
    field = data.draw(st.sampled_from([GF(32003), GF(7), QQ]))
    ring = Ring(field, 3, names=("x", "y", "z"))
    a = Ideal(ring, _random_homogeneous_polys(data.draw, ring, data.draw(st.integers(0, 2))))
    b = Ideal(ring, _random_homogeneous_polys(data.draw, ring, data.draw(st.integers(0, 2))))
    _same_intersection(a, b)


def test_intersect_takes_s_pairs_degree_first(R, monkeypatch):
    """Every input, a constant among the generators or not, is
    homogenized and eliminated with h and then t last under
    ``grevlex_layout(n + 2)``, the only layout its Groebner run sees.
    On homogeneous input the S-pairs come out by degree in (x, h), the
    grading in which every basis element is homogeneous."""
    x, y, z = R.gens()
    wide = grevlex_layout(R.nvars + 2)
    groebner_run, spoly = groebner._groebner, groebner._spoly
    layouts, seen = [], []

    def spy_groebner(gens, p, layout, *args):
        layouts.append(layout)
        return groebner_run(gens, p, layout, *args)

    def spy_spoly(l, a, b):
        seen.append(sum(wide.unpack(l)[:-1]))
        return spoly(l, a, b)

    monkeypatch.setattr(groebner, "_groebner", spy_groebner)
    monkeypatch.setattr(groebner, "_spoly", spy_spoly)
    homogeneous = (
        ((x * y, z ** 2), (x + y,)),
        ((x ** 2 - y * z, y ** 2), (x * z, y ** 3 + z ** 3)),
        ((x, y), (z,)),
        ((x * y * z, x ** 3 + y ** 3), (x ** 2 + y * z, z ** 3)),
    )
    other = (
        ((R.one,), (x, y ** 2 - x * z)),
        ((x * y, z + 1), (x + y,)),
        ((x * y,), (x + y, z ** 2 - x)),
    )
    for a, b in homogeneous + other:
        layouts.clear()
        seen.clear()
        _same_intersection(Ideal(R, a), Ideal(R, b))
        assert layouts == [wide]
        if (a, b) in homogeneous:
            assert seen and seen == sorted(seen)


def test_intersection_dehomogenizes_before_interreducing():
    """(z, z + 1) is the unit ideal, but its homogenization (z, z + h)
    is not: the intersection with (1) eliminates to (z, h), and only
    setting h = 1 before interreducing finds the constant, so the
    canonical basis is (1,)."""
    R = Ring(QQ, 3, names=("x", "y", "z"))
    _, _, z = R.gens()
    for a, b in ((Ideal(R, (z, z + 1)), Ideal(R, (R.one,))), (Ideal(R, (R.one,)), Ideal(R, (z + 1, z)))):
        assert _same_intersection(a, b).gens == (R.one,)


def test_radical_membership_basics(R):
    x, y, z = R.gens()
    I = Ideal(R, (x ** 2, y ** 3))
    assert radical_member(x, I)
    assert radical_member(x + y, I)
    assert not radical_member(z, I)
    assert radical_member(R.zero, I)
    # with no generator to reduce it, x - 1 enters the core as packed
    assert not radical_member(x, Ideal(R, ()))
    assert not radical_member(R.one, Ideal(R, (R.zero,)))


def test_radical_member_past_its_deadline_raises(R):
    x, _, _ = R.gens()
    # x^2 and x - 1 reduce neither other, so the run pops an S-pair
    ideal = Ideal(R, (x ** 2,))
    with pytest.raises(TimeoutError):
        radical_member(x, ideal, deadline=time.monotonic() - 1)
    assert radical_member(x, ideal, deadline=time.monotonic() + 60)


def _power_hit(f, ideal, limit=6):
    """Bounded power search: some f^e with e <= limit reduces to zero.

    A hit is a sound proof of radical membership, a miss proves nothing.
    """
    gb = ideal.groebner_basis()
    return any(reduce(f ** e, gb).is_zero() for e in range(1, limit + 1))


def test_radical_membership_power_search_agrees(R):
    x, y, z = R.gens()
    I = Ideal(R, (x ** 2 * z, y ** 4))
    for f in (x * z, y, x + z, z, x * y):
        if _power_hit(f, I):
            assert radical_member(f, I)
    for f in (x * z, y, x * y):
        assert _power_hit(f, I) and radical_member(f, I)
    for f in (x + z, z):
        assert not radical_member(f, I)


def _radical_cases():
    """Fixture ideals with one candidate outside and one inside the radical.

    x + y is tested against each ideal as it stands; h = x*y + z against
    the ideal with h^2 adjoined, where it is a member but, in general,
    not an ideal member.
    """
    cases = []
    for ideal in _fixture_ideals()[:4]:
        ring = ideal.ring
        x, y, z = ring.gens()
        h = x * y + z
        cases.append((ideal, x + y))
        cases.append((Ideal(ring, ideal.gens + (h ** 2,)), h))
    return cases


def test_radical_membership_matches_sympy_rabinowitsch():
    """rad membership against sympy's own basis of I + <1 - y*f>."""
    seen = {QQ: set(), GF(32003): set()}
    for ideal, f in _radical_cases():
        ring = ideal.ring
        syms = sympy.symbols(ring.names)
        u = sympy.Symbol("u")
        polys = [to_sympy(g, syms) for g in ideal.gens]
        polys.append(1 - u * to_sympy(f, syms))
        sgb = sympy.groebner(
            polys, *syms, u, order="grevlex", domain=sympy_domain(ring.field)
        )
        expected = list(sgb.exprs) == [1]
        assert radical_member(f, ideal) == expected
        seen[ring.field].add(expected)
    assert seen == {QQ: {True, False}, GF(32003): {True, False}}


def test_radical_eq(R):
    x, y, _ = R.gens()
    assert radical_eq(Ideal(R, (x ** 2 * y ** 3,)), Ideal(R, (x * y,)))
    assert not radical_eq(Ideal(R, (x ** 2 * y ** 3,)), Ideal(R, (x,)))


def _small_polys(ring):
    exps = st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1))
    return st.dictionaries(exps, st.integers(0, 100), min_size=1, max_size=2).map(
        lambda d: ring.from_dict({e: ring.field.from_int(c) for e, c in d.items()})
    )


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_product_splitting_lemma_gf101(data):
    """rad(I + (fg)) is the intersection of rad(I + (f)) and rad(I + (g))."""
    ring = Ring(GF(101), 3, names=("x", "y", "z"))
    f = data.draw(_small_polys(ring))
    g = data.draw(_small_polys(ring))
    base = data.draw(st.lists(_small_polys(ring), max_size=1))
    left = Ideal(ring, tuple(base) + (f * g,))
    right = intersect(
        Ideal(ring, tuple(base) + (f,)), Ideal(ring, tuple(base) + (g,))
    )
    assert radical_eq(left, right)


def _coeffs(field):
    """Small residues over GF(p); over QQ fractions a/b with b in 1..9,
    so inputs have denominators and leading coefficients other than
    +-1, and the core's clearing of denominators and fraction-free
    division both run."""
    if field == QQ:
        return st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
    return st.integers(-5, 5).map(field.from_int)


def _random_polys(draw, ring, count):
    exps = st.tuples(*[st.integers(0, 2)] * ring.nvars)
    coeffs = _coeffs(ring.field)
    out = []
    for _ in range(count):
        d = draw(st.dictionaries(exps, coeffs, min_size=1, max_size=3))
        out.append(ring.from_dict(d))
    return out


def _random_homogeneous_polys(draw, ring, count, low=0):
    """Polynomials of up to three terms, each homogeneous of a degree
    from low to 3; a constant makes its ideal the unit ideal."""
    coeffs = _coeffs(ring.field)
    out = []
    for _ in range(count):
        d = draw(st.integers(low, 3))
        monos = [e for e in product(range(d + 1), repeat=ring.nvars) if sum(e) == d]
        terms = draw(st.dictionaries(st.sampled_from(monos), coeffs, min_size=1, max_size=3))
        out.append(ring.from_dict(terms))
    return out


class _Captured(Exception):
    """Stops a Groebner run once its input is seen."""


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_padding_keeps_terms_sorted(data):
    """intersect and radical_member build their systems from a
    polynomial's own packing, with no sorting, and the monomials they
    hand the Groebner run are its terms padded for the extra variables,
    descending.  Against an ideal with an inhomogeneous generator,
    radical_member's y*f pads each term with y^1, last in one more
    variable.  Against a homogeneous ideal, here one with no
    generators, each homogeneous part of f of positive degree, highest
    first, gets a run of its own in the ring's own layout, its packing
    followed by the constant, and an f with a constant part gets none.
    intersect's g' pads each term e of g with h to deg g - |e| and
    t^0, t*g' pads it with t^1, h and t last in two more, and (1-t)*g'
    is the t-terms followed by g' itself."""
    field = data.draw(st.sampled_from([GF(101), QQ]))
    n = data.draw(st.integers(1, 6))
    ring = Ring(field, n)
    exps = st.tuples(*[st.integers(0, 3)] * n)
    f = ring.from_dict(data.draw(st.dictionaries(exps, _coeffs(field), min_size=1, max_size=8)))
    assume(not f.is_zero())
    d = f.total_degree()
    captured = []

    def spy(gens, p, layout, *args):
        captured.append((layout, [[m for m, _ in g] for g in gens]))
        raise _Captured

    def each_part(gens, p, layout, *args):
        captured.append((layout, [[m for m, _ in g] for g in gens]))
        return groebner._UNIT

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groebner, "_groebner", spy)
        with pytest.raises(_Captured):
            radical_member(f, Ideal(ring, (ring.gen(0) + 1,)))
        with pytest.raises(_Captured):
            intersect(Ideal(ring, (f,)), Ideal(ring, (f,)))
        mp.setattr(groebner, "_groebner", each_part)
        constant = not any(f.terms[-1][0])
        assert radical_member(f, Ideal(ring, ())) is not constant
    (wide, (rabinowitsch,)), (wider, (high, both)), *parts = captured
    assert wide is grevlex_layout(n + 1)
    assert rabinowitsch == [wide.pack(e + (1,)) for e, _ in f.terms] + [0]
    assert wider is grevlex_layout(n + 2)
    low = [wider.pack(e + (d - sum(e), 0)) for e, _ in f.terms]
    assert high == [wider.pack(e + (d - sum(e), 1)) for e, _ in f.terms]
    assert both == high + low
    degrees = [] if constant else sorted({sum(e) for e, _ in f.terms}, reverse=True)
    assert parts == [
        (ring.layout, [[ring.layout.pack(e) for e, _ in f.terms if sum(e) == k] + [0]])
        for k in degrees
    ]
    for keys in [rabinowitsch, both] + [system[0] for _, system in parts]:
        assert keys == sorted(keys, reverse=True)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_packed_core_matches_tuple_reference(data):
    """buchberger and reduce equal the tuple-exponent core term for term.

    GF(7) makes coefficients cancel often, so unnormalized terms that
    reach a multiple of p and are dropped only when popped get
    exercised.  A generator set may also hold g and g + c for a nonzero
    constant c, a unit that shows only after a reduction, which the
    core's stop at a unit must answer with the reference's basis (1,).
    Over QQ the coefficients are fractions (see ``_coeffs``), so the
    fraction-free division runs against the reference's.
    """
    field = data.draw(st.sampled_from([GF(32003), GF(101), GF(7), QQ]))
    seed = data.draw(st.sampled_from([None, 1, 2]))
    ring = Ring(field, 3, names=("x", "y", "z"))
    gens = _random_polys(data.draw, ring, data.draw(st.integers(1, 3)))
    if data.draw(st.booleans()):
        g = _random_polys(data.draw, ring, 1)[0]
        c = ring.constant(data.draw(st.integers(1, 6)))
        gens += [g, g + c]
    shuffled = list(gens)
    if seed is not None:
        random.Random(seed).shuffle(shuffled)
    gb = buchberger(shuffled)
    assert gb == ref.buchberger(shuffled)
    for f in _random_polys(data.draw, ring, 2):
        assert reduce(f, gb) == ref.reduce(f, gb)
        assert reduce(f, gens) == ref.reduce(f, gens)
    nonzero = [g for g in gens if not g.is_zero()]
    if len(nonzero) >= 2:
        assert s_polynomial(nonzero[0], nonzero[1]) == ref.s_polynomial(nonzero[0], nonzero[1])


def _rabinowitsch_reference(f, ideal):
    """Whether the tuple reference's basis of I + <1 - u*f>, grevlex
    with u last, is [1]; terms are sorted by the reference's own keys."""
    ring = ideal.ring
    ext = Ring(ring.field, ring.nvars + 1, names=ring.names + ("u",))
    neg = ring.field.neg
    gens = [ref._from_dict(ext, {e + (0,): c for e, c in g.terms}) for g in ideal.gens]
    adjoined = {e + (1,): neg(c) for e, c in f.terms}
    adjoined[(0,) * ext.nvars] = ring.field.one
    gens.append(ref._from_dict(ext, adjoined))
    return ref.buchberger(gens) == (ext.one,)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_radical_member_matches_tuple_reference(data):
    """radical_member builds its packed grevlex system itself, so it is
    checked against the reference's Rabinowitsch run.  f is a product
    or power of generators, always a member, or a random polynomial, in
    general not one."""
    field = data.draw(st.sampled_from([GF(7), GF(32003), QQ]))
    ring = Ring(field, 3, names=("x", "y", "z"))
    exps = st.tuples(*[st.integers(0, 1)] * 3)
    coeffs = _coeffs(field)

    def poly(max_size):
        d = data.draw(st.dictionaries(exps, coeffs, min_size=1, max_size=max_size))
        return ring.from_dict(d)

    gens = [poly(3) for _ in range(data.draw(st.integers(1, 2)))]
    ideal = Ideal(ring, gens)
    kind = data.draw(st.sampled_from(["power", "product", "random"]))
    if kind == "power":
        f = gens[0] ** 2
    elif kind == "product":
        f = gens[-1] * poly(2)
    else:
        f = poly(2)
    expected = _rabinowitsch_reference(f, ideal) if not f.is_zero() else True
    if kind != "random":
        assert expected
    assert radical_member(f, ideal) == expected


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_radical_member_matches_rabinowitsch_oracle(data):
    """A homogeneous ideal decides f in rad(I) with no extra variable,
    part by part, and must answer as the Rabinowitsch oracle of
    ``ideal_helpers``, which adjoins y through the public API.  The
    ideals are random homogeneous ones of positive degrees, the same
    with a constant generator, which makes the unit ideal, one without
    generators, (0), or one whose first generator has a nonzero
    constant added, which takes the Rabinowitsch system.  f is
    homogeneous, a generator's leading homogeneous part, a sum of parts
    of several degrees, with or without a constant, a combination of
    the generators, zero or a nonzero constant."""
    field = data.draw(st.sampled_from([GF(7), GF(32003), QQ]))
    ring = Ring(field, 3, names=("x", "y", "z"))
    kind = data.draw(st.sampled_from(["homogeneous", "unit", "empty", "zero", "inhomogeneous"]))
    gens = []
    if kind == "zero":
        gens = [ring.zero]
    elif kind != "empty":
        gens = _random_homogeneous_polys(data.draw, ring, data.draw(st.integers(1, 3)), low=1)
    if kind == "unit":
        gens.insert(data.draw(st.integers(0, len(gens))), ring.constant(data.draw(st.integers(1, 6))))
    elif kind == "inhomogeneous":
        gens[0] = gens[0] + ring.constant(data.draw(st.integers(1, 6)))
    ideal = Ideal(ring, gens)

    def homogeneous():
        return _random_homogeneous_polys(data.draw, ring, 1, low=1)[0]

    shape = data.draw(st.sampled_from(["homogeneous", "part", "mixed", "combination", "zero", "constant"]))
    if shape == "homogeneous":
        f = homogeneous()
    elif shape == "part" and not all(g.is_zero() for g in gens):
        top = max(g.total_degree() for g in gens)
        g = next(g for g in gens if g.total_degree() == top)
        f = ring.from_dict({e: c for e, c in g.terms if sum(e) == top})
    elif shape == "mixed":
        f = homogeneous() + homogeneous() + ring.constant(data.draw(st.integers(0, 2)))
    elif shape == "combination" and gens:
        f = ring.sum(g * homogeneous() for g in gens)
    elif shape == "zero":
        f = ring.zero
    else:
        f = ring.constant(data.draw(st.integers(1, 6)))
    assert radical_member(f, ideal) == rabinowitsch_member(f, ideal)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_ideal_answers_many_radical_tests_like_fresh_ones(data):
    """One ideal keeps its packed, mutually reduced generators for every
    radical test after the first, so a reused ideal must answer
    each element as a fresh ideal and the tuple reference do.  The
    generators may include a zero one, or g and g + c for a nonzero
    constant c, which reduce to a unit before any element is adjoined."""
    field = data.draw(st.sampled_from([GF(7), GF(32003), QQ]))
    ring = Ring(field, 3, names=("x", "y", "z"))
    exps = st.tuples(*[st.integers(0, 1)] * 3)
    coeffs = _coeffs(field)

    def poly(max_size):
        return ring.from_dict(data.draw(st.dictionaries(exps, coeffs, min_size=1, max_size=max_size)))

    gens = [poly(3) for _ in range(data.draw(st.integers(1, 2)))]
    extra = data.draw(st.sampled_from(["none", "zero", "unit"]))
    if extra == "zero":
        gens.insert(data.draw(st.integers(0, len(gens))), ring.zero)
    elif extra == "unit":
        gens += [gens[0] + ring.constant(data.draw(st.integers(1, 6)))]
    shared = Ideal(ring, gens)
    elements = [gens[0] ** 2, gens[-1] * poly(2), poly(2), poly(2), ring.zero, ring.one]
    answers = []
    for f in elements:
        expected = _rabinowitsch_reference(f, shared) if not f.is_zero() else True
        assert radical_member(f, shared) == radical_member(f, Ideal(ring, gens)) == expected
        answers.append(expected)
    assert shared._start is not None
    if extra == "unit":
        assert all(answers)


def test_warm_radical_input_still_meets_its_deadline(R):
    """After the first call has kept the ideal's packed generators, a
    run past its deadline still raises once it pops an S-pair, and the
    next call with time left answers as before.  x - 1 and x^2 make a
    pair, and so does each part minus 1 of x + y.  z - 1, x^2 and y^3
    are pairwise coprime, so no pair is ever queued and the run answers
    past its deadline, as an ideal whose generators reduce to a unit
    answers before any pair is popped."""
    x, y, z = R.gens()
    ideal = Ideal(R, (x ** 2, R.zero, y ** 3))
    assert radical_member(x, ideal)
    assert ideal._start is not None
    for f in (x, x + y):
        with pytest.raises(TimeoutError):
            radical_member(f, ideal, deadline=time.monotonic() - 1)
    assert not radical_member(z, ideal, deadline=time.monotonic() - 1)
    assert radical_member(x + y, ideal, deadline=time.monotonic() + 60)
    assert not radical_member(z, ideal, deadline=time.monotonic() + 60)
    unit = Ideal(R, (x * y + z, x * y + z + 3))
    assert radical_member(z, unit)
    assert radical_member(x + 1, unit, deadline=time.monotonic() - 1)


def test_polynomial_keeps_only_its_own_packing(R):
    """A polynomial keeps its packing in its own ring's layout, which
    every later reduction reuses; the wider packings that
    radical_member, against an ideal with an inhomogeneous generator,
    and intersect shift it into are neither kept nor served in its
    place, and nor are the parts that a homogeneous ideal tests."""
    x, y, z = R.gens()
    f = x * y + R.constant(Fraction(2, 3)) * z
    wide = grevlex_layout(R.nvars + 1)
    padded = [(wide.pack(e + (1,)), c) for e, c in f.terms]
    assert f._packed is None
    own = f.packed()
    assert f.packed() is own and f._packed is own
    assert own == ([(R.layout.pack((1, 1, 0)), 3), (R.layout.pack((0, 0, 1)), 2)], 3)
    assert own[0] != padded
    assert radical_member(f, Ideal(R, (x, z))) and not radical_member(f, Ideal(R, (x,)))
    assert f._packed is own
    assert radical_member(f, Ideal(R, (x, z + x * x))) and not radical_member(f, Ideal(R, (x + 1,)))
    assert f._packed is own
    assert intersect(Ideal(R, (f,)), Ideal(R, (x,))).gens == (x * f,)
    assert f._packed is own
    assert reduce(f, [x]) == R.constant(Fraction(2, 3)) * z and f._packed is own


def test_pair_lcm_past_degree_limit_raises():
    """The lcm of x^20000*y and x*y^20000, which share both variables,
    has degree 40,000, past the packed limit, and is refused when its
    pair is queued."""
    ring = Ring(GF(32003), 2, names=("x", "y"))
    x, y = ring.gens()
    a, b = x ** 20000 * y + 1, x * y ** 20000 + 1
    for gens in ((a, b), (b, a)):
        with pytest.raises(UsageError, match=f"degree 40000 .*limit {DEGREE_LIMIT}"):
            buchberger(gens)


@pytest.mark.parametrize("field", [GF(32003), QQ])
def test_coprime_pair_past_degree_limit_is_never_queued(field):
    """A pair whose leading monomials are coprime is skipped by the
    product criterion where it is made, before its lcm meets the degree
    limit: x^20000 + y and y^20000 + x are already a reduced basis, and
    x^(DEGREE_LIMIT - 1) - 1, the one part of f minus 1 that (y,) does
    not reduce to a constant, makes no pair with y."""
    ring = Ring(field, 2, names=("x", "y"))
    x, y = ring.gens()
    gens = (x ** 20000 + y, y ** 20000 + x)
    assert set(buchberger(gens)) == set(gens) == set(buchberger(gens[::-1]))
    assert not radical_member(x ** (DEGREE_LIMIT - 1) + y, Ideal(ring, (y,)))


def test_intersection_past_degree_limit_raises():
    """t*g' for a generator g of degree DEGREE_LIMIT - 1, homogenized,
    does not fit, on either side of the intersection, and is refused at
    its own degree before the Groebner run."""
    ring = Ring(GF(32003), 2, names=("x", "y"))
    x, y = ring.gens()
    big = Ideal(ring, (x ** (DEGREE_LIMIT - 1) + y,))
    for a, b in ((big, Ideal(ring, (y,))), (Ideal(ring, (y,)), big)):
        with pytest.raises(UsageError, match=f"degree {DEGREE_LIMIT} .*limit {DEGREE_LIMIT}"):
            intersect(a, b)


def test_radical_member_reference_sees_both_answers():
    """The reference oracle above separates members from non-members."""
    ring = Ring(GF(7), 3, names=("x", "y", "z"))
    x, y, z = ring.gens()
    ideal = Ideal(ring, (x ** 2 - y * z, y ** 2))
    for f, member in ((x * y, True), (x, True), (z, False), (x + z, False)):
        assert _rabinowitsch_reference(f, ideal) is member
        assert radical_member(f, ideal) is member


def test_radical_member_past_degree_limit_raises():
    """Against an ideal with an inhomogeneous generator, which takes the
    Rabinowitsch system, y*f for f of degree DEGREE_LIMIT - 1 does not
    fit, and is refused at its own degree before the Groebner run,
    whether or not the ideal's generators would reduce it to a
    constant: (x, y + x^2) is (x, y), which holds f.  Only an ideal whose
    generators reduce to a constant, such as (x, x + 1), answers True
    before y*f is built.  A homogeneous ideal adjoins no y: over (x, y)
    each part of f minus 1 reduces to a constant, so f is a member, with
    no refusal.  Over (y,) the part x^(DEGREE_LIMIT - 1) - 1 and y are
    coprime, so their pair is never queued and its lcm, of degree
    DEGREE_LIMIT, never refused: f is not a member."""
    for field in (GF(32003), QQ):
        ring = Ring(field, 2, names=("x", "y"))
        x, y = ring.gens()
        f = x ** (DEGREE_LIMIT - 1) + y
        for ideal in (Ideal(ring, (x, y + x ** 2)), Ideal(ring, (y + x ** 2,))):
            with pytest.raises(UsageError, match=f"degree {DEGREE_LIMIT} .*limit {DEGREE_LIMIT}"):
                radical_member(f, ideal)
        assert radical_member(f, Ideal(ring, (x, x + 1)))
        assert radical_member(f, Ideal(ring, (x, y)))
        assert not radical_member(f, Ideal(ring, (y,)))
