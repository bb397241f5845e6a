"""Polynomial arithmetic, the monomial orders, forms and their products."""

import re
from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

from starconfig.arrangements import _integer_rows, random_generic_arrangement
from starconfig.errors import UsageError
from starconfig.fields import GF, QQ
from starconfig.orders import (
    DEGREE_LIMIT,
    FIELD_BITS,
    grevlex_layout,
    grevlex_widen,
    mono_divides,
    mono_mul,
)
from starconfig.polynomials import Polynomial, ProductOfForms, Ring, packed_product

from groebner_reference import tuple_key


def cmp_monomials(layout, a, b):
    """Compare two monomials under the layout's order: -1, 0, or 1."""
    if len(a) != len(b):
        raise UsageError(f"monomial arity mismatch: {len(a)} vs {len(b)}")
    ka, kb = layout.pack(a), layout.pack(b)
    return (ka > kb) - (ka < kb)


def test_grevlex_orders_by_degree_then_reverse():
    # x1^2*x2 beats x1*x2^2: same degree, smaller last exponent wins
    grevlex = grevlex_layout(3)
    assert cmp_monomials(grevlex, (2, 1, 0), (1, 2, 0)) == 1
    assert cmp_monomials(grevlex, (0, 0, 3), (1, 1, 0)) == 1
    assert cmp_monomials(grevlex_layout(2), (1, 1), (1, 1)) == 0


def test_grevlex_with_t_last_ranks_t_first_at_equal_degree_in_the_others():
    # at one degree in the other variables, more of the last variable t
    # is larger, whatever the rest: the order under which intersect
    # eliminates t from systems homogeneous in the others
    grevlex = grevlex_layout(3)
    assert cmp_monomials(grevlex, (0, 1, 1), (1, 0, 0)) == 1
    assert cmp_monomials(grevlex, (0, 3, 1), (3, 0, 2)) == -1
    assert cmp_monomials(grevlex, (2, 1, 0), (1, 2, 0)) == 1
    # it is no elimination order: a t-free monomial of larger degree wins
    assert cmp_monomials(grevlex, (0, 0, 1), (2, 0, 0)) == -1


def test_cmp_rejects_arity_mismatch():
    with pytest.raises(UsageError):
        cmp_monomials(grevlex_layout(3), (1, 0), (1, 0, 0))


def test_mono_helpers():
    assert mono_divides((1, 0, 2), (1, 1, 2))
    assert not mono_divides((2, 0), (1, 5))
    assert mono_mul((2, 1), (1, 3)) == (3, 4)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_packed_keys_match_tuple_keys(data):
    """The packed int sorts like the grevlex tuple key, adds under
    products, and its guard test is componentwise <=.  Its top field
    holds the total degree, so the lcm alone keys the S-pair queue
    degree-first."""
    n = data.draw(st.integers(1, 6))
    layout = grevlex_layout(n)
    key = layout.pack
    exps = st.tuples(*[st.integers(0, 40)] * n)
    monos = data.draw(st.lists(exps, min_size=2, max_size=12, unique=True))
    assert sorted(monos, key=key) == sorted(monos, key=lambda e: tuple_key("grevlex", e))
    for a in monos[:4]:
        for b in monos:
            assert key(mono_mul(a, b)) == key(a) + key(b)
            assert not (key(mono_mul(a, b)) - key(a)) & layout.guard
            packed_divides = not (key(b) - key(a)) & layout.guard
            assert packed_divides == all(x <= y for x, y in zip(a, b))
    assert [layout.unpack(key(e)) for e in monos] == monos
    assert [key(e) >> FIELD_BITS * (2 * n - 1) for e in monos] == [sum(e) for e in monos]


def test_degree_past_packed_limit_raises():
    R = Ring(QQ, 2)
    x, _ = R.gens()
    with pytest.raises(UsageError, match=f"degree {DEGREE_LIMIT} .*limit {DEGREE_LIMIT}"):
        x ** 40000
    assert (x ** (DEGREE_LIMIT - 1)).total_degree() == DEGREE_LIMIT - 1


@pytest.fixture
def R():
    return Ring(QQ, 3, names=("x", "y", "z"))


def test_ring_construction_and_gens(R):
    x, y, z = R.gens()
    assert (x + y) - x == y
    assert R.linear((1, 2, 0)) == x + 2 * y
    assert R.zero.is_zero()
    assert R.one.total_degree() == 0


def test_terms_sorted_and_no_zeros(R):
    x, y, z = R.gens()
    f = x * y + z * z * z - x * y
    assert f == z ** 3
    keys = [R.layout.pack(e) for e, _ in (x ** 2 + y ** 2 + x * y).terms]
    assert keys == sorted(keys, reverse=True)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_linear_matches_from_dict(data):
    """A row with zero entries becomes the same polynomial as from_dict
    of its terms, already descending by packed key."""
    field = data.draw(st.sampled_from([GF(7), GF(32003), QQ]))
    n = data.draw(st.integers(1, 6))
    nums = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    den = field.from_int(data.draw(st.integers(1, 4)))
    row = [field.div(field.from_int(c), den) for c in nums]
    ring = Ring(field, n)
    f = ring.linear(row)
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    assert f.terms == ring.from_dict(dict(zip(units, row))).terms
    keys = [ring.layout.pack(e) for e, _ in f.terms]
    assert all(a > b for a, b in zip(keys, keys[1:]))
    assert len(f.terms) == sum(c != 0 for c in nums)


def test_binomial_square_in_characteristic_two():
    R2 = Ring(GF(2), 2)
    x, y = R2.gens()
    assert (x + y) ** 2 == x ** 2 + y ** 2


def test_pow_matches_repeated_multiplication(R):
    x, y, _ = R.gens()
    f = x + 2 * y + 1
    assert f ** 4 == f * f * f * f
    assert f ** 0 == R.one


def test_ring_mismatch_rejected(R):
    other = Ring(QQ, 2)
    with pytest.raises(UsageError):
        R.gen(0) + other.gen(0)


def test_repeated_variable_names_rejected():
    with pytest.raises(UsageError, match="'x'"):
        Ring(QQ, 3, names=("x", "y", "x"))


@pytest.mark.parametrize("names", [("x*y", "z"), ("", "z"), ("1", "2"), ("x", "y z")])
def test_variable_names_must_be_identifiers(names):
    bad = next(x for x in names if not x.isidentifier())
    with pytest.raises(UsageError, match=re.escape(f"{bad!r} is not an identifier")):
        Ring(QQ, 2, names=names)
    assert Ring(QQ, 2, names=("t", "u")).names == ("t", "u")
    assert Ring(QQ, 12).names[-1] == "x12"


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_product_of_forms_canonical_with_repeats(data):
    """The expansion of a product of rows does not depend on the order
    of its factors, and a repeated row expands as a power."""
    field = data.draw(st.sampled_from([GF(5), QQ]))
    ring = Ring(field, 3)
    row = st.tuples(*[st.integers(-3, 3).map(field.from_int)] * 3)
    rows = data.draw(st.lists(row, min_size=1, max_size=4))
    order = data.draw(st.permutations(range(len(rows))))
    product = ProductOfForms(field, rows).expand(ring)
    assert product == ProductOfForms(field, [rows[i] for i in order]).expand(ring)
    rest = ProductOfForms(field, rows[1:]).expand(ring)
    assert ProductOfForms(field, [rows[0], *rows]).expand(ring) == ring.linear(rows[0]) ** 2 * rest
    assert ProductOfForms(field, ()).expand(ring) == ring.one


def test_product_expand(R):
    x, y, _ = R.gens()
    p = ProductOfForms(QQ, ((1, 1, 0), (1, 0, 0)))
    assert p.expand(R) == x * (x + y)
    with pytest.raises(UsageError, match="does not match"):
        ProductOfForms(GF(5), ((1, 1, 0),)).expand(R)
    with pytest.raises(UsageError, match="expected 3 coefficients"):
        ProductOfForms(QQ, ((1, 0),)).expand(R)


def _polys(ring, max_terms=4):
    exps = st.tuples(*(st.integers(0, 2) for _ in range(ring.nvars)))
    coeffs = st.integers(-4, 4)
    return st.lists(st.tuples(exps, coeffs), max_size=max_terms).map(
        lambda pairs: sum(
            (ring.constant(c) * ring.from_dict({e: ring.field.one}) for e, c in pairs),
            ring.zero,
        )
    )


@settings(max_examples=60)
@given(data=st.data())
def test_ring_axioms_hold(data):
    ring = Ring(GF(7), 2)
    f = data.draw(_polys(ring))
    g = data.draw(_polys(ring))
    h = data.draw(_polys(ring))
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h
    assert f - f == ring.zero
    assert (f * g).is_zero() or (f * g).lm() == tuple(
        a + b for a, b in zip(f.lm(), g.lm())
    )


def _field_rows(data, field, n, max_rows=6):
    """Rows of field elements: dense forms (with fractions over QQ), unit
    rows, single entries other than 1, and a repeat of the first."""
    if field == QQ:
        entries = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    else:
        entries = st.integers(-4, 4).map(field.from_int)
    dense = st.lists(entries, min_size=n, max_size=n)
    single = st.tuples(st.integers(0, n - 1), entries.filter(lambda c: c != 0)).map(
        lambda ic: [ic[1] if i == ic[0] else field.zero for i in range(n)]
    )
    unit = st.integers(0, n - 1).map(lambda i: [field.from_int(int(j == i)) for j in range(n)])
    rows = data.draw(st.lists(st.one_of(dense, single, unit), max_size=max_rows))
    if rows and data.draw(st.booleans()):
        rows += [rows[0]] * data.draw(st.integers(1, 2))
    return [tuple(row) for row in data.draw(st.permutations(rows))]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_packed_kernel_matches_expand(data):
    """The packed kernel, on the rows scaled to ints and divided by the
    product of the scales, is the polynomial that ProductOfForms.expand
    gives, and it is born with the packing that the expansion packs
    to.  Rows mix dense forms, fractions over QQ, unit rows, single
    entries other than 1 and repeats."""
    field = data.draw(st.sampled_from([GF(7), GF(32003), QQ]))
    n = data.draw(st.integers(1, 4))
    ring = Ring(field, n)
    rows = _field_rows(data, field, n)
    _, ints, scales = _integer_rows(field, rows)
    born = packed_product(ring, ints, prod(scales))
    assert born._terms is None
    expanded = ProductOfForms(field, rows).expand(ring)
    assert born.packed() == expanded.packed()
    assert born.terms == expanded.terms


@settings(max_examples=60, deadline=None)
@given(
    field=st.sampled_from([GF(7), GF(32003), QQ]),
    k=st.integers(2, 4),
    extra=st.integers(0, 2),
    seed=st.integers(0, 10 ** 6),
    data=st.data(),
)
def test_packed_products_match_products_in_both_coordinates(field, k, extra, seed, data):
    """Arrangement.packed_product equals Arrangement.product on label
    tuples with repeats, in the input coordinates and in the adapted
    ones, where the basis forms are unit rows."""
    arr = random_generic_arrangement(k, k + extra, field, seed=seed)
    labels = st.lists(st.integers(1, arr.n), max_size=k + 2)
    for coords in (arr, arr.adapted()):
        chosen = tuple(data.draw(labels))
        assert coords.packed_product(chosen) == coords.product(chosen)


def _twins(data, field):
    """A polynomial built from tuple terms and a maker of fresh twins
    born packed from an independent packing of those terms."""
    ring = Ring(field, 3)
    rows = _field_rows(data, field, 3, max_rows=3)
    f = ProductOfForms(field, rows).expand(ring) + data.draw(st.integers(-2, 2))
    den = lcm(*[Fraction(c).denominator for _, c in f.terms])
    packed = [(ring.layout.pack(e), int(c * den)) for e, c in f.terms]
    return ring, f, lambda: Polynomial(ring, None, (list(packed), den))


@settings(max_examples=80, deadline=None)
@given(field=st.sampled_from([GF(7), GF(32003), QQ]), data=st.data())
def test_born_packed_polynomial_agrees_with_its_tuple_twin(field, data):
    """A polynomial born packed and its tuple-built twin agree on ==,
    hash, repr and is_zero, and as either operand of + and * with tuple
    polynomials; each check starts from a fresh twin whose terms are
    not built yet."""
    ring, f, twin = _twins(data, field)
    g = ProductOfForms(field, _field_rows(data, field, 3, max_rows=2)).expand(ring) + 1
    assert twin().is_zero() == f.is_zero()
    assert twin() == f and f == twin()
    assert hash(twin()) == hash(f)
    assert repr(twin()) == repr(f)
    assert twin() + g == f + g and g + twin() == g + f
    assert twin() * g == f * g and g * twin() == g * f
    assert twin() - g == f - g and twin() * 2 == f * 2


def test_born_packed_zero_and_sums():
    """The zero polynomial born packed is zero without unpacking, and
    Ring.sum adds over one common denominator, cancelling to zero."""
    ring = Ring(QQ, 2)
    x, y = ring.gens()
    zero = Polynomial(ring, None, ([], 1))
    assert zero.is_zero() and zero._terms is None and zero == ring.zero
    half = ring.constant(Fraction(1, 2)) * x
    total = ring.sum([half, ring.constant(Fraction(1, 3)) * y, half])
    assert total._terms is None and total == x + ring.constant(Fraction(1, 3)) * y
    assert total.packed() == ([(ring.layout.pack((1, 0)), 3), (ring.layout.pack((0, 1)), 1)], 3)
    assert ring.sum([x, -x]).is_zero() and ring.sum([]).is_zero()
    with pytest.raises(UsageError):
        ring.sum([x, Ring(QQ, 3).gen(0)])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_widen_is_the_packing_with_y_absent(data):
    """grevlex_widen(n) takes a monomial's packing in n variables to
    grevlex_layout(n + 1).pack(e + (0,)), the extra variable y last and
    absent, and adding y's unit gives the packing of e + (1,).  Widened
    twice, as intersect puts h and then t last, it gives
    grevlex_layout(n + 2).pack(e + (0, 0)).  Dropping the bottom two and
    top two fields of any packing e + (a, b) in n + 2 variables, as
    intersect sets h = 1 in its t-free elements, gives the narrow
    packing of e."""
    n = data.draw(st.integers(1, 6))
    e = data.draw(st.tuples(*[st.integers(0, 300)] * n))
    narrow = grevlex_layout(n).pack(e)
    wide = grevlex_layout(n + 1)
    widened = grevlex_widen(n)(narrow)
    assert widened == wide.pack(e + (0,))
    assert widened + wide.units[n] == wide.pack(e + (1,))
    wider = grevlex_layout(n + 2)
    assert grevlex_widen(n + 1)(widened) == wider.pack(e + (0, 0))
    a, b = data.draw(st.integers(0, 300)), data.draw(st.integers(0, 300))
    mask = (1 << 2 * n * FIELD_BITS) - 1
    assert (wider.pack(e + (a, b)) >> 2 * FIELD_BITS) & mask == narrow
