"""Polynomial arithmetic, monomial orders, forms and their products."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from starconfig.errors import UsageError
from starconfig.fields import GF, QQ
from starconfig.orders import (
    GREVLEX,
    LEX,
    BlockOrder,
    DEGREE_LIMIT,
    mono_divides,
    mono_mul,
)
from starconfig.polynomials import ProductOfForms, Ring

from groebner_reference import tuple_key


def cmp_monomials(order, a, b):
    """Compare two monomials under the order: -1, 0, or 1."""
    if len(a) != len(b):
        raise UsageError(f"monomial arity mismatch: {len(a)} vs {len(b)}")
    ka, kb = order.key(a), order.key(b)
    return (ka > kb) - (ka < kb)


def _orders(n):
    return (GREVLEX, LEX, BlockOrder({n - 1}), BlockOrder({0, n - 1}))


def test_grevlex_orders_by_degree_then_reverse():
    # x1^2*x2 beats x1*x2^2: same degree, smaller last exponent wins
    assert cmp_monomials(GREVLEX, (2, 1, 0), (1, 2, 0)) == 1
    assert cmp_monomials(GREVLEX, (0, 0, 3), (1, 1, 0)) == 1
    assert cmp_monomials(GREVLEX, (1, 1), (1, 1)) == 0


def test_lex_ignores_degree():
    assert cmp_monomials(LEX, (1, 0), (0, 5)) == 1


def test_block_order_eliminates_front_block():
    # any monomial touching the front variable outranks any that avoids it
    order = BlockOrder({2})
    assert cmp_monomials(order, (0, 0, 1), (4, 5, 0)) == 1


def test_cmp_rejects_arity_mismatch():
    for order in _orders(3):
        with pytest.raises(UsageError):
            cmp_monomials(order, (1, 0), (1, 0, 0))


def test_mono_helpers():
    assert mono_divides((1, 0, 2), (1, 1, 2))
    assert not mono_divides((2, 0), (1, 5))
    assert mono_mul((2, 1), (1, 3)) == (3, 4)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_packed_keys_match_tuple_keys(data):
    """The packed int of each order sorts like its tuple key, adds under
    products, and its guard test is componentwise <=."""
    n = data.draw(st.integers(1, 6))
    exps = st.tuples(*[st.integers(0, 40)] * n)
    monos = data.draw(st.lists(exps, min_size=2, max_size=12, unique=True))
    for order in _orders(n):
        layout = order.layout(n)
        assert sorted(monos, key=order.key) == sorted(monos, key=lambda e: tuple_key(order, e))
        for a in monos[:4]:
            for b in monos:
                assert order.key(mono_mul(a, b)) == order.key(a) + order.key(b)
                assert not (order.key(mono_mul(a, b)) - order.key(a)) & layout.guard
                packed_divides = not (order.key(b) - order.key(a)) & layout.guard
                assert packed_divides == all(x <= y for x, y in zip(a, b))
        assert [layout.unpack(order.key(e)) for e in monos] == monos


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
    keys = [R.order.key(e) for e, _ in (x ** 2 + y ** 2 + x * y).terms]
    assert keys == sorted(keys, reverse=True)


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
