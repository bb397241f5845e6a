"""Exactness and canonicity of the coefficient fields."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from starconfig.errors import UsageError
from starconfig.fields import DEFAULT_PRIME, GF, MAX_MODULUS, QQ, is_prime


def test_rationals_are_exact():
    a = QQ.from_int(1)
    third = QQ.div(a, QQ.from_int(3))
    assert third == Fraction(1, 3)
    assert QQ.add(third, QQ.add(third, third)) == QQ.one
    assert QQ.characteristic == 0


def test_rational_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.zero)


def test_prime_field_canonical_residues():
    F = GF(7)
    assert F.from_int(10) == 3
    assert F.from_int(-1) == 6
    assert F.add(5, 4) == 2
    assert F.neg(0) == 0
    assert F.characteristic == 7


def test_prime_field_every_nonzero_invertible():
    F = GF(13)
    for a in range(1, 13):
        assert F.mul(a, F.inv(a)) == F.one
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_non_prime_modulus_rejected():
    for bad in (0, 1, 4, 15, 32004):
        with pytest.raises(UsageError):
            GF(bad)
    with pytest.raises(UsageError):
        GF(MAX_MODULUS + 7)


def test_default_prime_is_usable():
    assert is_prime(DEFAULT_PRIME)
    assert DEFAULT_PRIME < MAX_MODULUS
    GF(DEFAULT_PRIME)


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 101, 32003}
    for n in range(-3, 30):
        assert is_prime(n) == (n in primes or n in (17, 19, 23, 29))


@given(st.integers(), st.integers(), st.integers())
def test_gf101_ring_axioms(a, b, c):
    F = GF(101)
    a, b, c = F.from_int(a), F.from_int(b), F.from_int(c)
    assert F.add(a, b) == F.add(b, a)
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.sub(a, a) == F.zero
    assert F.mul(F.neg(a), b) == F.neg(F.mul(a, b))


@given(st.integers(min_value=1, max_value=100))
def test_gf101_inverse_roundtrip(a):
    F = GF(101)
    assert F.inv(F.inv(a)) == a
