"""Explicit generators, their verification, and the level partitions."""

import json
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from starconfig import stci
from starconfig.arrangements import Arrangement, random_generic_arrangement
from starconfig.errors import GenericityError, UsageError
from starconfig.fields import GF, QQ
from starconfig.stci import (
    CORRUPTION_MODES,
    SVPartition,
    corrupt_certificate,
    sv_ara_partition,
    sv_check_partition,
    sv_sums,
    theorem_generators,
    verify_certificate,
)

from arrangement_helpers import delete


@pytest.fixture
def hartshorne():
    return Arrangement(
        QQ,
        [
            (1, 0, 0, 0),
            (0, 1, 0, 0),
            (1, 1, 0, 0),
            (0, 0, 1, 0),
            (0, 0, 0, 1),
            (0, 0, 1, 1),
        ],
        names=("x", "y", "z", "w"),
    )


@pytest.fixture
def coord_plus_sum():
    return Arrangement(QQ, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])


def test_certificate_shape(coord_plus_sum):
    n = coord_plus_sum.n
    cert = theorem_generators(coord_plus_sum, 1)
    assert len(cert.gens) == 2
    assert cert.names() == ("tail", "F1")
    tail, f1 = cert.levels
    assert tail == ((2, 3, 4),)
    assert all(p[0] == 1 for p in f1)
    assert len(f1) == comb(n - 1, n - 2)
    a = n - 1
    assert all(g.total_degree() == a for g in cert.gens)


def test_certificate_gens_lie_in_the_afold_ideal(coord_plus_sum):
    for j in (0, 1):
        cert = theorem_generators(coord_plus_sum, j)
        afold = coord_plus_sum.afold_ideal(coord_plus_sum.n - j)
        for g in cert.gens:
            assert afold.contains(g)


def test_j_zero_is_the_full_product(hartshorne):
    cert = theorem_generators(hartshorne, 0)
    assert len(cert.gens) == 1
    assert cert.levels == (((1, 2, 3, 4, 5, 6),),)
    assert cert.gens[0].total_degree() == 6


def test_preconditions(hartshorne, coord_plus_sum):
    with pytest.raises(GenericityError) as exc:
        theorem_generators(hartshorne, 1)
    assert exc.value.subset == (1, 2, 3, 4)
    with pytest.raises(UsageError):
        theorem_generators(coord_plus_sum, 2)  # rank 3 allows only j <= 1
    with pytest.raises(UsageError):
        theorem_generators(coord_plus_sum, -1)
    with pytest.raises(UsageError):
        theorem_generators(coord_plus_sum, 4)


def test_levels_round_trip_through_json(coord_plus_sum):
    cert = theorem_generators(coord_plus_sum, 1)
    again = SVPartition(coord_plus_sum, 1, json.loads(json.dumps(cert.levels)))
    assert again.levels == cert.levels
    assert again.gens == cert.gens


def test_verify_holds(coord_plus_sum):
    rep = verify_certificate(theorem_generators(coord_plus_sum, 1))
    assert rep.holds is True
    assert rep.status == "holds"
    assert rep.stci is True
    assert rep.height == 2
    assert rep.generator_count == 2
    assert all(c.ok for c in rep.checks)


def test_verify_j_zero_any_arrangement(hartshorne):
    rep = verify_certificate(theorem_generators(hartshorne, 0))
    assert rep.holds is True
    assert rep.height == 1 and rep.stci is True


def test_verify_over_prime_field():
    arr = random_generic_arrangement(4, 5, field=GF(32003), seed=3)
    for j in (1, 2):
        rep = verify_certificate(theorem_generators(arr, j))
        assert rep.holds is True
        assert rep.stci is True
        assert rep.height == j + 1


def test_corrupted_certificates_fail_with_witnesses(coord_plus_sum):
    for mode in CORRUPTION_MODES:
        bad = corrupt_certificate(theorem_generators(coord_plus_sum, 1), mode)
        rep = verify_certificate(bad)
        assert rep.holds is False
        assert rep.status == "fails"
        failures = [c for c in rep.checks if c.ok is False]
        assert failures and all(f.witness for f in failures)


def test_corruption_modes_break_different_checks(coord_plus_sum):
    cert = theorem_generators(coord_plus_sum, 1)
    first_failures = {}
    for mode in CORRUPTION_MODES:
        rep = verify_certificate(corrupt_certificate(cert, mode))
        first_failures[mode] = next(c.name for c in rep.checks if c.ok is False)
    # the tail corruption is caught at containment, the summand drop only
    # at the radical stage
    assert first_failures["truncate-tail"].startswith("containment")
    assert first_failures["drop-summand"].startswith("radical-membership")


def test_disagreeing_routes_fail_the_cross_check(coord_plus_sum, monkeypatch):
    # a minimal prime that wrongly rejects F1, while containment and the
    # Groebner route still accept it
    cert = theorem_generators(coord_plus_sum, 1)
    f1 = cert.gens[-1]
    original = stci.reduce
    monkeypatch.setattr(stci, "reduce", lambda g, gens: g if g == f1 else original(g, gens))
    rep = verify_certificate(cert)
    assert rep.holds is False and rep.status == "fails"
    cross = [c for c in rep.checks if c.name.startswith("cross-check")]
    assert [c.name for c in cross] == ["cross-check:F1"]
    assert cross[0].ok is False
    assert "groebner says True" in cross[0].witness
    assert "minimal primes say False" in cross[0].witness


def test_unknown_corruption_mode(coord_plus_sum):
    with pytest.raises(UsageError):
        corrupt_certificate(theorem_generators(coord_plus_sum, 1), "nope")


def test_budget_gives_inconclusive(coord_plus_sum):
    cert = theorem_generators(coord_plus_sum, 1)
    rep = verify_certificate(cert, budget_seconds=0.0)
    assert rep.holds is None
    assert rep.status == "inconclusive"
    assert rep.stci is None
    assert all(c.ok is None for c in rep.checks)


def test_nan_and_negative_budgets_rejected(coord_plus_sum):
    cert = theorem_generators(coord_plus_sum, 1)
    for budget in (float("nan"), -1.0):
        with pytest.raises(UsageError):
            verify_certificate(cert, budget_seconds=budget)
    assert verify_certificate(cert, budget_seconds=float("inf")).status == "holds"


def test_deletion_keeps_construction_valid():
    # deleting down to the rank still leaves every subset independent,
    # with the rank one lower
    arr = random_generic_arrangement(4, 4, field=GF(101), seed=5)
    smaller = delete(arr, 4)
    assert smaller.rank() == 3
    rep = verify_certificate(theorem_generators(smaller, 1))
    assert rep.holds is True


# -- level partitions ------------------------------------------------


def test_ara_partition_structure(hartshorne):
    j = 3
    part = sv_ara_partition(hartshorne, j)
    n = hartshorne.n
    assert len(part.levels) == j + 1
    assert part.levels[0] == ((4, 5, 6),)
    for u in range(1, j + 1):
        b = j - u + 1
        assert len(part.levels[u]) == comb(n - b, n - j - 1)
        assert all(p[0] == b for p in part.levels[u])
    total = sum(len(level) for level in part.levels)
    assert total == comb(n, n - j)


def test_ara_partition_valid_for_any_arrangement(hartshorne, coord_plus_sum):
    for arr in (hartshorne, coord_plus_sum):
        for j in range(arr.n):
            ok, witness = sv_check_partition(sv_ara_partition(arr, j))
            assert ok, witness


def test_sums_match_certificate_for_generic(coord_plus_sum):
    cert = theorem_generators(coord_plus_sum, 1)
    part = sv_ara_partition(coord_plus_sum, 1)
    sums = sv_sums(part)
    assert sums == cert.gens
    assert len(sums) == 2


@pytest.mark.parametrize("field", [GF(32003), QQ])
def test_sums_from_expanded_products_match_fresh_sums(field):
    """Level sums built from the a-fold ideal's expanded generators equal
    the sums expanded from scratch, on the certificate and on every
    corruption, whose entries outside the ground set are expanded
    afresh."""
    arr = random_generic_arrangement(4, 6, field=field, seed=0)
    for j in (1, 2):
        a = arr.n - j
        expanded = dict(zip(combinations(arr.labels, a), arr.afold_ideal(a).gens))
        cert = theorem_generators(arr, j)
        for part in [cert] + [corrupt_certificate(cert, mode) for mode in CORRUPTION_MODES]:
            assert sv_sums(part, expanded) == sv_sums(part)


def test_sums_bound_matches_height_for_generic():
    arr = random_generic_arrangement(4, 6, field=GF(101), seed=8)
    for j in (1, 2):
        part = sv_ara_partition(arr, j)
        assert len(sv_sums(part)) == j + 1 == arr.height_afold(j)


def test_partition_checker_rejects_bad_partitions():
    arr = Arrangement(QQ, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])

    def check(*levels):
        return sv_check_partition(SVPartition(arr, 2, levels))

    # (1, 2) does not divide l1*l3*l4, the product of the level-1 pair
    ok, witness = check([(1, 2)], [(3, 4), (1, 3)], [(1, 4), (2, 3), (2, 4)])
    assert not ok and "no earlier product divides" in witness

    # the partition by smallest label passes
    ok, witness = check([(3, 4)], [(2, 3), (2, 4)], [(1, 2), (1, 3), (1, 4)])
    assert ok, witness

    ok, witness = check([(3, 4)], [(2, 3), (2, 4)], [(1, 2), (1, 3)])
    assert not ok and "l1*l4 is missing" in witness

    # wrong size, a repeated label, a label outside 1..n
    for stray in ((1, 2, 3), (1, 1), (4, 5)):
        ok, witness = check([(3, 4)], [(2, 3), (2, 4), stray], [(1, 2), (1, 3), (1, 4)])
        assert not ok and "not in the ground set" in witness

    ok, witness = check([(3, 4)], [(3, 4), (2, 3), (2, 4)], [(1, 2), (1, 3), (1, 4)])
    assert not ok and "levels 0 and 1" in witness

    ok, witness = check([(3, 4), (2, 3)], [(2, 4)], [(1, 2), (1, 3), (1, 4)])
    assert not ok and "level 0" in witness

    ok, witness = check([(3, 4)], [])
    assert not ok and "empty" in witness

    ok, witness = check()
    assert not ok


def test_corruptions_keep_their_polynomials_and_named_witnesses():
    arr = random_generic_arrangement(4, 6, field=GF(32003), seed=0)
    ring = arr.ring
    cert = theorem_generators(arr, 2)
    tail, f2, f1 = cert.gens

    def prod(*labels):
        return arr.product(labels)

    l2 = ring.linear(arr.form(2))
    rest = sum((prod(*s) for s in combinations(range(2, 7), 3)), ring.zero)
    expected = {
        "drop-summand": ((tail, f2, f1 - prod(1, 2, 3, 4)), "l1*l2*l3*l4 is missing"),
        "swap-form": ((tail, f2, l2 * rest), "l2*l2*l3*l4 is not in the ground set"),
        "truncate-tail": ((prod(4, 5, 6), f2, f1), "l4*l5*l6 is not in the ground set"),
    }
    for mode in CORRUPTION_MODES:
        bad = corrupt_certificate(cert, mode)
        gens, needle = expected[mode]
        assert bad.gens == gens, mode
        assert bad.names() == ("tail", "F2", "F1")
        ok, witness = sv_check_partition(bad)
        assert not ok and needle in witness, (mode, witness)


def test_check_names_unique_in_every_report():
    arr = random_generic_arrangement(4, 6, field=GF(32003), seed=0)
    cert = theorem_generators(arr, 2)
    for corrupt in (None,) + CORRUPTION_MODES:
        variant = corrupt_certificate(cert, corrupt) if corrupt else cert
        names = [c.name for c in verify_certificate(variant).checks]
        assert len(names) == len(set(names)), corrupt


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10 ** 6), k=st.integers(3, 4), extra=st.integers(0, 2))
def test_random_generic_verification_property(seed, k, extra):
    """The construction verifies on any sampled independent arrangement."""
    arr = random_generic_arrangement(k, k + extra, field=GF(32003), seed=seed)
    for j in range(1, k - 1):
        rep = verify_certificate(theorem_generators(arr, j))
        assert rep.holds is True
        assert rep.stci is True
        part = sv_ara_partition(arr, j)
        ok, witness = sv_check_partition(part)
        assert ok, witness
        assert sv_sums(part) == theorem_generators(arr, j).gens
