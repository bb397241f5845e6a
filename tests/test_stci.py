"""Explicit generators, their verification, and the level partitions."""

import json
import time
from dataclasses import asdict
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from starconfig import groebner, stci
from starconfig.arrangements import Arrangement, random_generic_arrangement
from starconfig.cli import parse_arrangement
from starconfig.errors import GenericityError, UsageError
from starconfig.fields import GF, QQ
from starconfig.groebner import Ideal, radical_member
from starconfig.orders import grevlex_layout
from starconfig.stci import (
    CORRUPTION_MODES,
    CheckResult,
    SVPartition,
    corrupt_certificate,
    sv_ara_partition,
    sv_check_partition,
    sv_sums,
    theorem_generators,
    verify_certificate,
)

from arrangement_helpers import count_products, delete


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
    """Every corruption fails the label check with a product witness, and
    the algebraic route of the direction it broke fails too: a dropped
    summand loses a product from the certificate radical, a truncated
    tail leaves the a-fold ideal, and a swapped form does both."""
    generic = random_generic_arrangement(4, 6, field=GF(32003), seed=0)
    for arr, j in ((coord_plus_sum, 1), (generic, 1), (generic, 2)):
        cert = theorem_generators(arr, j)
        for mode in CORRUPTION_MODES:
            rep = verify_certificate(corrupt_certificate(cert, mode))
            failures = [c for c in rep.checks if c.ok is False]
            assert failures[0].name == "sv-partition", (j, mode)
            assert failures[0].witness.startswith("product l"), (j, mode)
            kinds = {c.name.split(":")[0] for c in failures[1:]}
            first = failures[1].name
            if mode == "drop-summand":
                assert first.startswith("radical-membership:") and first.endswith("-in-certificate")
                assert kinds == {"radical-membership"}
            elif mode == "truncate-tail":
                assert first == "minimal-primes:tail"
                assert kinds == {"minimal-primes"}
            else:
                assert kinds == {"radical-membership", "minimal-primes"}, j
            assert not any(c.name.startswith("cross-check") for c in rep.checks)


def test_disagreeing_routes_fail_the_cross_check(coord_plus_sum, monkeypatch):
    # a minimal prime that wrongly rejects F1, while the level partition
    # still proves it lies in the a-fold ideal
    cert = theorem_generators(coord_plus_sum, 1)
    f1 = cert.gens[-1]
    original = stci.reduce
    monkeypatch.setattr(stci, "reduce", lambda g, gens: g if g == f1 else original(g, gens))
    rep = verify_certificate(cert)
    assert rep.holds is False and rep.status == "fails"
    cross = [c for c in rep.checks if c.name.startswith("cross-check")]
    assert [c.name for c in cross] == ["cross-check:F1"]
    assert cross[0].ok is False
    assert "the level partition says True" in cross[0].witness
    assert "the minimal primes say False" in cross[0].witness


def test_rejected_product_fails_the_cross_check(coord_plus_sum, monkeypatch):
    # a Rabinowitsch run that wrongly rejects one a-fold product, while
    # the level partition still proves it lies in the certificate radical
    cert = theorem_generators(coord_plus_sum, 1)
    f = coord_plus_sum.product((1, 3, 4))
    original = stci.radical_member
    monkeypatch.setattr(
        stci, "radical_member", lambda g, ideal, **kw: g != f and original(g, ideal, **kw)
    )
    rep = verify_certificate(cert)
    assert rep.holds is False and rep.status == "fails"
    assert [c.name for c in rep.checks if c.ok is False] == [
        "radical-membership:l1*l3*l4-in-certificate",
        "cross-check:l1*l3*l4",
    ]
    cross = rep.checks[-1]
    assert "the level partition says True" in cross.witness
    assert "Rabinowitsch says False" in cross.witness


def test_verify_computes_no_groebner_basis_of_an_ideal(coord_plus_sum, monkeypatch):
    def refuse(ideal):
        raise AssertionError("verify asked for a Groebner basis")

    monkeypatch.setattr(Ideal, "groebner_basis", refuse)
    for arr, j in ((coord_plus_sum, 1), (random_generic_arrangement(4, 6, GF(32003), seed=0), 2)):
        rep = verify_certificate(theorem_generators(arr, j))
        assert rep.holds is True and rep.stci is True
        names = [c.name for c in rep.checks]
        assert names.count("sv-partition") == 1 and names[0] == "sv-partition"


def test_verify_runs_every_groebner_call_in_the_ring_layout(monkeypatch):
    """The certificate ideal's generators, the level sums and the
    products already proved, are each homogeneous, and so is every
    product tested, so each radical test is one Groebner run in the
    ring's own layout, with no extra variable: at every j, plain and
    under each corruption, over QQ with fractional coefficients and
    over GF(32003)."""
    calls = []
    original = groebner._groebner

    def spy(gens, p, layout, *args):
        calls.append(layout)
        return original(gens, p, layout, *args)

    monkeypatch.setattr(groebner, "_groebner", spy)
    fixture = Path(__file__).parent / "fixtures" / "fractional_five_forms.json"
    fractional = parse_arrangement(fixture.read_text(encoding="utf-8"))
    for arr in (fractional, random_generic_arrangement(4, 6, GF(32003), seed=0)):
        for j in range(1, arr.rank() - 1):
            cert = theorem_generators(arr, j)
            for part in [cert] + [corrupt_certificate(cert, mode) for mode in CORRUPTION_MODES]:
                calls.clear()
                rep = verify_certificate(part)
                tests = [c for c in rep.checks if c.name.startswith("radical-membership:")]
                assert len(calls) == len(tests) == comb(arr.n, arr.n - j)
                assert all(layout is grevlex_layout(arr.ring.nvars) for layout in calls)


def test_unknown_corruption_mode(coord_plus_sum):
    with pytest.raises(UsageError):
        corrupt_certificate(theorem_generators(coord_plus_sum, 1), "nope")


def test_budget_gives_inconclusive(coord_plus_sum, monkeypatch):
    # a zero budget runs no check and expands no product
    calls = count_products(monkeypatch)
    for arr, j in ((coord_plus_sum, 1), (random_generic_arrangement(5, 7, GF(32003), seed=0), 2)):
        rep = verify_certificate(theorem_generators(arr, j), budget_seconds=0.0)
        assert rep.holds is None
        assert rep.status == "inconclusive"
        assert rep.stci is None
        assert len(rep.checks) == 1 + comb(arr.n, arr.n - j) + j + 1
        assert all(c.ok is None and c.witness == "budget exhausted" for c in rep.checks)
    assert calls == []


def test_budget_cuts_a_running_radical_test():
    # these levels fail the label check, and over QQ the Rabinowitsch
    # run for l1*l2*l3 alone takes seconds: the budget must stop it
    # mid-run, not only between checks.  The products of smallest
    # label 2 and 3 run first, and fail
    arr = random_generic_arrangement(4, 5, QQ, seed=11)
    levels = [
        [(1, 4, 5), (2, 4, 5)],
        [(1, 3, 4), (1, 3, 5), (1, 2, 3), (1, 2, 5), (2, 3, 4)],
        [(2, 3, 5), (1, 2, 4), (3, 4, 5)],
    ]
    t0 = time.monotonic()
    rep = verify_certificate(SVPartition(arr, 2, levels), budget_seconds=0.5)
    assert time.monotonic() - t0 < 2.5
    assert rep.holds is False and rep.status == "fails"
    assert rep.checks[0].name == "sv-partition" and rep.checks[0].ok is False
    name = "radical-membership:l1*l2*l3-in-certificate"
    assert [c for c in rep.checks if c.name == name] == [
        CheckResult(name, None, "budget exhausted")
    ]


def test_budget_cuts_the_label_check_and_skips_the_minimal_primes(monkeypatch):
    """At (7,12,5) the label check alone takes about half a second and
    the minimal primes most of the rest: a 0.02 s budget cuts the first
    and never fetches the second."""
    cert = theorem_generators(random_generic_arrangement(7, 12, GF(32003), seed=0).adapted(), 5)
    fetched = []
    minimal = Arrangement.minimal_linear_primes
    monkeypatch.setattr(
        Arrangement,
        "minimal_linear_primes",
        lambda self, j: fetched.append(j) or minimal(self, j),
    )
    t0 = time.monotonic()
    rep = verify_certificate(cert, budget_seconds=0.02)
    assert time.monotonic() - t0 < 0.5
    assert rep.status == "inconclusive"
    assert rep.checks[0] == CheckResult("sv-partition", None, "budget exhausted")
    assert fetched == []


def test_budget_spent_during_the_expansions_builds_nothing_more(monkeypatch):
    """The label check passes, then the budget runs out while the level
    sums are expanded: every algebraic check is inconclusive, none
    raises, and the expansions stop at the deadline."""
    arr = random_generic_arrangement(4, 6, GF(32003), seed=0)
    calls = count_products(monkeypatch, wait_on=3)
    rep = verify_certificate(theorem_generators(arr, 2), budget_seconds=0.5)
    assert rep.status == "inconclusive" and rep.holds is None
    assert rep.checks[0] == CheckResult("sv-partition", True, None)
    assert len(rep.checks) == 1 + comb(6, 4) + 3
    assert all(c.ok is None and c.witness == "budget exhausted" for c in rep.checks[1:])
    assert len(calls) == len(set(calls)) == 3


def test_verify_expands_each_product_once(monkeypatch):
    """The level sums and the Rabinowitsch tests share one expansion of
    each a-fold product; swap-form adds its entries with a repeated
    label, which lie outside the ground set."""
    arr = random_generic_arrangement(4, 6, GF(32003), seed=0)
    calls = count_products(monkeypatch)
    for j in (1, 2):
        a = arr.n - j
        cert = theorem_generators(arr, j)
        bad = corrupt_certificate(cert, "swap-form")
        outside = {p for level in bad.levels for p in level if len(set(p)) < a}
        assert outside
        for part, extra in ((cert, set()), (bad, outside)):
            calls.clear()
            verify_certificate(part)
            assert len(calls) == comb(arr.n, a) + len(extra)
            assert set(calls) == set(combinations(arr.labels, a)) | extra


def test_nan_and_negative_budgets_rejected(coord_plus_sum):
    cert = theorem_generators(coord_plus_sum, 1)
    for budget in (float("nan"), -1.0):
        with pytest.raises(UsageError):
            verify_certificate(cert, budget_seconds=budget)
    assert verify_certificate(cert, budget_seconds=float("inf")).status == "holds"


def _without_wall_time(rep):
    return {k: v for k, v in asdict(rep).items() if k != "wall_time_seconds"}


@settings(max_examples=40, deadline=None)
@given(
    field=st.sampled_from([GF(32003), QQ]),
    seed=st.integers(0, 10 ** 6),
    k=st.integers(2, 4),
    extra=st.integers(0, 2),
    pad=st.booleans(),
    data=st.data(),
)
def test_reports_agree_in_adapted_coordinates(field, seed, k, extra, pad, data):
    """A change of variables keeps every statement a report makes, plain
    and under each corruption.  With pad the forms get a last
    coefficient equal to their first, so the rank is one below the
    number of variables.  Every route runs on the one adapted
    arrangement, so the cross-check cannot catch a wrong transform;
    tests/test_arrangements.py maps each adapted form back to its
    input row."""
    arr = random_generic_arrangement(k, k + extra, field=field, seed=seed)
    if pad:
        arr = Arrangement(field, [row + row[:1] for row in arr.forms])
    ad = arr.adapted()
    assert ad.nvars == k
    j = data.draw(st.integers(0, max(0, k - 2)), label="j")
    for mode in (None,) + CORRUPTION_MODES:
        certs = [theorem_generators(a, j) for a in (arr, ad)]
        if mode is not None:
            try:
                certs = [corrupt_certificate(c, mode) for c in certs]
            except UsageError:  # undefined at this j
                continue
        plain, adapted = (_without_wall_time(verify_certificate(c)) for c in certs)
        assert adapted == plain, mode


def _radical_checks(rep):
    """The radical-membership checks of a report, with the labels of each."""
    prefix, suffix = "radical-membership:", "-in-certificate"
    return [
        (c, [int(f[1:]) for f in c.name[len(prefix) : -len(suffix)].split("*")])
        for c in rep.checks
        if c.name.startswith(prefix)
    ]


@settings(max_examples=12, deadline=None)
@given(
    field=st.sampled_from([GF(7), GF(32003), QQ]),
    seed=st.integers(0, 10 ** 6),
    k=st.integers(3, 4),
    extra=st.integers(0, 2),
    data=st.data(),
)
def test_radical_tests_lean_only_on_proved_products(field, seed, k, extra, data):
    """Each radical test runs against the level sums plus the products
    proved in earlier groups, which have the same radical, so every
    answer is the one a test against the level sums alone gives: at
    every j, plain and under each corruption, and for a random
    assignment of the products to levels at j = 1.  The groups go by
    smallest label, largest first.  On the canonical levels every
    product that a corruption fails has smallest label 1, so it is in
    the last group; the random assignments fail products in earlier
    groups, where leaning on them would change later answers."""
    arr = random_generic_arrangement(k, k + extra, field=field, seed=seed)
    ground = list(combinations(arr.labels, arr.n - 1))
    count = data.draw(st.integers(1, 3), label="level count")
    where = data.draw(
        st.lists(st.integers(0, count - 1), min_size=len(ground), max_size=len(ground)),
        label="levels",
    )
    parts = [SVPartition(arr, 1, [[p for p, u in zip(ground, where) if u == v] for v in range(count)])]
    for j in range(1, k - 1):
        cert = theorem_generators(arr, j)
        parts += [cert] + [corrupt_certificate(cert, mode) for mode in CORRUPTION_MODES]
    for part in parts:
        a = arr.n - part.j
        ideal = Ideal(arr.ring, sv_sums(part))
        expected = set()
        for labels in combinations(arr.labels, a):
            name = "*".join(f"l{i}" for i in labels)
            ok = radical_member(arr.product(labels), ideal)
            witness = None if ok else (
                f"{a}-fold product {name} is not in the radical of the certificate ideal"
            )
            expected.add((f"radical-membership:{name}-in-certificate", ok, witness))
        checks = _radical_checks(verify_certificate(part))
        assert {(c.name, c.ok, c.witness) for c, _ in checks} == expected, part.levels
        smallest = [labels[0] for _, labels in checks]
        assert smallest == sorted(smallest, reverse=True), part.levels


def test_a_budget_cut_leaves_only_the_later_checks_unanswered(monkeypatch):
    """A deadline that passes after N radical tests leaves those N
    answered and every later check budget exhausted.  At (4,6,2) the
    groups hold 1, 4 and 10 products, and each runs against the three
    level sums plus the products of the groups before it."""
    arr = random_generic_arrangement(4, 6, GF(32003), seed=0)
    cert = theorem_generators(arr, 2)
    original = stci.radical_member
    for n_runs in (0, 1, 3, 5, 9, 15):
        sizes = []
        monkeypatch.setattr(
            stci,
            "radical_member",
            lambda f, ideal, **kw: sizes.append(len(ideal.gens)) or original(f, ideal, **kw),
        )

        def deadline_after(deadline):
            if len(sizes) >= n_runs:
                raise TimeoutError

        monkeypatch.setattr(stci, "check_deadline", deadline_after)
        rep = verify_certificate(cert)
        checks = _radical_checks(rep)
        assert [labels[0] for _, labels in checks] == [3] + [2] * 4 + [1] * 10
        assert [c.ok for c, _ in checks] == [True] * n_runs + [None] * (15 - n_runs)
        assert all(c.witness == "budget exhausted" for c in rep.checks[1 + n_runs :])
        assert rep.status == "inconclusive"
        assert sizes == ([3] + [4] * 4 + [8] * 10)[:n_runs]


def test_a_cut_product_is_never_leaned_on(monkeypatch):
    """A Rabinowitsch run that the budget cuts answers nothing, so its
    product stays out of the ideals of the groups after it."""
    arr = random_generic_arrangement(4, 6, GF(32003), seed=0)
    cut = arr.product((2, 3, 4, 5))
    original = stci.radical_member
    sizes = []

    def run(f, ideal, **kw):
        sizes.append(len(ideal.gens))
        if f == cut:
            raise TimeoutError
        return original(f, ideal, **kw)

    monkeypatch.setattr(stci, "radical_member", run)
    rep = verify_certificate(theorem_generators(arr, 2))
    assert [c for c in rep.checks if c.ok is not True] == [
        CheckResult("radical-membership:l2*l3*l4*l5-in-certificate", None, "budget exhausted")
    ]
    assert rep.status == "inconclusive"
    assert sizes == [3] + [4] * 4 + [7] * 10


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
    """Level sums built through a product function that reads the a-fold
    ideal's expanded generators equal the sums expanded from scratch, on
    the certificate and on every corruption, whose entries outside the
    ground set it expands afresh."""
    arr = random_generic_arrangement(4, 6, field=field, seed=0)
    for j in (1, 2):
        a = arr.n - j
        expanded = dict(zip(combinations(arr.labels, a), arr.afold_ideal(a).gens))
        product = lambda p: expanded[p] if p in expanded else arr.product(p)
        cert = theorem_generators(arr, j)
        for part in [cert] + [corrupt_certificate(cert, mode) for mode in CORRUPTION_MODES]:
            assert sv_sums(part, product) == sv_sums(part)


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


@settings(max_examples=6, deadline=None)
@given(
    field=st.sampled_from([GF(32003), QQ]),
    seed=st.integers(0, 10 ** 6),
    k=st.integers(3, 4),
    extra=st.integers(0, 2),
    data=st.data(),
)
def test_relabelled_and_random_partitions(field, seed, k, extra, data):
    """The level conditions depend on labels alone, so any relabelling of
    the canonical partition passes them and verifies.  A random
    assignment of the products to levels still sums products, so every
    level sum lies in every minimal prime, and no route contradicts the
    label check whatever it says.  Random assignments stay at j = 1:
    at j = 2 over QQ one Rabinowitsch run on such an ideal can take
    over 10 s."""
    arr = random_generic_arrangement(k, k + extra, field=field, seed=seed)
    j = data.draw(st.integers(1, k - 2), label="j")
    relabel = dict(zip(arr.labels, data.draw(st.permutations(arr.labels), label="labels")))
    canonical = sv_ara_partition(arr, j).levels
    permuted = SVPartition(
        arr, j, [[[relabel[i] for i in p] for p in level] for level in canonical]
    )
    assert sv_check_partition(permuted) == (True, None)
    rep = verify_certificate(permuted)
    assert rep.holds is True and rep.stci is True

    ground = list(combinations(arr.labels, arr.n - 1))
    count = data.draw(st.integers(1, 3), label="level count")
    where = data.draw(
        st.lists(st.integers(0, count - 1), min_size=len(ground), max_size=len(ground)),
        label="levels",
    )
    part = SVPartition(arr, 1, [[p for p, u in zip(ground, where) if u == v] for v in range(count)])
    rep = verify_certificate(part)
    assert all(c.ok for c in rep.checks if c.name.startswith("minimal-primes"))
    assert not any(c.name.startswith("cross-check") for c in rep.checks)
    assert rep.holds is sv_check_partition(part)[0]
