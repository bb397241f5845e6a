"""Arrangements, minimal primes, heights, and the distance invariant.

The six-form fixture {x, y, x+y, z, w, z+w} is the standard example of
an arrangement that is not generic enough for the explicit generator
construction, yet has completely known primes and heights; those known
values anchor this file.
"""

from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from starconfig import arrangements
from starconfig.arrangements import (
    Arrangement,
    LinearPrime,
    _all_minors_nonzero,
    random_generic_arrangement,
    rref,
)
from starconfig.cli import parse_arrangement
from starconfig.errors import DegenerateInputError, GenerationError, UsageError
from starconfig.fields import GF, QQ
from starconfig.groebner import Ideal
from starconfig.polynomials import Ring

from arrangement_helpers import delete
from flat_reference import (
    _support,
    min_distance_reference,
    minimal_linear_primes_reference,
    reference_spans,
    s_generic_witness_reference,
)
from ideal_helpers import ideal_eq, radical_eq
from intersection_reference import fold_radical
from linear_reference import determinant, rref_reference, zero_minors

FIXTURES = Path(__file__).parent / "fixtures"


HARTSHORNE_ROWS = [
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (1, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (0, 0, 1, 1),
]


@pytest.fixture
def hartshorne():
    return Arrangement(QQ, HARTSHORNE_ROWS, names=("x", "y", "z", "w"))


@pytest.fixture
def coord_plus_sum():
    return Arrangement(QQ, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])


def test_rref_and_rank():
    rows, pivots = rref(QQ, [(0, 2, 4), (1, 1, 1), (1, 3, 5)])
    assert pivots == (0, 1)
    assert len(rows) == 2
    full = [(1, 2), (0, 1)]
    assert len(rref(GF(5), full)[1]) == len(rref_reference(GF(5), full)[1]) == 2
    assert Arrangement(GF(5), full).rank() == 2
    # (3, 1) = 4*(2, 4) mod 5, so the rows are proportional
    proportional = [(2, 4), (3, 1)]
    assert len(rref(GF(5), proportional)[1]) == len(rref_reference(GF(5), proportional)[1]) == 1


LINEAR_FIELDS = [GF(2), GF(3), GF(7), GF(32003), QQ]


def field_entries(field):
    """Entries of field: residues over GF(p), and over QQ small ints and
    small fractions, mixed in one row."""
    if field == QQ:
        return st.one_of(
            st.integers(-6, 6),
            st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)),
        )
    p = field.characteristic
    return st.one_of(st.integers(0, min(p - 1, 3)), st.integers(0, p - 1))


@st.composite
def matrices(draw):
    """A field and up to 7 rows of up to 5 entries.  Each row is fresh,
    zero, a repeat of an earlier row, or a multiple of one plus a
    multiple of another, so dependent rows come up in every field, and
    there can be more rows than columns."""
    field = draw(st.sampled_from(LINEAR_FIELDS))
    ncols = draw(st.integers(0, 5))
    entries = field_entries(field)
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["fresh", "zero", "repeat", "combination"][: 4 if rows else 2]))
        if kind == "fresh":
            row = tuple(draw(entries) for _ in range(ncols))
        elif kind == "zero":
            row = (field.zero,) * ncols
        elif kind == "repeat":
            row = draw(st.sampled_from(rows))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            x, y = (field.from_int(draw(st.integers(-3, 3))) for _ in range(2))
            row = tuple(field.add(field.mul(x, u), field.mul(y, v)) for u, v in zip(a, b))
        rows.append(row)
    return field, rows


def types_of(rows):
    return [[type(v) for v in row] for row in rows]


@settings(max_examples=300, deadline=None)
@given(matrices())
@example(
    (QQ, [(Fraction(1, 2), 1, Fraction(-3, 4)), (2, 4, -3), (0, 0, 0), (1, Fraction(1, 3), 5)])
)
@example((GF(2), [(1, 1, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)]))
@example((GF(7), [(3,), (5,), (0,)]))
@example((QQ, [(), ()]))
@example((QQ, []))
def test_rref_matches_field_reference(case):
    """The integer kernel returns the reference's rows, pivots and
    element types: residues over GF(p), Fractions over QQ.  A
    LinearPrime of the rows keeps them, and its generators, born packed
    from its integer rows, are the reference's rows as linear forms,
    with the packing those forms take."""
    field, rows = case
    got, want = rref(field, rows), rref_reference(field, rows)
    assert got == want
    assert types_of(got[0]) == types_of(want[0])
    prime = LinearPrime(field, rows)
    assert prime.rows == want[0] and prime.height == len(want[1])
    if rows and rows[0]:
        ring = Ring(field, len(rows[0]))
        forms = [ring.linear(row) for row in want[0]]
        assert [g.packed() for g in prime.gens_in(ring)] == [f.packed() for f in forms]
        assert prime.gens_in(ring) == tuple(forms)


@st.composite
def blocks(draw):
    """A field and a block of up to 4 x 4 entries, often with one
    entry set to make one chosen minor vanish."""
    field = draw(st.sampled_from(LINEAR_FIELDS))
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    block = [[draw(field_entries(field)) for _ in range(ncols)] for _ in range(nrows)]
    if draw(st.booleans()):
        s = draw(st.integers(1, min(nrows, ncols)))
        rows = draw(st.sampled_from(list(combinations(range(nrows), s))))
        cols = draw(st.sampled_from(list(combinations(range(ncols), s))))
        i, c = rows[-1], cols[-1]

        def minor_with(x):
            block[i][c] = x
            return determinant(field, [[block[r][q] for q in cols] for r in rows])

        at0, at1 = minor_with(field.zero), minor_with(field.one)
        slope = field.sub(at1, at0)
        # the minor is affine in entry (i, c): a nonzero slope has one root
        block[i][c] = field.neg(field.div(at0, slope)) if slope != field.zero else field.zero
    return field, [tuple(row) for row in block]


@settings(max_examples=300, deadline=None)
@given(blocks())
def test_minors_match_one_determinant_per_minor(case):
    """The shared Laplace expansion on ints finds a zero minor exactly
    when some minor's own determinant is zero."""
    field, block = case
    zeros = zero_minors(field, block)
    event(f"{min(len(zeros), 2)} zero minors")
    assert _all_minors_nonzero(field, block) == (not zeros)


@pytest.mark.parametrize(
    "field, block, zero",
    [
        (QQ, [(1, 2, 3), (1, 4, 6)], ((0, 1), (1, 2))),
        (QQ, [(Fraction(1, 2), 1, Fraction(3, 2)), (1, 4, 6)], ((0, 1), (1, 2))),
        (GF(7), [(1, 2, 3), (1, 4, 6)], ((0, 1), (1, 2))),
        (GF(32003), [(1, 2), (3, 6)], ((0, 1), (0, 1))),
        (QQ, [(1, 2, 3), (4, 5, 6), (7, 8, 9)], ((0, 1, 2), (0, 1, 2))),
        (GF(32003), [(1, 2, 3), (4, 5, 6), (7, 8, 9)], ((0, 1, 2), (0, 1, 2))),
    ],
)
def test_the_last_minor_alone_vanishes(field, block, zero):
    """Blocks whose one zero minor is the last the expansion reaches,
    the last 2 x 2 or the 3 x 3."""
    assert zero_minors(field, block) == [zero]
    assert not _all_minors_nonzero(field, block)


def test_proportional_forms_rejected():
    with pytest.raises(DegenerateInputError) as exc:
        Arrangement(QQ, [(1, 0), (2, 0), (0, 1)])
    assert "1" in str(exc.value) and "2" in str(exc.value)


def test_zero_form_rejected():
    with pytest.raises(DegenerateInputError):
        Arrangement(QQ, [(1, 0), (0, 0)])


def test_labels_and_accessors(hartshorne):
    assert hartshorne.n == 6
    assert hartshorne.labels == (1, 2, 3, 4, 5, 6)
    assert hartshorne.form(3) == (1, 1, 0, 0)
    with pytest.raises(UsageError):
        hartshorne.form(7)


def test_rank_and_genericity(hartshorne):
    assert hartshorne.rank() == 4
    assert hartshorne.is_s_generic(1)
    assert hartshorne.is_s_generic(2)
    assert not hartshorne.is_s_generic(3)
    assert hartshorne.s_generic_witness(3) == (1, 2, 3)
    assert not hartshorne.is_s_generic(4)


def test_genericity_of_coordinate_plus_sum(coord_plus_sum):
    assert coord_plus_sum.rank() == 3
    assert coord_plus_sum.is_s_generic(3)
    assert coord_plus_sum.s_generic_witness(3) is None


def test_product(hartshorne):
    ring = hartshorne.ring
    l1, l4 = ring.linear(hartshorne.form(1)), ring.linear(hartshorne.form(4))
    assert hartshorne.product((1, 4)) == hartshorne.product((4, 1)) == l1 * l4
    # a repeated label gives a power of its form
    assert hartshorne.product((1, 1, 4)) == l1 ** 2 * l4
    assert hartshorne.product(()) == ring.one
    with pytest.raises(UsageError):
        hartshorne.product((1, 7))


def test_afold_generator_counts(hartshorne):
    assert len(hartshorne.afold_ideal(4).gens) == 15
    assert hartshorne.afold_ideal(6).gens == (hartshorne.product(range(1, 7)),)
    assert len(hartshorne.afold_ideal(1).gens) == 6
    with pytest.raises(UsageError):
        hartshorne.afold_ideal(0)
    with pytest.raises(UsageError):
        hartshorne.afold_ideal(7)


def test_hartshorne_heights_all_a(hartshorne):
    # a = 1..6 gives heights 4, 4, 3, 2, 2, 1
    expected = {5: 4, 4: 4, 3: 3, 2: 2, 1: 2, 0: 1}
    for j, h in expected.items():
        assert hartshorne.height_afold(j) == h


def test_hartshorne_minimal_primes_j2(hartshorne):
    primes = hartshorne.minimal_linear_primes(2)
    assert len(primes) == 2
    assert [p.support for p in primes] == [(1, 2, 3), (4, 5, 6)]
    assert all(p.height == 2 for p in primes)


def test_hartshorne_minimal_primes_j3(hartshorne):
    primes = hartshorne.minimal_linear_primes(3)
    assert len(primes) == 6
    assert all(p.height == 3 for p in primes)
    # each takes one line from each pencil of the two coordinate planes
    for p in primes:
        assert len([i for i in p.support if i <= 3]) * len(
            [i for i in p.support if i >= 4]
        ) >= 2


def test_minimal_primes_contain_all_products(hartshorne):
    for j in range(hartshorne.n):
        a = hartshorne.n - j
        for p in hartshorne.minimal_linear_primes(j):
            assert len(p.support) >= j + 1
            for labels in combinations(hartshorne.labels, a):
                assert any(
                    len(rref_reference(QQ, p.rows + (hartshorne.form(i),))[1]) == p.height
                    for i in labels
                )


def test_minimal_primes_are_minimal(hartshorne):
    """No minimal prime contains another: stacking q's echelon rows
    under p's always raises the rank above p's height."""
    for j in range(hartshorne.n):
        primes = hartshorne.minimal_linear_primes(j)
        for p in primes:
            for q in primes:
                if p is not q:
                    assert len(rref_reference(QQ, p.rows + q.rows)[1]) > p.height


def test_combinatorial_radical_hartshorne_j2(hartshorne):
    R = hartshorne.ring
    x, y, z, w = R.gens()
    rad = hartshorne.combinatorial_radical(2)
    assert ideal_eq(rad, Ideal(R, (x * z, x * w, y * z, y * w)))


def test_radical_routes_agree(coord_plus_sum):
    # intersection of minimal primes versus the radical of the ideal itself
    for j in (0, 1, 2):
        rad = coord_plus_sum.combinatorial_radical(j)
        afold = coord_plus_sum.afold_ideal(coord_plus_sum.n - j)
        assert radical_eq(rad, afold)


@pytest.mark.parametrize(
    "k, n, field",
    [(3, 5, GF(32003)), (4, 6, GF(32003)), (3, 5, QQ), (4, 5, QQ)],
)
def test_radical_tree_matches_fold_on_generic(k, n, field):
    """The balanced tree of intersections gives the left fold's basis
    term for term, at every j; j >= k - 1 has a single minimal prime."""
    arr = random_generic_arrangement(k, n, field, seed=k * n)
    for j in range(n):
        assert arr.combinatorial_radical(j).gens == fold_radical(arr, j).gens


@pytest.fixture
def fractional():
    """The QQ fixture file whose forms have fractional coefficients."""
    return parse_arrangement((FIXTURES / "fractional_five_forms.json").read_text("utf-8"))


def test_radical_tree_matches_fold_on_fixtures(hartshorne, coord_plus_sum, fractional):
    """Both fixtures, the Hartshorne one without its last form, whose
    minimal primes at j = 2 have heights 2 and 3, so the tree's sorted
    order mixes heights, and the fractional fixture, whose denominators
    run through the shifts into two more variables and back."""
    mixed = delete(hartshorne, 6)
    assert [p.height for p in mixed.minimal_linear_primes(2)] == [2, 3, 3, 3]
    for arr in (hartshorne, coord_plus_sum, mixed, fractional):
        for j in range(arr.n):
            assert arr.combinatorial_radical(j).gens == fold_radical(arr, j).gens


def test_radical_over_qq_builds_terms_only_to_print(fractional, monkeypatch):
    """The intersections read the primes' born-packed generators as
    packings and return born-packed generators: over QQ no exponent
    tuple or Fraction of either is built until a generator is printed
    or compared."""
    made = []
    gens_in = LinearPrime.gens_in

    def recording(prime, ring):
        gens = gens_in(prime, ring)
        made.extend(gens)
        return gens

    monkeypatch.setattr(LinearPrime, "gens_in", recording)
    for j in (0, 1):
        made.clear()
        rad = fractional.combinatorial_radical(j)
        assert len(fractional.minimal_linear_primes(j)) > 1
        assert made and all(g._terms is None for g in made + list(rad.gens))
        printed = [str(g) for g in rad.gens]
        assert all(g._terms is not None for g in rad.gens)
        assert printed == [str(g) for g in fold_radical(fractional, j).gens]


def test_radical_of_a_single_minimal_prime(coord_plus_sum):
    (prime,) = coord_plus_sum.minimal_linear_primes(2)
    rad = coord_plus_sum.combinatorial_radical(2)
    assert rad.gens == prime.gens_in(coord_plus_sum.ring) == fold_radical(coord_plus_sum, 2).gens


def test_min_distance(hartshorne, coord_plus_sum):
    assert hartshorne.min_distance() == 2
    assert coord_plus_sum.min_distance() == 2
    single = Arrangement(QQ, [(1, 0)])
    assert single.min_distance() == 1


def test_delete_reassigns_labels(hartshorne):
    smaller = delete(hartshorne, 3)
    assert smaller.n == 5
    assert smaller.labels == (1, 2, 3, 4, 5)
    assert smaller.form(3) == (0, 0, 1, 0)
    # {z, w, z+w} is still a dependent triple after the deletion
    assert smaller.s_generic_witness(3) == (3, 4, 5)


def test_linear_prime_membership():
    p = LinearPrime(QQ, [(1, 0, 0), (0, 1, 0)], support=(1, 2))
    assert p.height == 2
    # the flat spanned by forms 1 and 2 also holds form 3 = x + y; the
    # enumeration reaches it from {1, 2}, {1, 3}, {2, 3} and {1, 2, 3}
    hartshorne = Arrangement(QQ, HARTSHORNE_ROWS)
    span = LinearPrime(QQ, [hartshorne.form(1), hartshorne.form(2)])
    (flat,) = [f for f in hartshorne._flats() if f.rows == span.rows]
    assert flat.support == (1, 2, 3)


def test_int_entries_are_reduced_before_the_leading_entry():
    # 5 is zero in GF(5), so (5, 1) leads with its second entry
    assert Arrangement(GF(5), [(5, 1), (7, 2)]).forms == ((0, 1), (1, 1))
    with pytest.raises(DegenerateInputError, match="zero vector is not a linear form"):
        Arrangement(GF(5), [(1, 0), (10, -5)])


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_forms_are_normalized_rows(data):
    """Each form is its input row over the field, scaled so that its
    first nonzero entry is 1: rescaling an input row changes nothing,
    and zero or proportional rows are refused with their labels."""
    field = data.draw(st.sampled_from([GF(2), GF(5), GF(32003), QQ]))
    # m or, where m is zero in the field, m + 1
    nonzero = st.integers(-40, 40).map(lambda m: m + (field.from_int(m) == field.zero))
    k = data.draw(st.integers(1, 4))
    rows = data.draw(st.lists(st.tuples(*[st.integers(-12, 12)] * k), min_size=1, max_size=5))
    if data.draw(st.booleans()):
        # a scaled copy of an earlier row, in integers, so proportional rows occur
        i = data.draw(st.integers(0, len(rows) - 1))
        m = data.draw(nonzero)
        rows.insert(data.draw(st.integers(i + 1, len(rows))), tuple(m * c for c in rows[i]))
    elems = [tuple(field.from_int(c) for c in row) for row in rows]
    scaled = []
    for row in elems:
        s = field.div(field.from_int(data.draw(nonzero)), field.from_int(data.draw(nonzero)))
        scaled.append(tuple(field.mul(s, c) for c in row))

    refusal = None
    if any(all(c == field.zero for c in row) for row in elems):
        refusal = "zero vector is not a linear form"
    else:
        # the first j with an earlier proportional row, and the first such row
        pairs = [(i, j) for j in range(len(elems)) for i in range(j)]
        clash = next(
            (p for p in pairs if len(rref_reference(field, [elems[i] for i in p])[1]) < 2), None
        )
        if clash is not None:
            refusal = f"forms {clash[0] + 1} and {clash[1] + 1} are proportional"
    if refusal is not None:
        for given_rows in (rows, scaled):
            with pytest.raises(DegenerateInputError, match=refusal):
                Arrangement(field, given_rows)
        return

    arr = Arrangement(field, rows)
    assert Arrangement(field, scaled).forms == arr.forms
    assert len(arr.forms) == len(rows)
    for label, (row, form) in enumerate(zip(elems, arr.forms), 1):
        assert arr.form(label) == form
        lead = next(c for c in form if c != field.zero)
        assert lead == field.one
        first = next(c for c in row if c != field.zero)
        assert tuple(field.mul(first, c) for c in form) == row


def test_random_generic_arrangement_seeded():
    a = random_generic_arrangement(3, 6, seed=42)
    b = random_generic_arrangement(3, 6, seed=42)
    assert a.forms == b.forms
    assert a.is_s_generic(3)
    assert a.nvars == 3 and a.n == 6


def test_random_generic_arrangement_over_qq():
    a = random_generic_arrangement(3, 5, field=QQ, seed=1)
    assert a.is_s_generic(3)
    assert a.field == QQ


def test_random_draws_again_when_a_minor_vanishes(monkeypatch):
    """Over GF(11) some draws of 7 forms in 4 variables have a vanishing
    minor; with the flats limited to 5 subsets, far below the 63 they
    would need, such a draw is rejected by the minors alone and the
    sampler draws again, instead of raising the flats' refusal."""
    monkeypatch.setattr(arrangements, "MAX_FLAT_SUBSETS", 5)
    rows = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 0, 0), (0, 0, 0, 1)]
    dependent = Arrangement(GF(11), rows)
    assert dependent._in_general_position() is False
    assert not dependent.is_s_generic(4)
    with pytest.raises(UsageError, match="need 25 subsets"):
        dependent.s_generic_witness(4)
    try:
        arr = random_generic_arrangement(4, 7, GF(11), seed=0)
    except GenerationError:
        return
    assert arr._in_general_position() is True


def test_random_generation_guards():
    with pytest.raises(UsageError):
        random_generic_arrangement(4, 3)
    with pytest.raises(GenerationError):
        random_generic_arrangement(2, 5, field=GF(5), seed=0)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10 ** 6), k=st.integers(3, 4), extra=st.integers(0, 2))
def test_generic_distance_formula(seed, k, extra):
    """Independent k-subsets force distance n - k + 1."""
    n = k + extra
    arr = random_generic_arrangement(k, n, field=GF(101), seed=seed)
    assert arr.min_distance() == n - k + 1
    for j in range(0, k - 1):
        assert arr.height_afold(j) == j + 1


@st.composite
def small_arrangements(draw):
    """Arrangements over small fields with coefficients in {-1, 0, 1},
    mostly not generic."""
    field = draw(st.sampled_from([GF(2), GF(3), GF(5), QQ]))
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 7))
    rows = draw(
        st.lists(
            st.lists(st.sampled_from([-1, 0, 1]), min_size=k, max_size=k),
            min_size=n,
            max_size=n,
        )
    )
    try:
        return Arrangement(field, [[field.from_int(c) for c in row] for row in rows])
    except DegenerateInputError:
        assume(False)


@st.composite
def dense_arrangements(draw):
    """Arrangements with coefficients in -9..9 over GF(7), GF(32003) and
    QQ, mostly generic, with one form sometimes replaced by the sum of
    two others."""
    field = draw(st.sampled_from([GF(7), GF(32003), QQ]))
    k = draw(st.integers(1, 5))
    n = draw(st.integers(1, 8))
    rows = draw(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=k, max_size=k),
            min_size=n,
            max_size=n,
        )
    )
    if n >= 3 and draw(st.booleans()):
        target, a, b = draw(st.permutations(range(n)))[:3]
        rows[target] = [x + y for x, y in zip(rows[a], rows[b])]
    try:
        return Arrangement(field, [[field.from_int(c) for c in row] for row in rows])
    except DegenerateInputError:
        assume(False)


@settings(max_examples=200, deadline=None)
@given(arr=st.one_of(small_arrangements(), dense_arrangements()))
# one example of each minors verdict: five forms in general position,
# and five whose last three share a plane
@example(arr=Arrangement(GF(32003), [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3), (1, 5, 7)]))
@example(arr=Arrangement(GF(32003), [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3), (1, 2, 4)]))
def test_flats_answer_like_the_subset_loops(arr):
    """Genericity, minimal primes, heights and distance, whether the
    minors or the flats give them, equal the separate subset loops, and
    the minors verdict is genericity at the rank."""
    ref = Arrangement(arr.field, arr.forms)
    generic = arr._in_general_position()
    event(f"in general position: {generic}")
    assert generic == (s_generic_witness_reference(ref, arr.rank()) is None)
    for s in range(1, arr.n + 2):
        assert arr.s_generic_witness(s) == s_generic_witness_reference(ref, s)
    spans = reference_spans(ref)
    for j in range(arr.n):
        primes = minimal_linear_primes_reference(spans, j)
        got = arr.minimal_linear_primes(j)
        assert [(p.rows, p.support) for p in got] == [(p.rows, p.support) for p in primes]
        assert arr.height_afold(j) == min(p.height for p in primes)
    assert arr.min_distance() == min_distance_reference(ref, spans)


def _flats_witness(arr, s):
    """The witness as the flats give it, at any s: the least first s
    labels of a flat with height < s <= |support|."""
    witnesses = (p.support[:s] for p in arr._flats() if p.height < s <= len(p.support))
    return min(witnesses, default=None)


@settings(max_examples=100, deadline=None)
@given(arr=st.one_of(small_arrangements(), dense_arrangements()))
# five forms in general position, and four of rank 3 whose first three
# share a plane, closed only past the rank
@example(arr=Arrangement(GF(32003), [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3), (1, 5, 7)]))
@example(arr=Arrangement(QQ, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]))
def test_closed_form_witnesses_match_the_flats(arr):
    """Past the rank on any arrangement, and up to it on input that the
    minors show generic, the witness is a closed form that builds no
    flats, and it equals the witness the flats give."""
    ref = Arrangement(arr.field, arr.forms)
    closed = [s for s in range(1, arr.n + 3) if s > arr.rank() or arr._in_general_position()]
    event(f"closed forms at {len(closed)} of {arr.n + 2} levels")
    for s in closed:
        assert arr.s_generic_witness(s) == _flats_witness(ref, s)
    assert arr._flat_cache is None


@settings(max_examples=80, deadline=None)
@given(arr=small_arrangements())
def test_flat_supports_are_the_forms_in_each_span(arr):
    """The support read off the subset enumeration is every form that
    lies in the flat, by a rank test, and no two flats share echelon
    rows."""
    flats = arr._flats()
    for p in flats:
        assert p.support == _support(arr, p)
    assert len({p.rows for p in flats}) == len(flats)


def with_sum_form(rows, field):
    """The rows with the last one replaced by the sum of the first two,
    so that the last form and forms 1 and 2 are dependent."""
    return [*rows[:-1], tuple(field.add(a, b) for a, b in zip(rows[0], rows[1]))]


def test_one_rref_per_subset_of_flats(monkeypatch):
    """Every combinatorial query past j = 0 on a (4,9) arrangement with
    form 9 = form 1 + form 2 shares one enumeration: one rref per subset
    of at most 3 forms, one for the adapted coordinates whose minors
    fail, and one for the span of all forms, whose height is the rank.
    Each is one echelon form, which every rref takes too."""
    rows = with_sum_form(random_generic_arrangement(4, 9, GF(32003), seed=0).forms, GF(32003))
    calls = []

    echelon = arrangements._echelon

    def counted(p, matrix):
        calls.append(matrix)
        return echelon(p, matrix)

    monkeypatch.setattr(arrangements, "_echelon", counted)
    arr = Arrangement(GF(32003), rows)
    for s in range(1, arr.n + 2):
        arr.s_generic_witness(s)
    for j in range(1, arr.n):
        arr.minimal_linear_primes(j)
        arr.height_afold(j)
    arr.min_distance()
    assert arr.s_generic_witness(4) is not None
    assert 0 < len(calls) <= comb(9, 1) + comb(9, 2) + comb(9, 3) + 2


def test_flat_enumeration_refuses_past_its_limit(monkeypatch):
    """Six forms of rank 4 with form 6 = form 1 + form 2 take 6 + 15 +
    20 = 41 subsets to find the flats; forms 1, 2, 6 and any fourth
    lie in a flat of height 3."""
    rows = with_sum_form(random_generic_arrangement(4, 6, GF(32003), seed=0).forms, GF(32003))
    monkeypatch.setattr(arrangements, "MAX_FLAT_SUBSETS", 41)
    assert Arrangement(GF(32003), rows).min_distance() == 2
    monkeypatch.setattr(arrangements, "MAX_FLAT_SUBSETS", 40)
    with pytest.raises(UsageError) as exc:
        Arrangement(GF(32003), rows).min_distance()
    assert "need 41 subsets" in str(exc.value) and "limit of 40" in str(exc.value)


def greedy_basis_from_the_back(arr):
    """Labels of the forms that raise the rank, scanning n down to 1."""
    chosen = []
    for label in reversed(arr.labels):
        rows = [arr.form(i) for i in chosen + [label]]
        if len(rref_reference(arr.field, rows)[1]) > len(chosen):
            chosen.append(label)
    return sorted(chosen)


def unit_row(field, i, r):
    return tuple(field.one if c == i else field.zero for c in range(r))


def test_adapted_makes_the_last_rank_forms_the_variables():
    for field in (GF(32003), QQ):
        for k, n in ((3, 5), (4, 7), (5, 6)):
            arr = random_generic_arrangement(k, n, field, seed=3)
            ad = arr.adapted()
            assert (ad.field, ad.labels, ad.nvars) == (field, arr.labels, k)
            tail = [ad.form(label) for label in range(n - k + 1, n + 1)]
            assert tail == [unit_row(field, i, k) for i in range(k)]


def test_adapted_hartshorne_skips_the_dependent_forms(hartshorne):
    # scanning back from form 6: 4 = 6 - 5 and 1 = 3 - 2 are dependent
    ad = hartshorne.adapted()
    assert greedy_basis_from_the_back(hartshorne) == [2, 3, 5, 6]
    assert ad.nvars == ad.rank() == 4
    assert [ad.form(i) for i in (2, 3, 5, 6)] == [unit_row(QQ, i, 4) for i in range(4)]
    assert ad.form(1) == (1, -1, 0, 0) and ad.form(4) == (0, 0, 1, -1)
    assert ad.s_generic_witness(4) == hartshorne.s_generic_witness(4) == (1, 2, 3, 4)


def test_adapted_drops_the_variables_past_the_rank():
    arr = Arrangement(QQ, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 0)])
    ad = arr.adapted()
    assert arr.nvars == 4 and ad.nvars == ad.rank() == 3
    # x = (x + y + z) - y - z, scaled to lead with 1
    assert ad.forms == ((1, 1, -1), (1, 0, 0), (0, 1, 0), (0, 0, 1))


@settings(max_examples=80, deadline=None)
@given(arr=small_arrangements())
def test_adapted_is_a_change_of_coordinates(arr):
    """The greedy basis forms map to the unit rows in label order, every
    form's new row times the basis is proportional to the old row, and
    so the flats, heights and witnesses, all stated in labels, agree.
    The adapted arrangement is built once, and it is its own: a fresh
    copy of its forms adapts to the same forms."""
    ad = arr.adapted()
    assert arr.adapted() is ad and ad.adapted() is ad
    assert Arrangement(arr.field, ad.forms).adapted().forms == ad.forms
    basis = greedy_basis_from_the_back(arr)
    r = arr.rank()
    assert ad.nvars == r == len(basis)
    assert [ad.form(b) for b in basis] == [unit_row(arr.field, i, r) for i in range(r)]
    for old, new in zip(arr.forms, ad.forms):
        back = [arr.field.zero] * arr.nvars
        for c, b in zip(new, basis):
            back = [arr.field.add(v, arr.field.mul(c, w)) for v, w in zip(back, arr.form(b))]
        assert len(rref_reference(arr.field, [old, back])[1]) == 1
    for s in range(1, arr.n + 2):
        assert ad.s_generic_witness(s) == arr.s_generic_witness(s)
    for j in range(arr.n):
        got = [(p.height, p.support) for p in ad.minimal_linear_primes(j)]
        assert got == [(p.height, p.support) for p in arr.minimal_linear_primes(j)]
    assert ad.min_distance() == arr.min_distance()
