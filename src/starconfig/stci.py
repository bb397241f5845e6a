"""Explicit generators cutting out a-fold product varieties, and checks.

The (n-j)-fold products of an arrangement fall into j+1 levels: level
0 is the tail product of the last n-j forms, and level u holds the
products whose smallest label is j-u+1.  The level sums are the
explicit generators.  A certificate is that level partition, stored
as label tuples so it can be serialized, mutated, and re-verified from
scratch.

For any arrangement at all the levels satisfy the covering and
divisibility conditions of the Schmitt-Vogel lemma (Math. Ann. 245,
1979), so the j+1 level sums cut out the a-fold product variety; that
check works on labels alone.  For an arrangement whose rank-many
subsets are all independent, j+1 is also the height, which makes the
variety a set-theoretic complete intersection.

verify_certificate proves each direction of the radical equality
twice.  The label check covers both: distinct ground-set entries put
every level sum in the a-fold ideal, and covering plus divisibility
give the lemma.  Each level sum is also reduced against every minimal
prime of the a-fold ideal, which is exact, and each a-fold product
gets a Rabinowitsch radical test against the certificate ideal.  An
algebraic failure under a passing label check is reported as an
internal inconsistency, never resolved silently.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations
from math import comb

from .arrangements import Arrangement
from .errors import GenericityError, UsageError
from .groebner import Ideal, check_deadline, radical_member, reduce


def _product_label(labels) -> str:
    """A product of forms by its labels, as l1*l2*l4."""
    return "*".join(f"l{i}" for i in labels) or "1"


class SVPartition:
    """The certificate: the (n-j)-fold products in ordered levels.

    levels holds sorted label tuples, level 0 first.  The ground set,
    every (n-j)-subset of the labels 1..n, follows from the arrangement
    and j and is not stored.  gens, the level sums, is built on first
    use, so generator i is the sum of level i.
    """

    __slots__ = ("arrangement", "j", "levels", "_gens")

    def __init__(self, arrangement: Arrangement, j: int, levels):
        self.arrangement = arrangement
        self.j = j
        self.levels = tuple(tuple(tuple(sorted(p)) for p in level) for level in levels)
        self._gens = None

    @property
    def gens(self):
        if self._gens is None:
            self._gens = sv_sums(self)
        return self._gens

    def names(self):
        """Generator names by level: tail, then F{j}, ..., F1."""
        return tuple(
            f"F{self.j - u + 1}" if u else "tail" for u in range(len(self.levels))
        )

    def __repr__(self):
        sizes = [len(level) for level in self.levels]
        return f"SVPartition(j={self.j}, levels {sizes})"


def theorem_generators(arrangement: Arrangement, j: int) -> SVPartition:
    """The explicit j+1 generators for the (n-j)-fold product radical.

    j = 0 needs nothing and returns the single full product.  For
    j >= 1 the arrangement must have every rank-sized subset
    independent and j can be at most rank - 2.
    """
    arrangement._check_j(j)
    if j >= 1:
        r = arrangement.rank()
        if j > r - 2:
            raise UsageError(
                f"explicit generators need j <= rank - 2 = {r - 2}, got {j}"
            )
        witness = arrangement.s_generic_witness(r)
        if witness is not None:
            raise GenericityError(
                f"forms {list(witness)} are dependent, so the arrangement "
                f"is not {r}-generic",
                subset=witness,
            )
    return sv_ara_partition(arrangement, j)


CORRUPTION_MODES = ("drop-summand", "swap-form", "truncate-tail")


def corrupt_certificate(cert: SVPartition, mode: str) -> SVPartition:
    """A deliberately broken variant, for negative testing.

    drop-summand removes the first product of the last level (F1),
    swap-form replaces form 1 by form 2 throughout the last level, and
    truncate-tail drops one factor from the level-0 product.  Each
    fails the label check; drop-summand breaks the a-fold to
    certificate direction, truncate-tail the other, and swap-form both.
    """
    if mode not in CORRUPTION_MODES:
        raise UsageError(f"unknown corruption mode {mode!r}")
    levels = list(cert.levels)
    if mode == "drop-summand":
        if len(levels) < 2 or len(levels[-1]) < 2:
            raise UsageError("drop-summand needs a last level with at least two products")
        levels[-1] = levels[-1][1:]
    elif mode == "swap-form":
        if len(levels) < 2:
            raise UsageError("swap-form needs a level above level 0")
        levels[-1] = tuple(tuple(2 if i == 1 else i for i in p) for p in levels[-1])
    else:
        if len(levels[0][0]) < 2:
            raise UsageError("truncate-tail needs a tail with at least two factors")
        levels[0] = (levels[0][0][1:],)
    return SVPartition(cert.arrangement, cert.j, levels)


@dataclass
class CheckResult:
    name: str
    ok: bool | None
    witness: str | None = None


@dataclass
class VerificationReport:
    holds: bool | None
    status: str
    n: int
    a: int
    j: int
    height: int
    generator_count: int
    stci: bool | None
    checks: list = field(default_factory=list)
    wall_time_seconds: float = 0.0


def verify_certificate(
    cert: SVPartition,
    budget_seconds: float | None = None,
) -> VerificationReport:
    """Check that the certificate cuts out the a-fold product variety.

    Each direction gets a label proof and one algebraic route.  The
    checks run in one order: sv-partition, the covering and
    divisibility conditions on labels, which prove both directions;
    each a-fold product against the certificate radical, by
    Rabinowitsch; and each level sum reduced against every minimal
    prime, which is exact.  The first algebraic check builds the level
    sums and the certificate ideal, and each product, an entry outside
    the ground set under some corruptions included, is expanded once.
    When the labels pass but an algebraic check fails, a cross-check
    reports the disagreement.  A budget turns remaining work into an
    inconclusive verdict, the label check, the expansions and a
    Rabinowitsch run that it cuts included, and a spent budget builds
    and fetches nothing more; it never flips a failure already found.
    The flats, which give the height, come first and run outside the
    budget.  A budget of 0 runs no check; a NaN or negative one is
    refused; an infinite one never cuts.  The checks speak only in
    labels, so the report is the same in any coordinates, as
    ``Arrangement.adapted`` gives them.
    """
    if budget_seconds is not None and not budget_seconds >= 0:
        raise UsageError(f"budget must be a nonnegative number of seconds, got {budget_seconds}")
    t0 = time.monotonic()
    deadline = t0 + budget_seconds if budget_seconds is not None else None
    arr = cert.arrangement
    j = cert.j
    height = arr.height_afold(j)
    a = arr.n - j
    ring = arr.ring
    checks: list[CheckResult] = []

    def run(name, fn):
        """Run one check unless the budget is gone or cuts it; fn
        returns the witness of a failure, or None when the check passes."""
        try:
            check_deadline(deadline)
            witness = fn()
        except TimeoutError:
            checks.append(CheckResult(name, None, "budget exhausted"))
            return None
        checks.append(CheckResult(name, witness is None, witness))
        return witness is None

    @cache
    def product(labels):
        check_deadline(deadline)
        return arr.product(labels)

    @cache
    def certificate():
        """The level sums and their ideal, built by the first algebraic
        check, so that a spent budget builds nothing."""
        gens = sv_sums(cert, product)
        return gens, Ideal(ring, gens)

    labels_ok = run("sv-partition", lambda: sv_check_partition(cert, deadline=deadline)[1])

    rejected = []  # (subject, route) of each failed algebraic check
    for labels in combinations(arr.labels, a):
        name = _product_label(labels)
        if run(
            f"radical-membership:{name}-in-certificate",
            lambda labels=labels, name=name: None
            if radical_member(product(labels), certificate()[1], deadline=deadline) else
            f"{a}-fold product {name} is not in the radical of the certificate ideal",
        ) is False:
            rejected.append((name, "Rabinowitsch says"))

    @cache
    def primes():
        """The minimal primes with their generators, fetched by the
        first minimal-primes check, so that a spent budget skips them."""
        return [(p, p.gens_in(ring)) for p in arr.minimal_linear_primes(j)]

    def outside(u, name):
        """The witness of a minimal prime that does not contain level sum u, if any."""
        g = certificate()[0][u]
        p = next((p for p, pgens in primes() if not reduce(g, pgens).is_zero()), None)
        return None if p is None else (
            f"{name} is not in the minimal prime spanned by forms {list(p.support)}"
        )

    for u, name in enumerate(cert.names()):
        if run(f"minimal-primes:{name}", lambda u=u, name=name: outside(u, name)) is False:
            rejected.append((name, "the minimal primes say"))

    # a passing label proof implies every algebraic answer, so a failure
    # under it is a bug, not a verdict; the converse does not hold
    if labels_ok:
        checks.extend(
            CheckResult(
                f"cross-check:{name}",
                False,
                f"routes disagree on {name}: the level partition says True, "
                f"{route} False",
            )
            for name, route in rejected
        )

    failed = any(c.ok is False for c in checks)
    skipped = any(c.ok is None for c in checks)
    if failed:
        holds, status = False, "fails"
    elif skipped:
        holds, status = None, "inconclusive"
    else:
        holds, status = True, "holds"
    stci = None
    if holds is not None:
        stci = bool(holds and height == len(cert.levels) == j + 1)
    return VerificationReport(
        holds=holds,
        status=status,
        n=arr.n,
        a=a,
        j=j,
        height=height,
        generator_count=len(cert.levels),
        stci=stci,
        checks=checks,
        wall_time_seconds=time.monotonic() - t0,
    )


def sv_check_partition(partition: SVPartition, deadline=None):
    """Validate the covering and divisibility conditions.

    Returns (ok, witness).  The conditions: the levels partition the
    ground set, level zero is a single product, and any two distinct
    products at one level have their pairwise product divisible by
    something from a strictly earlier level.  Products are compared as
    label bitmasks, where d divides p*q exactly when d & ~(p | q) == 0.
    Once deadline, a ``time.monotonic()`` value, is reached, the next
    pair of products raises TimeoutError.

    The label test is exact, not a proxy for polynomial division.  A
    nonzero linear form is irreducible, and ``Arrangement`` rejects
    proportional forms, so distinct labels are non-associate primes of
    the polynomial ring.  By unique factorization, a product of distinct
    forms d divides p*q exactly when each factor of d is associate to a
    factor of p*q, that is, when labels(d) is a subset of
    labels(p) | labels(q); a repeated factor of p*q never matters,
    since d has none.
    """
    n = partition.arrangement.n
    a = n - partition.j
    levels = partition.levels
    if not levels:
        return False, "there are no levels"
    seen = {}
    masks = []
    for l, level in enumerate(levels):
        if not level:
            return False, f"level {l} is empty"
        row = []
        for p in level:
            if len(set(p)) != a or len(p) != a or not all(1 <= i <= n for i in p):
                return False, f"product {_product_label(p)} is not in the ground set"
            mask = sum(1 << i for i in p)
            if mask in seen:
                return False, (
                    f"product {_product_label(p)} appears in levels {seen[mask]} and {l}"
                )
            seen[mask] = l
            row.append(mask)
        masks.append(row)
    if len(seen) < comb(n, a):
        missing = next(
            s for s in combinations(range(1, n + 1), a)
            if sum(1 << i for i in s) not in seen
        )
        return False, f"product {_product_label(missing)} is missing from the levels"
    if len(levels[0]) != 1:
        return False, f"level 0 must hold exactly one product, found {len(levels[0])}"
    earlier = list(masks[0])
    for l in range(1, len(levels)):
        for (p, mp), (q, mq) in combinations(zip(levels[l], masks[l]), 2):
            check_deadline(deadline)
            union = mp | mq
            if not any(d & ~union == 0 for d in earlier):
                return False, (
                    f"no earlier product divides ({_product_label(p)}) * "
                    f"({_product_label(q)}) at level {l}"
                )
        earlier.extend(masks[l])
    return True, None


def sv_sums(partition: SVPartition, product=None):
    """The level sums: one polynomial per level, a sum of products of forms.

    When the partition passes the checks, these cut out the same
    variety as the whole ground set, bounding the arithmetic rank by
    the number of levels.  product expands one label tuple, by default
    ``Arrangement.product``; ``verify_certificate`` passes one that
    keeps each expansion for its Rabinowitsch tests and raises
    TimeoutError once its budget is spent.
    """
    arr = partition.arrangement
    product = product or arr.product
    return tuple(
        sum((product(p) for p in level), arr.ring.zero) for level in partition.levels
    )


def sv_ara_partition(arrangement: Arrangement, j: int) -> SVPartition:
    """Level structure on all (n-j)-fold products, by smallest label.

    Level 0 is the tail product of the last n-j forms; level u collects
    the products whose smallest label is j-u+1.  This is valid for any
    arrangement, so j+1 polynomials always suffice up to radical.
    """
    arrangement._check_j(j)
    n = arrangement.n
    levels = [(tuple(range(j + 1, n + 1)),)]
    for u in range(1, j + 1):
        b = j - u + 1
        levels.append(
            tuple((b,) + rest for rest in combinations(range(b + 1, n + 1), n - j - 1))
        )
    return SVPartition(arrangement, j, levels)
