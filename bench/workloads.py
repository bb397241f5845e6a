"""Workload definitions and the seeded arrangements they run on.

Each workload is a list of cases.  A case names the shape of one
arrangement (k variables, n forms, the field) and the CLI operations
run on it.  The arrangement is drawn from a random.Random keyed by
workload, seed and case index, checked k-generic with the exact
arithmetic below, and written as an arrangement JSON file: the program
receives nothing but that file.

Field elements are plain ints modulo p, or Fractions when p is 0 (QQ).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path

PRIME = 32003
QQ = 0


def to_field(x, p):
    return x % p if p else Fraction(x)


def echelon(rows, p):
    """Reduced row echelon form over GF(p) or QQ: (rows, pivot columns)."""
    work = [[to_field(x, p) for x in row] for row in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = pow(work[r][c], -1, p) if p else 1 / work[r][c]
        work[r] = [to_field(v * inv, p) for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [to_field(a - f * b, p) for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return work[:r], pivots


def nullspace(rows, k, p):
    """A basis of {x in F^k : row . x = 0 for every row}."""
    red, pivots = echelon(rows, p) if rows else ([], [])
    basis = []
    for free in (c for c in range(k) if c not in pivots):
        v = [to_field(0, p)] * k
        v[free] = to_field(1, p)
        for row, c in zip(red, pivots):
            v[c] = to_field(-row[free], p)
        basis.append(v)
    return basis


# Over QQ a k-subset whose determinant is nonzero modulo this prime is
# independent; only the rare others need exact elimination.
SIEVE_PRIME = 2**61 - 1


def is_generic(rows, k, p):
    """True when every k of the forms are linearly independent."""
    for sub in combinations(rows, k):
        if p or len(echelon(sub, SIEVE_PRIME)[1]) < k:
            if len(echelon(sub, p)[1]) < k:
                return False
    return True


@dataclass(frozen=True)
class Case:
    """One arrangement shape and the CLI operations run on it."""

    k: int
    n: int
    p: int
    ops: tuple

    @property
    def field_spec(self):
        return f"GF({self.p})" if self.p else "QQ"


def verify(j):
    return ("verify", "--mode", "both", "--j", str(j))


def radical(j):
    return ("radical", "--j", str(j))


def partition_ops(k):
    # min-primes at the largest j whose primes are proper (j + 1 < k)
    return (
        ("sv-partition", "--all-j"),
        ("min-primes", "--j", str(k - 2)),
        ("height", "--all-j"),
        ("min-distance",),
    )


# Each workload runs several operations of each shape, none much over a
# second, so that one pass takes 5-7 s on a 2-core machine and a 20 s run
# holds three or four passes: bursts of machine noise then hit different
# operations and average out.
WORKLOADS = {
    "verify-gfp": [
        *[Case(4, 6, PRIME, (verify(1),))] * 2,
        *[Case(4, 6, PRIME, (verify(2),))] * 3,
        *[Case(5, 6, PRIME, (verify(1),))] * 2,
        *[Case(4, 7, PRIME, (verify(1),))] * 2,
    ],
    "verify-qq": [
        Case(3, 6, QQ, (verify(1),)),
        *[Case(4, 6, QQ, (verify(1),))] * 3,
        *[Case(4, 5, QQ, (verify(2),))] * 3,
    ],
    "radical": [
        Case(3, 6, PRIME, (radical(1),)),
        Case(4, 6, PRIME, (radical(1),)),
        *[Case(4, 6, PRIME, (radical(2),))] * 2,
        Case(4, 7, PRIME, (radical(1),)),
    ],
    "partition": [
        *[Case(4, 9, PRIME, partition_ops(4))] * 2,
        *[Case(5, 8, PRIME, partition_ops(5))] * 2,
    ],
}


def draw_rows(rng, case):
    """Coefficient rows of a k-generic arrangement, by rejection."""
    while True:
        if case.p:
            rows = [[rng.randrange(case.p) for _ in range(case.k)] for _ in range(case.n)]
        else:
            rows = [[rng.randint(-9, 9) for _ in range(case.k)] for _ in range(case.n)]
        if is_generic(rows, case.k, case.p):
            return rows


def variable_names(k):
    return [f"x{i + 1}" for i in range(k)]


def generate(workload, seed, outdir: Path):
    """Write one arrangement file per case; return [(case, rows, path)]."""
    outdir.mkdir(parents=True, exist_ok=True)
    made = []
    for index, case in enumerate(WORKLOADS[workload]):
        rng = random.Random(f"{workload}/{seed}/{index}")
        rows = draw_rows(rng, case)
        path = outdir / f"arr{index:02d}-k{case.k}-n{case.n}.json"
        doc = {"field": case.field_spec, "variables": variable_names(case.k), "forms": rows}
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        made.append((case, rows, path))
    return made
