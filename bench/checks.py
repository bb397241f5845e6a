"""Output checks that do not copy the program's answers.

Each check compares a CLI report with a property the method must have,
computed here from the arrangement's coefficients with plain GF(p)
integers or Fractions (see workloads.py).  The radical check hands both
sides to sympy as an independent Groebner engine.  A check returns a
list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb

from workloads import nullspace, to_field, variable_names


def parse_poly(text, names, p):
    """The CLI's printed polynomial as [(coefficient, exponents)]."""
    index = {name: i for i, name in enumerate(names)}
    tokens = text.split(" ")
    terms = []
    sign = 1
    if tokens[0].startswith("-"):
        sign, tokens[0] = -1, tokens[0][1:]
    for pos, tok in enumerate(tokens):
        if pos % 2:
            sign = 1 if tok == "+" else -1
            continue
        coeff = Fraction(1)
        exps = [0] * len(names)
        for factor in tok.split("*"):
            name, _, power = factor.partition("^")
            if name in index:
                exps[index[name]] += int(power) if power else 1
            else:
                coeff *= Fraction(factor)
        coeff *= sign
        if p:
            coeff = coeff.numerator * pow(coeff.denominator, -1, p) % p
        terms.append((coeff, tuple(exps)))
    return terms


def evaluate(terms, point, p):
    total = to_field(0, p)
    for coeff, exps in terms:
        value = coeff
        for x, e in zip(point, exps):
            if e:
                value = value * x**e
        total = total + value
    return to_field(total, p)


def form_value(row, point, p):
    return to_field(sum(c * x for c, x in zip(row, point)), p)


def random_point(rng, rows, support, p, avoid=()):
    """A random point where the forms in `support` vanish and no form in
    `avoid` does; None if a few hundred draws find none."""
    k = len(rows[0])
    basis = nullspace([rows[i] for i in support], k, p)
    for _ in range(200):
        w = [rng.randrange(p) if p else rng.randint(-50, 50) for _ in basis]
        point = [to_field(sum(c * v[i] for c, v in zip(w, basis)), p) for i in range(k)]
        if all(form_value(rows[i], point, p) != 0 for i in avoid):
            return point
    return None


def check_verify(rows, p, j, report, gens_report, rng):
    """The verify verdict, plus the certificate's zero set at sample points.

    The a-fold products all vanish on the span-complement of any j+1
    forms, so every certificate generator must too.  At a point where
    only j forms vanish, the product of the other n-j forms does not,
    so some certificate generator must be nonzero there.
    """
    problems = []
    r = report["results"]
    if not (r.get("status") == "holds" and r.get("holds") is True and r.get("stci") is True):
        problems.append(f"verdict {r.get('status')!r}, stci={r.get('stci')!r}")
    if not r.get("height") == r.get("generator_count") == j + 1:
        problems.append(
            f"height {r.get('height')} and {r.get('generator_count')} generators, expected {j + 1}"
        )
    names = variable_names(len(rows[0]))
    gens = [parse_poly(s, names, p) for s in gens_report["results"]["generators"]]
    if len(gens) != j + 1:
        problems.append(f"stci-gens gave {len(gens)} generators, expected {j + 1}")
    n = len(rows)
    for support in combinations(range(n), j + 1):
        point = random_point(rng, rows, support, p)
        if any(evaluate(g, point, p) != 0 for g in gens):
            problems.append(f"a generator is nonzero on the zero set of forms {support}")
    for support in combinations(range(n), j):
        others = [i for i in range(n) if i not in support]
        point = random_point(rng, rows, support, p, avoid=others)
        if point is None:
            problems.append(f"no sample point for forms {support}")
        elif all(evaluate(g, point, p) == 0 for g in gens):
            problems.append(f"all generators vanish off the a-fold zero set, forms {support}")
    return problems


def check_min_primes(rows, p, j, report):
    """For a k-generic arrangement and j+1 < k the minimal primes are the
    spans of the C(n, j+1) subsets of j+1 forms."""
    n, k = len(rows), len(rows[0])
    r = report["results"]
    problems = []
    if j + 1 < k:
        supports = {tuple(q["support"]) for q in r["primes"]}
        if r["count"] != comb(n, j + 1) or len(supports) != r["count"]:
            problems.append(f"{r['count']} minimal primes, expected {comb(n, j + 1)}")
        if any(q["height"] != j + 1 or len(q["support"]) != j + 1 for q in r["primes"]):
            problems.append(f"a minimal prime is not spanned by exactly {j + 1} forms")
    return problems


def check_radical(rows, p, j, report):
    """The radical equals the a-fold ideal itself: star-configuration
    ideals are radical, so sympy's reduced bases of the two must agree."""
    import sympy

    names = variable_names(len(rows[0]))
    xs = sympy.symbols(names)
    returned = [
        sympy.Poly.from_dict({e: c for c, e in parse_poly(s, names, p)}, *xs, modulus=p)
        for s in report["results"]["generators"]
    ]
    forms = [sum(c * x for c, x in zip(row, xs)) for row in rows]
    n = len(rows)
    afold = [
        sympy.Poly(sympy.prod([forms[i] for i in s]), *xs, modulus=p)
        for s in combinations(range(n), n - j)
    ]
    left = sympy.groebner(returned, *xs, modulus=p, order="grevlex")
    right = sympy.groebner(afold, *xs, modulus=p, order="grevlex")
    if set(left.exprs) != set(right.exprs):
        return [f"radical for j={j} differs from the {n - j}-fold product ideal"]
    return []


def check_partition(rows, p, report, rng):
    """Every level partition is valid, checked here on label bitmasks,
    covers all C(n, n-j) products, and its level sums match the forms."""
    n = len(rows)
    names = variable_names(len(rows[0]))
    problems = []
    entries = report["results"]["partitions"]
    if [e["j"] for e in entries] != list(range(n)):
        problems.append("partitions are not listed for j = 0..n-1")
    point = [to_field(rng.randrange(p) if p else rng.randint(-50, 50), p) for _ in names]
    # the program scales each form to a leading coefficient of one
    values = []
    for row in rows:
        lead = to_field(next(c for c in row if c), p)
        values.append(to_field(form_value(row, point, p) * (pow(lead, -1, p) if p else 1 / lead), p))
    for e in entries:
        j = e["j"]
        levels = [[sum(1 << (i - 1) for i in labels) for labels in level] for level in e["levels"]]
        flat = [m for level in levels for m in level]
        ground = {sum(1 << i for i in s) for s in combinations(range(n), n - j)}
        if not e["valid"]:
            problems.append(f"j={j}: program reports the partition invalid")
        if len(flat) != comb(n, n - j) or set(flat) != ground:
            problems.append(f"j={j}: levels do not partition the {n - j}-fold products")
        if not levels or len(levels[0]) != 1:
            problems.append(f"j={j}: level 0 is not a single product")
        for l in range(1, len(levels)):
            earlier = [m for level in levels[:l] for m in level]
            for a, b in combinations(levels[l], 2):
                union = a | b
                if not any(d & ~union == 0 for d in earlier):
                    problems.append(f"j={j}: no earlier product divides a pair at level {l}")
                    break
        for level, level_labels, text in zip(levels, e["levels"], e.get("sums", [])):
            expect = to_field(0, p)
            for labels in level_labels:
                term = to_field(1, p)
                for i in labels:
                    term = term * values[i - 1]
                expect = expect + term
            if evaluate(parse_poly(text, names, p), point, p) != to_field(expect, p):
                problems.append(f"j={j}: a level sum is not the sum of its products")
                break
        if len(e.get("sums", [])) != len(levels):
            problems.append(f"j={j}: {len(e.get('sums', []))} sums for {len(levels)} levels")
    return problems


def check_heights(rows, report):
    n, k = len(rows), len(rows[0])
    heights = report["results"]["heights"]
    bad = [j for j in range(n) if heights.get(str(j)) != min(j + 1, k)]
    return [f"height wrong for j in {bad}"] if bad else []


def check_distance(rows, report):
    n, k = len(rows), len(rows[0])
    r = report["results"]
    if r["min_distance"] != n - k + 1 or r["rank"] != k:
        return [f"min_distance {r['min_distance']}, rank {r['rank']}; expected {n - k + 1}, {k}"]
    return []


def seeded_rng(seed, index):
    return random.Random(f"check/{seed}/{index}")
