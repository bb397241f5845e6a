"""Acceptance suite: one timed criterion per test, one verdict line each.

Each test records its verdict before asserting, so every line is
printed in the terminal summary (see conftest) even when a criterion
fails and even under output capture.
"""

import json
import random
import shlex
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

from starconfig.arrangements import Arrangement, LinearPrime, random_generic_arrangement
from starconfig.cli import run
from starconfig.fields import GF, QQ
from starconfig.groebner import Ideal, buchberger, intersect, radical_member, reduce, s_polynomial
from starconfig.polynomials import Ring

from ideal_helpers import ideal_eq, radical_eq
from starconfig.stci import (
    CORRUPTION_MODES,
    sv_ara_partition,
    sv_check_partition,
    sv_sums,
    theorem_generators,
    verify_certificate,
)

FIXTURES = Path(__file__).parent / "fixtures"
HARTSHORNE = str(FIXTURES / "hartshorne.json")
COORD_PLUS_SUM = str(FIXTURES / "coordinate_plus_sum.json")

HARTSHORNE_ROWS = [
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (1, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (0, 0, 1, 1),
]


VERDICT_LINES = []


def announce(num, ok, elapsed, limit, detail=""):
    verdict = "PASS" if ok else "FAIL"
    tail = f" - {detail}" if detail else ""
    line = f"acceptance criterion {num}: {verdict} ({elapsed:.1f}s, limit {limit:.0f}s){tail}"
    VERDICT_LINES.append(line)
    print(line, flush=True)


def test_criterion_1_hartshorne_exact_values():
    """Known heights, primes, radical, and distance of the six-form fixture."""
    limit = 10.0
    t0 = time.monotonic()
    arr = Arrangement(QQ, HARTSHORNE_ROWS, names=("x", "y", "z", "w"))
    ok = True

    heights = {j: arr.height_afold(j) for j in range(6)}
    ok &= heights == {0: 1, 1: 2, 2: 2, 3: 3, 4: 4, 5: 4}

    p2 = arr.minimal_linear_primes(2)
    ok &= [p.support for p in p2] == [(1, 2, 3), (4, 5, 6)]
    p3 = arr.minimal_linear_primes(3)
    ok &= len(p3) == 6 and all(p.height == 3 for p in p3)

    R = arr.ring
    x, y, z, w = R.gens()
    ok &= ideal_eq(arr.combinatorial_radical(2), Ideal(R, (x * z, x * w, y * z, y * w)))

    ok &= arr.min_distance() == 2
    ok &= run(["height", "--all-j", HARTSHORNE]) == 0
    ok &= run(["min-distance", HARTSHORNE]) == 0

    elapsed = time.monotonic() - t0
    announce(1, ok and elapsed < limit, elapsed, limit)
    assert ok
    assert elapsed < limit


def test_criterion_2_generic_sweep(tmp_path, capsys, child_env):
    """verify --mode both succeeds across the full (k, n, seed) grid."""
    limit = 600.0
    t0 = time.monotonic()
    runs = 0
    failures = []
    for k in (3, 4):
        for n in range(k, 7):
            for seed in range(5):
                arr = random_generic_arrangement(k, n, field=GF(32003), seed=seed)
                path = tmp_path / f"sweep_{k}_{n}_{seed}.json"
                path.write_text(
                    json.dumps(
                        {
                            "field": "GF(32003)",
                            "forms": [[int(c) for c in row] for row in arr.coeff_rows()],
                        }
                    )
                )
                code = run(["verify", "--all-j", "--mode", "both", str(path)])
                runs += 1
                if code != 0:
                    failures.append((k, n, seed, code))
    capsys.readouterr()

    # the same flow end to end through real processes
    cli = f"{shlex.quote(sys.executable)} -m starconfig"
    pipe = subprocess.run(
        f"{cli} random --k 4 --n 6 --seed 1 | {cli} verify --all-j --mode both -",
        shell=True,
        capture_output=True,
        text=True,
        env=child_env,
    )
    proc = subprocess.run(
        [sys.executable, "-m", "starconfig", "verify", "--j", "2", "--mode", "both",
         str(tmp_path / "sweep_4_6_0.json")],
        capture_output=True,
        text=True,
        env=child_env,
    )
    ok = not failures and pipe.returncode == 0 and proc.returncode == 0

    elapsed = time.monotonic() - t0
    announce(2, ok and elapsed < limit, elapsed, limit, f"{runs} sweep runs")
    assert not failures, failures
    assert pipe.returncode == 0 and proc.returncode == 0
    assert elapsed < limit


def test_criterion_3_exact_rational_fixture(capsys):
    """Full verification of {x, y, z, x+y+z} over the rationals."""
    limit = 60.0
    t0 = time.monotonic()
    arr = Arrangement(QQ, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    ok = arr.rank() == 3 and arr.is_s_generic(3) and arr.min_distance() == 2
    for j in (0, 1):
        cert = theorem_generators(arr, j)
        for mode in ("groebner", "combinatorial", "both"):
            rep = verify_certificate(cert, mode=mode)
            ok &= rep.holds is True and rep.stci is True and rep.height == j + 1
    part = sv_ara_partition(arr, 1)
    ok &= sv_check_partition(part)[0]
    ok &= set(sv_sums(part)) == set(theorem_generators(arr, 1).gens)
    ok &= run(["verify", "--all-j", COORD_PLUS_SUM]) == 0
    capsys.readouterr()

    elapsed = time.monotonic() - t0
    announce(3, ok and elapsed < limit, elapsed, limit)
    assert ok
    assert elapsed < limit


def test_criterion_4_product_splitting_lemma():
    """100 seeded instances of rad(I+(fg)) = rad(I+(f)) meet rad(I+(g))."""
    limit = 300.0
    t0 = time.monotonic()
    ring = Ring(GF(101), 3, names=("x", "y", "z"))
    rng = random.Random(40100)

    def poly():
        while True:
            d = {}
            for _ in range(rng.randint(1, 2)):
                e = tuple(rng.randint(0, 1) for _ in range(3))
                d[e] = ring.field.from_int(rng.randint(0, 100))
            f = ring.from_dict(d)
            if not f.is_zero():
                return f

    good = 0
    for _ in range(100):
        f, g = poly(), poly()
        base = tuple(poly() for _ in range(rng.randint(0, 1)))
        left = Ideal(ring, base + (f * g,))
        right = intersect(Ideal(ring, base + (f,)), Ideal(ring, base + (g,)))
        if radical_eq(left, right):
            good += 1

    elapsed = time.monotonic() - t0
    ok = good == 100
    announce(4, ok and elapsed < limit, elapsed, limit, f"{good}/100 instances")
    assert ok
    assert elapsed < limit


def test_criterion_5_partition_suite(capsys):
    """Level partitions check out on every fixture, at every level count."""
    limit = 600.0
    t0 = time.monotonic()
    ok = True

    hartshorne = Arrangement(QQ, HARTSHORNE_ROWS, names=("x", "y", "z", "w"))
    for j in range(6):
        valid, witness = sv_check_partition(sv_ara_partition(hartshorne, j))
        ok &= valid

    coord = Arrangement(QQ, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    for j in range(4):
        valid, witness = sv_check_partition(sv_ara_partition(coord, j))
        ok &= valid
    ok &= set(sv_sums(sv_ara_partition(coord, 1))) == set(
        theorem_generators(coord, 1).gens
    )

    for k in (3, 4):
        for n in range(k, 7):
            arr = random_generic_arrangement(k, n, field=GF(32003), seed=0)
            for j in range(0, k - 1):
                part = sv_ara_partition(arr, j)
                valid, witness = sv_check_partition(part)
                ok &= valid
                sums = sv_sums(part)
                ok &= len(sums) == j + 1
                ok &= set(sums) == set(theorem_generators(arr, j).gens)

    ok &= run(["sv-partition", "--all-j", "--check-only", HARTSHORNE]) == 0
    ok &= run(["sv-partition", "--all-j", COORD_PLUS_SUM]) == 0
    capsys.readouterr()

    elapsed = time.monotonic() - t0
    announce(5, ok and elapsed < limit, elapsed, limit)
    assert ok
    assert elapsed < limit


def test_criterion_6_corrupted_certificates(capsys):
    """Each corruption is rejected, names a witness, and exits 1."""
    limit = 60.0
    t0 = time.monotonic()
    ok = True
    details = []
    for mode in CORRUPTION_MODES:
        code = run(["verify", "--j", "1", "--corrupt", mode, COORD_PLUS_SUM])
        report = json.loads(capsys.readouterr().out)
        witnesses = [
            c["witness"] for c in report["results"]["checks"] if c["ok"] is False
        ]
        ok &= code == 1 and bool(witnesses) and all(witnesses)
        details.append(f"{mode}: exit {code}")

    elapsed = time.monotonic() - t0
    announce(6, ok and elapsed < limit, elapsed, limit, "; ".join(details))
    assert ok
    assert elapsed < limit


def _battery():
    """Twenty deterministic ideals over both coefficient fields."""
    out = []
    rng = random.Random(314159)
    for i in range(20):
        field = QQ if i % 2 == 0 else GF(32003)
        ring = Ring(field, 3, names=("x", "y", "z"))
        gens = []
        for _ in range(rng.randint(2, 3)):
            d = {}
            for _ in range(rng.randint(2, 4)):
                e = tuple(rng.randint(0, 2) for _ in range(3))
                d[e] = field.from_int(rng.randint(-6, 6))
            g = ring.from_dict(d)
            if not g.is_zero():
                gens.append(g)
        out.append((ring, tuple(gens) or (ring.gen(0),)))
    return out


def test_criterion_7_groebner_determinism_and_radical_routes():
    """Canonical bases under shuffles, zero S-polynomials, agreeing radicals."""
    limit = 300.0
    t0 = time.monotonic()
    ok = True

    battery = _battery()
    for ring, gens in battery:
        canonical = buchberger(gens)
        for seed in (101, 202):
            shuffled = list(gens)
            random.Random(seed).shuffle(shuffled)
            ok &= buchberger(shuffled) == canonical
        for i in range(len(canonical)):
            for k in range(i):
                ok &= reduce(s_polynomial(canonical[i], canonical[k]), canonical).is_zero()

    def power_hit(f, ideal, limit=6):
        """Bounded power search: a hit proves radical membership."""
        gb = ideal.groebner_basis()
        return any(reduce(f ** e, gb).is_zero() for e in range(1, limit + 1))

    # radical membership: a power-search hit must imply the exact answer
    for ring, gens in battery[:10]:
        f = ring.gen(0) + ring.gen(1)
        ideal = Ideal(ring, gens)
        ok &= not power_hit(f, ideal) or radical_member(f, ideal)

    # and on instances where membership is known to hold
    ring = Ring(QQ, 3, names=("x", "y", "z"))
    x, y, z = ring.gens()
    positives = [
        (x + y, (x * x, y * y * y)),
        (x + y + z, ((x + y + z) ** 4,)),
        (x * z, (x * x * z * z * z,)),
    ]
    for f, gens in positives:
        ok &= radical_member(f, Ideal(ring, gens)) is True
        ok &= power_hit(f, Ideal(ring, gens))

    elapsed = time.monotonic() - t0
    announce(7, ok and elapsed < limit, elapsed, limit)
    assert ok
    assert elapsed < limit


def test_criterion_8_intersection_identity_logged():
    """Ideal-level product/intersection identity, logged without blocking."""
    limit = 120.0
    t0 = time.monotonic()
    cases = []
    fixtures = [
        Arrangement(QQ, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]),
        random_generic_arrangement(3, 5, field=GF(32003), seed=2),
        random_generic_arrangement(4, 5, field=GF(32003), seed=2),
    ]
    completed = True
    try:
        for arr in fixtures:
            k = arr.rank()
            for c in range(1, k):
                primes = [
                    LinearPrime(arr.field, [arr.form(i).coeffs for i in S])
                    for S in combinations(arr.labels, c)
                ]
                inter = primes[0].ideal_in(arr.ring)
                for p in primes[1:]:
                    inter = intersect(inter, p.ideal_in(arr.ring))
                equal = ideal_eq(arr.afold_ideal(arr.n - c + 1), inter)
                cases.append(((arr.n, k, c), equal))
    except Exception as exc:  # logged, never blocking
        completed = False
        cases.append(("error", repr(exc)))

    elapsed = time.monotonic() - t0
    agree = sum(1 for _, equal in cases if equal is True)
    detail = f"{agree}/{len(cases)} cases equal (non-blocking): " + ", ".join(
        f"n={t[0]},k={t[1]},c={t[2]}:{'=' if e else '!='}"
        for t, e in cases
        if isinstance(t, tuple)
    )
    announce(8, completed and elapsed < limit, elapsed, limit, detail)
    assert completed
    assert elapsed < limit
