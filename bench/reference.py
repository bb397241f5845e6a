"""A fixed reference computation that times are scaled by.

On a shared host the interpreter's speed drifts by a third within
minutes, so raw wall times of the same code spread by 30-50% from one
run to the next.  Timing this fixed computation next to every operation
and dividing by it removes most of the drift.  It is the benchmark's own
copy of the program's hot loop (multivariate division with tuple
exponents, a heap of grevlex keys and GF(p) coefficients), so that it
slows down and speeds up with the machine the way the program does; it
never calls the program, so a change to the program does not move it.
"""

from __future__ import annotations

import random
import time
from heapq import heappop, heappush

P = 32003
REPEATS = 3

# The usual time of reference_seconds() on the 2-vCPU VM the benchmark was
# built on: there a scaled second is close to a wall-clock second.
REFERENCE_S = 0.019


def _grevlex(e):
    return (sum(e), *(-x for x in reversed(e)))


def _poly(rng, nterms, degree, nvars=4):
    terms = {}
    while len(terms) < nterms:
        e = [0] * nvars
        for _ in range(rng.randint(0, degree)):
            e[rng.randrange(nvars)] += 1
        terms[tuple(e)] = rng.randrange(1, P)
    return sorted(terms.items(), key=lambda t: _grevlex(t[0]), reverse=True)


_rng = random.Random(12345)
_BASIS = [_poly(_rng, 12, 3) for _ in range(6)]
_TARGET = _poly(_rng, 120, 7)


def _divide():
    """Remainder of _TARGET by _BASIS, as groebner.reduce computes it."""
    divisors = [(g[0][0], pow(g[0][1], -1, P), g[1:]) for g in _BASIS]
    work = dict(_TARGET)
    heap = [(tuple(-x for x in _grevlex(e)), e) for e in work]
    heap.sort()
    out = {}
    while heap:
        _, e = heappop(heap)
        c = work.get(e)
        if c is None:
            continue
        for lm, inv, tail in divisors:
            if all(x <= y for x, y in zip(lm, e)):
                q = tuple(x - y for x, y in zip(e, lm))
                f = c * inv % P
                del work[e]
                for eg, cg in tail:
                    et = tuple(x + y for x, y in zip(q, eg))
                    cur = work.get(et)
                    if cur is None:
                        work[et] = -f * cg % P
                        heappush(heap, (tuple(-x for x in _grevlex(et)), et))
                    elif (cur - f * cg) % P:
                        work[et] = (cur - f * cg) % P
                    else:
                        del work[et]
                break
        else:
            del work[e]
            out[e] = c
    return out


def reference_seconds():
    start = time.perf_counter()
    for _ in range(REPEATS):
        _divide()
    return time.perf_counter() - start


def scaled(seconds, reference):
    """Seconds at reference speed: seconds * REFERENCE_S / reference."""
    return seconds * REFERENCE_S / reference
