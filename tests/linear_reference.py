"""Linear algebra through the field methods, kept as the reference for
the integer kernels in ``starconfig.arrangements``.

``rref_reference`` is Gauss-Jordan elimination as it ran on field
elements, one ``field.add``/``sub``/``mul``/``inv`` call per entry; the
tests require ``rref`` to return the same rows, pivots and element
types.  ``zero_minors`` computes every minor separately, one
determinant by elimination each, so it shares no work between minors
and none with the Laplace expansion it checks.
"""

from itertools import combinations


def rref_reference(field, rows):
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    work = [list(r) for r in rows]
    m = len(work)
    ncols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        pr = next((i for i in range(r, m) if work[i][c] != field.zero), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = field.inv(work[r][c])
        work[r] = [field.mul(inv, v) for v in work[r]]
        for i in range(m):
            if i != r and work[i][c] != field.zero:
                f = work[i][c]
                work[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def determinant(field, matrix):
    """Determinant of a square matrix by elimination with row swaps."""
    work = [list(r) for r in matrix]
    det = field.one
    for c in range(len(work)):
        pr = next((i for i in range(c, len(work)) if work[i][c] != field.zero), None)
        if pr is None:
            return field.zero
        if pr != c:
            work[c], work[pr] = work[pr], work[c]
            det = field.neg(det)
        det = field.mul(det, work[c][c])
        inv = field.inv(work[c][c])
        for i in range(c + 1, len(work)):
            f = field.mul(work[i][c], inv)
            work[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(work[i], work[c])]
    return det


def zero_minors(field, block):
    """The (rows, cols) of every vanishing square submatrix of block."""
    ncols = len(block[0]) if block else 0
    return [
        (rows, cols)
        for s in range(1, min(len(block), ncols) + 1)
        for rows in combinations(range(len(block)), s)
        for cols in combinations(range(ncols), s)
        if determinant(field, [[block[i][c] for c in cols] for i in rows]) == field.zero
    ]
