"""Walk through the classical six-form arrangement {x, y, x+y, z, w, z+w}.

This arrangement is not 3-generic (x, y, x+y are dependent), so the
main construction only applies at j = 0.  Everything else here is the
combinatorial side: heights, minimal linear primes, radicals computed
as intersections, and the level partition that bounds the arithmetic
rank from above.
"""

from starconfig import (
    Arrangement,
    Ideal,
    QQ,
    sv_ara_partition,
    sv_check_partition,
    sv_sums,
)

ROWS = [
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (1, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (0, 0, 1, 1),
]


def main():
    arr = Arrangement(QQ, ROWS, names=("x", "y", "z", "w"))
    print(f"forms: {[str(arr.product((i,))) for i in arr.labels]}")
    print(f"rank {arr.rank()}, 3-generic witness: {arr.s_generic_witness(3)}")
    print(f"minimum distance: {arr.min_distance()}")
    print()

    print("heights of the a-fold ideals (a = n - j):")
    for j in range(arr.n):
        print(f"  j={j}  a={arr.n - j}  height {arr.height_afold(j)}")
    print()

    print("minimal linear primes at j = 2:")
    for prime in arr.minimal_linear_primes(2):
        gens = ", ".join(str(g) for g in prime.gens_in(arr.ring))
        print(f"  support {prime.support}  height {prime.height}  <{gens}>")

    # the radical of the 4-fold ideal is the intersection of those primes
    combinatorial = arr.combinatorial_radical(2)
    print("radical generators from the intersection:")
    for g in combinatorial.gens:
        print(f"  {g}")
    x, y, z, w = arr.ring.gens()
    expected = Ideal(arr.ring, (x * z, x * w, y * z, y * w))
    assert all(expected.contains(g) for g in combinatorial.gens)
    assert all(combinatorial.contains(g) for g in expected.gens)
    print("matches <xz, xw, yz, yw>: yes")
    print()

    print("level partitions certify ara <= j + 1 even without genericity:")
    for j in range(arr.n):
        part = sv_ara_partition(arr, j)
        valid, witness = sv_check_partition(part)
        sums = sv_sums(part)
        print(f"  j={j}  levels {len(part.levels)}  valid: {valid}  sums: {len(sums)}")
        assert valid, witness


if __name__ == "__main__":
    main()
