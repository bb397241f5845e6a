"""Build and verify the explicit generators on a random generic arrangement.

Samples n forms in k variables over GF(32003) with every k of them
independent, then for each admissible j constructs the j + 1 claimed
generators, verifies the radical equality (each generator answered by
a Groebner radical test and by the minimal primes, and the two answers
cross-checked), and shows what a corrupted certificate looks like when
it is rejected.
"""

import json
from dataclasses import asdict

from starconfig import (
    GF,
    corrupt_certificate,
    random_generic_arrangement,
    theorem_generators,
    verify_certificate,
)

K, N, SEED = 4, 6, 11


def main():
    arr = random_generic_arrangement(K, N, field=GF(32003), seed=SEED)
    print(f"arrangement: {N} forms in {K} variables over {arr.field}, seed {SEED}")
    print(f"{K}-generic: {arr.is_s_generic(K)}")
    print()

    for j in range(0, K - 1):
        cert = theorem_generators(arr, j)
        report = verify_certificate(cert)
        a = N - j
        print(
            f"j={j}: a={a}, {report.generator_count} generators, "
            f"height {report.height}, status {report.status}, stci {report.stci}"
        )
        for name, gen in zip(cert.names(), cert.gens):
            text = str(gen)
            if len(text) > 70:
                text = text[:67] + "..."
            print(f"    {name} = {text}")

    print()
    print("a corrupted certificate is caught and names a witness:")
    cert = theorem_generators(arr, 1)
    broken = corrupt_certificate(cert, "drop-summand")
    report = verify_certificate(broken)
    print(f"status: {report.status}")
    for check in report.checks:
        if check.ok is False:
            print(json.dumps(asdict(check), indent=2))
            break


if __name__ == "__main__":
    main()
