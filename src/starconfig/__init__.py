"""Exact computer algebra for ideals of a-fold products of linear forms.

Construct arrangements of linear forms over the rationals or a prime
field, enumerate the minimal primes and heights of their a-fold
product ideals, build the explicit j+1 polynomials that cut out the
same variety, and verify the radical equality mechanically by two
independent routes.
"""

from .arrangements import Arrangement, LinearPrime, random_generic_arrangement
from .errors import (
    DegenerateInputError,
    GenerationError,
    GenericityError,
    ParseError,
    StarConfigError,
    UsageError,
)
from .fields import DEFAULT_PRIME, GF, Field, PrimeField, QQ, RationalField
from .groebner import Ideal, buchberger, intersect, radical_member
from .polynomials import Polynomial, Ring
from .stci import (
    CORRUPTION_MODES,
    CheckResult,
    SVPartition,
    VerificationReport,
    corrupt_certificate,
    sv_ara_partition,
    sv_check_partition,
    sv_sums,
    theorem_generators,
    verify_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "Arrangement",
    "CheckResult",
    "CORRUPTION_MODES",
    "DEFAULT_PRIME",
    "DegenerateInputError",
    "Field",
    "GF",
    "GenerationError",
    "GenericityError",
    "Ideal",
    "LinearPrime",
    "ParseError",
    "Polynomial",
    "PrimeField",
    "QQ",
    "RationalField",
    "Ring",
    "StarConfigError",
    "SVPartition",
    "UsageError",
    "VerificationReport",
    "buchberger",
    "corrupt_certificate",
    "intersect",
    "radical_member",
    "random_generic_arrangement",
    "sv_ara_partition",
    "sv_check_partition",
    "sv_sums",
    "theorem_generators",
    "verify_certificate",
]
