"""Exact computer algebra for ideals of a-fold products of linear forms.

Construct arrangements of linear forms over the rationals or a prime
field, enumerate the minimal primes and heights of their a-fold
product ideals, build the explicit j+1 polynomials that cut out the
same variety, and verify the radical equality mechanically by two
independent routes.
"""

from .arrangements import (
    Arrangement,
    LinearPrime,
    matrix_rank,
    random_generic_arrangement,
    rref,
)
from .errors import (
    DegenerateInputError,
    GenerationError,
    GenericityError,
    ParseError,
    StarConfigError,
    UsageError,
)
from .fields import DEFAULT_PRIME, GF, Field, PrimeField, QQ, RationalField
from .groebner import (
    Ideal,
    buchberger,
    intersect,
    radical_member,
    reduce,
    s_polynomial,
)
from .orders import (
    GREVLEX,
    LEX,
    BlockOrder,
    GrevLex,
    Lex,
    MonomialOrder,
)
from .polynomials import (
    Polynomial,
    ProductOfForms,
    Ring,
)
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
    "BlockOrder",
    "CheckResult",
    "CORRUPTION_MODES",
    "DEFAULT_PRIME",
    "DegenerateInputError",
    "Field",
    "GF",
    "GREVLEX",
    "GenerationError",
    "GenericityError",
    "GrevLex",
    "Ideal",
    "LEX",
    "Lex",
    "LinearPrime",
    "MonomialOrder",
    "ParseError",
    "Polynomial",
    "PrimeField",
    "ProductOfForms",
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
    "matrix_rank",
    "radical_member",
    "random_generic_arrangement",
    "reduce",
    "rref",
    "s_polynomial",
    "sv_ara_partition",
    "sv_check_partition",
    "sv_sums",
    "theorem_generators",
    "verify_certificate",
]
