"""Counting and classifying finite-index sublattices of the integer lattice.

Sublattices of index m correspond to Hermite-form matrices with determinant m,
and unimodular equivalence classes correspond to invariant factor chains.  The
package provides closed-form counts, per-class sizes (polynomials in the
prime from one glue recursion, and their values at a given prime), streaming
enumeration, and a brute-force oracle for diffing.
"""

from .arith import (
    INFINITY,
    divisor_compositions,
    divisors,
    factorize,
    is_prime,
    ord_p,
    partition_count,
    partitions,
)
from .census import (
    CensusTable,
    class_census,
    class_count,
    class_size,
    class_size_2x2,
    class_size_prime,
    cocyclic_count,
    cocyclic_count_prime_power,
    cocyclic_count_upto,
    sublattice_count,
    sublattice_count_recursion,
    validate_chain,
)
from .enumeration import hnf_stream, hnf_stream_count
from .forms import (
    HnfError,
    HnfMatrix,
    hnf2_smith_exponent,
    hnf3_smith_exponents,
    invariant_factors,
    invariant_factors_via_minors,
    minor_gcd,
    validate_hnf,
)
from .oracle import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    VerifyReport,
    census_bruteforce,
    cocyclic_bruteforce,
    verify_index,
    verify_prime_powers,
    verify_suite,
)
from .polyalg import (
    class_size_poly,
    cocyclic_count_poly,
    leading_terms_check,
    poly_eval,
    poly_render,
    sublattice_count_poly,
)

__version__ = "0.1.0"

__all__ = [
    "INFINITY",
    "divisor_compositions",
    "divisors",
    "factorize",
    "is_prime",
    "ord_p",
    "partition_count",
    "partitions",
    "CensusTable",
    "class_census",
    "class_count",
    "class_size",
    "class_size_2x2",
    "class_size_prime",
    "cocyclic_count",
    "cocyclic_count_prime_power",
    "cocyclic_count_upto",
    "sublattice_count",
    "sublattice_count_recursion",
    "validate_chain",
    "hnf_stream",
    "hnf_stream_count",
    "HnfError",
    "HnfMatrix",
    "hnf2_smith_exponent",
    "hnf3_smith_exponents",
    "invariant_factors",
    "invariant_factors_via_minors",
    "minor_gcd",
    "validate_hnf",
    "DEFAULT_BUDGET",
    "BudgetExceededError",
    "VerifyReport",
    "census_bruteforce",
    "cocyclic_bruteforce",
    "verify_index",
    "verify_prime_powers",
    "verify_suite",
    "class_size_poly",
    "cocyclic_count_poly",
    "leading_terms_check",
    "poly_eval",
    "poly_render",
    "sublattice_count_poly",
    "__version__",
]
