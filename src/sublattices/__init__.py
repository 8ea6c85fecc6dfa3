"""Counting and classifying finite-index sublattices of the integer lattice.

Sublattices of index m correspond to Hermite-form matrices with determinant m,
and unimodular equivalence classes correspond to invariant factor chains.  The
package provides closed-form counts, per-class sizes (one closed form that the
paper's glue recursion verifies, evaluated at a given prime or expanded as a
polynomial in the prime), streaming enumeration, and a brute-force oracle for
diffing.

Public names are resolved lazily (PEP 562): each is imported from its
submodule on first use, so only code that touches the oracle loads NumPy.
"""

from importlib import import_module

__version__ = "0.1.0"

# every public name and the submodule that defines it
_SOURCES = {
    "INFINITY": "arith",
    "divisor_compositions": "arith",
    "divisors": "arith",
    "factorize": "arith",
    "is_prime": "arith",
    "ord_p": "arith",
    "partition_count": "arith",
    "partitions": "arith",
    "sigma1": "arith",
    "CensusTable": "census",
    "class_census": "census",
    "class_count": "census",
    "class_size": "census",
    "class_size_2x2": "census",
    "class_size_prime": "census",
    "cocyclic_count": "census",
    "cocyclic_count_prime_power": "census",
    "cocyclic_count_upto": "census",
    "sublattice_count": "census",
    "sublattice_count_prime_power": "census",
    "sublattice_count_recursion": "census",
    "validate_chain": "census",
    "hnf_stream": "enumeration",
    "hnf_stream_count": "enumeration",
    "HnfError": "forms",
    "HnfMatrix": "forms",
    "hnf2_smith_exponent": "forms",
    "hnf3_smith_exponents": "forms",
    "integer_det": "forms",
    "invariant_factors": "forms",
    "invariant_factors_via_minors": "forms",
    "minor_gcd": "forms",
    "validate_hnf": "forms",
    "DEFAULT_BUDGET": "enumeration",
    "BudgetExceededError": "enumeration",
    "VerifyReport": "oracle",
    "census_bruteforce": "oracle",
    "cocyclic_bruteforce": "oracle",
    "verify_index": "oracle",
    "verify_prime_powers": "oracle",
    "verify_suite": "oracle",
    "class_size_poly": "polyalg",
    "cocyclic_count_poly": "polyalg",
    "leading_terms_check": "polyalg",
    "poly_eval": "polyalg",
    "poly_render": "polyalg",
    "sublattice_count_poly": "polyalg",
}

__all__ = [*_SOURCES, "__version__"]


def __getattr__(name: str):
    module = _SOURCES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return list(__all__)
