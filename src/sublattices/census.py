"""Counting formulas: sublattices by index, their equivalence classes, class sizes.

Two sublattices of Z^n count as equivalent when a unimodular change of basis maps
one onto the other, which happens exactly when they share the same invariant
factor chain d1 | d2 | ... | dn.  Class sizes at a prime power are the
class-size polynomials of polyalg, evaluated at the prime.  Everything here is
exact integer arithmetic.
"""

from __future__ import annotations

from math import prod
from typing import Iterable, NamedTuple, Sequence

from .arith import (
    distinct_prime_factors_upto,
    divisor_compositions,
    factorize,
    is_prime,
    ord_p,
    partition_count,
    partitions,
)
from .polyalg import class_size_poly, poly_eval


def _check_nm(n: int, m: int) -> None:
    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got n={n} m={m}")


def sublattice_count_recursion(n: int, m: int) -> int:
    """Number of index-m sublattices of Z^n as a sum over ordered divisor tuples.

    Each diagonal (d1, ..., dn) of a Hermite form contributes
    d1^0 * d2^1 * ... * dn^(n-1) reduced upper entries.
    """
    _check_nm(n, m)
    total = 0
    for comp in divisor_compositions(m, n):
        term = 1
        for i, d in enumerate(comp):
            term *= d**i
        total += term
    return total


def sublattice_count_prime_power(n: int, p: int, r: int) -> int:
    """Number of index-p**r sublattices of Z^n: prod_{j=1..n-1} (p^(j+r)-1)/(p^j-1).

    No factorization, so its cost does not grow with r beyond the size of the
    answer.  The product is the Gaussian binomial [n-1+r choose r] at p, so it
    runs over j up to min(n-1, r) with the two roles swapped.  The quotient of
    the full products is exact even though individual factors need not divide,
    so everything is multiplied out before the one division.
    """
    if n < 1 or r < 0:
        raise ValueError(f"need n >= 1 and r >= 0, got n={n} r={r}")
    short, long = sorted((n - 1, r))
    num = 1
    den = 1
    for j in range(1, short + 1):
        num *= p ** (j + long) - 1
        den *= p**j - 1
    if num % den:
        raise ArithmeticError(f"closed form lost exactness at p={p} r={r} n={n}")
    return num // den


def sublattice_count(n: int, m: int) -> int:
    """Number of index-m sublattices of Z^n, the product of the prime-power counts."""
    _check_nm(n, m)
    return prod(sublattice_count_prime_power(n, p, r) for p, r in factorize(m))


def class_count(n: int, m: int) -> int:
    """Number of equivalence classes of index-m sublattices of Z^n.

    Classes correspond to choices, per prime p | m, of a partition of the
    exponent of p into n nondecreasing parts.
    """
    _check_nm(n, m)
    out = 1
    for _, r in factorize(m):
        out *= partition_count(n, r)
    return out


def validate_chain(divisors: Iterable[int]) -> tuple[int, ...]:
    """Check an invariant factor chain: positive entries, each dividing the next."""
    chain = tuple(int(d) for d in divisors)
    if not chain:
        raise ValueError("invariant factor chain must be nonempty")
    for d in chain:
        if d < 1:
            raise ValueError(f"invariant factors must be positive, got {d}")
    for a, b in zip(chain, chain[1:]):
        if b % a:
            raise ValueError(f"broken divisor chain: {a} does not divide {b}")
    return chain


def class_size_prime(exponents: Sequence[int], p: int) -> int:
    """Number of sublattices whose invariant factors are p**e along the exponent tuple.

    The class-size polynomial of class_size_poly evaluated at p, so every prime
    shares one memoized polynomial per exponent tuple.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return poly_eval(class_size_poly(exponents), p)


def class_size_2x2(t: int, r: int, p: int) -> int:
    """Closed-form size of the class (p**t, p**(r-t)) in dimension 2."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if t < 0 or 2 * t > r:
        raise ValueError(f"need 0 <= 2t <= r, got t={t} r={r}")
    if 2 * t == r:
        return 1
    return p ** (r - 2 * t) + p ** (r - 2 * t - 1)


def class_size(divisors: Iterable[int]) -> int:
    """Number of sublattices whose invariant factor chain equals the given one."""
    chain = validate_chain(divisors)
    out = 1
    for p, _ in factorize(chain[-1]):
        exps = tuple(ord_p(p, d) for d in chain)
        out *= class_size_prime(exps, p)
    return out


def cocyclic_count_prime_power(n: int, p: int, r: int) -> int:
    """Number of co-cyclic sublattices of index p**r: quotient cyclic, chain (1,...,1,p**r)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if r < 0:
        raise ValueError(f"need r >= 0, got {r}")
    if r == 0:
        return 1
    return p ** ((n - 1) * (r - 1)) * ((p**n - 1) // (p - 1))


def _cocyclic_from_primes(n: int, m: int, primes: Iterable[int]) -> int:
    """cocyclic_count(n, m) given the distinct primes of m."""
    rad = 1
    sigma = 1
    for p in primes:
        rad *= p
        sigma *= (p**n - 1) // (p - 1)
    return (m // rad) ** (n - 1) * sigma


def cocyclic_count(n: int, m: int) -> int:
    """Number of co-cyclic sublattices of index m: (m/rad m)^(n-1) * sigma1((rad m)^(n-1))."""
    _check_nm(n, m)
    return _cocyclic_from_primes(n, m, (p for p, _ in factorize(m)))


def cocyclic_count_upto(n: int, limit: int) -> int:
    """Total number of co-cyclic sublattices of Z^n over all indices 1..limit.

    The distinct primes of each index come from a segmented sieve instead of
    factorizing every index, in memory that does not grow with limit.
    """
    if n < 1 or limit < 1:
        raise ValueError(f"need n >= 1 and limit >= 1, got n={n} limit={limit}")
    total = 0
    for m, primes in enumerate(distinct_prime_factors_upto(limit), 1):
        total += _cocyclic_from_primes(n, m, primes)
    return total


class CensusTable(NamedTuple):
    """Class-by-class table for one (n, m): invariant factor chain -> count."""

    n: int
    m: int
    counts: dict[tuple[int, ...], int]

    def total(self) -> int:
        return sum(self.counts.values())

    def sorted_items(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.counts.items())


def class_census(n: int, m: int) -> CensusTable:
    """Every invariant factor chain of index m together with its class size.

    Keys combine one exponent partition per prime of m, the last prime's
    varying fastest; the count is the product of the per-prime class sizes.
    Key count equals class_count(n, m) and the counts sum to
    sublattice_count(n, m).  Partitions are streamed, never listed, and the
    keys share one int object per divisor value, so memory is the table's own.
    """
    _check_nm(n, m)
    counts: dict[tuple[int, ...], int] = {(1,) * n: 1}
    for p, r in factorize(m):
        shared: dict[int, int] = {}
        grown: dict[tuple[int, ...], int] = {}
        for key, size in counts.items():
            for exps in partitions(n, r):
                divs = (d * p**e for d, e in zip(key, exps))
                chain = tuple(shared.setdefault(d, d) for d in divs)
                grown[chain] = size * class_size_prime(exps, p)
        counts = grown
    return CensusTable(n, m, counts)

