"""Counting formulas: sublattices by index, their equivalence classes, class sizes.

Two sublattices of Z^n count as equivalent when a unimodular change of basis maps
one onto the other, which happens exactly when they share the same invariant
factor chain d1 | d2 | ... | dn.  Class sizes and counts at a prime power are
the closed forms of arith (the ones polyalg expands as polynomials in the
prime), evaluated at the prime in integers.  Everything here is exact integer
arithmetic.
"""

from __future__ import annotations

from math import prod
from operator import getitem, index
from typing import Iterable, NamedTuple, Sequence

from .arith import (
    _check_nm,
    _check_prime,
    _class_size_form,
    _gauss,
    _valuation,
    distinct_prime_factors_upto,
    divisor_compositions,
    factorize,
    partition_count,
    partitions,
)


def sublattice_count_recursion(n: int, m: int) -> int:
    """Number of index-m sublattices of Z^n as a sum over ordered divisor tuples.

    Each diagonal (d1, ..., dn) of a Hermite form contributes
    d1^0 * d2^1 * ... * dn^(n-1) reduced upper entries.
    """
    n, m = _check_nm(n, m)
    total = 0
    for comp in divisor_compositions(m, n):
        term = 1
        for i, d in enumerate(comp):
            term *= d**i
        total += term
    return total


def sublattice_count_prime_power(n: int, p: int, r: int) -> int:
    """Number of index-p**r sublattices of Z^n: prod_{j=1..n-1} (p^(j+r)-1)/(p^j-1).

    The Gaussian binomial [n-1+r; n-1] at p, with no factorization, so its cost
    does not grow with r beyond the size of the answer.  p is not tested for
    primality (sublattice_count passes the primes of factorize).
    """
    n, p, r = index(n), index(p), index(r)
    if n < 1 or r < 0 or p < 2:
        raise ValueError(f"need n >= 1, r >= 0 and a prime p, got n={n} r={r} p={p}")
    return _gauss(n - 1 + r, min(n - 1, r), p)


def sublattice_count(n: int, m: int) -> int:
    """Number of index-m sublattices of Z^n, the product of the prime-power counts."""
    n, m = _check_nm(n, m)
    return prod(sublattice_count_prime_power(n, p, r) for p, r in factorize(m))


def class_count(n: int, m: int) -> int:
    """Number of equivalence classes of index-m sublattices of Z^n.

    Classes correspond to choices, per prime p | m, of a partition of the
    exponent of p into n nondecreasing parts.
    """
    n, m = _check_nm(n, m)
    out = 1
    for _, r in factorize(m):
        out *= partition_count(n, r)
    return out


def validate_chain(divisors: Iterable[int]) -> tuple[int, ...]:
    """Check an invariant factor chain: positive entries, each dividing the next."""
    chain = tuple(map(index, divisors))
    if not chain:
        raise ValueError("invariant factor chain must be nonempty")
    for d in chain:
        if d < 1:
            raise ValueError(f"invariant factors must be positive, got {d}")
    for a, b in zip(chain, chain[1:]):
        if b % a:
            raise ValueError(f"broken divisor chain: {a} does not divide {b}")
    return chain


def _class_size_at(exponents: Sequence[int], p: int) -> int:
    """The closed form of the class size at an exponent tuple, evaluated at p."""
    a, pairs = _class_size_form(exponents)
    return prod([_gauss(top, bottom, p) for top, bottom in pairs], start=p**a)


def class_size_prime(exponents: Sequence[int], p: int) -> int:
    """Number of sublattices whose invariant factors are p**e along the exponent tuple.

    The value at p of the class-size polynomial class_size_poly.
    """
    return _class_size_at(exponents, _check_prime(p))


def class_size_2x2(t: int, r: int, p: int) -> int:
    """Closed-form size of the class (p**t, p**(r-t)) in dimension 2."""
    p, t, r = _check_prime(p), index(t), index(r)
    if t < 0 or 2 * t > r:
        raise ValueError(f"need 0 <= 2t <= r, got t={t} r={r}")
    if 2 * t == r:
        return 1
    return p ** (r - 2 * t) + p ** (r - 2 * t - 1)


def class_size(divisors: Iterable[int]) -> int:
    """Number of sublattices whose invariant factor chain equals the given one.

    The primes come from factorize, so none is tested for primality again.
    """
    chain = validate_chain(divisors)
    out = 1
    for p, _ in factorize(chain[-1]):
        out *= _class_size_at([_valuation(p, d) for d in chain], p)
    return out


def cocyclic_count_prime_power(n: int, p: int, r: int) -> int:
    """Number of co-cyclic sublattices of index p**r: quotient cyclic, chain (1,...,1,p**r)."""
    p, r = _check_prime(p), index(r)
    if r < 0:
        raise ValueError(f"need r >= 0, got {r}")
    n, m = _check_nm(n, p**r)
    return _cocyclic_from_primes(n, m, (p,) if r else ())


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
    n, m = _check_nm(n, m)
    return _cocyclic_from_primes(n, m, (p for p, _ in factorize(m)))


def cocyclic_count_upto(n: int, limit: int) -> int:
    """Total number of co-cyclic sublattices of Z^n over all indices 1..limit.

    The distinct primes of each index come from a segmented sieve instead of
    factorizing every index, in memory that does not grow with limit.
    """
    n, limit = index(n), index(limit)
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
    sublattice_count(n, m).  Each partition's class size is evaluated once,
    not once per key it extends: a prime costs one closed form per
    partition, evaluated at the prime in integers, and the primes come from
    factorize, so none is tested for primality again.  Its
    partitions are listed only when more than one key reuses them, so the
    first prime streams them: listing the first prime's too raises
    class_census(8, 2**64)'s peak from about 27 to 57 MB above the
    interpreter's.  A key's entries are read off per-prime rows of products,
    each made once, so the keys share one int object per divisor value and
    memory is the table's own.
    """
    n, m = _check_nm(n, m)
    counts: dict[tuple[int, ...], int] = {(1,) * n: 1}
    for p, r in factorize(m):
        powers = [p**e for e in range(r + 1)]
        parts: Iterable = ((exps, _class_size_at(exps, p)) for exps in partitions(n, r))
        if len(counts) > 1:
            parts = list(parts)
        # each divisor value in the keys so far times each power of p, made
        # once: p is prime to it, so no two products are equal
        times = {d: [d * q for q in powers] for d in set().union(*counts)}
        grown: dict[tuple[int, ...], int] = {}
        for key, size in counts.items():
            rows = [*map(times.__getitem__, key)]
            for exps, part_size in parts:
                grown[tuple(map(getitem, rows, exps))] = size * part_size
        counts = grown
    return CensusTable(n, m, counts)
