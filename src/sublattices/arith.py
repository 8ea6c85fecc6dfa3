"""Exact integer helpers: factorization, divisors, partitions, p-adic valuations."""

from __future__ import annotations

import math
from array import array
from functools import lru_cache
from typing import Iterator

# Extended-natural infinity: the valuation of 0, and the sentinel level past the
# last finite one.  Compares above every int; min() against it is the identity.
INFINITY = math.inf


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    for q in (2, 3):
        if m % q == 0:
            return m == q
    d = 5
    while d * d <= m:
        if m % d == 0 or m % (d + 2) == 0:
            return False
        d += 6
    return True


def factorize(m: int) -> list[tuple[int, int]]:
    """Prime factorization of m >= 1 as (prime, exponent) pairs, primes increasing.

    Trial division; meant for the desk scale (m up to around 10**12).
    factorize(1) is the empty list.
    """
    if m < 1:
        raise ValueError(f"can only factor positive integers, got {m}")
    pairs = []
    for p in (2, 3):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            pairs.append((p, e))
    d = 5
    while d * d <= m:
        for p in (d, d + 2):
            if m % p == 0:
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                pairs.append((p, e))
        d += 6
    if m > 1:
        pairs.append((m, 1))
    return pairs


def smallest_prime_factors(limit: int) -> array:
    """Table whose entry m is the smallest prime factor of m, for 2 <= m <= limit.

    Sieve of Eratosthenes; entries 0 and 1 are 0 and 1.  Reading the table
    down from m factors every m <= limit without trial division.
    """
    if limit < 1:
        raise ValueError(f"need limit >= 1, got {limit}")
    spf = array("I", range(limit + 1))  # 4 bytes per index
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            for q in range(p * p, limit + 1, p):
                if spf[q] == q:
                    spf[q] = p
    return spf


@lru_cache(maxsize=None)
def _divisor_tuple(m: int) -> tuple[int, ...]:
    divs = [1]
    for p, e in factorize(m):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return tuple(sorted(divs))


def divisors(m: int) -> list[int]:
    """All positive divisors of m >= 1, increasing."""
    if m < 1:
        raise ValueError(f"need a positive integer, got {m}")
    return list(_divisor_tuple(m))


def divisor_compositions(m: int, n: int) -> Iterator[tuple[int, ...]]:
    """Ordered n-tuples of positive integers with product m, lexicographically."""
    if m < 1 or n < 1:
        raise ValueError(f"need m >= 1 and n >= 1, got m={m} n={n}")

    def rec(rest: int, slots: int) -> Iterator[tuple[int, ...]]:
        if slots == 1:
            yield (rest,)
            return
        for d in _divisor_tuple(rest):
            for tail in rec(rest // d, slots - 1):
                yield (d,) + tail

    yield from rec(m, n)


def partitions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Partitions of k into exactly n nondecreasing nonnegative parts, lexicographic."""
    if n < 1 or k < 0:
        raise ValueError(f"need n >= 1 and k >= 0, got n={n} k={k}")

    def rec(slots: int, total: int, lo: int) -> Iterator[tuple[int, ...]]:
        if slots == 1:
            if total >= lo:
                yield (total,)
            return
        for a in range(lo, total // slots + 1):
            for tail in rec(slots - 1, total - a, a):
                yield (a,) + tail

    yield from rec(n, k, 0)


@lru_cache(maxsize=None)
def partition_count(n: int, k: int) -> int:
    """len(list(partitions(n, k))) without enumerating, via the removal recurrence."""
    if k < 0:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    return partition_count(n - 1, k) + partition_count(n, k - n)


def ord_p(p: int, m: int) -> int | float:
    """Largest t with p**t dividing m; INFINITY when m is 0."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if m == 0:
        return INFINITY
    m = abs(m)
    t = 0
    while m % p == 0:
        m //= p
        t += 1
    return t


def sigma1(k: int) -> int:
    """Sum of the positive divisors of k >= 1."""
    if k < 1:
        raise ValueError(f"need a positive integer, got {k}")
    out = 1
    for p, e in factorize(k):
        out *= (p ** (e + 1) - 1) // (p - 1)
    return out


def euler_phi_prime_power(p: int, s: int) -> int:
    """Euler phi of p**s for prime p and s >= 0; phi(1) is 1."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if s < 0:
        raise ValueError(f"need s >= 0, got {s}")
    if s == 0:
        return 1
    return p ** (s - 1) * (p - 1)
