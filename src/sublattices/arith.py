"""Exact integer helpers: factorization, divisors, partitions, p-adic valuations."""

from __future__ import annotations

import math
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


_SEGMENT = 1 << 12  # indices factored per segment by distinct_prime_factors_upto


def distinct_prime_factors_upto(limit: int) -> Iterator[list[int]]:
    """The distinct primes of m, increasing, for m = 1, 2, ..., limit in turn.

    A segmented sieve: the primes up to isqrt(limit) are found once, then the
    indices are factored _SEGMENT at a time, so memory stays
    O(sqrt(limit) + _SEGMENT) whatever the limit.
    """
    if limit < 1:
        raise ValueError(f"need limit >= 1, got {limit}")
    root = math.isqrt(limit)
    is_small_prime = bytearray([1]) * (root + 1)
    small = []
    for p in range(2, root + 1):
        if is_small_prime[p]:
            small.append(p)
            is_small_prime[p * p :: p] = bytes(len(range(p * p, root + 1, p)))
    for lo in range(1, limit + 1, _SEGMENT):
        hi = min(lo + _SEGMENT, limit + 1)
        rest = list(range(lo, hi))
        primes: list[list[int]] = [[] for _ in rest]
        for p in small:
            # what is left of an index below hi after its primes up to
            # isqrt(hi - 1) are divided out is 1 or one larger prime
            if p * p >= hi:
                break
            for k in range(-lo % p, hi - lo, p):
                primes[k].append(p)
                r = rest[k] // p
                while r % p == 0:
                    r //= p
                rest[k] = r
        for got, r in zip(primes, rest):
            if r > 1:
                got.append(r)
            yield got


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

