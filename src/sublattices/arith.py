"""Exact integer helpers: factorization, divisors, partitions, p-adic valuations,
and the closed form of a class size with the Gaussian binomials it is made of."""

from __future__ import annotations

import math
from functools import lru_cache
from operator import gt, index
from typing import Iterator, Sequence

# Extended-natural infinity: the valuation of 0, and the sentinel level past the
# last finite one.  Compares above every int; min() against it is the identity.
INFINITY = math.inf


def is_prime(m: int) -> bool:
    m = index(m)
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
    m = index(m)
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


_DIVISOR_MEMO = 4096  # most indices whose divisors are kept


@lru_cache(maxsize=_DIVISOR_MEMO)
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
    """Partitions of k into exactly n nondecreasing nonnegative parts, lexicographic.

    Iterative, so n and k are not bounded by the recursion limit: from
    (0, ..., 0, k), each step grows by one the rightmost part before the last
    that can grow, sets every later part but the last equal to it, and gives
    the last part the rest.
    """
    n, k = index(n), index(k)
    if n < 1 or k < 0:
        raise ValueError(f"need n >= 1 and k >= 0, got n={n} k={k}")
    parts = [0] * (n - 1) + [k]
    while True:
        yield tuple(parts)
        rest = parts[-1]  # sum of parts[i:]
        for i in range(n - 2, -1, -1):
            rest += parts[i]
            if rest >= (n - i) * (parts[i] + 1):
                break
            if parts[i] == 0:
                return  # every earlier part is 0 too, and cannot grow either
        else:
            return
        grown = parts[i] + 1
        parts[i : n - 1] = [grown] * (n - 1 - i)
        parts[-1] = rest - grown * (n - 1 - i)


@lru_cache(maxsize=4096)  # one entry per (n, k), bounded like the other memos
def partition_count(n: int, k: int) -> int:
    """len(list(partitions(n, k))) without enumerating.

    The partitions of k into at most n positive parts, counted by their
    conjugates, whose parts are at most n: one pass per part size, O(n k).
    """
    if n < 0 or k < 0:
        return 0
    ways = [1] + [0] * k
    for size in range(1, min(n, k) + 1):
        for total in range(size, k + 1):
            ways[total] += ways[total - size]
    return ways[k]


def _check_prime(p: int) -> int:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return index(p)


def _check_nm(n: int, m: int) -> tuple[int, int]:
    n, m = index(n), index(m)
    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got n={n} m={m}")
    return n, m


def ord_p(p: int, m: int) -> int | float:
    """Largest t with p**t dividing m; INFINITY when m is 0."""
    return _valuation(_check_prime(p), index(m))


def _valuation(p: int, m: int) -> int | float:
    """ord_p for a p the caller already knows is prime, without re-testing it."""
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


def _class_size_form(exponents: Sequence[int]) -> tuple[int, list[tuple[int, int]]]:
    """Class size at a nondecreasing exponent tuple as (a, pairs): T^a * prod [top; bottom]_T.

    The closed form |Surj(Z^n, G)| / |Aut G| of the class's quotient group G
    (Hillar & Rhea, Amer. Math. Monthly 114 (2007)).  With e_1 <= ... <= e_s
    the nonzero parts, mu_g the multiplicities of their distinct values in
    increasing order, and c_j, d_j the first and last 1-based index of a part
    equal to e_j,
        a = n |e| - n s - sum_j (e_j (s - d_j) + (e_j - 1) (s - c_j + 1)),
    and pairs lists (n - s + mu_1 + ... + mu_g, mu_g) for each g, whose product
    is the Gaussian multinomial [n; n-s, mu_1, ..., mu_g].
    """
    exps = tuple(map(index, exponents))
    if not exps:
        raise ValueError("exponent tuple must be nonempty")
    if exps[0] < 0 or any(map(gt, exps, exps[1:])):
        raise ValueError(f"exponents must be nondecreasing and nonnegative, got {exps}")
    n = len(exps)
    top = exps.count(0)  # n - s
    a = n * (sum(exps) - n + top)
    # top is n - s + c_j - 1 before the value e_j and n - s + d_j after it;
    # the parts are sorted, so mu_g counts the value e_j in the whole tuple
    pairs = []
    for e in dict.fromkeys(exps[top:]):
        mu = exps.count(e)
        a -= mu * ((e - 1) * (n - top) + e * (n - top - mu))
        top += mu
        pairs.append((top, mu))
    return a, pairs


def _gauss(top: int, bottom: int, q: int) -> int:
    """The Gaussian binomial [top; bottom] at the integer q, for 0 <= bottom <= top.

    prod_{i=1..bottom} (q^(top-bottom+i) - 1) / (q^i - 1), multiplied out before
    the one exact division, since single factors need not divide.
    """
    num = den = 1
    for i in range(1, bottom + 1):
        num *= q ** (top - bottom + i) - 1
        den *= q**i - 1
    if num % den:
        raise ArithmeticError(f"Gaussian binomial [{top}; {bottom}] lost exactness at q={q}")
    return num // den
