import math
import random

import pytest

from sublattices import arith
from sublattices.arith import (
    INFINITY,
    distinct_prime_factors_upto,
    divisor_compositions,
    divisors,
    factorize,
    is_prime,
    ord_p,
    partition_count,
    partitions,
    sigma1,
)

SMALL_PRIMES = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}


def test_is_prime_small():
    for m in range(-5, 50):
        assert is_prime(m) == (m in SMALL_PRIMES), m


def test_is_prime_carmichael_and_squares():
    # 561 and 1105 fool Fermat-style checks; trial division must not care
    for m in (561, 1105, 1729, 25, 49, 121, 169):
        assert not is_prime(m)
    for m in (97, 101, 7919, 104729):
        assert is_prime(m)


def test_factorize_round_trip_exhaustive():
    for m in range(1, 1_000_001):
        out = 1
        prev = 0
        for p, e in factorize(m):
            assert p > prev, "primes must increase"
            assert e >= 1
            prev = p
            out *= p**e
        assert out == m


def test_factorize_round_trip_sampled():
    rng = random.Random(20260817)
    for _ in range(500):
        m = rng.randrange(100_000, 1_000_001)
        assert math.prod(p**e for p, e in factorize(m)) == m
        assert all(is_prime(p) for p, _ in factorize(m))


def test_distinct_prime_factors_upto_matches_factorize(monkeypatch):
    # the default segment, then segments short enough that indices, primes
    # and their squares all cross segment boundaries
    for segment in (arith._SEGMENT, 1, 2, 7, 64):
        monkeypatch.setattr(arith, "_SEGMENT", segment)
        for limit in (1, 2, 3, 4, 97, 2000):
            want = [[p for p, _ in factorize(m)] for m in range(1, limit + 1)]
            assert list(distinct_prime_factors_upto(limit)) == want, (segment, limit)
    with pytest.raises(ValueError):
        next(distinct_prime_factors_upto(0))


def test_factorize_edges():
    assert factorize(1) == []
    assert factorize(2) == [(2, 1)]
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-6)


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(49) == [1, 7, 49]
    for m in range(1, 300):
        ds = divisors(m)
        assert ds == sorted(ds)
        assert all(m % d == 0 for d in ds)
        # pairing d <-> m/d covers every divisor
        assert sorted(m // d for d in ds) == ds
    with pytest.raises(ValueError):
        divisors(0)


def test_divisor_compositions_products_and_order():
    for m in (1, 2, 12, 30, 64):
        for n in (1, 2, 3, 4):
            comps = list(divisor_compositions(m, n))
            assert all(len(c) == n and math.prod(c) == m for c in comps)
            assert comps == sorted(comps), "lexicographic contract"
            assert len(comps) == len(set(comps))


def test_divisor_compositions_counts():
    # ordered factorizations into n parts, counted directly
    def brute(m, n):
        if n == 1:
            return 1
        return sum(brute(m // d, n - 1) for d in divisors(m))

    for m in (1, 6, 8, 36):
        for n in (1, 2, 3, 4):
            assert len(list(divisor_compositions(m, n))) == brute(m, n)


def test_divisor_compositions_edges():
    assert list(divisor_compositions(7, 1)) == [(7,)]
    assert list(divisor_compositions(1, 3)) == [(1, 1, 1)]
    with pytest.raises(ValueError):
        list(divisor_compositions(0, 2))
    with pytest.raises(ValueError):
        list(divisor_compositions(4, 0))


def test_partitions_explicit():
    assert list(partitions(3, 4)) == [(0, 0, 4), (0, 1, 3), (0, 2, 2), (1, 1, 2)]
    assert list(partitions(1, 5)) == [(5,)]
    assert list(partitions(4, 0)) == [(0, 0, 0, 0)]
    assert list(partitions(2, 3)) == [(0, 3), (1, 2)]


def test_partitions_shape():
    for n in (1, 2, 3, 5):
        for k in (0, 1, 4, 9):
            seen = list(partitions(n, k))
            assert seen == sorted(seen)
            assert len(seen) == len(set(seen))
            for part in seen:
                assert len(part) == n
                assert sum(part) == k
                assert all(a <= b for a, b in zip(part, part[1:]))


def test_partitions_errors():
    with pytest.raises(ValueError):
        list(partitions(0, 3))
    with pytest.raises(ValueError):
        list(partitions(2, -1))


def test_partitions_match_recursive_reference():
    # the recursive definition: first part a from lo up, then the rest from a up
    def reference(slots, total, lo=0):
        if slots == 1:
            return [(total,)] if total >= lo else []
        return [
            (a,) + tail
            for a in range(lo, total // slots + 1)
            for tail in reference(slots - 1, total - a, a)
        ]

    for n in range(1, 8):
        for k in range(0, 16):
            assert list(partitions(n, k)) == reference(n, k), (n, k)


def test_partitions_past_the_recursion_limit():
    import sys

    deep = sys.getrecursionlimit() + 500
    assert list(partitions(deep, 1)) == [(0,) * (deep - 1) + (1,)]
    assert list(partitions(deep, 2)) == [(0,) * (deep - 1) + (2,), (0,) * (deep - 2) + (1, 1)]
    assert list(partitions(1, deep)) == [(deep,)]
    assert partition_count(1, deep) == 1
    assert partition_count(deep, 1) == 1
    assert partition_count(2, deep) == deep // 2 + 1
    # partitions into at most three parts: the nearest integer to (k + 3)^2 / 12
    assert partition_count(3, deep) == round((deep + 3) ** 2 / 12)


def test_partition_count_matches_enumeration():
    for n in range(1, 9):
        for k in range(0, 31):
            assert partition_count(n, k) == len(list(partitions(n, k)))



def test_partition_count_memo_is_bounded():
    # 5000 distinct (n, k): the memo keeps at most 4096 of them, and every
    # value follows p(n, k) = p(n - 1, k) + p(n, k - n), into at most n parts
    partition_count.cache_clear()
    table = {}
    for n in range(0, 100):
        for k in range(0, 50):
            table[n, k] = 1 if k == 0 else 0 if n == 0 else table[n - 1, k] + table.get((n, k - n), 0)
    for n in range(0, 100):
        for k in range(0, 50):
            assert partition_count(n, k) == table[n, k], (n, k)
    assert partition_count.cache_info().currsize <= 4096


def test_ord_p():
    assert ord_p(2, 8) == 3
    assert ord_p(2, 12) == 2
    assert ord_p(3, 8) == 0
    assert ord_p(5, -250) == 3
    assert ord_p(2, 0) is INFINITY
    assert ord_p(7, 1) == 0
    with pytest.raises(ValueError):
        ord_p(6, 4)


def test_ord_p_infinity_ordering():
    # the sentinel must sit above every finite valuation
    assert min(INFINITY, 5) == 5
    assert INFINITY > 10**18
    assert min(INFINITY, INFINITY) is INFINITY


def test_sigma1():
    assert sigma1(1) == 1
    assert sigma1(6) == 12
    assert sigma1(28) == 56
    for k in range(1, 200):
        assert sigma1(k) == sum(divisors(k))
    with pytest.raises(ValueError, match="positive"):
        sigma1(0)


def test_sigma1_multiplicative():
    from math import gcd

    table = [0] + [sigma1(k) for k in range(1, 501)]
    for a in range(2, 501):
        for b in range(a, 501):
            if gcd(a, b) == 1:
                assert sigma1(a * b) == table[a] * table[b], (a, b)


def test_divisor_memo_is_bounded():
    arith._divisor_tuple.cache_clear()
    for m in range(1, 5001):
        low = [d for d in range(1, math.isqrt(m) + 1) if m % d == 0]
        assert divisors(m) == sorted(set(low + [m // d for d in low])), m
    info = arith._divisor_tuple.cache_info()
    assert info.misses == 5000
    assert info.maxsize == arith._DIVISOR_MEMO
    assert info.currsize <= arith._DIVISOR_MEMO
