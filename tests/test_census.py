from math import gcd, prod

import pytest

from sublattices import arith
from sublattices.arith import INFINITY, factorize, partitions
from sublattices.census import (
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
    sublattice_count_prime_power,
    sublattice_count_recursion,
    validate_chain,
)
from sublattices.polyalg import _glue_buckets, _glue_weight, _profile, admissible_glue, poly_eval

# index counts pinned by hand and by the independent routes below
KNOWN_COUNTS = {
    (1, 30): 1,
    (2, 1): 1,
    (2, 2): 3,
    (2, 4): 7,
    (2, 6): 12,
    (2, 12): 28,
    (3, 2): 7,
    (3, 4): 35,
    (3, 8): 155,
    (3, 32): 2667,
    (4, 2): 15,
    (4, 3): 40,
    (4, 4): 155,
    (4, 8): 1395,
    (4, 16): 11811,
    (4, 32): 97155,
    (2, 5**6): 19531,
    (3, 81): 11011,
    (3, 625): 508431,
    (4, 81): 925771,
    (4, 243): 25095280,
}


def test_sublattice_count_known():
    for (n, m), want in KNOWN_COUNTS.items():
        assert sublattice_count(n, m) == want, (n, m)


def test_count_routes_agree():
    for n in (1, 2, 3, 4, 5):
        for m in range(1, 301):
            count = sublattice_count(n, m)
            assert count == sublattice_count_recursion(n, m), (n, m)
            # crude but universal upper bound, catches sign and overflow slips
            assert count <= m ** (n * n)


def test_sublattice_count_prime_power():
    for n in (1, 2, 3, 4, 5):
        for p in (2, 3, 5):
            for r in range(0, 6):
                want = sublattice_count_recursion(n, p**r)
                assert sublattice_count_prime_power(n, p, r) == want, (n, p, r)
                # the Gaussian binomial [n-1+r choose r] is symmetric in n-1 and r
                assert sublattice_count_prime_power(r + 1, p, n - 1) == want, (n, p, r)
    # no factorization: a far-up exponent costs only the size of the answer
    assert sublattice_count_prime_power(1, 3, 10**6) == 1
    assert sublattice_count_prime_power(2, 2, 10**4) == 2 ** (10**4 + 1) - 1
    with pytest.raises(ValueError):
        sublattice_count_prime_power(0, 2, 1)
    with pytest.raises(ValueError):
        sublattice_count_prime_power(2, 2, -1)


def test_count_multiplicative():
    for n in (2, 3, 4):
        for a in range(2, 18):
            for b in range(a, 301):
                if a * b > 300:
                    break
                if gcd(a, b) != 1:
                    continue
                assert sublattice_count(n, a * b) == sublattice_count(n, a) * sublattice_count(n, b)
                assert class_count(n, a * b) == class_count(n, a) * class_count(n, b)


def test_count_dimension_one():
    for m in range(1, 50):
        assert sublattice_count(1, m) == 1


def test_count_errors():
    with pytest.raises(ValueError):
        sublattice_count(0, 4)
    with pytest.raises(ValueError):
        sublattice_count(2, 0)
    with pytest.raises(ValueError):
        sublattice_count_recursion(2, -1)


def test_class_count():
    assert class_count(2, 4) == 2
    assert class_count(3, 8) == 3
    assert class_count(2, 36) == 4
    assert class_count(4, 16) == 5
    assert class_count(3, 1) == 1
    for n in (1, 2, 3):
        for m in (2, 4, 6, 12, 36):
            assert class_count(n, m) == len(class_census(n, m).counts), (n, m)


def test_validate_chain():
    assert validate_chain([1, 2, 4]) == (1, 2, 4)
    assert validate_chain((5,)) == (5,)
    with pytest.raises(ValueError, match="does not divide"):
        validate_chain([2, 3])
    with pytest.raises(ValueError, match="positive"):
        validate_chain([0, 2])
    with pytest.raises(ValueError, match="nonempty"):
        validate_chain([])


def test_valuation_profile_levels():
    # level 1 = min(glue), level 2 = min(b2 - b1 + d1, d2), sentinel last;
    # pivot 2 is not strictly below level 2, so the cutoff is the sentinel slot
    assert _profile(2, (1, 3), (0, 2)) == ((0, 2, INFINITY), 3)
    assert _profile(0, (2,), (2,)) == ((2, INFINITY), 1)


def test_admissible_glue_budget():
    # sum(target) != pivot + sum(inner) can never merge
    assert admissible_glue(1, (0, 1, 1), (1, 1)) == []
    assert admissible_glue(5, (0, 0, 1), (1, 1)) == []


def test_admissible_glue_explicit():
    # gluing pivot 1 onto inner (1,): target (1, 1) needs the glue at full depth
    assert admissible_glue(1, (1, 1), (1,)) == [(1,)]
    # target (0, 2) instead needs a unit-level glue
    assert admissible_glue(1, (0, 2), (1,)) == [(0,)]
    # pivot 0 splits (0, 1): glue either unit or pinned
    assert admissible_glue(0, (0, 1), (1,)) == [(0,), (1,)]


def test_admissible_glue_errors():
    with pytest.raises(ValueError):
        admissible_glue(-1, (0, 1), (1,))
    with pytest.raises(ValueError):
        admissible_glue(1, (0, 1), (0, 1))


def test_glue_vector_count():
    def glue_vector_count(inner, glue, p):
        return poly_eval(_glue_weight(inner, [glue]), p)

    assert glue_vector_count((), (), 5) == 1
    assert glue_vector_count((3,), (1,), 2) == 2  # 2^2 - 2^1
    assert glue_vector_count((3,), (3,), 2) == 1  # pinned at the top
    assert glue_vector_count((2, 2), (0, 1), 3) == (9 - 3) * (3 - 1)
    # _glue_weight takes its glue tuples from the box scan, which never puts a
    # glue valuation above the inner exponent, so it checks no bounds itself
    for pivot, inner in ((1, (1,)), (0, (2, 2)), (2, (1, 3))):
        for glues in _glue_buckets(pivot, inner).values():
            assert all(0 <= d <= b for glue in glues for b, d in zip(inner, glue))


def test_class_size_prime_dimension_two():
    for p in (2, 3, 5):
        assert class_size_prime((0, 2), p) == p * p + p
        assert class_size_prime((1, 1), p) == 1
        assert class_size_prime((0, 1), p) == p + 1


def test_class_size_prime_known():
    assert class_size_prime((0, 1, 1), 2) == 7
    assert class_size_prime((0, 0, 1), 2) == 7
    assert class_size_prime((0,), 97) == 1
    assert class_size_prime((4,), 3) == 1


def test_class_size_prime_sums_to_total():
    for n in (2, 3, 4):
        for p in (2, 3, 5):
            for k in range(0, 6):
                total = sum(class_size_prime(alpha, p) for alpha in partitions(n, k))
                assert total == sublattice_count(n, p**k), (n, p, k)


def test_class_size_prime_errors():
    with pytest.raises(ValueError):
        class_size_prime((), 2)
    with pytest.raises(ValueError):
        class_size_prime((1, 0), 2)
    with pytest.raises(ValueError):
        class_size_prime((-1, 0), 2)
    with pytest.raises(ValueError):
        class_size_prime((0, 1), 4)


def test_class_size_2x2_matches_recursion():
    for p in (2, 3, 5):
        for r in range(0, 9):
            for t in range(0, r // 2 + 1):
                want = class_size_prime((t, r - t), p)
                assert class_size_2x2(t, r, p) == want, (t, r, p)


def test_class_size_2x2_errors():
    with pytest.raises(ValueError):
        class_size_2x2(2, 3, 2)
    with pytest.raises(ValueError):
        class_size_2x2(-1, 3, 2)
    with pytest.raises(ValueError):
        class_size_2x2(1, 4, 6)


def test_class_size_general():
    assert class_size((1, 1, 4)) == 28
    assert class_size((1, 6)) == 12
    assert class_size((2, 2)) == 1
    assert class_size((1, 4)) == 6
    # splits over the primes of the last entry: 12 = 1 * (3^2 + 3)
    assert class_size((2, 18)) == 12
    with pytest.raises(ValueError):
        class_size((2, 3))


def test_class_size_multiplicative_over_primes():
    assert class_size((2, 18)) == class_size((2, 2)) * class_size((1, 9))
    assert class_size((1, 12)) == class_size((1, 4)) * class_size((1, 3))


def test_class_census_small_tables():
    table = class_census(3, 2)
    assert isinstance(table, CensusTable)
    assert table.counts == {(1, 1, 2): 7}
    assert class_census(3, 4).counts == {(1, 1, 4): 28, (1, 2, 2): 7}
    assert class_census(2, 4).counts == {(1, 4): 6, (2, 2): 1}
    assert class_census(2, 6).counts == {(1, 6): 12}
    assert class_census(1, 12).counts == {(12,): 1}


def test_class_census_invariants():
    for n in (1, 2, 3):
        for m in range(1, 37):
            table = class_census(n, m)
            assert table.total() == sublattice_count(n, m), (n, m)
            assert len(table.counts) == class_count(n, m), (n, m)
            for chain in table.counts:
                assert validate_chain(chain) == chain
                assert prod(chain) == m
            items = table.sorted_items()
            assert items == sorted(items)


def test_class_census_merges_over_coprime_parts():
    # a census at a composite index is the keywise product of prime-power censuses
    for n, a, b in [(4, 4, 27), (4, 8, 9), (4, 16, 5), (3, 8, 25), (2, 27, 49)]:
        assert gcd(a, b) == 1
        merged = {}
        left, right = class_census(n, a).counts, class_census(n, b).counts
        for ka, sa in left.items():
            for kb, sb in right.items():
                merged[tuple(x * y for x, y in zip(ka, kb))] = sa * sb
        assert merged == class_census(n, a * b).counts, (n, a, b)


def test_class_census_keys_share_divisor_objects():
    # one int object per divisor value across all keys, in the order of the
    # product of per-prime partitions, the last prime varying fastest
    table = class_census(4, 2**40 * 3**2)
    divisors_seen = [d for key in table.counts for d in key]
    assert len({id(d) for d in divisors_seen}) == len(set(divisors_seen))
    want = [
        tuple(2**a * 3**b for a, b in zip(two, three))
        for two in partitions(4, 40)
        for three in partitions(4, 2)
    ]
    assert list(table.counts) == want


def test_class_census_matches_class_size():
    for n, m in ((2, 12), (3, 8), (3, 36), (4, 16)):
        for chain, size in class_census(n, m).counts.items():
            assert class_size(chain) == size, (n, m, chain)


def test_cocyclic_prime_power():
    assert cocyclic_count_prime_power(2, 2, 1) == 3
    assert cocyclic_count_prime_power(2, 2, 2) == 6
    assert cocyclic_count_prime_power(3, 2, 1) == 7
    assert cocyclic_count_prime_power(3, 2, 2) == 28
    assert cocyclic_count_prime_power(4, 3, 1) == 40
    assert cocyclic_count_prime_power(2, 7, 0) == 1
    with pytest.raises(ValueError):
        cocyclic_count_prime_power(2, 6, 1)
    with pytest.raises(ValueError):
        cocyclic_count_prime_power(0, 2, 1)


def test_cocyclic_count_general():
    # product over primes, times the non-reduced part raised to n-1
    assert cocyclic_count(3, 2) == 7
    assert cocyclic_count(3, 4) == 28
    assert cocyclic_count(2, 12) == 24
    assert cocyclic_count(2, 6) == 12
    assert cocyclic_count(1, 30) == 1
    for n in (2, 3, 4):
        for m in range(1, 65):
            per_prime = 1
            for p, r in factorize(m):
                per_prime *= cocyclic_count_prime_power(n, p, r)
            assert cocyclic_count(n, m) == per_prime, (n, m)


def test_cocyclic_equals_top_class_size():
    for n in (2, 3, 4):
        for m in (2, 3, 4, 8, 9, 12, 36):
            chain = (1,) * (n - 1) + (m,)
            assert cocyclic_count(n, m) == class_size(chain), (n, m)


def test_cocyclic_count_upto():
    assert cocyclic_count_upto(2, 4) == 14  # 1 + 3 + 4 + 6
    assert cocyclic_count_upto(3, 3) == 21  # 1 + 7 + 13
    assert cocyclic_count_upto(1, 10) == 10


def test_cocyclic_count_upto_matches_termwise_sum():
    for n in (2, 3, 4):
        for limit in (1, 2, 12, 97, 360, 1001, 2000):
            expected = sum(cocyclic_count(n, m) for m in range(1, limit + 1))
            assert cocyclic_count_upto(n, limit) == expected, (n, limit)


def test_cocyclic_count_upto_independent_of_segment_length(monkeypatch):
    # the sieve factors a fixed number of indices at a time; tiny segments
    # must give the termwise sum too
    for segment in (1, 3, 10):
        monkeypatch.setattr(arith, "_SEGMENT", segment)
        for n in (2, 3):
            for limit in (1, 12, 97, 360):
                expected = sum(cocyclic_count(n, m) for m in range(1, limit + 1))
                assert cocyclic_count_upto(n, limit) == expected, (segment, n, limit)
    with pytest.raises(ValueError, match="limit"):
        cocyclic_count_upto(3, 0)


def test_euler_phi_recurrence():
    # dimension recurrence for co-cyclic counts:
    # f_n(p^r) = p^r f_{n-1}(p^r) + sum_{s=1..r-1} phi(p^s) f_{n-1}(p^s) + 1,
    # with phi(p^s) counted by a gcd scan
    def phi(q):
        return sum(1 for a in range(1, q + 1) if gcd(a, q) == 1)

    for p in (2, 3, 5):
        for n in (2, 3, 4):
            for r in range(1, 6):
                below = [cocyclic_count_prime_power(n - 1, p, s) for s in range(r + 1)]
                rhs = p**r * below[r] + 1 + sum(phi(p**s) * below[s] for s in range(1, r))
                assert cocyclic_count_prime_power(n, p, r) == rhs, (n, p, r)
