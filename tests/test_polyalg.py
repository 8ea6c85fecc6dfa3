import pytest

from sublattices.arith import partitions
from sublattices.census import (
    class_size_2x2,
    class_size_prime,
    cocyclic_count_prime_power,
    sublattice_count,
)
from sublattices.oracle import census_bruteforce
from sublattices.polyalg import (
    class_size_poly,
    cocyclic_count_poly,
    glue_vector_poly,
    leading_terms_check,
    poly_add,
    poly_eval,
    poly_mul,
    poly_normalize,
    poly_render,
    poly_sub,
    sublattice_count_poly,
)


def test_poly_normalize():
    assert poly_normalize([1, 2, 0, 0]) == [1, 2]
    assert poly_normalize([0, 0]) == []
    assert poly_normalize([]) == []


def test_poly_add_sub():
    assert poly_add([1, 2], [3]) == [4, 2]
    assert poly_add([1], [-1]) == []
    assert poly_sub([1, 2, 3], [1, 2, 3]) == []
    assert poly_sub([5], [1, 1]) == [4, -1]


def test_poly_mul():
    assert poly_mul([1, 1], [1, 1]) == [1, 2, 1]
    assert poly_mul([], [1, 2]) == []
    assert poly_mul([2], [3]) == [6]
    assert poly_mul([0, 1], [0, 1]) == [0, 0, 1]


def test_poly_eval():
    assert poly_eval([], 10) == 0
    assert poly_eval([7], 10) == 7
    assert poly_eval([1, 2, 3], 10) == 321
    assert poly_eval([0, -1, 1], 5) == 20


def test_poly_ring_identities():
    import random

    rng = random.Random(31)
    for _ in range(100):
        a = [rng.randrange(-5, 6) for _ in range(rng.randrange(0, 5))]
        b = [rng.randrange(-5, 6) for _ in range(rng.randrange(0, 5))]
        x = rng.randrange(-4, 5)
        assert poly_eval(poly_add(a, b), x) == poly_eval(a, x) + poly_eval(b, x)
        assert poly_eval(poly_mul(a, b), x) == poly_eval(a, x) * poly_eval(b, x)
        assert poly_eval(poly_sub(a, b), x) == poly_eval(a, x) - poly_eval(b, x)


def test_poly_render():
    assert poly_render([]) == "0"
    assert poly_render([0]) == "0"
    assert poly_render([1, 1, 1]) == "T^2 + T + 1"
    assert poly_render([0, 1, 1]) == "T^2 + T"
    assert poly_render([0, -2, 1]) == "T^2 - 2T"
    assert poly_render([-1]) == "-1"
    assert poly_render([3], var="p") == "3"
    assert poly_render([0, 1], var="p") == "p"


def test_glue_vector_poly_matches_count():
    # count by enumeration the vectors of Z/p^inner[0] x ... whose i-th entry has
    # p-adic valuation exactly glue[i] (zero mod p^b counts as valuation b)
    def valuation(x, b, p):
        v = 0
        while v < b and x % p == 0:
            x //= p
            v += 1
        return v

    def enumerated(inner, glue, p):
        out = 1
        for b, d in zip(inner, glue):
            out *= sum(1 for x in range(p**b) if valuation(x, b, p) == d)
        return out

    cases = [((3,), (1,)), ((3,), (3,)), ((2, 2), (0, 1)), ((), ()), ((1, 2, 2), (0, 0, 2))]
    for inner, glue in cases:
        poly = glue_vector_poly(inner, glue)
        for p in (2, 3, 5, 7):
            assert poly_eval(poly, p) == enumerated(inner, glue, p), (inner, glue, p)
    with pytest.raises(ValueError):
        glue_vector_poly((1,), (2,))


def test_class_size_poly_known():
    assert class_size_poly((0, 1, 1)) == [1, 1, 1]
    assert class_size_poly((0, 1)) == [1, 1]
    assert class_size_poly((1, 1)) == [1]
    assert class_size_poly((0, 2)) == [0, 1, 1]
    assert class_size_poly((5,)) == [1]


def test_class_size_prime_matches_independent_routes():
    # primes outside the acceptance oracle scope, checked class by class
    for n, p, r in [(2, 7, r) for r in range(1, 5)] + [(3, 7, 2)]:
        oracle = census_bruteforce(n, p**r).counts
        for alpha in partitions(n, r):
            chain = tuple(p**a for a in alpha)
            assert class_size_prime(alpha, p) == oracle[chain], (alpha, p)
    for p in (7, 11):
        for r in range(0, 7):
            for t in range(0, r // 2 + 1):
                assert class_size_prime((t, r - t), p) == class_size_2x2(t, r, p), (t, r, p)


def test_class_size_poly_errors():
    with pytest.raises(ValueError):
        class_size_poly(())
    with pytest.raises(ValueError):
        class_size_poly((2, 1))
    with pytest.raises(ValueError):
        class_size_poly((-1,))


def test_class_size_poly_memo_reuse():
    memo = {}
    first = class_size_poly((0, 1, 2), memo)
    assert (0, 1, 2) in memo
    assert memo[(0, 1, 2)] == first
    # subproblems land in the same mapping and a second call reuses them
    assert any(len(key) == 2 for key in memo)
    again = class_size_poly((0, 1, 2), memo)
    assert again == first
    # the returned list is a copy, not the cached one
    again.append(999)
    assert memo[(0, 1, 2)] == first


def test_sublattice_count_poly():
    for n in (1, 2, 3, 4):
        for r in range(0, 5):
            poly = sublattice_count_poly(n, r)
            for p in (2, 3, 5, 7, 11):
                assert poly_eval(poly, p) == sublattice_count(n, p**r), (n, r, p)
    assert sublattice_count_poly(3, 0) == [1]
    with pytest.raises(ValueError):
        sublattice_count_poly(0, 1)
    with pytest.raises(ValueError):
        sublattice_count_poly(2, -1)


def test_cocyclic_count_poly():
    assert cocyclic_count_poly(3, 2) == [0, 0, 1, 1, 1]
    assert cocyclic_count_poly(2, 1) == [1, 1]
    assert cocyclic_count_poly(1, 4) == [1]
    for n in (1, 2, 3, 4):
        for r in range(1, 6):
            poly = cocyclic_count_poly(n, r)
            for p in (2, 3, 5):
                assert poly_eval(poly, p) == cocyclic_count_prime_power(n, p, r), (n, r, p)
            # the cyclic-quotient chain is one class: its size polynomial is this one
            assert poly == class_size_poly((0,) * (n - 1) + (r,)), (n, r)
    with pytest.raises(ValueError):
        cocyclic_count_poly(2, 0)


def test_leading_terms_check():
    for n in (2, 3, 4):
        for r in range(1, 6):
            ok, report = leading_terms_check(n, r)
            assert ok, (n, r, report)
            assert report["degree"] == (n - 1) * r
            assert report["full_top"] == [1, 1]
            assert report["cocyclic_top"] == [1, 1]
            if report["difference_degree"] is not None:
                assert report["difference_degree"] <= report["degree"] - 2
    with pytest.raises(ValueError):
        leading_terms_check(1, 3)
    with pytest.raises(ValueError):
        leading_terms_check(2, 0)
