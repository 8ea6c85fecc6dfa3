from itertools import product
from math import prod

import pytest

from sublattices import polyalg
from sublattices.arith import INFINITY, partitions
from sublattices.census import (
    class_census,
    class_size_2x2,
    class_size_prime,
    cocyclic_count_prime_power,
    sublattice_count,
)
from sublattices.oracle import census_bruteforce
from sublattices.polyalg import (
    _glue_weight,
    _merged_exponents,
    _over_cyclic,
    _profile,
    _times_cyclic,
    admissible_glue,
    class_size_poly,
    class_size_poly_glue,
    cocyclic_count_poly,
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


def test_cyclic_factor_helpers():
    import random

    rng = random.Random(7)
    assert _times_cyclic([1], 2) == [-1, 0, 1]
    assert _over_cyclic([-1, 0, 0, 1], 3) == [1]
    assert _over_cyclic([-1, 0, 0, 1], 1) == [1, 1, 1]
    assert _over_cyclic([], 4) == []
    for _ in range(200):
        a = poly_normalize([rng.randrange(-5, 6) for _ in range(rng.randrange(0, 6))])
        i = rng.randrange(1, 5)
        prod_poly = _times_cyclic(a, i)
        assert prod_poly == poly_mul(a, [-1] + [0] * (i - 1) + [1])
        assert _over_cyclic(prod_poly, i) == a
    # a nonzero remainder is an error, never a truncated quotient
    for a, i in [([1, 0, 1], 1), ([1], 1), ([0, 0, 1], 2), ([-1, 0, 1, 1], 2)]:
        with pytest.raises(ArithmeticError):
            _over_cyclic(a, i)


def test_poly_render():
    assert poly_render([]) == "0"
    assert poly_render([0]) == "0"
    assert poly_render([1, 1, 1]) == "T^2 + T + 1"
    assert poly_render([0, 1, 1]) == "T^2 + T"
    assert poly_render([0, -2, 1]) == "T^2 - 2T"
    assert poly_render([-1]) == "-1"
    assert poly_render([3]) == "3"
    assert poly_render([0, 1]) == "T"


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
        poly = _glue_weight(inner, [glue])
        for p in (2, 3, 5, 7):
            assert poly_eval(poly, p) == enumerated(inner, glue, p), (inner, glue, p)


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
    first = class_size_poly((0, 1, 2))
    again = class_size_poly((0, 1, 2))
    assert again == first
    # the returned list is a copy, not the cached one
    again.append(999)
    assert class_size_poly((0, 1, 2)) == first


def test_closed_form_memo_is_bounded():
    # 7166 classes at index 2**60 in dimension 5, more than the memo holds
    polyalg._class_size_closed.cache_clear()
    table = class_census(5, 2**60)
    assert len(table.counts) == 7166
    assert table.total() == sublattice_count(5, 2**60)
    assert polyalg._class_size_closed.cache_info().currsize <= polyalg._CLOSED_MEMO


def test_count_poly_never_reads_its_memo():
    class Untouchable(dict):
        def _touched(self, *args):
            raise AssertionError("memo read")

        __getitem__ = __contains__ = __iter__ = __len__ = get = _touched

    assert sublattice_count_poly(4, 5, Untouchable()) == sublattice_count_poly(4, 5)


def _spy_glue_buckets(monkeypatch) -> list:
    real = polyalg._glue_buckets
    seen = []

    def spy(pivot, inner):
        seen.append((len(inner) + 1, pivot, inner))
        return real(pivot, inner)

    monkeypatch.setattr(polyalg, "_glue_buckets", spy)
    return seen


def test_cold_count_scans_each_glue_box_once(monkeypatch):
    seen = _spy_glue_buckets(monkeypatch)
    memo = {}
    for exps in partitions(5, 6):
        class_size_poly_glue(exps, memo)
    assert len(seen) == len(set(seen))
    # the boxes of level (5, 6) and of every level (n, k) below it with k <= 6
    levels = [(5, 6)] + [(n, k) for n in (2, 3, 4) for k in range(7)]
    expected = {
        (n, pivot, inner)
        for n, k in levels
        for pivot in range(k + 1)
        for inner in partitions(n - 1, k - pivot)
    }
    assert set(seen) == expected
    assert sum(prod(b + 1 for b in inner) for _, _, inner in seen) == 1176


def test_valuation_profile_matches_definition():
    # levels straight from the docstring's formula, over every cell of small boxes
    for k in range(7):
        for inner in [t for n in (1, 2, 3, 4) for t in partitions(n, k)]:
            for glue in product(*(range(b + 1) for b in inner)):
                levels = [
                    min([inner[q] - inner[i] + glue[i] for i in range(q)] + list(glue[q:]))
                    for q in range(len(inner))
                ] + [INFINITY]
                for pivot in range(k + 2):
                    cutoff = next(j for j, lv in enumerate(levels, start=1) if pivot < lv)
                    assert _profile(pivot, inner, glue) == (tuple(levels), cutoff)


def test_admissible_glue_matches_per_target_scan():
    # the bucket view against a per-target filter of the whole box
    for pivot, inner in [(0, (1, 2)), (2, (1, 3)), (1, (0, 2, 2)), (3, (1, 1, 2)), (2, (0, 1, 1, 2))]:
        box = list(product(*(range(b + 1) for b in inner)))
        total = 0
        for target in partitions(len(inner) + 1, pivot + sum(inner)):
            direct = [
                g for g in box
                if _merged_exponents(pivot, inner, _profile(pivot, inner, g)) == target
            ]
            assert admissible_glue(pivot, target, inner) == direct, (pivot, inner, target)
            total += len(direct)
        assert total == len(box)


def test_partial_memo_fills_level_without_overwriting():
    cold = {}
    want = class_size_poly_glue((0, 3, 3), cold)
    # a memo written by an earlier run that reached only some classes of
    # level (3, 6) and of the levels below; one entry carries a marker value
    marker = [7]
    seeded = {key: list(cold[key]) for key in [(0, 0, 6), (1, 1), (0, 4), (2, 2), (1,)]}
    seeded[(1, 2, 3)] = marker
    before = {key: list(val) for key, val in seeded.items()}
    assert class_size_poly_glue((0, 3, 3), seeded) == want
    assert {key: seeded[key] for key in before} == before
    assert seeded[(1, 2, 3)] is marker
    assert all(seeded[key] == cold[key] for key in seeded if key not in before)
    assert set(partitions(3, 6)) <= set(seeded)


def test_closed_form_matches_glue_route():
    glue = {}
    checked = 0
    for n in range(1, 7):
        for k in range(0, 8):
            for exps in partitions(n, k):
                assert class_size_poly(exps) == class_size_poly_glue(exps, glue), exps
                checked += 1
    assert checked == 183


def test_production_routes_scan_no_glue_box(monkeypatch):
    seen = _spy_glue_buckets(monkeypatch)
    sublattice_count_poly(6, 12, memo={})
    table = class_census(4, 2**5 * 3**4 * 5**3)
    assert table.total() == sublattice_count(4, 2**5 * 3**4 * 5**3)
    assert seen == []


def test_sublattice_count_poly():
    for n in (1, 2, 3, 4):
        for r in range(0, 5):
            poly = sublattice_count_poly(n, r)
            for p in (2, 3, 5, 7, 11):
                assert poly_eval(poly, p) == sublattice_count(n, p**r), (n, r, p)
    # the Gaussian-binomial product against the sum of its level's class sizes
    for n in range(1, 8):
        for r in range(0, 9):
            total = []
            for exps in partitions(n, r):
                total = poly_add(total, class_size_poly(exps))
            assert sublattice_count_poly(n, r) == total, (n, r)
    assert sublattice_count_poly(3, 0) == [1]
    with pytest.raises(ValueError):
        sublattice_count_poly(0, 1)
    with pytest.raises(ValueError):
        sublattice_count_poly(2, -1)


def test_sublattice_count_poly_n6_r12():
    poly = sublattice_count_poly(6, 12, memo={})
    for p in (2, 3, 5):
        assert poly_eval(poly, p) == sublattice_count(6, p**12), p


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
