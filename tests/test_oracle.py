import concurrent.futures
import json
import random
from collections import Counter
from itertools import combinations, product as iter_product
from math import prod

import pytest

from sublattices import arith, census, oracle
from sublattices.arith import divisor_compositions
from sublattices.census import class_census, cocyclic_count, sublattice_count
from sublattices.enumeration import hnf_stream
from sublattices.forms import integer_det, invariant_factors, invariant_factors_via_minors, minor_gcd
from sublattices.oracle import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    census_bruteforce,
    cocyclic_bruteforce,
    verify_index,
    verify_prime_powers,
    verify_suite,
    _closed_vs_glue_section,
    _leading_terms_section,
    _multiplicativity_section,
)


def test_bruteforce_frozen_tables():
    assert census_bruteforce(3, 4).counts == {(1, 1, 4): 28, (1, 2, 2): 7}
    assert census_bruteforce(2, 6).counts == {(1, 6): 12}
    assert census_bruteforce(2, 4).counts == {(1, 4): 6, (2, 2): 1}
    assert census_bruteforce(1, 9).counts == {(9,): 1}


def test_bruteforce_matches_formula():
    for n in (1, 2, 3):
        for m in range(1, 31):
            assert census_bruteforce(n, m).counts == class_census(n, m).counts, (n, m)
    for m in (2, 4, 8, 12, 16):
        assert census_bruteforce(4, m).counts == class_census(4, m).counts, m
    # past the old n <= 4 cap: blocks of 256 and more run on the int64 kernel
    for n, m in ((5, 6), (5, 8), (5, 9), (5, 12), (6, 4), (6, 8), (8, 4)):
        assert census_bruteforce(n, m).counts == class_census(n, m).counts, (n, m)


def test_bruteforce_methods_agree(monkeypatch):
    # the int64 kernel against both per-matrix classifiers over the Hermite stream
    for n, m in ((2, 36), (3, 16), (3, 24), (4, 16), (5, 4), (5, 8), (5, 9)):
        kernel = census_bruteforce(n, m).counts
        assert kernel == Counter(invariant_factors(h.rows) for h in hnf_stream(n, m)), (n, m)
        # the minor-gcd classifier costs seconds per call at n = 5, m = 8
        if n < 5 or m < 8:
            minors = Counter(invariant_factors_via_minors(h.rows) for h in hnf_stream(n, m))
            assert kernel == minors, (n, m)
    # every chunk covers each block exactly once with boxes; small chunks cut a
    # block in the middle of an axis, with a fixed leading slot and a ranged
    # slot before the trailing ones
    boxes = []
    real_box = oracle._box_gcds

    def box_gcds(diag, axes, per_order, scalars, box):
        boxes.append(box)
        return real_box(diag, axes, per_order, scalars, box)

    monkeypatch.setattr(oracle, "_box_gcds", box_gcds)
    default_chunk = oracle._CHUNK
    for n, m in ((3, 49), (3, 120), (4, 32), (5, 9)):
        want = class_census(n, m).counts
        want_cocyclic = cocyclic_count(n, m)
        # with no pattern inside the int64 bound both brute forces refuse the
        # scope before any box runs, on one worker or split over several
        boxes.clear()
        with monkeypatch.context() as mp:
            mp.setattr(oracle, "_INT64_SAFE", 0)
            for brute in (census_bruteforce, cocyclic_bruteforce):
                with pytest.raises(BudgetExceededError, match="int64"):
                    brute(n, m, jobs=2)
        assert boxes == []
        # one-matrix boxes cost seconds at (4, 32); (5, 9) takes chunk 1 higher up
        for chunk in (7, 1000, default_chunk) if n == 4 else (1, 7, 1000, default_chunk):
            monkeypatch.setattr(oracle, "_CHUNK", chunk)
            for brute, expect in ((census_bruteforce, want), (cocyclic_bruteforce, want_cocyclic)):
                boxes.clear()
                got = brute(n, m)
                assert getattr(got, "counts", got) == expect, (n, m, chunk)
                assert sum(prod(shape) for *_, shape in boxes) == sublattice_count(n, m)
                assert max(prod(shape) for *_, shape in boxes) <= chunk
                if chunk == 7:
                    assert any(fixed and len(shape) > 1 for fixed, _, shape in boxes), (n, m)


def test_int64_gate_never_refuses_within_default_budget():
    # the diagonal (1, ..., 1, m) alone has m**(n-1) forms, so every scope the
    # default budget admits has m**(n-1) <= DEFAULT_BUDGET; prime m reach that
    # far (n = 3 admits m = 3137), well past the first m over the budget
    for n in range(3, 7):
        bounds = [
            oracle._pattern_plans(n, units, orders)[1:]
            for units in iter_product((False, True), repeat=n)
            for orders in (tuple(range(1, n)), (n - 1,))
        ]
        m = 1
        while m ** (n - 1) <= DEFAULT_BUDGET:
            for weight, degree in bounds:
                assert weight * m**degree < oracle._INT64_SAFE, (n, m)
            m += 1
        assert sublattice_count(n, m) > DEFAULT_BUDGET, (n, m)


def test_bruteforce_jobs_deterministic():
    base = census_bruteforce(3, 30)
    for jobs in (2, 3, 8):
        assert census_bruteforce(3, 30, jobs=jobs).counts == base.counts, jobs
    # above the fork threshold: (3, 120) has 62465 forms and (4, 32) 97155
    for n, m in ((3, 120), (4, 32)):
        census = [census_bruteforce(n, m, jobs=jobs).counts for jobs in (1, 2, 3)]
        cocyclic = [cocyclic_bruteforce(n, m, jobs=jobs) for jobs in (1, 2, 3)]
        assert census == [class_census(n, m).counts] * 3, (n, m)
        assert cocyclic == [cocyclic_count(n, m)] * 3, (n, m)


def test_bruteforce_budget():
    with pytest.raises(BudgetExceededError) as info:
        census_bruteforce(4, 32, budget=1000)
    assert info.value.predicted == 97155
    assert info.value.budget == 1000
    assert "n=4 m=32" in str(info.value)
    # raised before any work: a generous budget succeeds
    assert census_bruteforce(4, 32, budget=DEFAULT_BUDGET).total() == 97155


def test_bruteforce_errors():
    with pytest.raises(ValueError):
        census_bruteforce(0, 4)
    with pytest.raises(ValueError):
        cocyclic_bruteforce(0, 4)
    # refused before the single-process path, not clamped to one worker or
    # truncated
    for brute in (census_bruteforce, cocyclic_bruteforce):
        for jobs in (0, -3, 2.5):
            with pytest.raises(ValueError, match="jobs"):
                brute(2, 4, jobs=jobs)


def test_bruteforce_pool_capped_at_cpu_count(monkeypatch):
    # an in-process stand-in for the pool records the worker count and the work
    sizes = []
    handed = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, work):
            handed.append([args[2] for args in work])
            return map(fn, work)

    base = census_bruteforce(3, 30).counts
    base_cocyclic = cocyclic_bruteforce(3, 30)
    # the oracle imports the pool class where it makes the pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(oracle, "_POOL_MIN", 0)
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 3)
    assert census_bruteforce(3, 30, jobs=64).counts == base
    assert cocyclic_bruteforce(3, 30, jobs=64) == base_cocyclic
    assert census_bruteforce(3, 30, jobs=2).counts == base
    assert sizes == [3, 3, 2]
    # every matrix of every block is handed out exactly once, and the workers'
    # shares are contiguous parts of hnf_stream order that differ by at most one
    # matrix, far below a chunk
    blocks = {diag: prod(d**j for j, d in enumerate(diag)) for diag in divisor_compositions(30, 3)}
    for shares, workers in zip(handed, sizes):
        assert len(shares) == workers
        merged: list = []
        for diag, lo, hi in (item for share in shares for item in share):
            if merged and merged[-1][0] == diag and merged[-1][2] == lo:
                lo = merged.pop()[1]
            merged.append((diag, lo, hi))
        assert merged == [(diag, 0, size) for diag, size in blocks.items()]
        totals = [sum(hi - lo for _, lo, hi in share) for share in shares]
        assert max(totals) - min(totals) <= 1, totals


def test_pattern_plans_are_the_minors_of_any_such_matrix():
    # a plan holds for every upper-triangular matrix with its pattern's zeros,
    # not only for Hermite forms, so random entries of both signs check every
    # monomial and sign against direct determinants
    rng = random.Random(7)
    for n in range(1, 6):
        orders = tuple(range(1, n + 1))
        for units in iter_product((False, True), repeat=n):
            per_order = oracle._pattern_plans(n, units, orders)[0]
            diag = [1 if u else rng.choice((-7, -3, 2, 5, 9)) for u in units]
            entries = [0 if units[j] else rng.randint(-9, 9) for _, j in oracle._slots(n)]
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = diag[i]
            for (i, j), v in zip(oracle._slots(n), entries):
                rows[i][j] = v
            values = diag + entries
            for k, (principal, varying) in zip(orders, per_order):
                plans = principal + varying
                got = {abs(oracle._eval_plan(plan, values.__getitem__)) for plan in plans}
                want = {
                    abs(integer_det([[rows[i][j] for j in cols] for i in picked]))
                    for picked in combinations(range(n), k)
                    for cols in combinations(range(n), k)
                }
                assert got - {0} == want - {0}, (n, units, k)


def test_cocyclic_bruteforce():
    for n in (1, 2, 3, 4):
        for m in range(1, 33):
            assert cocyclic_bruteforce(n, m) == cocyclic_count(n, m), (n, m)
    for n, m in ((5, 6), (5, 8), (5, 9), (5, 12), (6, 4), (6, 8), (8, 4)):
        assert cocyclic_bruteforce(n, m) == cocyclic_count(n, m), (n, m)


def test_cocyclic_bruteforce_methods():
    # the int64 kernel against the minor gcd of every matrix in the Hermite stream
    for n, m in ((3, 16), (4, 16), (2, 36), (5, 8)):
        scanned = sum(minor_gcd(h.rows, n - 1) == 1 for h in hnf_stream(n, m))
        assert cocyclic_bruteforce(n, m) == scanned, (n, m)
    with pytest.raises(BudgetExceededError):
        cocyclic_bruteforce(4, 32, budget=10)


def test_verify_index_green():
    section = verify_index(3, 8)
    assert section.ok
    assert section.scope == "n=3 m=8"
    assert {r.key for r in section.rows} == {(1, 1, 8), (1, 2, 4), (2, 2, 2)}
    names = [c.name for c in section.checks]
    assert "count_closed_vs_recursion" in names
    assert "count_vs_oracle_total" in names
    assert "class_count_vs_distinct_keys" in names
    assert "cocyclic_formula_vs_bruteforce" in names
    # n = 3 prime power: the direct Smith shortcut gets diffed too
    assert "smith_shortcut_agreement" in names


def test_verify_index_tests_primality_a_bounded_number_of_times(monkeypatch):
    # the Smith shortcuts must not re-prove the prime once per form
    calls = []
    real = arith.is_prime

    def counting(m):
        calls.append(m)
        return real(m)

    for module in (arith, census, oracle):
        monkeypatch.setattr(module, "is_prime", counting)
    section = verify_index(2, 10007)
    assert section.ok
    assert "smith_shortcut_agreement" in [c.name for c in section.checks]
    assert len(calls) < 50


def test_verify_index_composite_skips_shortcut():
    section = verify_index(3, 12)
    assert section.ok
    assert all(c.name != "smith_shortcut_agreement" for c in section.checks)
    # composite indices get the extra factorization consistency check
    assert any(c.name == "multiplicative_split" and c.ok for c in section.checks)
    prime_power = verify_index(3, 8)
    assert all(c.name != "multiplicative_split" for c in prime_power.checks)


def test_verify_prime_powers():
    sections = verify_prime_powers(2, 3, 3)
    assert len(sections) == 3
    assert all(s.ok for s in sections)
    assert sections[-1].scope == "n=2 m=27"
    with pytest.raises(ValueError):
        verify_prime_powers(2, 4, 3)
    with pytest.raises(ValueError):
        verify_prime_powers(2, 3, 0)


def test_aggregate_sections(monkeypatch):
    assert _leading_terms_section(max_n=3, max_r=3).ok
    assert _multiplicativity_section(limit=40, max_n=2).ok
    # each dimension reports its first failed split and goes on to the next
    monkeypatch.setattr(oracle, "class_size", lambda chain: 0)
    section = _multiplicativity_section(limit=40, max_n=2)
    assert [(c.ok, c.detail) for c in section.checks] == [
        (False, "class size split fails at (6,)"),
        (False, "class size split fails at (1, 6)"),
    ]


def test_verify_suite_payload_deterministic():
    a = verify_suite()
    b = verify_suite()
    assert a.all_match and b.all_match
    # elapsed differs between runs, payloads must not
    assert a.elapsed != b.elapsed or a.elapsed > 0
    assert json.dumps(a.to_payload(), sort_keys=True) == json.dumps(b.to_payload(), sort_keys=True)
    payload = a.to_payload()
    assert payload["kind"] == "report"
    assert payload["all_match"] is True
    assert "elapsed" not in json.dumps(payload)
    # last section: every level (n, k) with n <= 5, k <= 6, closed form vs glue
    last = payload["sections"][-1]
    assert last["scope"] == "class sizes: closed form vs glue recursion" and last["ok"]
    assert [c["name"] for c in last["checks"]] == [
        f"class_size_closed_vs_glue n={n} k={k}" for n in range(1, 6) for k in range(7)
    ]


def test_closed_vs_glue_section_names_the_failed_comparison(monkeypatch):
    assert [c.detail for c in _closed_vs_glue_section(max_n=2, max_k=2).checks] == [
        "1 classes", "1 classes", "1 classes", "1 classes", "1 classes", "2 classes"
    ]
    # a count polynomial off by one at level (2, 2) fails only that level's sum
    real_count = oracle.sublattice_count_poly
    monkeypatch.setattr(
        oracle, "sublattice_count_poly",
        lambda n, r: real_count(n, r) + [1] if (n, r) == (2, 2) else real_count(n, r),
    )
    section = _closed_vs_glue_section(max_n=2, max_k=2)
    assert [c.ok for c in section.checks] == [True] * 5 + [False]
    assert section.checks[-1].detail == "class sum T^2 + T + 1, count T^3 + T^2 + T + 1"
    # a wrong closed form fails on the class comparison, before the sum
    monkeypatch.setattr(oracle, "class_size_poly", lambda exps: [2])
    section = _closed_vs_glue_section(max_n=1, max_k=1)
    assert [c.detail for c in section.checks] == [
        "(0,): closed 2, glue 1", "(1,): closed 2, glue 1"
    ]
