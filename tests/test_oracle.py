import json

import pytest

from sublattices import oracle
from sublattices.census import class_census, cocyclic_count, sublattice_count
from sublattices.oracle import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    census_bruteforce,
    cocyclic_bruteforce,
    verify_index,
    verify_prime_powers,
    verify_suite,
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
    for n, m in ((5, 6), (5, 8), (5, 9), (5, 12), (6, 4), (6, 8)):
        assert census_bruteforce(n, m).counts == class_census(n, m).counts, (n, m)


def test_bruteforce_methods_agree():
    # vector path, tiny chunks, and both per-matrix classifiers
    for n, m in ((2, 36), (3, 16), (3, 24), (4, 16), (5, 4), (5, 8), (5, 9)):
        auto = census_bruteforce(n, m).counts
        assert auto == census_bruteforce(n, m, chunk=7).counts, (n, m)
        assert auto == census_bruteforce(n, m, method="reduction").counts, (n, m)
        # the minor-gcd classifier costs seconds per call at n = 5, m = 8
        if n < 5 or m < 8:
            assert auto == census_bruteforce(n, m, method="minors").counts, (n, m)


def test_bruteforce_vectorizes_every_large_block_at_n5(monkeypatch):
    # every block of at least _VECTOR_MIN matrices must go through the int64
    # kernel in dimension 5, for the census and the co-cyclic count alike
    scanned = []
    vectorized = []
    real_scan, real_kernel = oracle._scan_tally, oracle._block_minor_gcds

    def scan(n, diag, classify):
        scanned.append(oracle._block_size(n, diag))
        return real_scan(n, diag, classify)

    def kernel(n, diag, orders, chunk):
        vectorized.append(oracle._block_size(n, diag))
        return real_kernel(n, diag, orders, chunk)

    monkeypatch.setattr(oracle, "_scan_tally", scan)
    monkeypatch.setattr(oracle, "_block_minor_gcds", kernel)
    for m in (8, 9):
        assert census_bruteforce(5, m).counts == class_census(5, m).counts, m
        assert cocyclic_bruteforce(5, m) == cocyclic_count(5, m), m
    assert vectorized and max(scanned) < oracle._VECTOR_MIN


def test_bruteforce_jobs_deterministic():
    base = census_bruteforce(3, 30)
    for jobs in (2, 3, 8):
        assert census_bruteforce(3, 30, jobs=jobs).counts == base.counts, jobs


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
        census_bruteforce(2, 4, method="magic")
    with pytest.raises(ValueError):
        cocyclic_bruteforce(2, 4, method="magic")
    with pytest.raises(ValueError):
        cocyclic_bruteforce(0, 4)
    # refused before the single-process path, not clamped to one worker
    for brute in (census_bruteforce, cocyclic_bruteforce):
        for jobs in (0, -3):
            with pytest.raises(ValueError, match="jobs"):
                brute(2, 4, jobs=jobs)


def test_bruteforce_pool_capped_at_cpu_count(monkeypatch):
    # an in-process stand-in for the pool records the worker count it is given
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, work):
            return map(fn, work)

    base = census_bruteforce(3, 30).counts
    base_cocyclic = cocyclic_bruteforce(3, 30)
    monkeypatch.setattr(oracle, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(oracle, "_POOL_MIN", 0)
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 3)
    assert census_bruteforce(3, 30, jobs=64).counts == base
    assert cocyclic_bruteforce(3, 30, jobs=64) == base_cocyclic
    assert census_bruteforce(3, 30, jobs=2).counts == base
    # 30 = 2 * 3 * 5 has 27 diagonals, so only the CPU count or jobs bind
    assert sizes == [3, 3, 2]


def test_cocyclic_bruteforce():
    for n in (1, 2, 3, 4):
        for m in range(1, 33):
            assert cocyclic_bruteforce(n, m) == cocyclic_count(n, m), (n, m)
    for n, m in ((5, 6), (5, 8), (5, 9), (5, 12), (6, 4), (6, 8)):
        assert cocyclic_bruteforce(n, m) == cocyclic_count(n, m), (n, m)


def test_cocyclic_bruteforce_methods():
    for n, m in ((3, 16), (4, 16), (2, 36), (5, 8)):
        assert cocyclic_bruteforce(n, m) == cocyclic_bruteforce(n, m, method="reduction")
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


def test_aggregate_sections():
    assert _leading_terms_section(max_n=3, max_r=3).ok
    assert _multiplicativity_section(limit=40, max_n=2).ok


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
