import concurrent.futures
import json
import random
from collections import Counter
from itertools import combinations, product as iter_product
from math import prod

import numpy as np
import pytest

from sublattices import arith, census, cli, forms, oracle
from sublattices.census import class_census, cocyclic_count, sublattice_count
from sublattices.enumeration import hnf_stream
from sublattices.forms import (
    hnf2_smith_exponent,
    hnf3_smith_exponents,
    integer_det,
    invariant_factors,
    invariant_factors_via_minors,
    minor_gcd,
)
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
    # every chunk covers each matrix exactly once, the slots that the
    # essential submatrix drops included: the (count, gvals) pairs sum to the
    # number of forms.  Small chunks cut a block in the middle of an axis, with
    # a fixed leading slot and a ranged slot before the trailing ones
    boxes = []
    counts = []
    real_box = oracle._box_gcds
    real_block = oracle._block_gcds

    def box_gcds(diag, per_order, box):
        boxes.append(box)
        return real_box(diag, per_order, box)

    def block_gcds(*block):
        for count, gvals in real_block(*block):
            counts.append(count)
            yield count, gvals

    monkeypatch.setattr(oracle, "_box_gcds", box_gcds)
    monkeypatch.setattr(oracle, "_block_gcds", block_gcds)
    default_chunk = oracle._CHUNK
    for n, m in ((3, 49), (3, 120), (4, 32), (5, 9)):
        want = class_census(n, m).counts
        want_cocyclic = cocyclic_count(n, m)
        # with no pattern inside the int64 bound both brute forces refuse the
        # scope before any box runs, at any jobs
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
                counts.clear()
                got = brute(n, m)
                assert getattr(got, "counts", got) == expect, (n, m, chunk)
                assert sum(counts) == sublattice_count(n, m), (n, m, chunk)
                assert max(prod(shape) for *_, shape in boxes) <= chunk
                # at (3, 49) and (5, 9) no block has two essential slots
                if chunk == 7 and m in (120, 32):
                    assert any(fixed and len(shape) > 1 for fixed, _, shape in boxes), (n, m)


def test_boxes_do_not_list_the_leading_ranges():
    # the leading slots are walked digit by digit: a box of a block with
    # 2**80 leading positions comes at once, in O(n) memory
    assert next(oracle._boxes([2**40, 2**40, 3], 7)) == ((0,), 0, (2, 3))


def test_prime_index_builds_no_minor_array(monkeypatch):
    # at a prime index every block has one entry above 1, so its essential
    # submatrix is 1 x 1 and every order below n has gcd 1: no minor is evaluated
    values = []
    real = oracle._eval_plan

    def eval_plan(*args):
        value = real(*args)
        values.append(value)
        return value

    monkeypatch.setattr(oracle, "_eval_plan", eval_plan)
    assert census_bruteforce(3, 101).counts == class_census(3, 101).counts
    assert cocyclic_bruteforce(3, 101) == cocyclic_count(3, 101)
    assert values == []


def test_int64_gate_never_refuses_within_default_budget():
    # the diagonal (1, ..., 1, m) alone has m**(n-1) forms, so every scope the
    # default budget admits has m**(n-1) <= DEFAULT_BUDGET; prime m reach that
    # far (n = 3 admits m = 3137), well past the first m over the budget.  A
    # block with e entries above 1 runs on e x e plans, at the orders above
    # its n - e unit entries
    for n in range(3, 7):
        bounds = [
            oracle._pattern_plans(e, tuple(k - n + e for k in orders if k > n - e))[1:]
            for e in range(n + 1)
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
    # larger scopes: (3, 120) has 62465 forms and (4, 32) 97155
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


def test_bruteforce_starts_no_process(monkeypatch, capsys):
    # the oracle runs in one process at any jobs: a pool class that raises
    # stands in for concurrent.futures' own, so any fork attempt fails
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("the oracle started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    for n, m in ((3, 768), (4, 104)):
        assert census_bruteforce(n, m, jobs=8).counts == class_census(n, m).counts, (n, m)
        assert cocyclic_bruteforce(n, m, jobs=8) == cocyclic_count(n, m), (n, m)
    assert cli.main(["verify", "--n", "3", "--m", "120", "--jobs", "8"]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["all_match"] is True


def test_pattern_plans_are_the_minors_of_any_such_matrix():
    # a plan holds for every upper-triangular matrix, not only for Hermite
    # forms, so random entries of both signs check every monomial and sign
    # against direct determinants
    rng = random.Random(7)
    for e in range(1, 6):
        orders = tuple(range(1, e + 1))
        per_order = oracle._pattern_plans(e, orders)[0]
        assert len(per_order) == len(orders)
        for _ in range(2**e):
            diag = [rng.choice((-7, -3, 1, 2, 5, 9)) for _ in range(e)]
            entries = [rng.randint(-9, 9) for _ in oracle._slots(e)]
            rows = [[0] * e for _ in range(e)]
            for i in range(e):
                rows[i][i] = diag[i]
            for (i, j), v in zip(oracle._slots(e), entries):
                rows[i][j] = v
            values = diag + entries
            for k, plans in zip(orders, per_order):
                # each order's plans are flat and fold fewest slot entries first
                assert isinstance(plans, tuple)
                assert all(isinstance(c, int) for plan in plans for _, c in plan)
                reads = [len({v for s, _ in plan for v in s if v >= e}) for plan in plans]
                assert reads == sorted(reads), (e, k)
                got = {abs(oracle._eval_plan(plan, values)) for plan in plans}
                want = {
                    abs(integer_det([[rows[i][j] for j in cols] for i in picked]))
                    for picked in combinations(range(e), k)
                    for cols in combinations(range(e), k)
                }
                assert got - {0} == want - {0}, (e, k)


def test_unit_rows_split_off_the_invariant_factors():
    # the reduction the kernel runs on, checked by the xgcd route: a unit
    # diagonal entry contributes a leading 1 and leaves the chain of the
    # essential submatrix, the rows and columns of the entries above 1
    checked = 0
    for n, m in ((3, 36), (4, 12), (5, 6)):
        for h in hnf_stream(n, m):
            ess = [i for i in range(n) if h.rows[i][i] > 1]
            u = n - len(ess)
            if not u:
                continue
            essential = [[h.rows[i][j] for j in ess] for i in ess]
            assert invariant_factors(h.rows) == (1,) * u + invariant_factors(essential), h.rows
            checked += 1
    assert checked > 1000


def test_bruteforce_high_dimension_at_index_two(monkeypatch):
    # at m = 2 every block has one entry above 1, so no plan reads a slot
    built = []
    real = oracle._pattern_plans

    def pattern_plans(e, orders):
        built.append(e)
        return real(e, orders)

    monkeypatch.setattr(oracle, "_pattern_plans", pattern_plans)
    for n in (16, 20):
        assert census_bruteforce(n, 2).counts == class_census(n, 2).counts, n
        assert cocyclic_bruteforce(n, 2) == cocyclic_count(n, 2), n
    assert built and set(built) <= {0, 1}


def test_verify_high_dimension_at_index_two(capsys):
    assert cli.main(["verify", "--n", "20", "--m", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["all_match"] is True


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


def _per_form_shortcut_detail(n, m):
    """The detail of the per-form loop verify_index once ran: the scalar
    shortcut chain of each form against invariant_factors, in hnf_stream order."""
    fac = arith.factorize(m)
    p, r = fac[0] if fac else (2, 0)
    for h in hnf_stream(n, m):
        if n == 2:
            t = hnf2_smith_exponent(h)
            chain = (p**t, p ** (r - t))
        else:
            s, t = hnf3_smith_exponents(h)
            chain = (p**s, p ** (t - s), p ** (r - t))
        if chain != invariant_factors(h.rows):
            return f"disagreement at {h.rows}"
    return ""


def _shortcut_check(n, m):
    (check,) = [c for c in verify_index(n, m).checks if c.name == "smith_shortcut_agreement"]
    return check


def test_shortcut_check_agrees_with_the_per_form_loop():
    # every prime power, and 1, up to 3**6 at n = 2 and 3**4 at n = 3
    for n, top in ((2, 3**6), (3, 3**4)):
        for m in range(1, top + 1):
            if len(arith.factorize(m)) > 1:
                continue
            check = _shortcut_check(n, m)
            assert check.ok and check.detail == "", (n, m)
            assert _per_form_shortcut_detail(n, m) == "", (n, m)


def test_shortcut_check_names_the_first_disagreement_of_the_per_form_loop(monkeypatch):
    # the same mutant on both routes: every valuation, capped at r, one short
    # down to 0; the array check must name the form the per-form loop names
    real_valuations = oracle._valuations
    monkeypatch.setattr(
        oracle, "_valuations", lambda p, x, cap: np.maximum(real_valuations(p, x, cap) - 1, 0)
    )
    real_diag = forms._prime_power_diag

    def short_diag(diag):
        exps, m, logs = real_diag(diag)
        return exps, m, {q: max(k - 1, 0) for q, k in logs.items()}

    monkeypatch.setattr(forms, "_prime_power_diag", short_diag)
    for n, m, first in (
        (2, 27, "disagreement at ((3, 3), (0, 9))"),
        (3, 8, "disagreement at ((1, 0, 0), (0, 2, 2), (0, 0, 4))"),
    ):
        check = _shortcut_check(n, m)
        assert not check.ok
        assert check.detail == _per_form_shortcut_detail(n, m) == first, (n, m)


def test_verify_index_runs_no_per_form_reduction(monkeypatch):
    # the shortcut check compares against minor gcds: invariant_factors stays
    # with the tests and enumerate --with-snf
    def refuse(rows):
        raise AssertionError(f"invariant_factors({rows})")

    monkeypatch.setattr(forms, "invariant_factors", refuse)
    assert not hasattr(oracle, "invariant_factors")
    for n, m in ((2, 27), (3, 8), (3, 64), (2, 1)):
        assert _shortcut_check(n, m).ok, (n, m)


def test_shortcut_check_has_no_form_cap():
    # 200004 forms, past the 200000 that once skipped the check
    assert sublattice_count(2, 200003) > 200_000
    section = verify_index(2, 200003)
    assert section.ok
    assert _shortcut_check(2, 200003).detail == ""


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
