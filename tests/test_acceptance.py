"""Acceptance gate: one test per required behavior, at the required scale.

Each test prints a [PASS]/[FAIL] verdict line (visible under pytest -s; the
verbose test names carry the same verdicts otherwise).  Scopes and time limits
here are the contract, so they are asserted, not just sampled.
"""

import subprocess
import sys
import time
from math import gcd

from sublattices.arith import factorize, partitions, sigma1
from sublattices.census import (
    class_census,
    class_count,
    class_size,
    class_size_2x2,
    class_size_prime,
    cocyclic_count,
    cocyclic_count_prime_power,
    sublattice_count,
    sublattice_count_recursion,
)
from sublattices.enumeration import hnf_stream, hnf_stream_count
from sublattices.forms import hnf3_smith_exponents, invariant_factors
from sublattices.oracle import census_bruteforce, cocyclic_bruteforce
from sublattices.polyalg import (
    class_size_poly,
    cocyclic_count_poly,
    leading_terms_check,
    class_size_poly_glue,
    poly_add,
    poly_eval,
    sublattice_count_poly,
)

FULL_SCOPE = (
    [(n, m) for n in (1, 2, 3) for m in range(1, 101)]
    + [(4, m) for m in (2, 4, 8, 16, 32)]
    + [(5, m) for m in range(1, 17)]
)


def _verdict(tag: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {tag}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def test_a01_census_formula_matches_oracle_at_scale():
    t0 = time.perf_counter()
    bad = []
    for n, m in FULL_SCOPE:
        if class_census(n, m).counts != census_bruteforce(n, m).counts:
            bad.append((n, m))
    elapsed = time.perf_counter() - t0
    _verdict(
        "A1 class census equals brute force on the full scope",
        not bad and elapsed < 120,
        f"{len(FULL_SCOPE)} indices in {elapsed:.1f}s" + (f", mismatches {bad}" if bad else ""),
    )


def test_a02_counting_routes_and_stream_cardinality_agree():
    bad = []
    for n, m in FULL_SCOPE:
        closed = sublattice_count(n, m)
        if closed != sublattice_count_recursion(n, m):
            bad.append(("recursion", n, m))
        if closed != hnf_stream_count(n, m):
            bad.append(("stream", n, m))
        table = class_census(n, m)
        if class_count(n, m) != len(table.counts):
            bad.append(("classes", n, m))
        if table.total() != closed:
            bad.append(("census total", n, m))
    _verdict(
        "A2 closed form, recursion, stream cardinality, and class counts agree",
        not bad,
        f"first failures {bad[:3]}" if bad else "",
    )


def test_a03_dimension_two_closed_form_matches_oracle():
    bad = []
    for p in (2, 3, 5):
        for r in range(0, 7):
            oracle = census_bruteforce(2, p**r).counts
            for t in range(0, r // 2 + 1):
                chain = (p**t, p ** (r - t))
                want = oracle.get(chain, 0)
                if class_size_2x2(t, r, p) != want or class_size_prime((t, r - t), p) != want:
                    bad.append((p, r, t))
    _verdict(
        "A3 dimension-2 closed form matches the oracle for p in {2,3,5}, r <= 6",
        not bad,
        str(bad) if bad else "",
    )


def test_a04_dimension_three_shortcut_matches_reduction():
    bad = []
    for p in (2, 3):
        for r in range(0, 5):
            for h in hnf_stream(3, p**r):
                s, t = hnf3_smith_exponents(h)
                if invariant_factors(h.rows) != (p**s, p ** (t - s), p ** (r - t)):
                    bad.append(h.rows)
    _verdict(
        "A4 dimension-3 valuation shortcut equals elementary reduction for p in {2,3}, r <= 4",
        not bad,
        f"first failures {bad[:2]}" if bad else "",
    )


def test_a05_class_sizes_match_oracle_at_scale():
    t0 = time.perf_counter()
    bad = []
    checked = 0
    for n in (2, 3, 4):
        for p in (2, 3):
            for k in range(1, 6):
                oracle = census_bruteforce(n, p**k, jobs=4, budget=30_000_000).counts
                for alpha in partitions(n, k):
                    chain = tuple(p**a for a in alpha)
                    checked += 1
                    if class_size_prime(alpha, p) != oracle.get(chain, 0):
                        bad.append((n, p, alpha))
    for n in (2, 3):
        for k in range(1, 5):
            oracle = census_bruteforce(n, 5**k, jobs=4, budget=30_000_000).counts
            for alpha in partitions(n, k):
                chain = tuple(5**a for a in alpha)
                checked += 1
                if class_size_prime(alpha, 5) != oracle.get(chain, 0):
                    bad.append((n, 5, alpha))
    elapsed = time.perf_counter() - t0
    _verdict(
        "A5 class sizes match the oracle on every partition in scope",
        not bad and elapsed < 300,
        f"{checked} classes in {elapsed:.1f}s" + (f", mismatches {bad}" if bad else ""),
    )


def test_a06_polynomial_route_matches_numeric_route():
    bad = []
    glue = {}
    for n in (1, 2, 3, 4):
        for k in range(0, 6):
            sum_poly = []
            for alpha in partitions(n, k):
                poly = class_size_poly(alpha)
                if poly != class_size_poly_glue(alpha, glue):
                    bad.append(("closed form vs glue", alpha))
                sum_poly = poly_add(sum_poly, poly)
                for p in (2, 3, 5, 7, 11):
                    if poly_eval(poly, p) != class_size_prime(alpha, p):
                        bad.append((alpha, p))
            if sum_poly != sublattice_count_poly(n, k):
                bad.append(("sum identity", n, k))
            for p in (2, 3, 5, 7, 11):
                if poly_eval(sum_poly, p) != sublattice_count(n, p**k):
                    bad.append(("sum value", n, k, p))
    _verdict(
        "A6 polynomial class sizes equal the glue recursion, evaluate to the numeric ones"
        " and sum to the index count",
        not bad,
        f"first failures {bad[:3]}" if bad else "",
    )


def test_a07_cocyclic_formulas_match_brute_force():
    bad = []
    scope = [(n, m) for n in (1, 2, 3, 4) for m in range(1, 65)] + [(5, m) for m in range(1, 17)]
    for n, m in scope:
        want = cocyclic_bruteforce(n, m)
        if cocyclic_count(n, m) != want:
            bad.append(("general", n, m))
        per_prime = 1
        for p, r in factorize(m):
            per_prime *= cocyclic_count_prime_power(n, p, r)
        if per_prime != want:
            bad.append(("prime product", n, m))
    anchors = {(1, 1, 2): 7, (1, 1, 4): 28, (1, 12): 24}
    for chain, want in anchors.items():
        if class_size(chain) != want:
            bad.append(("anchor", chain))
    # at a square-free index every quotient is cyclic: one class holding everything
    for n in (1, 2, 3, 4):
        for m in range(1, 101):
            if any(e > 1 for _, e in factorize(m)):
                continue
            if cocyclic_count(n, m) != sublattice_count(n, m):
                bad.append(("square-free count", n, m))
            if class_count(n, m) != 1:
                bad.append(("square-free classes", n, m))
            if cocyclic_count(n, m) != sigma1(m ** (n - 1)):
                bad.append(("square-free divisor sum", n, m))
    _verdict(
        "A7 co-cyclic counts: both formulas, brute force to n = 5, anchors, square-free law",
        not bad,
        f"first failures {bad[:3]}" if bad else "",
    )


def test_a08_leading_terms_of_full_and_cocyclic_polynomials():
    bad = []
    for n in (2, 3, 4):
        for r in range(1, 6):
            ok, report = leading_terms_check(n, r)
            if not ok:
                bad.append((n, r, report))
                continue
            top = (n - 1) * r
            diff = report["difference_degree"]
            if report["degree"] != top or (diff is not None and diff > top - 2):
                bad.append((n, r, report))
            if len(cocyclic_count_poly(n, r)) - 1 != top:
                bad.append(("cocyclic degree", n, r))
    _verdict(
        "A8 full and co-cyclic polynomials share their two leading terms, 2 <= n <= 4, r <= 5",
        not bad,
        str(bad[:2]) if bad else "",
    )


def test_a09_multiplicativity_over_coprime_indices():
    bad = []
    for n in (1, 2, 3):
        for m1 in range(2, 151):
            for m2 in range(2, 300 // m1 + 1):
                if m2 < m1:
                    continue
                if gcd(m1, m2) != 1:
                    continue
                m = m1 * m2
                if sublattice_count(n, m) != sublattice_count(n, m1) * sublattice_count(n, m2):
                    bad.append(("count", n, m1, m2))
                if class_count(n, m) != class_count(n, m1) * class_count(n, m2):
                    bad.append(("classes", n, m1, m2))
                merged = {}
                for k1, s1 in class_census(n, m1).counts.items():
                    for k2, s2 in class_census(n, m2).counts.items():
                        key = tuple(a * b for a, b in zip(k1, k2))
                        merged[key] = s1 * s2
                if merged != class_census(n, m).counts:
                    bad.append(("census merge", n, m1, m2))
    _verdict(
        "A9 counts, class counts, and censuses are multiplicative for coprime indices up to 300",
        not bad,
        f"first failures {bad[:3]}" if bad else "",
    )


def test_a10_verify_suite_reports_identical_across_worker_counts():
    def run(jobs: str):
        return subprocess.run(
            [sys.executable, "-m", "sublattices", "verify", "suite", "--jobs", jobs, "--format", "json"],
            capture_output=True,
            timeout=600,
        )

    one = run("1")
    eight = run("8")
    ok = (
        one.returncode == 0
        and eight.returncode == 0
        and one.stdout == eight.stdout
        and len(one.stdout) > 0
    )
    _verdict(
        "A10 verify suite exits 0 and its stdout is byte-identical for 1 and 8 workers",
        ok,
        f"exit codes {one.returncode}/{eight.returncode}, {len(one.stdout)} bytes",
    )
