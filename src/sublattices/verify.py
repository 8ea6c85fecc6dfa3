"""Diff the formulas against the brute-force oracle: one index, prime-power ladders, the suite.

verify_index compares, at one (n, m), the formulas' class census with
oracle.census_bruteforce, the closed count with its recursion and with the
oracle's total, the class count with both censuses, and the co-cyclic
formula with oracle.cocyclic_bruteforce.  At a composite index every answer
must split over the prime powers, checked by the same _split_failure that
the suite's multiplicativity section runs.  A ladder or the suite prices
every distinct scope up front through oracle._refuse, the largest first, so
a refusal comes before any scope runs.  The suite adds three sections that
read formulas only: the polynomial leading terms, multiplicativity across
coprime factors, and the closed-form class sizes against the glue recursion.

verify_index also checks the 2x2/3x3 Smith shortcuts at every index, through
oracle._shortcut_disagreement, on boxes built as the census builds them:
each slot of a diagonal ranges its residues modulo g = m / lcm(diag), the
census's modulus for the same orders, and diagonals whose slot ranges agree
share a block.  Per prime p of m, valuations of the box's arrays, from an
int8 table and capped at each member's v_p(g), go through
forms._smith_closed_form once per box, and the products of the p-parts must
match the minor gcds of the n x n plans, folded from g by the census's rule,
through one memo per box.
No per-form loop and no reduction (forms.invariant_factors) runs in verify.
A verify run returns plain records (VerifyReport, SectionReport, ClassRow,
Check); the CLI renders them as JSON, plain lines or csv.

The kernel in sublattices.oracle reads none of the formulas it is diffed
against; this module is where the two routes meet.  It imports no NumPy.
"""

from __future__ import annotations

import time
from functools import lru_cache, partial
from itertools import product as iter_product
from math import gcd, prod
from typing import Callable, NamedTuple, Sequence

from .arith import _check_nm, _check_prime, factorize, partitions
from .census import (
    CensusTable,
    class_census,
    class_count,
    class_size,
    cocyclic_count,
    sublattice_count,
    sublattice_count_recursion,
)
from .enumeration import DEFAULT_BUDGET
from .oracle import _refuse, _shortcut_disagreement, census_bruteforce, cocyclic_bruteforce
from .polyalg import (
    class_size_poly,
    class_size_poly_glue,
    leading_terms_check,
    poly_add,
    poly_render,
    sublattice_count_poly,
)


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


class ClassRow(NamedTuple):
    key: tuple[int, ...]
    formula: int
    oracle: int

    @property
    def match(self) -> bool:
        return self.formula == self.oracle


class SectionReport(NamedTuple):
    scope: str
    rows: Sequence[ClassRow] = ()
    checks: Sequence[Check] = ()

    @property
    def ok(self) -> bool:
        return all(r.match for r in self.rows) and all(c.ok for c in self.checks)


class VerifyReport(NamedTuple):
    """Outcome of one verification run.

    elapsed is measured for stderr; the CLI keeps it out of stdout, so that
    equal scopes render byte-identically regardless of timing or jobs.
    """

    scope: str
    sections: Sequence[SectionReport]
    elapsed: float = 0.0

    @property
    def all_match(self) -> bool:
        return all(s.ok for s in self.sections)


def verify_index(n: int, m: int, *, jobs: int = 1, budget: int = DEFAULT_BUDGET) -> SectionReport:
    """Diff every formula against the brute force for one (n, m)."""
    n, m = _check_nm(n, m)
    # the oracle refuses an over-budget scope up front, before the formula census
    oracle = census_bruteforce(n, m, jobs=jobs, budget=budget)
    formula = class_census(n, m)
    keys = sorted(set(formula.counts) | set(oracle.counts))
    rows = [ClassRow(k, formula.counts.get(k, 0), oracle.counts.get(k, 0)) for k in keys]
    checks = []
    closed = sublattice_count(n, m)
    rec = sublattice_count_recursion(n, m)
    checks.append(Check("count_closed_vs_recursion", closed == rec, f"{closed} vs {rec}"))
    checks.append(
        Check("count_vs_oracle_total", closed == oracle.total(), f"{closed} vs {oracle.total()}")
    )
    gk = class_count(n, m)
    checks.append(
        Check(
            "class_count_vs_distinct_keys",
            gk == len(oracle.counts) == len(formula.counts),
            f"expected {gk}, oracle {len(oracle.counts)}, formula {len(formula.counts)}",
        )
    )
    coc = cocyclic_count(n, m)
    coc_key = (1,) * (n - 1) + (m,)
    coc_brute = cocyclic_bruteforce(n, m, jobs=jobs, budget=budget)
    checks.append(
        Check(
            "cocyclic_formula_vs_bruteforce",
            coc == coc_brute == oracle.counts.get(coc_key, 0),
            f"formula {coc}, bruteforce {coc_brute}, census {oracle.counts.get(coc_key, 0)}",
        )
    )
    fac = factorize(m)
    if len(fac) >= 2:
        # at a composite index, every answer must split over the prime powers
        tables = [class_census(n, p**r) for p, r in fac]
        detail = _split_failure(tables, partial(sublattice_count, n), partial(class_count, n))
        checks.append(
            Check("multiplicative_split", not detail, detail or f"{len(fac)} prime power factors")
        )
    if n in (2, 3):
        detail = _shortcut_disagreement(n, m, fac)
        checks.append(Check("smith_shortcut_agreement", not detail, detail))
    return SectionReport(f"n={n} m={m}", rows, checks)


def _verify_scopes(scopes, jobs: int, budget: int) -> list[SectionReport]:
    """verify_index over each distinct (n, m) of scopes, in order.

    Every scope passes the census's up-front checks before any runs, the
    ones with the most matrices first: an over-budget run is refused at its
    largest scope, and one whose minors could leave int64 at the largest
    such scope.
    """
    scopes = list(dict.fromkeys(scopes))
    for n, m in sorted(scopes, key=lambda scope: sublattice_count(*scope), reverse=True):
        _refuse(n, m, "census", jobs, budget, tuple(range(1, n)))
    return [verify_index(n, m, jobs=jobs, budget=budget) for n, m in scopes]


def verify_prime_powers(
    n: int, p: int, max_r: int, *, jobs: int = 1, budget: int = DEFAULT_BUDGET
) -> list[SectionReport]:
    """verify_index over p, p**2, ..., p**max_r, each priced up front as in _verify_scopes."""
    p = _check_prime(p)
    if max_r < 1:
        raise ValueError(f"need max_r >= 1, got {max_r}")
    return _verify_scopes([(n, p**r) for r in range(1, max_r + 1)], jobs, budget)


def _leading_terms_section(max_n: int = 4, max_r: int = 5) -> SectionReport:
    checks = []
    for n in range(2, max_n + 1):
        for r in range(1, max_r + 1):
            # equal lengths and top two coefficients leave a difference of
            # degree at most (n - 1) * r - 2: the verdict holds the gap
            ok, rep = leading_terms_check(n, r)
            checks.append(
                Check(
                    f"leading_terms n={n} r={r}",
                    ok,
                    f"top coefficients {rep['full_top']} vs {rep['cocyclic_top']}",
                )
            )
    return SectionReport("polynomial leading terms", checks=checks)


def _split_failure(
    tables: Sequence[CensusTable], count: Callable[[int], int], classes: Callable[[int], int]
) -> str:
    """Where the answers at the product of pairwise coprime factors fail to split over them, or ''.

    tables are the class_census of each factor, at one n, and count and
    classes take m to sublattice_count and class_count at that n.  The count
    and the class count must be the products of the factors' own, and each
    class, a chain merged from one class per factor entrywise, must have
    class_size the product of theirs.
    """
    factors = [table.m for table in tables]
    m = prod(factors)
    at = " * ".join(map(str, factors))
    if count(m) != prod(map(count, factors)):
        return f"count split fails at {at}"
    if classes(m) != prod(map(classes, factors)):
        return f"class count split fails at {at}"
    for combo in iter_product(*(table.counts.items() for table in tables)):
        merged = tuple(map(prod, zip(*(key for key, _ in combo))))
        if class_size(merged) != prod(size for _, size in combo):
            return f"class size split fails at {merged}"
    return ""


def _multiplicativity_section(limit: int = 120, max_n: int = 3) -> SectionReport:
    """Per n, the first coprime m1 * m2 <= limit whose answers fail to split."""
    checks = []
    for n in range(1, max_n + 1):
        # each census and closed form once per (n, m) of the section
        census, count, classes = [
            lru_cache(maxsize=None)(partial(f, n))
            for f in (class_census, sublattice_count, class_count)
        ]
        pairs = (
            (m1, m2)
            for m1 in range(2, limit + 1)
            for m2 in range(2, limit // m1 + 1)
            if gcd(m1, m2) == 1
        )
        splits = (_split_failure([*map(census, pair)], count, classes) for pair in pairs)
        detail = next(filter(None, splits), "")
        checks.append(Check(f"multiplicative up to {limit}, n={n}", not detail, detail))
    return SectionReport("multiplicativity across coprime factors", checks=checks)


def _closed_vs_glue_section(max_n: int = 5, max_k: int = 6) -> SectionReport:
    """Closed-form class sizes against the glue recursion, one check per level (n, k).

    Each level's class sizes must also sum to the Gaussian-binomial count
    polynomial.  The glue route gets one memo, shared across the levels, so
    each level is built once.
    """
    glue: dict = {}
    checks = []
    for n in range(1, max_n + 1):
        for k in range(0, max_k + 1):
            level = list(partitions(n, k))
            ok, detail = True, f"{len(level)} classes"
            total: list[int] = []
            for exps in level:
                want = class_size_poly_glue(exps, glue)
                got = class_size_poly(exps)
                if got != want:
                    ok = False
                    detail = f"{exps}: closed {poly_render(got)}, glue {poly_render(want)}"
                    break
                total = poly_add(total, got)
            if ok and total != (count := sublattice_count_poly(n, k)):
                ok, detail = False, f"class sum {poly_render(total)}, count {poly_render(count)}"
            checks.append(Check(f"class_size_closed_vs_glue n={n} k={k}", ok, detail))
    return SectionReport("class sizes: closed form vs glue recursion", checks=checks)


def verify_suite(*, jobs: int = 1, budget: int = DEFAULT_BUDGET) -> VerifyReport:
    """Fixed moderate-scale sweep over every formula family.

    Index sweeps at n = 2 and 3 including composite indices, small n = 4 powers
    of two, prime-power ladders that exercise the dimension-2 and dimension-3
    closed forms, the polynomial leading-term checks, multiplicativity, and
    the closed-form class sizes against the glue recursion.  A budget below
    the largest scope's matrix count is refused before any scope runs.
    """
    t0 = time.perf_counter()
    planned: list[tuple[int, int]] = []
    planned += [(2, m) for m in range(1, 49)]
    planned += [(3, m) for m in range(1, 31)]
    planned += [(4, m) for m in (2, 4, 8, 16)]
    for p in (2, 3, 5):
        planned += [(2, p**r) for r in range(1, 7)]
    for p in (2, 3):
        planned += [(3, p**r) for r in range(1, 5)]
    planned += [(4, 2**r) for r in range(1, 6)]
    sections = _verify_scopes(planned, jobs, budget)
    sections += [_leading_terms_section(), _multiplicativity_section(), _closed_vs_glue_section()]
    return VerifyReport("suite", sections, elapsed=time.perf_counter() - t0)
