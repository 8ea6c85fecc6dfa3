"""Exhaustive ground truth: classify every Hermite-form matrix and diff the formulas.

The brute-force census enumerates all index-m Hermite forms and tallies them by
invariant factor chain; the co-cyclic count tallies them by whether the minors
of order n-1 have gcd 1.  Both share one per-block kernel.  Per diagonal block
it either scans matrices one by one (exact Python integers) or, for large
blocks, evaluates the needed minors of the whole block at once on int64
arrays.  Precomputed bounds on every minor decide per block whether the vector
path is exact; a block that cannot be bounded inside int64 falls back to the
scan, in any dimension.  Work is partitioned by diagonal, so tallies are
identical for any worker count.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations, product as iter_product
from math import gcd, prod

import numpy as np

from .arith import divisor_compositions, factorize, is_prime
from .census import (
    CensusTable,
    class_census,
    class_count,
    class_size,
    cocyclic_count,
    sublattice_count,
    sublattice_count_recursion,
)
from .enumeration import hnf_stream
from .forms import (
    HnfMatrix,
    hnf2_smith_exponent,
    hnf3_smith_exponents,
    invariant_factors,
    invariant_factors_via_minors,
    minor_gcd,
)
from .polyalg import leading_terms_check

DEFAULT_BUDGET = 10_000_000
_VECTOR_MIN = 256  # blocks smaller than this are scanned matrix by matrix
_POOL_MIN = 50_000  # below this predicted count, worker pools are not worth forking
_CHUNK = 1 << 20
_INT64_SAFE = 1 << 62


class BudgetExceededError(RuntimeError):
    """The predicted matrix count exceeds the budget; raised before any work starts."""

    def __init__(self, predicted: int, budget: int, scope: str):
        super().__init__(
            f"{scope}: predicted {predicted} matrices exceeds the budget of {budget}"
        )
        self.predicted = predicted
        self.budget = budget
        self.scope = scope


def _check_scope(n: int, m: int) -> None:
    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got n={n} m={m}")


def _check_budget(n: int, m: int, budget: int, scope: str) -> int:
    predicted = sublattice_count(n, m)
    if predicted > budget:
        raise BudgetExceededError(predicted, budget, scope)
    return predicted


def _slots(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _composition_plans(n, diag, orders):
    """Symbolic minor structure of one diagonal block.

    Returns (sizes, per_order) where per_order[i] = (scalar_gcd, plans) covers
    the k x k minors for k = orders[i]: scalar_gcd folds the minors free of
    varying entries, and each plan lists (slot_tuple, coeff) monomials of one
    varying minor.  Principal minors are constant, so scalar_gcd is always
    positive.  Returns None when a minor cannot be bounded inside int64.
    """
    slots = _slots(n)
    sizes = [diag[j] for _, j in slots]
    index = {pos: k for k, pos in enumerate(slots)}

    def entry(i, j):
        """(constant factor, slot or None) of entry (i, j); a zero factor is a zero entry."""
        if i == j:
            return diag[i], None
        if i > j or sizes[index[(i, j)]] == 1:
            return 0, None
        return 1, index[(i, j)]

    def expand(rows, cols, coeff, used, monos):
        # Laplace expansion along the first remaining row: taking the pos-th
        # remaining column flips the sign when pos is odd, and a zero entry
        # drops the whole branch, so only the nonzero terms are visited
        if not rows:
            key = tuple(sorted(used))
            monos[key] = monos.get(key, 0) + coeff
            return
        for pos, c in enumerate(cols):
            val, slot = entry(rows[0], c)
            if val:
                sign = -1 if pos % 2 else 1
                rest = cols[:pos] + cols[pos + 1 :]
                more = used if slot is None else used + (slot,)
                expand(rows[1:], rest, sign * val * coeff, more, monos)

    per_order = []
    for k in orders:
        scalar = 0
        plans = []
        for rsel in combinations(range(n), k):
            for csel in combinations(range(n), k):
                monos: dict[tuple[int, ...], int] = {}
                expand(rsel, csel, 1, (), monos)
                monos = {s: c for s, c in monos.items() if c}
                if not monos:
                    continue
                if set(monos) == {()}:
                    scalar = gcd(scalar, monos[()])
                    continue
                bound = 0
                for s, c in monos.items():
                    term = abs(c)
                    for slot in s:
                        term *= sizes[slot] - 1
                    bound += term
                if bound >= _INT64_SAFE:
                    return None
                plans.append(sorted(monos.items()))
        per_order.append((scalar, plans))
    return sizes, per_order


def _eval_plan(plan, coord):
    const = 0
    acc = None
    for s, c in plan:
        if not s:
            const += c
            continue
        t = coord(s[0])
        for slot in s[1:]:
            t = t * coord(slot)
        if c != 1:
            t = t * c
        acc = t if acc is None else acc + t
    if const:
        acc = acc + const
    return acc


def _chain_encode(ds, base):
    key = None
    for d in ds:
        key = d if key is None else key * base + d
    return key


def _chain_decode(key: int, base: int, n: int) -> tuple[int, ...]:
    out = []
    for _ in range(n):
        out.append(key % base)
        key //= base
    return tuple(reversed(out))


def _block_minor_gcds(n, diag, orders, chunk):
    """Minor gcds of the given orders over one diagonal block, on int64 arrays.

    Returns None when the int64 bound forces the scan.  Otherwise returns an
    iterable of (weight, gvals), one per chunk: gvals[i] is the gcd of the
    orders[i] x orders[i] minors, an int where it is constant over the block
    and an int64 array over the chunk elsewhere, and each entry stands for
    weight matrices.  A block whose requested orders are all constant comes
    back as one pair of ints weighted by the block size.
    """
    built = _composition_plans(n, diag, orders)
    if built is None:
        return None
    sizes, per_order = built
    total = prod(sizes)
    consts: list[int | None] = []
    for scalar, plans in per_order:
        if scalar < 1:
            raise ArithmeticError(f"missing principal minor in block {diag}")
        # the gcd is scalar when no minor varies or the constant ones have gcd 1
        consts.append(scalar if scalar == 1 or not plans else None)
    if None not in consts:
        return [(total, consts)]
    return _chunk_minor_gcds(sizes, per_order, consts, chunk)


def _chunk_minor_gcds(sizes, per_order, consts, chunk):
    total = prod(sizes)
    strides = [1] * len(sizes)
    for k in range(len(sizes) - 2, -1, -1):
        strides[k] = strides[k + 1] * sizes[k + 1]
    for lo in range(0, total, chunk):
        idx = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        coords: dict[int, np.ndarray] = {}

        def coord(k):
            got = coords.get(k)
            if got is None:
                got = (idx // strides[k]) % sizes[k]
                coords[k] = got
            return got

        gvals = []
        for const, (scalar, plans) in zip(consts, per_order):
            if const is not None:
                gvals.append(const)
                continue
            running = None
            for plan in plans:
                det = _eval_plan(plan, coord)
                # raw determinants can be negative or zero, so fold through
                # absolute values and stop only once every entry is exactly 1
                running = np.abs(det) if running is None else np.gcd(running, det)
                if np.all(running == 1):
                    break
            gvals.append(np.gcd(running, scalar))
        yield 1, gvals


def _tally_chains(n, m, blocks):
    """Tally invariant factor chains from the minor gcds of orders 1..n-1."""
    base = m + 1
    counts: dict[tuple[int, ...], int] = {}
    for weight, gvals in blocks:
        ds = []
        prev = 1
        for g in gvals:
            ds.append(g // prev)
            prev = g
        ds.append(m // prev)
        uniq, cnt = np.unique(np.asarray(_chain_encode(ds, base)), return_counts=True)
        for u, c in zip(uniq.tolist(), cnt.tolist()):
            chain = _chain_decode(int(u), base, n)
            counts[chain] = counts.get(chain, 0) + c * weight
    return counts


def _tally_cocyclic(n, m, blocks):
    """Count the matrices whose minors of order n-1 have gcd 1."""
    hits = 0
    for weight, (g,) in blocks:
        hits += int(np.count_nonzero(g == 1)) * weight
    return {True: hits}


def _is_cocyclic(rows) -> bool:
    return minor_gcd(rows, len(rows) - 1) == 1


def _scan_tally(n, diag, classify):
    slots = _slots(n)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = diag[i]
    counts: dict = {}
    for offs in iter_product(*(range(diag[j]) for _, j in slots)):
        for (i, j), v in zip(slots, offs):
            rows[i][j] = v
        key = classify(rows)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _block_size(n, diag):
    return prod(diag[j] for _, j in _slots(n))


def _merge(counts, part):
    for key, v in part.items():
        counts[key] = counts.get(key, 0) + v


def _worker(args):
    """Tally the blocks of comps, each on the int64 kernel or by classify per matrix."""
    n, m, comps, chunk, orders, tally, classify = args
    counts: dict = {}
    for diag in comps:
        part = None
        if orders and _block_size(n, diag) >= _VECTOR_MIN:
            blocks = _block_minor_gcds(n, diag, orders, chunk)
            if blocks is not None:
                part = tally(n, m, blocks)
        if part is None:
            part = _scan_tally(n, diag, classify)
        _merge(counts, part)
    return counts


def _bruteforce(n, m, scope, jobs, budget, method, chunk, orders, tally, classify):
    """Shared entry: validate, refuse over budget, split by diagonal and merge."""
    _check_scope(n, m)
    if method not in ("auto", "reduction", "minors"):
        raise ValueError(f"unknown method {method!r}")
    if jobs < 1:
        raise ValueError(f"need jobs >= 1, got {jobs}")
    predicted = _check_budget(n, m, budget, f"{scope} n={n} m={m}")
    if method != "auto":
        orders = ()
    comps = list(divisor_compositions(m, n))
    workers = min(int(jobs), os.cpu_count() or 1, len(comps))
    if workers == 1 or predicted < _POOL_MIN:
        return _worker((n, m, comps, chunk, orders, tally, classify))
    work = [(n, m, comps[w::workers], chunk, orders, tally, classify) for w in range(workers)]
    counts: dict = {}
    with ProcessPoolExecutor(max_workers=workers) as ex:
        for part in ex.map(_worker, work):
            _merge(counts, part)
    return counts


def census_bruteforce(
    n: int,
    m: int,
    *,
    jobs: int = 1,
    budget: int = DEFAULT_BUDGET,
    method: str = "auto",
    chunk: int = _CHUNK,
) -> CensusTable:
    """Classify every index-m Hermite form of dimension n by its invariant factors.

    method "auto" mixes the vectorized minor path with elementary reduction;
    "reduction" and "minors" force the per-matrix algorithms so the two can be
    played against each other.  The per-diagonal split makes the result
    independent of jobs.
    """
    # chains are tallied as base-(m+1) int64 keys, so the encoding must fit too
    orders = tuple(range(1, n)) if (m + 1) ** n < _INT64_SAFE else ()
    classify = invariant_factors_via_minors if method == "minors" else invariant_factors
    counts = _bruteforce(
        n, m, "census", jobs, budget, method, chunk, orders, _tally_chains, classify
    )
    return CensusTable(n, m, counts)


def cocyclic_bruteforce(
    n: int,
    m: int,
    *,
    jobs: int = 1,
    budget: int = DEFAULT_BUDGET,
    method: str = "auto",
    chunk: int = _CHUNK,
) -> int:
    """Count index-m Hermite forms whose minors of order n-1 have gcd 1.

    That gcd condition says the quotient group is cyclic, i.e. the invariant
    factor chain is (1, ..., 1, m).  Every method other than "auto" scans
    matrix by matrix with minor_gcd, independently of the census classifiers.
    """
    counts = _bruteforce(
        n, m, "cocyclic", jobs, budget, method, chunk, (n - 1,), _tally_cocyclic, _is_cocyclic
    )
    return counts.get(True, 0)


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class ClassRow:
    key: tuple[int, ...]
    formula: int
    oracle: int

    @property
    def match(self) -> bool:
        return self.formula == self.oracle


@dataclass
class SectionReport:
    scope: str
    rows: list[ClassRow] = field(default_factory=list)
    checks: list[Check] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.match for r in self.rows) and all(c.ok for c in self.checks)


@dataclass
class VerifyReport:
    """Outcome of one verification run.

    elapsed is measured but deliberately kept out of to_payload() so that equal
    scopes serialize byte-identically regardless of timing or worker count.
    """

    scope: str
    sections: list[SectionReport]
    elapsed: float = 0.0

    @property
    def all_match(self) -> bool:
        return all(s.ok for s in self.sections)

    def to_payload(self) -> dict:
        return {
            "kind": "report",
            "scope": self.scope,
            "all_match": self.all_match,
            "sections": [
                {
                    "scope": s.scope,
                    "ok": s.ok,
                    "rows": [
                        {
                            "class": ",".join(map(str, r.key)),
                            "formula": str(r.formula),
                            "oracle": str(r.oracle),
                            "match": r.match,
                        }
                        for r in s.rows
                    ],
                    "checks": [
                        {"name": c.name, "ok": c.ok, "detail": c.detail} for c in s.checks
                    ],
                }
                for s in self.sections
            ],
        }


def _shortcut_chain(h: HnfMatrix, fac) -> tuple[int, ...]:
    if not fac:
        return (1,) * h.n
    p, r = fac[0]
    if h.n == 2:
        t = hnf2_smith_exponent(h)
        return (p**t, p ** (r - t))
    s, t = hnf3_smith_exponents(h)
    return (p**s, p ** (t - s), p ** (r - t))


def verify_index(
    n: int,
    m: int,
    *,
    jobs: int = 1,
    budget: int = DEFAULT_BUDGET,
    shortcut_cap: int = 200_000,
) -> SectionReport:
    """Diff every formula against the brute force for one (n, m)."""
    _check_scope(n, m)
    formula = class_census(n, m)
    oracle = census_bruteforce(n, m, jobs=jobs, budget=budget)
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
        split_ok = closed == prod(sublattice_count(n, p**r) for p, r in fac)
        split_ok = split_ok and gk == prod(class_count(n, p**r) for p, r in fac)
        parts = [class_census(n, p**r).counts for p, r in fac]
        merged: dict = {}
        for combo in iter_product(*(list(c.items()) for c in parts)):
            key = tuple(prod(vals) for vals in zip(*(k for k, _ in combo)))
            merged[key] = prod(size for _, size in combo)
        split_ok = split_ok and merged == formula.counts
        checks.append(
            Check("multiplicative_split", split_ok, f"{len(fac)} prime power factors")
        )
    if n in (2, 3) and len(fac) <= 1 and closed <= shortcut_cap:
        ok = True
        detail = ""
        for h in hnf_stream(n, m):
            if _shortcut_chain(h, fac) != invariant_factors(h.rows):
                ok = False
                detail = f"disagreement at {h.rows}"
                break
        checks.append(Check("smith_shortcut_agreement", ok, detail))
    return SectionReport(f"n={n} m={m}", rows, checks)


def verify_prime_powers(
    n: int, p: int, max_r: int, *, jobs: int = 1, budget: int = DEFAULT_BUDGET
) -> list[SectionReport]:
    """verify_index over p, p**2, ..., p**max_r."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if max_r < 1:
        raise ValueError(f"need max_r >= 1, got {max_r}")
    return [verify_index(n, p**r, jobs=jobs, budget=budget) for r in range(1, max_r + 1)]


def _leading_terms_section(max_n: int = 4, max_r: int = 5) -> SectionReport:
    checks = []
    for n in range(2, max_n + 1):
        for r in range(1, max_r + 1):
            ok, rep = leading_terms_check(n, r)
            gap_ok = rep["difference_degree"] is None or rep["difference_degree"] <= rep["degree"] - 2
            checks.append(
                Check(
                    f"leading_terms n={n} r={r}",
                    ok and gap_ok,
                    f"top coefficients {rep['full_top']} vs {rep['cocyclic_top']}",
                )
            )
    return SectionReport("polynomial leading terms", checks=checks)


def _multiplicativity_section(limit: int = 120, max_n: int = 3) -> SectionReport:
    checks = []
    for n in range(1, max_n + 1):
        ok = True
        detail = ""
        for m1 in range(2, limit + 1):
            for m2 in range(2, limit // m1 + 1):
                if gcd(m1, m2) != 1:
                    continue
                if sublattice_count(n, m1 * m2) != sublattice_count(n, m1) * sublattice_count(n, m2):
                    ok, detail = False, f"count split fails at {m1} * {m2}"
                    break
                if class_count(n, m1 * m2) != class_count(n, m1) * class_count(n, m2):
                    ok, detail = False, f"class count split fails at {m1} * {m2}"
                    break
                for k1, s1 in class_census(n, m1).counts.items():
                    for k2, s2 in class_census(n, m2).counts.items():
                        merged = tuple(a * b for a, b in zip(k1, k2))
                        if class_size(merged) != s1 * s2:
                            ok, detail = False, f"class size split fails at {merged}"
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if not ok:
                break
        checks.append(Check(f"multiplicative up to {limit}, n={n}", ok, detail))
    return SectionReport("multiplicativity across coprime factors", checks=checks)


def verify_suite(*, jobs: int = 1, budget: int = DEFAULT_BUDGET) -> VerifyReport:
    """Fixed moderate-scale sweep over every formula family.

    Index sweeps at n = 2 and 3 including composite indices, small n = 4 powers
    of two, prime-power ladders that exercise the dimension-2 and dimension-3
    closed forms, the polynomial leading-term checks, and multiplicativity.
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
    sections: list[SectionReport] = []
    seen: set[tuple[int, int]] = set()
    for n, m in planned:
        if (n, m) in seen:
            continue
        seen.add((n, m))
        sections.append(verify_index(n, m, jobs=jobs, budget=budget))
    sections.append(_leading_terms_section())
    sections.append(_multiplicativity_section())
    return VerifyReport("suite", sections, elapsed=time.perf_counter() - t0)
