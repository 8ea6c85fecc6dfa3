"""Exhaustive ground truth: classify every Hermite-form matrix and diff the formulas.

The brute-force census enumerates all index-m Hermite forms and tallies them by
invariant factor chain; the co-cyclic count tallies them by whether the minors
of order n-1 have gcd 1.  Both share one batched int64 kernel.  Diagonals are
grouped by unit pattern, the set of positions where they equal 1: a unit
column holds nothing but its diagonal 1, so every diagonal of a pattern shares
one symbolic plan of the needed minors, with the diagonal entries as
variables.  The blocks of a pattern form one flat index space, cut into
segments of at most chunk matrices; a segment may run across several small
blocks, and every entry is decoded with its block's scalar strides.  Census
chains are tallied by the index of each gcd among the divisors of m.  A bound
on every minor, with entries bounded by m, decides per pattern whether int64
is exact; a pattern that fails it is scanned matrix by matrix with exact
Python integers, as is everything under the per-matrix methods.  Each worker
takes an equal contiguous range of every pattern, and tallies are plain sums,
so they are identical for any worker count.
"""

from __future__ import annotations

import os
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, chain, islice, product as iter_product
from math import gcd, prod

import numpy as np

from .arith import divisor_compositions, divisors, factorize, is_prime
from .census import (
    CensusTable,
    class_census,
    class_count,
    class_size,
    cocyclic_count,
    sublattice_count,
    sublattice_count_recursion,
)
from .enumeration import DEFAULT_BUDGET, BudgetExceededError, block_rows, hnf_stream
from .forms import (
    HnfMatrix,
    hnf2_smith_exponent,
    hnf3_smith_exponents,
    invariant_factors,
    invariant_factors_via_minors,
    minor_gcd,
)
from .polyalg import leading_terms_check

_POOL_MIN = 50_000  # below this predicted count, worker pools are not worth forking
_CHUNK = 1 << 16
_INT64_SAFE = 1 << 62


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


@lru_cache(maxsize=None)
def _pattern_plans(n, units, orders):
    """Symbolic minors shared by every diagonal that equals 1 exactly where units is True.

    Variable v < n stands for the diagonal entry d_v and variable n + s for the
    entry of slot s of _slots(n).  A unit column holds nothing but its diagonal
    1, so its slots are zero and drop out of every minor.  Returns
    (per_order, weight, degree): per_order[i] = (principal, varying) splits the
    nonzero orders[i] x orders[i] minors into those free of slot entries and
    the rest, each minor a plan of (variables, coeff) monomials; every plan has
    at most weight in absolute coefficients and degree variables per monomial,
    so entries bounded by m bound every minor by weight * m**degree.
    """
    if not orders:
        return (), 1, 0
    slot_var = {pos: n + s for s, pos in enumerate(_slots(n))}
    low, high = min(orders), max(orders)
    minors: dict[tuple, dict] = {}

    def walk(i, rows, cols, used, odd):
        # one nonzero term of one minor per leaf: rows join in increasing
        # order, and a column placed left of columns already taken flips the
        # sign once per such column
        if len(rows) + n - i < low:
            return
        if i == n:
            if len(rows) in orders:
                monos = minors.setdefault((rows, tuple(sorted(cols))), {})
                key = tuple(sorted(used))
                monos[key] = monos.get(key, 0) + (-1 if odd else 1)
            return
        walk(i + 1, rows, cols, used, odd)
        if len(rows) == high:
            return
        for c in range(i, n):
            if c in cols or (c > i and units[c]):
                continue
            if c > i:
                var = (slot_var[(i, c)],)
            else:
                var = () if units[i] else (i,)
            flips = sum(1 for x in cols if x > c)
            walk(i + 1, rows + (i,), cols + (c,), used + var, odd ^ (flips & 1))

    walk(0, (), (), (), False)
    weight = degree = 0
    per_order = []
    for k in orders:
        # a minor and its negative give the same gcd, so each plan is kept
        # once, with a positive leading coefficient, in (rows, cols) order
        plans: dict[tuple, None] = {}
        for key in sorted(key for key in minors if len(key[0]) == k):
            plan = tuple(sorted((s, c) for s, c in minors[key].items() if c))
            if plan:
                sign = 1 if plan[0][1] > 0 else -1
                plans[tuple((s, sign * c) for s, c in plan)] = None
        principal, varying = [], []
        for plan in plans:
            weight = max(weight, sum(abs(c) for _, c in plan))
            degree = max(degree, max(len(s) for s, _ in plan))
            free = all(v < n for s, _ in plan for v in s)
            (principal if free else varying).append(plan)
        per_order.append((tuple(principal), tuple(varying)))
    return tuple(per_order), weight, degree


def _eval_plan(plan, coord):
    """One minor from its monomials; coord(v) is an int or an int64 array."""
    const = 0
    acc = None
    for s, c in plan:
        arr = None
        for v in s:
            x = coord(v)
            if isinstance(x, int):
                c *= x
            else:
                arr = x if arr is None else arr * x
        if arr is None:
            const += c
            continue
        term = arr if c == 1 else arr * c
        acc = term if acc is None else acc + term
    if acc is None:
        return const
    return acc + const if const else acc


def _fold(running, plans, coord):
    # determinants can be negative or zero; np.gcd folds them through their
    # absolute values, and the fold stops once every entry is exactly 1
    for plan in plans:
        running = np.gcd(running, _eval_plan(plan, coord))
        if np.all(running == 1):
            break
    return running


def _block_starts(diags):
    """Offsets of each block in the flat index space of its pattern, then the total."""
    starts = [0]
    for diag in diags:
        starts.append(starts[-1] + prod(d**j for j, d in enumerate(diag)))
    return starts


def _strides(n, diag):
    # the last slot moves fastest, as in hnf_stream
    sizes = [diag[j] for _, j in _slots(n)]
    strides = [1] * len(sizes)
    for s in range(len(sizes) - 2, -1, -1):
        strides[s] = strides[s + 1] * sizes[s + 1]
    return strides


def _principal_gcds(per_order, diag):
    """Per order, the gcd of the minors free of varying entries: ints fixed by the diagonal."""
    return tuple(
        gcd(*(_eval_plan(plan, diag.__getitem__) for plan in principal))
        for principal, _ in per_order
    )


def _pattern_gcds(n, diags, per_order, lo, hi, chunk):
    """Minor gcds over positions lo..hi-1 of one pattern's flat index space.

    Yields (count, gvals) per segment of at most chunk positions: gvals[i] is
    the gcd of the orders[i] x orders[i] minors, an int where it is constant
    over the segment (each int then stands for all count matrices) and an
    int64 array of length count elsewhere.  A segment never spans blocks with
    different principal gcds, so those are Python ints in every segment.
    """
    slots = _slots(n)
    starts = _block_starts(diags)
    strides = [_strides(n, diag) for diag in diags]
    scalars = [_principal_gcds(per_order, diag) for diag in diags]
    runs = [starts[c] for c in range(1, len(diags)) if scalars[c] != scalars[c - 1]]
    runs.append(starts[-1])
    pos, b = lo, 0
    while pos < hi:
        end = min(pos + chunk, hi, runs[bisect_right(runs, pos)])
        while starts[b + 1] <= pos:
            b += 1
        pieces = []
        for c in range(b, bisect_left(starts, end)):
            lo_c, hi_c = max(pos, starts[c]), min(end, starts[c + 1])
            pieces.append((diags[c], strides[c], lo_c - starts[c], hi_c - starts[c]))
        yield end - pos, _segment_gcds(n, slots, per_order, scalars[b], pieces)
        pos = end


def _segment_gcds(n, slots, per_order, scalars, pieces):
    """gvals of one segment, made of pieces (diag, strides, lo, hi) of consecutive blocks.

    An order whose principal gcd is 1, or whose minors are all principal,
    costs nothing per matrix.  Entries are decoded piece by piece with scalar
    strides; a diagonal entry is an int unless the pieces disagree on it, and
    then each position gets its own block's value.
    """
    lens = [z - a for *_, a, z in pieces]
    offs = list(accumulate(lens, initial=0))
    coords: dict = {}

    def spread(values):
        # one value per piece, repeated over that piece's positions
        if all(x == values[0] for x in values):
            return values[0]
        return np.repeat(np.array(values, dtype=np.int64), lens)

    def coord(v):
        got = coords.get(v)
        if got is None:
            if v < n:
                got = spread([diag[v] for diag, *_ in pieces])
            else:
                s = v - n
                got = np.empty(offs[-1], dtype=np.int64)
                for (diag, strides, a, z), o in zip(pieces, offs):
                    out = got[o : o + z - a]
                    np.floor_divide(np.arange(a, z, dtype=np.int64), strides[s], out=out)
                    np.remainder(out, diag[slots[s][1]], out=out)
            coords[v] = got
        return got

    return [
        _fold(scalar, varying, coord) if varying and scalar != 1 else scalar
        for scalar, (_, varying) in zip(scalars, per_order)
    ]


def _tally_chains(n, m, parts):
    """Tally invariant factor chains from the minor gcds of orders 1..n-1.

    Every gcd g_k divides m, so a chain is keyed by the indices of g_1..g_{n-1}
    among the divisors of m and counted with np.bincount.
    """
    divs = divisors(m)
    where = {d: i for i, d in enumerate(divs)}
    sorted_divs = np.array(divs, dtype=np.int64)
    base = len(divs)
    hist = np.zeros(base ** (n - 1), dtype=np.int64)
    for count, gvals in parts:
        key = 0
        for g in gvals:
            pos = np.searchsorted(sorted_divs, g) if isinstance(g, np.ndarray) else where[g]
            key = key * base + pos
        if isinstance(key, np.ndarray):
            got = np.bincount(key)
            hist[: len(got)] += got
        else:
            hist[key] += count
    counts: dict[tuple[int, ...], int] = {}
    for key in np.flatnonzero(hist).tolist():
        factors = []
        prev = 1
        for k in range(n - 2, -1, -1):
            g = divs[key // base**k % base]
            factors.append(g // prev)
            prev = g
        factors.append(m // prev)
        counts[tuple(factors)] = int(hist[key])
    return counts


def _tally_cocyclic(n, m, parts):
    """Count the matrices whose minors of order n-1 have gcd 1."""
    hits = 0
    for count, (g,) in parts:
        if isinstance(g, np.ndarray):
            hits += int(np.count_nonzero(g == 1))
        elif g == 1:
            hits += count
    return {True: hits}


def _is_cocyclic(rows) -> bool:
    return minor_gcd(rows, len(rows) - 1) == 1


def _scan_tally(n, diag, classify, lo, hi):
    """Classify positions lo..hi-1 of one block matrix by matrix, in hnf_stream order."""
    counts: dict = {}
    for rows in islice(block_rows(diag), lo, hi):
        key = classify(rows)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _merge(counts, part):
    for key, v in part.items():
        counts[key] = counts.get(key, 0) + v


def _worker(args):
    """Tally one share: a range of each pattern, on the int64 kernel or matrix by matrix."""
    n, m, share, chunk, orders, tally, classify = args
    counts: dict = {}
    parts = []
    for units, diags, lo, hi, vector in share:
        if vector:
            per_order = _pattern_plans(n, units, orders)[0]
            parts.append(_pattern_gcds(n, diags, per_order, lo, hi, chunk))
            continue
        starts = _block_starts(diags)
        for b, diag in enumerate(diags):
            a, z = max(lo, starts[b]), min(hi, starts[b + 1])
            if a < z:
                _merge(counts, _scan_tally(n, diag, classify, a - starts[b], z - starts[b]))
    if parts:
        _merge(counts, tally(n, m, chain.from_iterable(parts)))
    return counts


def _bruteforce(n, m, scope, jobs, budget, method, chunk, orders, tally, classify):
    """Shared entry: validate, refuse over budget, split each pattern evenly and merge.

    Diagonals are grouped by unit pattern, the positions where they equal 1.
    A pattern runs on the int64 kernel when its minors are bounded inside
    int64 with entries bounded by m, and is scanned otherwise; every other
    method scans everything.  Each worker takes one contiguous, equal range
    of every pattern's index space.
    """
    _check_scope(n, m)
    if method not in ("auto", "reduction", "minors"):
        raise ValueError(f"unknown method {method!r}")
    if jobs < 1:
        raise ValueError(f"need jobs >= 1, got {jobs}")
    predicted = _check_budget(n, m, budget, f"{scope} n={n} m={m}")
    patterns: dict[tuple[bool, ...], list[tuple[int, ...]]] = {}
    for diag in divisor_compositions(m, n):
        patterns.setdefault(tuple(d == 1 for d in diag), []).append(diag)
    workers = 1 if predicted < _POOL_MIN else min(int(jobs), os.cpu_count() or 1)
    shares: list[list] = [[] for _ in range(workers)]
    for units, diags in patterns.items():
        vector = False
        if method == "auto":
            per_order, weight, degree = _pattern_plans(n, units, orders)
            vector = weight * m**degree < _INT64_SAFE
            # blocks with equal principal gcds become neighbours, so they share segments
            diags.sort(key=lambda diag: _principal_gcds(per_order, diag))
        total = _block_starts(diags)[-1]
        cuts = [total * w // workers for w in range(workers + 1)]
        for share, lo, hi in zip(shares, cuts, cuts[1:]):
            if lo < hi:
                share.append((units, diags, lo, hi, vector))
    work = [(n, m, share, chunk, orders, tally, classify) for share in shares]
    if workers == 1:
        return _worker(work[0])
    # imported only here: one worker never needs the pool module
    from concurrent.futures import ProcessPoolExecutor

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
    orders = tuple(range(1, n))
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
