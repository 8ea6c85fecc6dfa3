"""Exhaustive ground truth: sort every Hermite-form matrix into its class, diff the formulas.

The brute-force census enumerates all index-m Hermite forms and tallies them by
invariant factor chain; the co-cyclic count tallies them by whether the minors
of order n-1 have gcd 1.  Both run on one batched int64 kernel.  A diagonal
entry of 1 has column e_j, so column operations clear its row: a form's chain
is (1, ..., 1) followed by the chain of its essential submatrix, the e x e
matrix on the diagonal entries above 1.  One symbolic plan of the minors of
the generic e x e upper-triangular matrix serves every diagonal with e such
entries, from a bounded cache keyed by (e, orders).  The slots of unit rows
are read by no plan, so they are counted, not ranged: a box's count is
multiplied by the diagonal entry of each such slot's column.  The essential
forms of one diagonal, a block, are cut into boxes of at most _CHUNK
matrices: a box fixes the leading slots, ranges one slot and runs the
trailing slots in full.  Each slot that varies is an arange along its own
axis, so every minor broadcasts over only the slots it reads.  Census chains
are tallied by the index of each gcd among the divisors of m, on the
un-broadcast gcd arrays.  A bound on every minor, with entries bounded by m,
says whether int64 is exact; a scope where any essential plan's bound reaches
_INT64_SAFE is refused up front, like one over the matrix budget, so no
answer leaves the kernel.
Everything runs in one process: inside the default budget a worker pool
gained at most 1.2x and nearly doubled peak memory, so jobs is checked and
selects nothing.

verify_index also checks the 2x2/3x3 Smith shortcuts at every prime-power
index, on the same boxes with every slot ranged: NumPy valuations (repeated
% p, capped at the index's exponent) go through forms._smith_closed_form,
and the exponents must match the kernel's minor gcds.  No per-form loop and
no reduction (forms.invariant_factors) runs in verify.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import product as iter_product
from math import gcd, prod

import numpy as np

from .arith import _valuation, divisor_compositions, divisors, factorize, is_prime, partitions
from .census import (
    CensusTable,
    _check_nm,
    class_census,
    class_count,
    class_size,
    cocyclic_count,
    sublattice_count,
    sublattice_count_recursion,
)
from .enumeration import DEFAULT_BUDGET, BudgetExceededError, _odometer
from .forms import _smith_closed_form
from .polyalg import (
    class_size_poly,
    class_size_poly_glue,
    leading_terms_check,
    poly_add,
    poly_render,
    sublattice_count_poly,
)

_CHUNK = 1 << 16  # most matrices in one box of the int64 kernel
_INT64_SAFE = 1 << 62


def _check_budget(n: int, m: int, budget: int, scope: str) -> int:
    predicted = sublattice_count(n, m)
    if predicted > budget:
        raise BudgetExceededError(predicted, budget, scope)
    return predicted


def _slots(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


# a scope asks for at most two keys per e, and e <= log2(m)
@lru_cache(maxsize=64)
def _pattern_plans(e, orders):
    """Symbolic minors of the generic e x e upper-triangular matrix, per order in orders.

    Variable v < e stands for the diagonal entry d_v and variable e + s for the
    entry of slot s of _slots(e).  Returns (per_order, weight, degree):
    per_order[i] is a tuple of the nonzero orders[i] x orders[i] minors, each
    a plan of (variables, coeff) monomials, sorted by the number of slot
    entries they read, so the principal minors, which read none, come first.
    Every plan has at most weight in absolute coefficients and degree
    variables per monomial, so entries bounded by m bound every minor by
    weight * m**degree.
    """
    if not orders:
        return (), 1, 0
    slot_var = {pos: e + s for s, pos in enumerate(_slots(e))}
    low, high = min(orders), max(orders)
    minors: dict[tuple, dict] = {}

    def walk(i, rows, cols, used, odd):
        # one nonzero term of one minor per leaf: rows join in increasing
        # order, and a column placed left of columns already taken flips the
        # sign once per such column
        if len(rows) + e - i < low:
            return
        if i == e:
            if len(rows) in orders:
                monos = minors.setdefault((rows, tuple(sorted(cols))), {})
                key = tuple(sorted(used))
                monos[key] = monos.get(key, 0) + (-1 if odd else 1)
            return
        walk(i + 1, rows, cols, used, odd)
        if len(rows) == high:
            return
        for c in range(i, e):
            if c in cols:
                continue
            var = slot_var[(i, c)] if c > i else i
            flips = sum(1 for x in cols if x > c)
            walk(i + 1, rows + (i,), cols + (c,), used + (var,), odd ^ (flips & 1))

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
        for plan in plans:
            weight = max(weight, sum(abs(c) for _, c in plan))
            degree = max(degree, max(len(s) for s, _ in plan))
        # minors that read fewer slots broadcast over smaller arrays: fold them first
        per_order.append(
            tuple(sorted(plans, key=lambda plan: len({v for s, _ in plan for v in s if v >= e})))
        )
    return tuple(per_order), weight, degree


def _eval_plan(plan, values):
    """One minor from its monomials; values[v] is an int or an int64 array."""
    const = 0
    acc = None
    for s, c in plan:
        arr = None
        for v in s:
            x = values[v]
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


def _fold(plans, values):
    # determinants can be negative or zero; np.gcd folds them through their
    # absolute values, and the fold stops once every entry is exactly 1; a
    # plan that reads only fixed slots is an int and folds with math.gcd
    running = 0
    for plan in plans:
        value = _eval_plan(plan, values)
        both = isinstance(running, int) and isinstance(value, int)
        running = gcd(running, value) if both else np.gcd(running, value)
        if (running == 1) if both else (running == 1).all():
            return 1
    return running


def _boxes(sizes, chunk):
    """Cut a block into boxes of at most chunk matrices, in block order.

    sizes are the ranges of the block's slots, the last moving fastest as in
    hnf_stream.  A box (fixed, start, shape) fixes the leading slots to the
    digits in fixed, ranges the next slot over shape[0] values from start, and
    runs every later slot in full; its matrices are contiguous in block order.
    The ranged slot is the shallowest one whose trailing slots fit in chunk.
    """
    spans = [prod(sizes[t + 1 :]) for t in range(len(sizes))]
    t = next(t for t, span in enumerate(spans) if span <= chunk)
    step = chunk // spans[t]
    for fixed in _odometer((), tuple(sizes[:t])):
        for start in range(0, sizes[t], step):
            yield fixed, start, (min(step, sizes[t] - start), *sizes[t + 1 :])


def _box_values(diag, box):
    """The variables of one box: the diagonal diag, then each slot of _slots(len(diag)).

    A fixed slot is an int; a ranged or trailing slot is an arange along its
    own axis of the box, so an expression broadcasts over only the slots it
    reads.  A block without slots ranges a dummy one, which gets no variable.
    """
    fixed, start, shape = box
    values = [*diag, *fixed]
    e = len(diag)
    for axis in range(e * (e - 1) // 2 - len(fixed)):
        first = start if axis == 0 else 0
        values.append(
            np.arange(first, first + shape[axis], dtype=np.int64).reshape(
                (-1,) + (1,) * (len(shape) - 1 - axis)
            )
        )
    return values


def _box_gcds(diag, per_order, box):
    """gvals of one box: per order, the gcd of its minors, an int or an int64 array.

    diag is the block's essential diagonal, and the variables after it are the
    slots of _slots(len(diag)), all varying.  An array gval has length 1 on
    every axis that none of its minors reads.  The principal minors fold
    first, as ints, so an order where one of them is 1 builds no array.
    """
    values = _box_values(diag, box)
    return [_fold(plans, values) for plans in per_order]


def _block_gcds(diag, dropped, ones, per_order):
    """(count, gvals) per box of one block, boxes of at most _CHUNK essential matrices.

    Each box stands for dropped matrices per essential one, and its gvals open
    with ones orders whose gcd is 1.
    """
    # a block without essential slots holds one essential matrix: one box on a dummy slot
    sizes = [diag[j] for _, j in _slots(len(diag))] or [1]
    for box in _boxes(sizes, _CHUNK):
        yield dropped * prod(box[2]), [1] * ones + _box_gcds(diag, per_order, box)


def _tally_chains(n, m, parts):
    """Tally invariant factor chains from the minor gcds of orders 1..n-1.

    Every gcd g_k divides m, so a chain is keyed by the indices of g_1..g_{n-1}
    among the divisors of m and counted with np.bincount.  A key array stands
    for count matrices through its broadcast, which repeats each entry equally.
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
            got = np.bincount(key.ravel()) * (count // key.size)
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


def _tally_cocyclic(parts):
    """Count the matrices whose minors of order n-1 have gcd 1."""
    hits = 0
    for count, (g,) in parts:
        if isinstance(g, np.ndarray):
            hits += int(np.count_nonzero(g == 1)) * (count // g.size)
        elif g == 1:
            hits += count
    return hits


def _bruteforce(n, m, scope, jobs, budget, orders):
    """Shared entry: validate, refuse up front, then (count, gvals) per box.

    With u unit diagonal entries, the order-k gcd is 1 for k <= u and the
    essential order-(k - u) gcd above that.  Refuses with BudgetExceededError
    before any box runs: over budget matrices, or where the minor bound
    weight * m**degree of an essential plan reaches _INT64_SAFE.  The blocks
    follow in hnf_stream order of the diagonals, in this process.  jobs must
    be an integer of at least 1 and selects nothing.
    """
    _check_nm(n, m)
    if not isinstance(jobs, int) or jobs < 1:
        raise ValueError(f"need an integer jobs >= 1, got {jobs!r}")
    where = f"{scope} n={n} m={m}"
    _check_budget(n, m, budget, where)
    blocks = []
    for diag in divisor_compositions(m, n):
        ess = tuple(d for d in diag if d > 1)
        u = n - len(ess)
        per_order, weight, degree = _pattern_plans(len(ess), tuple(k - u for k in orders if k > u))
        bound = weight * m**degree
        if bound >= _INT64_SAFE:
            raise BudgetExceededError(bound, _INT64_SAFE, f"{where} on int64", unit="minor bound")
        # a slot above a non-unit entry d ranges over d values in every unit row
        dropped = prod(d ** diag[:j].count(1) for j, d in enumerate(diag) if d > 1)
        blocks.append((ess, dropped, sum(k <= u for k in orders), per_order))
    return (part for block in blocks for part in _block_gcds(*block))


def census_bruteforce(
    n: int, m: int, *, jobs: int = 1, budget: int = DEFAULT_BUDGET
) -> CensusTable:
    """Classify every index-m Hermite form of dimension n by its invariant factors.

    The minor gcds of the int64 kernel give the chain.  jobs is checked and
    selects nothing: the oracle runs in one process.  Raises
    BudgetExceededError, before any work, over budget matrices or where a
    minor could leave int64.
    """
    parts = _bruteforce(n, m, "census", jobs, budget, tuple(range(1, n)))
    return CensusTable(n, m, _tally_chains(n, m, parts))


def cocyclic_bruteforce(n: int, m: int, *, jobs: int = 1, budget: int = DEFAULT_BUDGET) -> int:
    """Count index-m Hermite forms whose minors of order n-1 have gcd 1.

    That gcd condition says the quotient group is cyclic, i.e. the invariant
    factor chain is (1, ..., 1, m).  Refused like census_bruteforce, over
    budget matrices or where a minor could leave int64.
    """
    return _tally_cocyclic(_bruteforce(n, m, "cocyclic", jobs, budget, (n - 1,)))


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
    scopes serialize byte-identically regardless of timing or jobs.
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


def _valuations(p, x, cap):
    """p-adic valuation of an int or of each entry of an int64 array, capped at cap.

    Repeated % p: after the first pass over every entry, each pass reads only
    the quotients that p divided in the last.
    """
    x = np.asarray(x, dtype=np.int64)
    v = np.zeros(x.size, dtype=np.int64)
    live = np.arange(x.size)
    rest = x.ravel()
    for _ in range(cap):
        hit = rest % p == 0
        live, rest = live[hit], rest[hit] // p
        if not live.size:
            break
        v[live] += 1
    return v.reshape(x.shape)


def _least(*values):
    return reduce(np.minimum, values)


def _shortcut_disagreement(n: int, m: int, fac) -> str:
    """The first index-m form whose Smith shortcut disagrees with its minor gcds, or ''.

    n is 2 or 3 and m = p**r has at most one prime, factored as fac.  Per
    diagonal, in hnf_stream order, the kernel's boxes range every slot.  The
    shortcut exponents come from _smith_closed_form on NumPy valuations; the
    reference is the gcd D_k of the k x k minors, from the kernel's plans, and
    neither route reads the other.  n = 3 needs p**s == D1 and p**t ==
    D2, n = 2 needs p**t == D1.  Entries and h12*h23 - d2*h13 stay below m in
    absolute value, so int64 is exact wherever the census ran.
    """
    p, r = fac[0] if fac else (2, 0)  # m = 1: every exponent is 0, whatever the prime
    slots = _slots(n)
    per_order = _pattern_plans(n, tuple(range(1, n)))[0]
    for diag in divisor_compositions(m, n):
        exps = tuple(_valuation(p, d) for d in diag)
        for box in _boxes([diag[j] for _, j in slots], _CHUNK):
            values = _box_values(diag, box)
            entries = values[n:]
            o = [_valuations(p, x, r) for x in entries]
            if n == 3:
                h12, h13, h23 = entries
                o.append(_valuations(p, h12 * h23 - diag[1] * h13, r))
            got = _smith_closed_form(_least, exps, o)
            bad = np.zeros(box[2], dtype=bool)
            for e, plans in zip(got if n == 3 else (got,), per_order):
                bad |= p**e != _fold(plans, values)
            if bad.any():
                # the first hit in box order is the first in hnf_stream order
                fixed, start, _ = box
                pos = np.unravel_index(int(np.argmax(bad)), bad.shape)
                at = dict(zip(slots, (*fixed, start + int(pos[0]), *map(int, pos[1:]))))
                rows = tuple(
                    tuple(diag[i] if i == j else at.get((i, j), 0) for j in range(n))
                    for i in range(n)
                )
                return f"disagreement at {rows}"
    return ""


def verify_index(n: int, m: int, *, jobs: int = 1, budget: int = DEFAULT_BUDGET) -> SectionReport:
    """Diff every formula against the brute force for one (n, m)."""
    _check_nm(n, m)
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
    if n in (2, 3) and len(fac) <= 1:
        detail = _shortcut_disagreement(n, m, fac)
        checks.append(Check("smith_shortcut_agreement", not detail, detail))
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


def _first_split_failure(n: int, limit: int) -> str:
    """Where the answers at the first coprime m1 * m2 <= limit fail to split, or ''."""
    for m1 in range(2, limit + 1):
        for m2 in range(2, limit // m1 + 1):
            if gcd(m1, m2) != 1:
                continue
            if sublattice_count(n, m1 * m2) != sublattice_count(n, m1) * sublattice_count(n, m2):
                return f"count split fails at {m1} * {m2}"
            if class_count(n, m1 * m2) != class_count(n, m1) * class_count(n, m2):
                return f"class count split fails at {m1} * {m2}"
            for k1, s1 in class_census(n, m1).counts.items():
                for k2, s2 in class_census(n, m2).counts.items():
                    merged = tuple(a * b for a, b in zip(k1, k2))
                    if class_size(merged) != s1 * s2:
                        return f"class size split fails at {merged}"
    return ""


def _multiplicativity_section(limit: int = 120, max_n: int = 3) -> SectionReport:
    checks = []
    for n in range(1, max_n + 1):
        detail = _first_split_failure(n, limit)
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
    the closed-form class sizes against the glue recursion.
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
    sections.append(_closed_vs_glue_section())
    return VerifyReport("suite", sections, elapsed=time.perf_counter() - t0)
