"""Exhaustive ground truth: sort every Hermite-form matrix into its class, diff the formulas.

The brute-force census enumerates all index-m Hermite forms and tallies them by
invariant factor chain; the co-cyclic count tallies them by whether the minors
of order n-1 have gcd 1.  Both run on one batched int64 kernel.  A diagonal
entry of 1 has column e_j, so column operations clear its row: a form's chain
is (1, ..., 1) followed by the chain of its essential submatrix, the e x e
matrix on the diagonal entries above 1.  Laplace plans of the minors of the
generic e x e upper-triangular matrix, each along its last row from minors
of the order below, serve every diagonal with e such entries, from a bounded
cache; a call resolves the plans and their int64 bound once per essential
length e, and a box computes each minor once, in one memo shared by every
order it folds.  The slots of unit rows are read by no plan, so they are
counted, not ranged: the kernel walks the essential diagonals, each with its
forms per essential matrix summed over the diagonals that hold it.  An
essential diagonal of modulus 1 (below) has gcd 1 at every order asked, so
the walk counts its forms as ones of the chain (1, ..., 1, m) and builds no
box for it: every diagonal with e <= 1, and every one at a squarefree index.

The kernel ranges residues, not entries.  The gcd D_k of the k x k minors
divides g_k, the gcd of the principal k x k minors, which are products of
diagonal entries, and g_k divides g, that gcd at the highest order asked.  So
D_k is fixed by the entries modulo g (the modulo-determinant idea of Domich,
Kannan and Trotter, 1987): a slot over d entries ranges min(d, g) residues,
and residue r stands for the ceil((d - r) / g) entries congruent to it.
Both brute forces ask up to order n - 1, so an essential diagonal ess of
length e is asked up to order e - 1, and g = m / lcm(ess): at a prime p, the
gcd of the products of e - 1 entries has valuation min_i (v_p(m) - v_p(d_i))
= v_p(m) - max_i v_p(d_i).  The co-cyclic count asks only whether a gcd is
1, so it runs modulo gcd(g, rad m), the product of the primes dividing g.
One fold rule follows: D_k divides g, so D_k = gcd(g, k x k minors), and
every order folds from the modulus; the top order's plans leave out its
principal minors, whose gcd is g.  Essential diagonals of one length and a
modulus above 1 whose reduced slot ranges agree share a block, cut into
boxes of at most _CHUNK residue tuples over (members, *slots): a box fixes
the leading axes, ranges one axis and runs the trailing axes in full.
Every box, one of a single member too, has a leading member axis that holds
its diagonal entries, moduli and counts as (B, 1, ...) arrays, and each slot
that varies is an arange along its own axis, so every minor broadcasts over
only what it reads.  At (4, 104) the 20 essential diagonals of the 80 run in
8 boxes for the census and 3 for the co-cyclic count.
A form of essential length e has gcd 1 at every order up to n - e, and
e <= min(n, Omega(m)), so census chains are keyed by the index of each
essential gcd among the divisors of m, in d(m)**(min(n, Omega(m)) - 1)
entries, not d(m)**(n - 1).  The tally runs on the un-broadcast gcd arrays:
with np.bincount where every residue tuple of a box stands for as many
forms, else with np.add.at and exact int64 weights, the product of one
count per axis that a gcd reads, with the axes none reads summed in as ints.
A bound on every minor and every partial sum of its evaluation, with
entries bounded by m, says whether int64 is exact; a scope where any
essential plan's bound reaches _INT64_SAFE, or with 2**63 forms or more,
which the int64 tally cannot hold, is refused up front, like one over the
matrix budget, so no answer leaves the kernel.  Everything
runs in one process: inside the default budget a worker pool gained at most
1.2x and nearly doubled peak memory, so jobs is checked and selects nothing.

verify_index also checks the 2x2/3x3 Smith shortcuts at every index, on
boxes built the same way: each slot of a diagonal ranges its residues modulo
g = m / lcm(diag), the census's modulus for the same orders, and diagonals
whose slot ranges agree share a block.  Per prime p of m, valuations of the
box's arrays, from an int8 table and capped at each member's v_p(g), go
through forms._smith_closed_form once per box, and the products of the
p-parts must match the minor gcds of the n x n plans, folded from g by the
same rule, through one memo per box.
No per-form loop and no reduction (forms.invariant_factors) runs in verify.
A verify run returns plain records (VerifyReport, SectionReport, ClassRow,
Check); the CLI renders them as JSON, plain lines or csv.
"""

from __future__ import annotations

import time
from bisect import bisect
from functools import lru_cache, partial, reduce
from itertools import accumulate, combinations, product as iter_product
from math import comb, gcd, lcm, prod
from operator import index, mul
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .arith import (
    _check_nm,
    _check_prime,
    _valuation,
    divisor_compositions,
    divisors,
    factorize,
    partitions,
)
from .census import (
    CensusTable,
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

_CHUNK = 1 << 16  # most residue tuples in one box of the int64 kernel
_INT64_SAFE = 1 << 62
_INT64_TALLY = 1 << 63  # a scope with this many forms could overflow the tally


def _slots(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


# per (n, e) the census and the co-cyclic count ask one key each, and verify's
# Smith check one per n; e <= log2(m)
@lru_cache(maxsize=64)
def _pattern_plans(e, u, orders):
    """What the kernel runs at essential length e with u unit entries, for the minor orders orders.

    Returns (per_order, cols, weight, degree).  The orders up to u have gcd
    1 and are left out: per_order holds, per essential order k - u of an
    order k above u, the nonzero minors of that order of the generic e x e
    upper-triangular matrix, in which variable v < e stands for d_v and
    variable e + s for the entry of slot s of _slots(e), whose column is
    cols[s].  A minor is a Laplace plan (key, terms) along its last row: key
    is its (rows, cols), and a term (variable, negate, below) multiplies one
    entry of that row by the plan of the minor below, None at order 1.  A
    plan stands for its minor or the negative, and its first term adds.  An
    order's plans are sorted by the number of slot entries they read, so its
    principal minors, which read none, come first.  The top order leaves out
    its comb(e, k) principal minors: their gcd is the modulus every fold
    starts at.  Every minor, the principal ones included, has at most weight
    terms, summed up the plans below, and order at most degree, so entries
    bounded by m bound it, and every partial sum of its evaluation, by
    weight * m**degree.
    """
    essential = tuple(k - u for k in orders if k > u)
    cols = tuple(j for _, j in _slots(e))
    if not essential:
        return (), cols, 1, 0
    slot_var = {pos: e + s for s, pos in enumerate(_slots(e))}
    built: dict[tuple, tuple | None] = {((), ()): (None, 1, set())}  # the empty minor is 1

    def build(key):
        # (plan, terms counted down the plans below, slot variables read), or
        # None where the minor is zero on every such matrix.  Row r meets the
        # columns from the first at or past r on, and those exceed every row
        # above, so the minors below differ only in which of them they leave
        # out and stand for their minors with one sign: the terms alternate
        if key not in built:
            (*above, r), picked = key
            terms, count, reads = [], 0, set()
            for j, c in enumerate(picked):
                below = build((tuple(above), picked[:j] + picked[j + 1 :])) if c >= r else None
                if below:
                    plan, terms_below, read = below
                    var = slot_var[(r, c)] if c > r else r
                    terms.append((var, len(terms) % 2 == 1, plan))
                    count += terms_below
                    reads |= read if c == r else read | {var}
            built[key] = ((key, tuple(terms)), count, reads) if terms else None
        return built[key]

    weight, per_order = 0, []
    for k in essential:
        listed = list(filter(None, map(build, iter_product(combinations(range(e), k), repeat=2))))
        weight = max(weight, *(count for _, count, _ in listed))
        # minors that read fewer slots broadcast over smaller arrays: fold them first
        listed.sort(key=lambda minor: len(minor[2]))
        per_order.append(tuple(plan for plan, _, _ in listed))
    per_order[-1] = per_order[-1][comb(e, max(essential)) :]
    return tuple(per_order), cols, weight, max(essential)


def _minor(key, terms, values, memo):
    """One minor from its Laplace plan; values[v] is an int64 array, or an int for a fixed slot.

    memo holds the box's minors by key, so each is computed once, whichever
    order asks it.  The first term adds and every later one is added or
    subtracted, so an array costs no multiplication by its sign.
    """
    total = memo.get(key)
    if total is None:
        for var, negate, below in terms:
            term = values[var] if below is None else values[var] * _minor(*below, values, memo)
            total = term if total is None else total - term if negate else total + term
        memo[key] = total
    return total


def _fold(plans, values, running, memo):
    # gcd(running, every minor of plans), running being the modulus column:
    # every gcd asked divides it, and the top order's plans leave out the
    # principal minors whose gcd it is.  np.gcd folds determinants, negative
    # or zero too, through their absolute values, and the fold stops once
    # every entry is exactly 1, so a minor no fold reaches is not computed.
    # The first entry is read before the whole array: in a box that holds
    # the diagonal matrix itself, it stays the modulus at the top order
    for plan in plans:
        running = np.gcd(running, _minor(*plan, values, memo))
        if running.flat[0] == 1 and (running == 1).all():
            return 1
    return running


def _boxes(sizes, chunk):
    """Cut a block into boxes of at most chunk positions, in block order.

    sizes are the ranges of the block's axes, the last moving fastest as in
    hnf_stream.  A box (fixed, start, shape) fixes the leading axes to the
    digits in fixed, ranges the next axis over shape[0] values from start, and
    runs every later axis in full; its positions are contiguous in block order.
    The ranged axis is the shallowest one whose trailing axes fit in chunk.
    """
    spans = [prod(sizes[t + 1 :]) for t in range(len(sizes))]
    t = next(t for t, span in enumerate(spans) if span <= chunk)
    step = chunk // spans[t]
    for fixed in _odometer((), tuple(sizes[:t])):
        for start in range(0, sizes[t], step):
            yield fixed, start, (min(step, sizes[t] - start), *sizes[t + 1 :])


def _member_box(members, cut):
    """(picked, box, columns, slots): one box of a block, along a leading member axis.

    cut is one (fixed, start, size) of _boxes over (members, *slots).  picked
    are the rows it covers, the one member it fixes or a run of them, and box
    is its (fixed, start, shape) over their slots.  columns holds each field
    of the rows as a (B, 1, ...) int64 column, B = len(picked), 1 included.
    slots holds each slot of _slots(e): an int where fixed, else a range of
    step 1 along its own axis behind the member axis.
    """
    fixed, start, shape = cut
    if fixed:
        picked, fixed = members[fixed[0] : fixed[0] + 1], fixed[1:]
    else:
        picked, start, shape = members[start : start + shape[0]], 0, shape[1:]
    columns = np.array(picked, dtype=np.int64).T.reshape((-1, len(picked)) + (1,) * len(shape))
    slots = [*fixed]
    for axis, length in enumerate(shape, 1):
        first = start if axis == 1 else 0
        axes = (1,) * axis + (-1,) + (1,) * (len(shape) - axis)
        slots.append(np.arange(first, first + length, dtype=np.int64).reshape(axes))
    return picked, (fixed, start, shape), list(columns), slots


def _box_weights(values, dropped, modulus, box, cols, cut, shapes):
    """weights: the forms that each entry of one box's gcd arrays stands for.

    values are the diagonal columns and slots of _member_box, and dropped and
    modulus its member columns.  shapes are those of the gcd arrays, which
    read the axes where their broadcast is longer than 1.  A residue r of a
    slot over d entries stands for ceil((d - r) / modulus) of them, -((r -
    d) // modulus); only the slots that cut flags, those some member's
    modulus shrinks, stand for more than one.  A cut slot multiplies in that
    count: where read, as an int64 factor along its axis, its sign kept as
    an int; where fixed or unread, into the member-shaped product that
    dropped opens, summed along its axis if unread.  An unread uncut slot
    multiplies in its length.  The member product is a factor where the
    member axis is read, else an int.  No array is broadcast to the box.  A
    box of several members holds residue 0 of every slot, where the top gcd
    is the modulus, so its top fold runs every plan, which read every slot,
    and the modulus reads the member axis: only a one-member box leaves an
    axis unread.  weights is an int where every entry of the gcd arrays
    stands for as many forms, which is the whole box where every fold ended
    at 1 and no gcd is an array, else an int64 array that broadcasts to
    their shape.
    """
    fixed, _, shape = box
    reads = [max(k) for k in zip(*shapes)] if shapes else [1] * (1 + len(shape))
    e = len(values) - len(cols)
    member, factors, spread = dropped, [], 1
    for s, (j, shrunk) in enumerate(zip(cols, cut)):
        r, d = values[e + s], values[j]
        a = 1 + s - len(fixed)
        if s < len(fixed):
            member = member * -((r - d) // modulus)
        elif reads[a] > 1:
            if shrunk:
                factors.append((r - d) // modulus)
                spread = -spread
        elif not shrunk:
            spread *= shape[a - 1]
        else:
            member = member * -((r - d) // modulus).sum(axis=a, keepdims=True)
    if reads[0] > 1:
        factors.insert(0, member)
    else:
        spread *= int(member.sum())
    if not factors:
        return spread
    return reduce(mul, factors[1:], factors[0] * spread if spread != 1 else factors[0])


def _block_gcds(members, shape, per_order, cols):
    """(weights, gvals) per box of one block, boxes of at most _CHUNK residue tuples.

    members are the rows (*diag, dropped, modulus) of the block's essential
    diagonals, of one length and a modulus above 1: each slot over d entries
    ranges min(d, modulus) residues, and shape, those ranges, is the same
    for every member.  The boxes cut (members, *shape), and _member_box
    gives each its member columns and slots.  gvals hold the minors' gcd per
    plan list of per_order, the essential orders, each folded from the
    modulus: 1, or an int64 array of the box's rank, with length 1 on every
    axis that none of its minors reads.  cols holds the column of each slot.
    weights are _box_weights'.
    """
    cut = [any(row[j] > row[-1] for row in members) for j in cols]
    for where in _boxes([len(members), *shape], _CHUNK):
        _, box, (*diag, dropped, modulus), slots = _member_box(members, where)
        values, memo = diag + slots, {}
        gvals = [_fold(plans, values, modulus, memo) for plans in per_order]
        shapes = [g.shape for g in gvals if isinstance(g, np.ndarray)]
        yield _box_weights(values, dropped, modulus, box, cols, cut, shapes), gvals


def _tally_chains(n, m, units, parts):
    """Tally invariant factor chains: units forms of (1, ..., 1, m), then the boxes of parts.

    A form of essential length e has g_k = 1 for k <= n - e, and e <= E =
    min(n, Omega(m)), so only g_{n-E+1}..g_{n-1} can differ from 1.  Each
    divides m, so a chain is keyed by their indices among the divisors of m,
    the last order the lowest digit: a box's essential gcds, of orders 1 to
    e - 1, are its key's digits, and the digits above them are 0, gcd 1.  A
    box with int weights is counted with np.bincount, each entry of its key
    array standing for weights forms.  A weighted box adds its int64
    weights, broadcast to the key's shape where they are shorter, with
    np.add.at, exactly: a float-weighted bincount rounds past 2**53.
    """
    divs = divisors(m)
    sorted_divs = np.array(divs, dtype=np.int64)
    base = len(divs)
    digits = max(min(n, sum(r for _, r in factorize(m))) - 1, 0)
    hist = np.zeros(base**digits, dtype=np.int64)
    hist[0] = units
    for weights, gvals in parts:
        key = 0
        for g in gvals:
            key = key * base + np.searchsorted(sorted_divs, g)
        if not isinstance(weights, np.ndarray):
            got = np.bincount(np.ravel(key)) * weights
            hist[: len(got)] += got
        else:
            if weights.shape != key.shape:
                weights = np.broadcast_to(weights, key.shape)
            np.add.at(hist, key.ravel(), weights.ravel())
    counts: dict[tuple[int, ...], int] = {}
    for key in np.flatnonzero(hist).tolist():
        factors = [1] * (n - 1 - digits)
        prev = 1
        for k in range(digits - 1, -1, -1):
            g = divs[key // base**k % base]
            factors.append(g // prev)
            prev = g
        factors.append(m // prev)
        counts[tuple(factors)] = int(hist[key])
    return counts


def _tally_cocyclic(units, parts):
    """Count the forms whose minors of order n-1 have gcd 1: units, then those of parts."""
    hits = units
    for weights, (g,) in parts:
        if isinstance(weights, np.ndarray):
            hits += int((weights * (g == 1)).sum())
        else:
            hits += int(np.count_nonzero(g == 1)) * weights
    return hits


def _unit_forms(ess, u):
    """The forms an essential diagonal ess stands for per essential matrix, with u unit entries.

    Its diagonals place the u unit entries around it, and an entry d with k
    unit entries before it has a slot in each of those k unit rows, read by
    no plan, over d values.  This sums the product of d**k over the
    placements: with the gaps between entries as the summation variables,
    it is the complete homogeneous sum of degree u in 1 and the suffix
    products of ess.
    """
    h = [1] * (u + 1)  # the sums in 1 alone
    for x in accumulate(reversed(ess), mul):
        for k in range(1, u + 1):
            h[k] += x * h[k - 1]
    return h[u]


def _essential_diagonals(m, n, fac):
    """(ess, dropped) per essential diagonal of the index-m forms of dimension n; fac factors m.

    ess runs over the ordered factorizations of m into at most n entries
    above 1, grown breadth first: a partial factorization grows by each
    divisor above 1 of what is left of m, increasing, drawn from m's
    divisors, listed once per call, and is yielded once nothing is left.
    The last two entries are a divisor d of what is left and its cofactor,
    dropped if it is 1, so the longest tuples are built once.  dropped is
    _unit_forms(ess, n - len(ess)).
    """
    if n == 1:
        yield ((m,) if m > 1 else ()), 1
        return
    divs = [1]
    for p, r in fac:
        divs = [d * p**k for d in divs for k in range(r + 1)]
    divs = sorted(divs)[1:]
    partial = [((), m)]
    for _ in range(n - 2):
        grown = []
        for ess, rest in partial:
            if rest == 1:
                yield ess, _unit_forms(ess, n - len(ess))
            else:
                below = divs[: bisect(divs, rest)]
                grown += [((*ess, d), rest // d) for d in below if not rest % d]
        partial = grown
    for ess, rest in partial:
        if rest == 1:
            yield ess, _unit_forms(ess, 2)
    for ess, rest in partial:
        for d in divs[: bisect(divs, rest)]:
            if not rest % d:
                q = rest // d
                yield ((*ess, d, q), 1) if q > 1 else ((*ess, d), _unit_forms((*ess, d), 1))


def _refuse(n, m, scope, jobs, budget, orders):
    """Validate a brute-force call and refuse it before any work: (n, m, fac, plans per length e).

    Raises BudgetExceededError over budget matrices, at 2**63 forms or more,
    which the int64 tally cannot hold, or where the bound weight * m**degree
    on every minor of an essential length e and every partial sum of its
    Laplace evaluation reaches _INT64_SAFE; the plans come cached per key
    (e, n - e, orders).  The essential lengths that reach a box are 2 to
    min(n, Omega(m)), with Omega(m) the number of prime factors of m counted
    with multiplicity: a diagonal with e <= 1 has modulus 1 and is counted
    by the walk.  So no essential diagonal is enumerated, and no plan is
    resolved at m = 1 or a prime m.  n and m come back as the plain ints of _check_nm, and fac
    is factorize(m); jobs and budget go through operator.index.
    """
    n, m = _check_nm(n, m)
    if not hasattr(jobs, "__index__") or index(jobs) < 1:
        raise ValueError(f"need an integer jobs >= 1, got {jobs!r}")
    budget = index(budget)
    where = f"{scope} n={n} m={m}"
    predicted = sublattice_count(n, m)
    if predicted > budget:
        raise BudgetExceededError(predicted, budget, where)
    if predicted >= _INT64_TALLY:
        raise BudgetExceededError(
            predicted, _INT64_TALLY - 1, f"{where} on int64", unit="forms in the int64 tally"
        )
    fac = factorize(m)
    omega = sum(r for _, r in fac)
    resolved = {}
    for e in range(2, min(n, omega) + 1):
        resolved[e] = _pattern_plans(e, n - e, orders)
        weight, degree = resolved[e][-2:]
        bound = weight * m**degree
        if bound >= _INT64_SAFE:
            raise BudgetExceededError(bound, _INT64_SAFE, f"{where} on int64", unit="minor bound")
    return n, m, fac, resolved


def _bruteforce(n, m, scope, jobs, budget, orders, radical=False):
    """Refuse up front (_refuse), then return (n, m, units, parts): (weights, gvals) per box.

    With u unit diagonal entries, the order-k gcd is 1 for k <= u and the
    essential order-(k - u) gcd above that.  orders run up to n - 1, so the
    highest essential order asked of an essential diagonal ess of length e
    is e - 1, and its slots run modulo g = m / lcm(ess), the gcd of the
    products of e - 1 of its entries: at each prime p of m, that gcd has
    valuation min over i of v_p(m) - v_p(d_i), which is v_p(m) - max over i
    of v_p(d_i).  Where radical (only gcd 1 is asked) they run modulo
    gcd(g, rad m), the product of the primes dividing g.  An essential
    diagonal of modulus 1 has gcd 1 at every order asked, and the walk adds
    its forms, dropped * prod_j d_j**j, to units: that is every diagonal
    with e <= 1 and every one at a squarefree index, and for the co-cyclic
    count they are all co-cyclic.  The refusals and the walk come at the
    call and the boxes only as the result is consumed, so
    BudgetExceededError comes before any box runs.  The other essential
    diagonals whose slots reduce to the same ranges share a block, in the
    order of their first member: the ranges of ess[1:] fix those of every
    slot, and their number, e - 1, fixes e.  jobs must be an integer of at
    least 1 and selects nothing.
    """
    n, m, fac, resolved = _refuse(n, m, scope, jobs, budget, orders)
    rad = prod(p for p, _ in fac) if radical else 0  # gcd(g, 0) is g
    units, blocks = 0, {}
    for ess, dropped in _essential_diagonals(m, n, fac):
        modulus = gcd(m // lcm(*ess), rad)
        if modulus == 1:
            units += dropped * prod([d**j for j, d in enumerate(ess)])
            continue
        reduced = tuple([d if d < modulus else modulus for d in ess[1:]])
        blocks.setdefault(reduced, []).append((*ess, dropped, modulus))

    def parts():
        for reduced, members in blocks.items():
            per_order, cols = resolved[len(members[0]) - 2][:2]
            shape = tuple([reduced[j - 1] for j in cols])
            yield from _block_gcds(members, shape, per_order, cols)

    return n, m, units, parts()


def census_bruteforce(
    n: int, m: int, *, jobs: int = 1, budget: int = DEFAULT_BUDGET
) -> CensusTable:
    """Classify every index-m Hermite form of dimension n by its invariant factors.

    The minor gcds of the int64 kernel give the chain.  jobs is checked and
    selects nothing: the oracle runs in one process.  Raises
    BudgetExceededError, before any work, over budget matrices, at 2**63
    forms or more, or where a minor could leave int64.
    """
    n, m, units, parts = _bruteforce(n, m, "census", jobs, budget, tuple(range(1, n)))
    return CensusTable(n, m, _tally_chains(n, m, units, parts))


def cocyclic_bruteforce(n: int, m: int, *, jobs: int = 1, budget: int = DEFAULT_BUDGET) -> int:
    """Count index-m Hermite forms whose minors of order n-1 have gcd 1.

    That gcd condition says the quotient group is cyclic, i.e. the invariant
    factor chain is (1, ..., 1, m), so the slots run modulo a radical.
    Refused like census_bruteforce.
    """
    *_, units, parts = _bruteforce(n, m, "cocyclic", jobs, budget, (n - 1,), radical=True)
    return _tally_cocyclic(units, parts)


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


@lru_cache(maxsize=64)
def _valuation_table(p, cap):
    """int8 table of min(v_p(x), cap), indexed by x mod p**cap: each multiple of p**k adds 1."""
    table = np.zeros(p**cap, dtype=np.int8)
    for k in range(1, cap + 1):
        table[:: p**k] += 1
    return table


def _least(*values):
    return reduce(np.minimum, values)


def _shortcut_disagreement(n: int, m: int, fac) -> str:
    """The first index-m form whose Smith shortcut disagrees with its minor gcds, or ''.

    n is 2 or 3 and fac factors m.  Each diagonal diag ranges its slots over
    their residues modulo g = m / lcm(diag), the gcd of the principal minors
    of order n - 1, as in the census; diagonals whose slot ranges agree
    share a block, in hnf_stream order, as member rows: diag, its stream
    position, g, then a = v_p(g) and the exponents of diag per prime p of m.
    Per prime and box, _smith_closed_form takes valuations from
    _valuation_table, capped at the box's largest a and then at each
    member's, and D1 (and D2 at n = 3) must be the product of the p**t (the
    p**s and p**t).  The reference D_k, the gcd of the k x k minors, comes
    from the n x n plans of _pattern_plans, folded from the column g as in
    the census; neither route reads the other.
    Residues suffice, at each prime: D_k is fixed by the entries modulo g, s
    and t are at most a, and min(v_p(x), a) stays put when x, or h12*h23 -
    d2*h13, moves by a multiple of g.  So the first disagreeing form,
    reduced modulo g, gives a residue tuple that disagrees too and comes no
    later: the least (stream position, form) over the blocks.  Entries and
    h12*h23 - d2*h13 stay below m in absolute value, so int64 is exact
    wherever the census ran.
    """
    slots = _slots(n)
    per_order = _pattern_plans(n, 0, tuple(range(1, n)))[0]
    blocks: dict[tuple, list] = {}
    for position, diag in enumerate(divisor_compositions(m, n)):
        g = m // lcm(*diag)
        row = [*diag, position, g, *[_valuation(p, x) for p, _ in fac for x in (g, *diag)]]
        blocks.setdefault(tuple([min(diag[j], g) for _, j in slots]), []).append(row)
    first = None
    for shape, members in blocks.items():
        if first and members[0][n] > first[0]:
            break  # blocks come in the order of their first members
        for where in _boxes([len(members), *shape], _CHUNK):
            picked, box, columns, entries = _member_box(members, where)
            values = columns[:n] + entries
            if n == 3:
                h12, h13, h23 = entries
                entries.append(h12 * h23 - columns[1] * h13)
            shortcut = [1] * (n - 1)
            for (p, _), k in zip(fac, range(n + 2, len(members[0]), n + 1)):
                table = _valuation_table(p, max(row[k] for row in picked))
                a, *exps = columns[k : k + n + 1]
                o = [np.minimum(table[x % table.size], a) for x in entries]
                got = _smith_closed_form(_least, exps, o)
                for i, e in enumerate(got if n == 3 else (got,)):
                    shortcut[i] = shortcut[i] * np.power(p, e, dtype=np.int64)
            bad, memo = np.zeros((len(picked), *box[2]), dtype=bool), {}
            for want, plans in zip(shortcut, per_order):
                bad |= want != _fold(plans, values, columns[n + 1], memo)
            if bad.any():
                # the first hit in box order is the block's first in hnf_stream order
                fixed, start, size = where
                pos = np.unravel_index(int(np.argmax(bad)), size)
                b, *residues = (*fixed, start + int(pos[0]), *map(int, pos[1:]))
                row = members[b]
                at = {**{(i, i): row[i] for i in range(n)}, **dict(zip(slots, residues))}
                form = tuple(tuple(at.get((i, j), 0) for j in range(n)) for i in range(n))
                first = min(first, (row[n], form)) if first else (row[n], form)
                break
    return f"disagreement at {first[1]}" if first else ""


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

    The scope with the most matrices passes the oracle's checks first, so an
    over-budget run is refused before any scope runs.
    """
    scopes = list(dict.fromkeys(scopes))
    largest = max(scopes, key=lambda scope: sublattice_count(*scope))
    _refuse(*largest, "census", jobs, budget, ())
    return [verify_index(n, m, jobs=jobs, budget=budget) for n, m in scopes]


def verify_prime_powers(
    n: int, p: int, max_r: int, *, jobs: int = 1, budget: int = DEFAULT_BUDGET
) -> list[SectionReport]:
    """verify_index over p, p**2, ..., p**max_r, refused up front over budget."""
    p = _check_prime(p)
    if max_r < 1:
        raise ValueError(f"need max_r >= 1, got {max_r}")
    return _verify_scopes([(n, p**r) for r in range(1, max_r + 1)], jobs, budget)


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
