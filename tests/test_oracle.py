import concurrent.futures
import json
import random
from collections import Counter
from functools import partial
from itertools import combinations, permutations, product as iter_product
import math
from math import gcd, prod

import numpy as np
import pytest

from sublattices import arith, cli, forms, oracle
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
    _split_failure,
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


# scopes whose blocks the chunk loops cut at several _CHUNK values
CHUNK_SCOPES = ((3, 49), (3, 120), (4, 32), (5, 9), (4, 104), (3, 52))


def test_bruteforce_methods_agree(monkeypatch):
    # the int64 kernel against both per-matrix classifiers over the Hermite stream
    for n, m in ((2, 36), (3, 16), (3, 24), (4, 16), (5, 4), (5, 8), (5, 9)):
        kernel = census_bruteforce(n, m).counts
        assert kernel == Counter(invariant_factors(h.rows) for h in hnf_stream(n, m)), (n, m)
        # the minor-gcd classifier costs seconds per call at n = 5, m = 8
        if n < 5 or m < 8:
            minors = Counter(invariant_factors_via_minors(h.rows) for h in hnf_stream(n, m))
            assert kernel == minors, (n, m)
    # every chunk covers each form exactly once, the slots that the
    # essential submatrix drops and the entries a residue stands for
    # included: the walk counts the forms of every diagonal whose modulus is
    # 1, no block holds such a diagonal, and the boxes' weights, an int per
    # entry of the gcd arrays or an int64 array that broadcasts to them, sum
    # to the other forms.  Small chunks cut a block in the middle of an
    # axis: a box fixes a member, and for the census a slot too, then ranges
    # one slot before the trailing ones.  At (4, 104) and (3, 52) a modulus
    # divides no slot range it shrinks: the block (2, 2, 26) runs modulo 4,
    # and (2, 2, 13) modulo 2
    boxes = []
    counts = []
    real_boxes = oracle._boxes
    real_block = oracle._block_gcds

    def cut(sizes, chunk):
        for box in real_boxes(sizes, chunk):
            boxes.append(box)
            yield box

    def block_gcds(members, *block):
        assert all(row[-1] > 1 for row in members)
        for weights, gvals in real_block(members, *block):
            reads = np.broadcast_shapes(*(np.shape(g) for g in gvals))
            if isinstance(weights, np.ndarray):
                counts.append(int(np.broadcast_to(weights, reads).sum()))
            else:
                counts.append(weights * prod(reads))
            yield weights, gvals

    monkeypatch.setattr(oracle, "_boxes", cut)
    monkeypatch.setattr(oracle, "_block_gcds", block_gcds)
    default_chunk = oracle._CHUNK
    for n, m in CHUNK_SCOPES:
        want = class_census(n, m).counts
        want_cocyclic = cocyclic_count(n, m)
        # a diagonal's modulus is m / lcm(diagonal), 1 exactly where the lcm is m
        units = sum(
            prod(d**j for j, d in enumerate(diag))
            for diag in arith.divisor_compositions(m, n)
            if math.lcm(*diag) == m
        )
        # with no pattern inside the int64 bound both brute forces refuse the
        # scope before any box runs, at any jobs
        boxes.clear()
        with monkeypatch.context() as mp:
            mp.setattr(oracle, "_INT64_SAFE", 0)
            for brute in (census_bruteforce, cocyclic_bruteforce):
                with pytest.raises(BudgetExceededError, match="int64"):
                    brute(n, m, jobs=2)
        assert boxes == []
        for chunk in (1, 7, 1000, default_chunk):
            monkeypatch.setattr(oracle, "_CHUNK", chunk)
            for brute, expect in ((census_bruteforce, want), (cocyclic_bruteforce, want_cocyclic)):
                boxes.clear()
                counts.clear()
                got = brute(n, m)
                assert getattr(got, "counts", got) == expect, (n, m, chunk)
                assert units + sum(counts) == sublattice_count(n, m), (n, m, chunk)
                assert max(prod(shape) for *_, shape in boxes) <= chunk
                # at (3, 49) and (5, 9) no block has two essential slots
                if chunk == 7 and m in (120, 32):
                    assert any(fixed and len(shape) > 1 for fixed, _, shape in boxes), (n, m)
                    if brute is census_bruteforce:
                        assert any(len(fixed) > 1 and len(shape) > 1 for fixed, _, shape in boxes)


def test_box_weight_rule_premise(monkeypatch):
    # _box_weights counts an unread slot's entries only for a single-member
    # box: a multi-member box ranges every slot from residue 0, so its top
    # gcd is the modulus at the all-zero tuple, its top fold runs every plan,
    # and its gcd arrays read the member axis and every cut slot.  A
    # single-member box, with a member axis of length 1, cut from a block
    # past _CHUNK can leave a cut slot unread, and those boxes must still
    # occur for the rule to be exercised
    real = oracle._box_weights
    multi = []
    unread = []

    def box_weights(values, dropped, modulus, box, cols, cut, shapes):
        fixed, _, shape = box
        if len(dropped) > 1:
            reads = [max(k) for k in zip(*shapes)]
            multi.append(reads[0] > 1 and all(reads[1 + s] > 1 for s, c in enumerate(cut) if c))
        else:
            reads = [max(k) for k in zip(*shapes)] if shapes else [1] * (1 + len(shape))
            skipped = range(len(fixed), len(cut))
            unread.append(any(cut[s] and reads[1 + s - len(fixed)] == 1 for s in skipped))
        return real(values, dropped, modulus, box, cols, cut, shapes)

    monkeypatch.setattr(oracle, "_box_weights", box_weights)
    for chunk in (1, 7, 1000, oracle._CHUNK):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        for n, m in CHUNK_SCOPES:
            assert census_bruteforce(n, m).counts == class_census(n, m).counts, (n, m, chunk)
            assert cocyclic_bruteforce(n, m) == cocyclic_count(n, m), (n, m, chunk)
    assert multi and all(multi)
    assert any(unread)


def test_boxes_do_not_list_the_leading_ranges():
    # the leading slots are walked digit by digit: a box of a block with
    # 2**80 leading positions comes at once, in O(n) memory
    assert next(oracle._boxes([2**40, 2**40, 3], 7)) == ((0,), 0, (2, 3))


def test_prime_index_builds_no_minor_array(monkeypatch):
    # at a prime index every diagonal has one entry above 1, so its essential
    # submatrix is 1 x 1 and every order below n has gcd 1.  At a squarefree
    # index the entries above 1 are pairwise coprime, so the lcm of a
    # diagonal is m and its modulus m / lcm is 1 as well.  The walk counts
    # all those forms: no box is built and no minor is evaluated
    calls = []

    def spy(real):
        return lambda *args: calls.append(real.__name__) or real(*args)

    monkeypatch.setattr(oracle, "_minor", spy(oracle._minor))
    monkeypatch.setattr(oracle, "_member_box", spy(oracle._member_box))
    for n, m in ((3, 101), (3, 30), (4, 30), (5, 30), (6, 6)):
        assert list(census_bruteforce(n, m).counts.items()) == list(
            class_census(n, m).counts.items()
        ), (n, m)
        assert cocyclic_bruteforce(n, m) == cocyclic_count(n, m), (n, m)
    assert calls == []


def test_bruteforce_resolves_plans_per_essential_length(monkeypatch):
    # plans and the int64 bound depend only on e and m: one lookup per distinct
    # essential length, not one per diagonal (80 at (4, 104)).  Each essential
    # diagonal runs its slots modulo g, the gcd of its principal minors of
    # order e - 1, or modulo the product of the primes dividing g for the
    # co-cyclic count.  A diagonal of modulus 1 is counted by the walk and
    # joins no block, so lengths 0 and 1 resolve no plans.  Diagonals whose
    # reduced slot ranges agree share one block, and every block fits in
    # one box: 8 boxes for the census (20 essential diagonals), 3 for the
    # co-cyclic count
    n, m = 4, 104
    diags = list(arith.divisor_compositions(m, n))
    essentials = {tuple(d for d in diag if d > 1) for diag in diags}
    assert len(diags) == 80 and len(essentials) == 20

    def blocks(radical):
        grouped = set()
        for ess in essentials:
            e = len(ess)
            g = gcd(*(prod(ess) // d for d in ess)) if e > 1 else 1
            if radical:
                g = prod(p for p, _ in arith.factorize(m) if g % p == 0)
            if g > 1:
                grouped.add((e, tuple(min(ess[j], g) for _, j in oracle._slots(e))))
        return grouped

    lookups = []
    boxes = []
    real_plans = oracle._pattern_plans
    real_boxes = oracle._boxes

    def pattern_plans(e, u, orders):
        lookups.append(e)
        return real_plans(e, u, orders)

    def cut(sizes, chunk):
        for box in real_boxes(sizes, chunk):
            boxes.append((tuple(sizes[1:]), box))
            yield box

    monkeypatch.setattr(oracle, "_pattern_plans", pattern_plans)
    monkeypatch.setattr(oracle, "_boxes", cut)
    for brute, want, radical, expect_boxes in (
        (census_bruteforce, class_census(n, m).counts, False, 8),
        (cocyclic_bruteforce, cocyclic_count(n, m), True, 3),
    ):
        lookups.clear()
        boxes.clear()
        got = brute(n, m)
        assert getattr(got, "counts", got) == want
        assert sorted(lookups) == [2, 3, 4] == sorted({len(ess) for ess in essentials} - {1})
        assert len(boxes) == len(blocks(radical)) == expect_boxes
        assert sorted(shape for shape, _ in boxes) == sorted(shape for _, shape in blocks(radical))
        assert all(fixed == () and start == 0 for _, (fixed, start, _) in boxes)


def test_essential_diagonals_and_their_moduli_in_closed_form():
    # every essential diagonal with n <= 6 and m <= 256: the walk yields each
    # once with the forms it stands for, recounted over every diagonal; its
    # modulus m // lcm(ess) is the gcd of the products of e - 1 of its
    # entries (1 at m = 1), and the co-cyclic one, gcd(g, rad m), the product
    # of the primes dividing g.  At every lower order k the gcd of the
    # products of k entries, which every k x k minor gcd divides, divides
    # that modulus too, so every order may fold from it
    for m in range(1, 257):
        fac = arith.factorize(m)
        rad = prod(p for p, _ in fac)
        for n in range(1, 7):
            walked = list(oracle._essential_diagonals(m, n, fac))
            recount = Counter()
            for diag in arith.divisor_compositions(m, n):
                # an entry above 1 has a slot over its d values in each unit row above it
                units, forms = 0, 1
                for d in diag:
                    if d == 1:
                        units += 1
                    else:
                        forms *= d**units
                recount[tuple(d for d in diag if d > 1)] += forms
            assert len(walked) == len(dict(walked)) and dict(walked) == recount, (n, m)
            for ess, _ in walked:
                g = m // math.lcm(*ess)
                assert g == math.gcd(*map(prod, combinations(ess, max(len(ess) - 1, 0)))), ess
                for k in range(1, len(ess)):
                    assert g % math.gcd(*map(prod, combinations(ess, k))) == 0, (ess, k)
                assert math.gcd(g, rad) == prod(p for p, _ in fac if g % p == 0), ess


def test_refusal_checks_walk_no_essential_diagonal(monkeypatch):
    # the refusals resolve plans per essential length 2 to min(n, Omega(m)),
    # exactly the lengths of 2 or more that occur, and none at m = 1 or a
    # prime m, without walking a diagonal; verify's check-only call on its
    # largest scope walks none
    walked = []
    real = oracle._essential_diagonals

    def walk(m, n, fac):
        for item in real(m, n, fac):
            walked.append(item)
            yield item

    monkeypatch.setattr(oracle, "_essential_diagonals", walk)
    for n, m in ((1, 1), (3, 1), (1, 12), (3, 7), (3, 768), (4, 104), (6, 64), (5, 30)):
        *nm, fac, resolved = oracle._refuse(n, m, "census", 1, 10**18, tuple(range(1, n)))
        assert nm == [n, m] and fac == arith.factorize(m) and walked == []
        lengths = {len(ess) for ess, _ in real(m, n, fac)} - {0, 1}
        assert sorted(resolved) == sorted(lengths), (n, m)
    with monkeypatch.context() as mp:
        mp.setattr(oracle, "_INT64_SAFE", 0)
        with pytest.raises(BudgetExceededError, match="minor bound"):
            census_bruteforce(4, 104)
    with pytest.raises(BudgetExceededError, match="budget"):
        cocyclic_bruteforce(4, 104, budget=10)
    assert walked == []
    ran = []
    monkeypatch.setattr(oracle, "verify_index", lambda n, m, **kw: ran.append((n, m)))
    oracle._verify_scopes([(2, 8), (4, 16), (3, 12)], 1, DEFAULT_BUDGET)
    assert ran == [(2, 8), (4, 16), (3, 12)] and walked == []
    assert census_bruteforce(4, 16).counts == class_census(4, 16).counts
    assert walked


def test_int64_gate_never_refuses_within_default_budget():
    # the diagonal (1, ..., 1, m) alone has m**(n-1) forms, so every scope the
    # default budget admits has m**(n-1) <= DEFAULT_BUDGET; prime m reach that
    # far (n = 3 admits m = 3137), well past the first m over the budget.  A
    # block with e entries above 1 runs on e x e plans, at the orders above
    # its n - e unit entries
    for n in range(3, 7):
        bounds = [
            oracle._pattern_plans(e, n - e, orders)[-2:]
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


def test_bruteforce_exact_past_two_to_the_53():
    # q is the first prime above 2**25.  At 4q the block (2, 2, q) runs
    # modulo 2, which divides no slot range q, so its residues carry unequal
    # weights, and the largest class holds more than 2**53 forms.  At 9q a
    # class past 2**53 equals no float, so a tally through float weights, per
    # box or overall, rounds it.  Ranging entries instead would take about
    # 2 * 10**15 essential matrices at 4q
    q = 33554467
    assert arith.is_prime(q) and not any(arith.is_prime(p) for p in range(2**25 + 1, q, 2))
    for n, m in ((3, 4 * q), (3, 9 * q)):
        want = class_census(n, m).counts
        assert max(want.values()) > 2**53
        assert census_bruteforce(n, m, budget=10**18).counts == want, m
        assert cocyclic_bruteforce(n, m, budget=10**18) == cocyclic_count(n, m), m
    assert any(float(size) != size for size in class_census(3, 9 * q).counts.values())


def test_bruteforce_refuses_tallies_past_int64(monkeypatch):
    # (3, 1275595776) passes the minor bound but holds more than 2**63 forms,
    # more than the int64 tally can count: refused before any box, whatever
    # the budget
    n, m = 3, 1275595776
    assert sublattice_count(n, m) >= 2**63
    for orders in ((1, 2), (2,)):
        weight, degree = oracle._pattern_plans(n, 0, orders)[-2:]
        assert weight * m**degree < oracle._INT64_SAFE
    boxes = []
    monkeypatch.setattr(oracle, "_boxes", lambda *args: boxes.append(args) or iter(()))
    for brute in (census_bruteforce, cocyclic_bruteforce):
        with pytest.raises(BudgetExceededError, match="int64 tally") as info:
            brute(n, m, budget=10**30)
        assert info.value.predicted == sublattice_count(n, m)
    assert boxes == []


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


def _laplace_minors(per_order):
    """The (rows, cols) of every minor that the plans of per_order reach, those below included."""
    found, stack = set(), [plan for plans in per_order for plan in plans]
    while stack:
        key, terms = stack.pop()
        if key not in found:
            found.add(key)
            stack += [below for _, _, below in terms if below is not None]
    return found


def _slots_read(terms, e):
    return {var for var, _, below in terms if var >= e}.union(
        *(_slots_read(below[1], e) for _, _, below in terms if below is not None)
    )


def test_pattern_plans_are_the_minors_of_any_such_matrix():
    # a plan holds for every upper-triangular matrix, not only for Hermite
    # forms, so random entries of both signs check every term and sign
    # against direct determinants: each listed minor, and each minor below
    # it that the box's memo holds, evaluated on Python ints.  Each order up
    # to e is checked as the top one, whose list leaves out exactly its
    # comb(e, k) principal minors, the products of k diagonal entries, and as
    # a lower one, which lists every minor that is nonzero on some such
    # matrix, principal ones first
    rng = random.Random(7)
    for e, top in ((e, top) for e in range(1, 6) for top in range(1, e + 1)):
        orders = tuple(range(1, top + 1))
        per_order, slot_cols, *_ = oracle._pattern_plans(e, 0, orders)
        assert slot_cols == tuple(j for _, j in oracle._slots(e))
        assert len(per_order) == len(orders)
        for k, plans in zip(orders, per_order):
            nonzero = {
                (rows, cols)
                for rows in combinations(range(e), k)
                for cols in combinations(range(e), k)
                if all(r <= c for r, c in zip(rows, cols)) and (k < top or rows != cols)
            }
            assert sorted(key for key, _ in plans) == sorted(nonzero), (e, k)
            # each order's plans fold fewest slot entries first
            reads = [len(_slots_read(terms, e)) for _, terms in plans]
            assert reads == sorted(reads), (e, k)
        principal = [(picked, picked) for picked in combinations(range(e), top)]
        if top < e:
            full = oracle._pattern_plans(e, 0, orders + (top + 1,))[0][top - 1]
            assert [key for key, _ in full] == principal + [key for key, _ in per_order[-1]]
            assert full[len(principal) :] == per_order[-1], (e, top)
        else:
            assert per_order[-1] == (), e
        for _ in range(2**e):
            diag = [rng.choice((-7, -3, 1, 2, 5, 9)) for _ in range(e)]
            entries = [rng.randint(-9, 9) for _ in oracle._slots(e)]
            rows = [[0] * e for _ in range(e)]
            for i in range(e):
                rows[i][i] = diag[i]
            for (i, j), v in zip(oracle._slots(e), entries):
                rows[i][j] = v
            values, memo = diag + entries, {}
            for plans in per_order:
                for key, terms in plans:
                    assert isinstance(oracle._minor(key, terms, values, memo), int)
            assert memo.keys() >= {key for plans in per_order for key, _ in plans}
            for (picked, cols), got in memo.items():
                want = integer_det([[rows[i][j] for j in cols] for i in picked])
                assert abs(got) == abs(want), (e, top, picked, cols)


def test_laplace_term_counts_bound_every_minor():
    # the int64 gate prices every minor at weight * m**degree, and a Laplace
    # evaluation's partial sums are bounded by its minor's term count times
    # m**order.  So every minor the plans reach, lower orders and the minors
    # below included, must have at most weight nonzero terms, recounted here
    # over permutations, and order at most degree; the listed minors reach
    # weight
    for e in range(1, 7):
        for u in (0, 1, 2):
            n = e + u
            for orders in (tuple(range(1, n)), (n - 1,)):
                per_order, _, weight, degree = oracle._pattern_plans(e, u, orders)
                if not per_order:
                    assert (weight, degree) == (1, 0), (e, u, orders)
                    continue
                counts = {}
                for picked, cols in _laplace_minors(per_order):
                    counts[picked, cols] = sum(
                        all(cols[c] >= r for r, c in zip(picked, perm))
                        for perm in permutations(range(len(picked)))
                    )
                    assert 1 <= counts[picked, cols] <= weight, (e, u, orders, picked, cols)
                    assert len(picked) <= degree, (e, u, orders, picked, cols)
                listed = [counts[key] for plans in per_order for key, _ in plans]
                assert max(listed) == weight, (e, u, orders)


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
    # at m = 2 every diagonal has one entry above 1, so its modulus is 1: the
    # walk counts every form and no plan is built
    built = []
    real = oracle._pattern_plans

    def pattern_plans(e, u, orders):
        built.append(e)
        return real(e, u, orders)

    monkeypatch.setattr(oracle, "_pattern_plans", pattern_plans)
    for n in (16, 20):
        assert census_bruteforce(n, 2).counts == class_census(n, 2).counts, n
        assert cocyclic_bruteforce(n, 2) == cocyclic_count(n, 2), n
    assert built == []


def test_bruteforce_high_dimension_keys_only_the_orders_that_vary():
    # a form of essential length e has gcd 1 at every order up to n - e, and
    # e <= min(n, Omega(m)), so the census histogram is keyed by at most
    # Omega(m) - 1 orders, not n - 1: a table keyed by every order would hold
    # 3**29 entries at (30, 4) and 4**15 at (16, 6)
    for n, m, budget in ((30, 4, 10**18), (16, 6, 10**15), (20, 4, 10**15)):
        got = census_bruteforce(n, m, budget=budget)
        assert list(got.counts.items()) == list(class_census(n, m).counts.items()), (n, m)
        assert cocyclic_bruteforce(n, m, budget=budget) == cocyclic_count(n, m), (n, m)


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
    # n = 3: the direct Smith shortcut gets diffed too
    assert "smith_shortcut_agreement" in names


def test_verify_index_tests_primality_a_bounded_number_of_times(monkeypatch):
    # the Smith shortcuts must not re-prove the prime once per form
    calls = []
    real = arith.is_prime

    def counting(m):
        calls.append(m)
        return real(m)

    # every prime test of the package goes through arith.is_prime
    monkeypatch.setattr(arith, "is_prime", counting)
    section = verify_index(2, 10007)
    assert section.ok
    assert "smith_shortcut_agreement" in [c.name for c in section.checks]
    assert len(calls) < 50


def _per_form_shortcut_detail(n, m):
    """The detail of the per-form loop verify_index once ran: each form's chain
    from the closed form per prime of m, as enumerate --with-snf builds it,
    against invariant_factors, in hnf_stream order."""
    for h in hnf_stream(n, m):
        if forms._hnf_chain(h.rows) != invariant_factors(h.rows):
            return f"disagreement at {h.rows}"
    return ""


def _shortcut_check(n, m):
    (check,) = [c for c in verify_index(n, m).checks if c.name == "smith_shortcut_agreement"]
    return check


def test_shortcut_check_agrees_with_the_per_form_loop():
    # every index, composites included, up to 3**6 at n = 2 and 3**4 at n = 3
    for n, top in ((2, 3**6), (3, 3**4)):
        for m in range(1, top + 1):
            check = _shortcut_check(n, m)
            assert check.ok and check.detail == "", (n, m)
            assert _per_form_shortcut_detail(n, m) == "", (n, m)


def test_shortcut_check_names_the_first_disagreement_of_the_per_form_loop(monkeypatch):
    # the same mutant on both routes, a function of (exps, s, t) and so fixed
    # by the entries modulo g like the true shortcut, per prime: t one too
    # high where t == 0 < min(r) at n = 2, and where t == s + 1 at n = 3; the
    # residue check must name the form the per-form loop names, at a prime
    # power and at a composite index.  The exponents r are member columns of
    # a box, so their least is taken elementwise
    real = forms._smith_closed_form

    def mutant(least, r, o):
        got = real(least, r, o)
        if len(r) == 2:
            return got + (got == 0) * (least(*r) > 0)
        s, t = got
        return s, t + (t == s + 1)

    monkeypatch.setattr(forms, "_smith_closed_form", mutant)
    monkeypatch.setattr(oracle, "_smith_closed_form", mutant)
    for n, m, first in (
        (2, 27, "disagreement at ((3, 1), (0, 9))"),
        (3, 8, "disagreement at ((1, 0, 0), (0, 2, 0), (0, 0, 4))"),
        (2, 12, "disagreement at ((2, 1), (0, 6))"),
        (3, 12, "disagreement at ((1, 0, 0), (0, 2, 0), (0, 0, 6))"),
    ):
        check = _shortcut_check(n, m)
        assert not check.ok
        assert check.detail == _per_form_shortcut_detail(n, m) == first, (n, m)


def test_shortcut_check_names_the_least_disagreement_over_all_blocks(monkeypatch):
    # t one too high where s == 1 and r3 > 0: at (3, 16) and (3, 24) the
    # first block with a hit holds a later form than another block's first
    # hit, so the check must take the least (stream position, residues) over
    # every block, not the first hit of the first block that has one
    real = forms._smith_closed_form

    def mutant(least, r, o):
        got = real(least, r, o)
        if len(r) == 2:
            return got
        s, t = got
        return s, t + (s == 1) * (r[2] > 0)

    monkeypatch.setattr(forms, "_smith_closed_form", mutant)
    monkeypatch.setattr(oracle, "_smith_closed_form", mutant)
    for m, first in (
        (16, "disagreement at ((2, 0, 0), (0, 2, 0), (0, 0, 4))"),
        (24, "disagreement at ((2, 0, 0), (0, 2, 0), (0, 0, 6))"),
    ):
        check = _shortcut_check(3, m)
        assert not check.ok
        assert check.detail == _per_form_shortcut_detail(3, m) == first, m


def test_valuation_table_caps_each_valuation():
    # the gather reads min(v_p(x), a) for every int64 value the check forms,
    # residues and h12*h23 - d2*h13 alike, negative and zero included
    x = np.arange(-5000, 5001, dtype=np.int64)
    for p, a in ((2, 0), (2, 5), (3, 4), (5, 2), (7, 1)):
        table = oracle._valuation_table(p, a)
        got = table[x % table.size]
        assert got.dtype == np.int8
        assert got.tolist() == [min(arith._valuation(p, v), a) for v in x.tolist()], (p, a)


def test_shortcut_check_ranges_residues(monkeypatch):
    # each slot of a diagonal diag ranges min(d, m / lcm(diag)) residues, so
    # the check reads far fewer positions than the forms it stands for
    real = oracle._smith_closed_form
    positions = []

    def spy(least, r, o):
        positions.append(np.broadcast(*[np.asarray(x) for x in o]).size)
        return real(least, r, o)

    monkeypatch.setattr(oracle, "_smith_closed_form", spy)
    for n, m, want, forms_at in ((3, 2**10, 101_247, 2_794_155), (2, 2**20, 3_070, 2_097_151)):
        positions.clear()
        assert oracle._shortcut_disagreement(n, m, arith.factorize(m)) == ""
        assert sum(positions) == want, (n, m)
        assert sublattice_count(n, m) == forms_at, (n, m)


def test_shortcut_check_batches_diagonals_into_blocks(monkeypatch):
    # diagonals whose slot ranges agree share a block along a member axis, so
    # at (3, 120) the closed form runs once per prime per box: 7 boxes and 3
    # primes, not once per prime per diagonal (90 diagonals), over the same
    # residue positions
    real = oracle._smith_closed_form
    positions = []

    def spy(least, r, o):
        positions.append(np.broadcast(*[np.asarray(x) for x in o]).size)
        return real(least, r, o)

    monkeypatch.setattr(oracle, "_smith_closed_form", spy)
    assert oracle._shortcut_disagreement(3, 120, arith.factorize(120)) == ""
    assert len(positions) == 21
    assert sum(positions) == 1_977


def test_verify_index_runs_no_per_form_reduction(monkeypatch):
    # the shortcut check compares against minor gcds: invariant_factors stays
    # with the tests and enumerate --with-snf
    def refuse(rows):
        raise AssertionError(f"invariant_factors({rows})")

    monkeypatch.setattr(forms, "invariant_factors", refuse)
    assert not hasattr(oracle, "invariant_factors")
    for n, m in ((2, 27), (3, 8), (3, 64), (2, 1), (3, 12)):
        assert _shortcut_check(n, m).ok, (n, m)


def test_shortcut_check_has_no_form_cap():
    # 200004 forms, past the 200000 that once skipped the check
    assert sublattice_count(2, 200003) > 200_000
    section = verify_index(2, 200003)
    assert section.ok
    assert _shortcut_check(2, 200003).detail == ""


def test_verify_index_composite_runs_shortcut():
    # the Smith check runs per prime of a composite index too
    section = verify_index(3, 12)
    assert section.ok
    assert _shortcut_check(3, 12) == ("smith_shortcut_agreement", True, "")
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


def test_one_split_check_serves_index_and_suite(monkeypatch):
    # a class size off by one at index 6 fails the split of verify_index at a
    # composite index and the suite's multiplicativity section alike
    count, classes = partial(sublattice_count, 2), partial(oracle.class_count, 2)
    assert _split_failure([class_census(2, f) for f in (4, 9, 5)], count, classes) == ""
    real = oracle.class_size
    monkeypatch.setattr(oracle, "class_size", lambda chain: real(chain) + (prod(chain) == 6))
    split = [c for c in verify_index(2, 6).checks if c.name == "multiplicative_split"]
    assert split == [oracle.Check("multiplicative_split", False, "class size split fails at (1, 6)")]
    section = _multiplicativity_section(limit=6, max_n=2)
    assert [c.detail for c in section.checks] == [
        "class size split fails at (6,)",
        "class size split fails at (1, 6)",
    ]


def test_multiplicativity_section_builds_each_factor_census_once(monkeypatch):
    # a factor's census serves every coprime pair it is in: the section's
    # pairs m1 * m2 <= 120 over n = 1, 2, 3 hold 141 distinct (n, f), and
    # none is built twice
    built = []
    real = oracle.class_census

    def spy(n, m):
        built.append((n, m))
        return real(n, m)

    monkeypatch.setattr(oracle, "class_census", spy)
    assert _multiplicativity_section().ok
    assert len(built) == len(set(built)) == 141


def test_multiplicativity_section_prices_each_closed_form_once(monkeypatch):
    # the count and the class count of a factor serve every coprime pair it
    # is in, and those of a product every pair with that product: each
    # (n, m) the section reads is priced once
    calls = Counter()
    for name in ("sublattice_count", "class_count"):
        real = getattr(oracle, name)

        def spy(n, m, real=real, name=name):
            calls[name, n, m] += 1
            return real(n, m)

        monkeypatch.setattr(oracle, name, spy)
    assert _multiplicativity_section().ok
    read = {
        (n, x)
        for n in range(1, 4)
        for m1 in range(2, 121)
        for m2 in range(2, 120 // m1 + 1)
        if gcd(m1, m2) == 1
        for x in (m1, m2, m1 * m2)
    }
    for name in ("sublattice_count", "class_count"):
        assert {(n, m) for got, n, m in calls if got == name} == read, name
    assert set(calls.values()) == {1}


def test_suite_and_ladder_refuse_before_any_scope_runs(monkeypatch, capsys):
    # the largest planned scope is priced first: no census runs, no stdout
    calls = []
    real = oracle.census_bruteforce
    monkeypatch.setattr(oracle, "census_bruteforce", lambda *a, **k: calls.append(a) or real(*a, **k))
    with pytest.raises(BudgetExceededError, match="^census n=4 m=32: predicted 97155 matrices "):
        verify_suite(budget=50)
    with pytest.raises(BudgetExceededError, match=f"^census n=2 m={2**30}: "):
        verify_prime_powers(2, 2, 30, budget=1000)
    for argv in (["verify", "suite", "--budget", "50"],
                 ["verify", "--n", "2", "--prime", "2", "--max-r", "30", "--budget", "1000"]):
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "exceeds the budget" in captured.err
    assert calls == []
    # invalid input still comes before the budget
    with pytest.raises(ValueError, match="jobs"):
        verify_prime_powers(2, 2, 30, jobs=0, budget=1000)
    # a budget that admits the largest scope runs every scope
    assert len(verify_prime_powers(2, 2, 3, budget=sublattice_count(2, 8))) == 3
    assert len(calls) == 3


def test_verify_suite_payload_deterministic(monkeypatch, capsys):
    a = verify_suite()
    b = verify_suite()
    assert a.all_match and b.all_match
    # elapsed differs between runs, payloads must not: the CLI renders each report
    assert a.elapsed != b.elapsed or a.elapsed > 0
    payloads = []
    for report in (a, b):
        monkeypatch.setattr(oracle, "verify_suite", lambda **kwargs: report)
        assert cli.main(["verify", "suite"]) == 0
        payloads.append(json.loads(capsys.readouterr().out)["payload"])
    assert json.dumps(payloads[0], sort_keys=True) == json.dumps(payloads[1], sort_keys=True)
    payload = payloads[0]
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
