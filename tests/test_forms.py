import random
from itertools import permutations, product
from math import gcd

import pytest

from sublattices.enumeration import hnf_stream
from sublattices.forms import (
    _DIAG_MEMO,
    HnfError,
    HnfMatrix,
    hnf2_smith_exponent,
    hnf3_smith_exponents,
    integer_det,
    invariant_factors,
    invariant_factors_via_minors,
    _prime_power_diag,
    _xgcd,
    minor_gcd,
    validate_hnf,
)

BOTH_ROUTES = (invariant_factors, invariant_factors_via_minors)


def test_validate_hnf_accepts():
    h = validate_hnf([[2, 1], [0, 3]])
    assert isinstance(h, HnfMatrix)
    assert h.n == 2
    assert h.diag == (2, 3)
    assert h.det() == 6
    assert validate_hnf([[1]]).det() == 1


def test_validate_hnf_rejects():
    with pytest.raises(HnfError, match="must be positive"):
        validate_hnf([[0, 1], [0, 3]])
    with pytest.raises(HnfError, match="must be positive"):
        validate_hnf([[-2, 1], [0, 3]])
    with pytest.raises(HnfError, match="below the diagonal"):
        validate_hnf([[2, 1], [1, 3]])
    with pytest.raises(HnfError, match=r"lie in \[0, 3\)"):
        validate_hnf([[2, 3], [0, 3]])
    with pytest.raises(HnfError, match=r"lie in \[0, 3\)"):
        validate_hnf([[2, -1], [0, 3]])
    with pytest.raises(HnfError, match="square"):
        validate_hnf([[2, 1]])
    with pytest.raises(HnfError, match="square"):
        validate_hnf([])


def test_integer_det():
    assert integer_det([[5]]) == 5
    assert integer_det([[1, 2], [3, 4]]) == -2
    assert integer_det([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24
    assert integer_det([[1, 1], [1, 1]]) == 0
    assert integer_det([[0, 1], [1, 0]]) == -1
    # zero leading pivot forces the row-swap path
    assert integer_det([[0, 2], [3, 0]]) == -6


def test_integer_det_against_cofactor_expansion():
    def cofactor(a):
        n = len(a)
        if n == 1:
            return a[0][0]
        out = 0
        for j in range(n):
            sub = [row[:j] + row[j + 1 :] for row in a[1:]]
            out += (-1) ** j * a[0][j] * cofactor(sub)
        return out

    rng = random.Random(1123)
    for _ in range(300):
        n = rng.randrange(1, 5)
        a = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(n)]
        assert integer_det(a) == cofactor(a)


def test_minor_gcd():
    a = [[2, 4], [0, 6]]
    assert minor_gcd(a, 0) == 1
    assert minor_gcd(a, 1) == 2
    assert minor_gcd(a, 2) == 12
    assert minor_gcd([[0, 0], [0, 0]], 1) == 0
    # rectangular input is allowed
    assert minor_gcd([[2, 4, 6]], 1) == 2
    with pytest.raises(ValueError):
        minor_gcd([[1, 2], [3]], 1)
    with pytest.raises(ValueError):
        minor_gcd(a, 3)


def test_invariant_factors_known():
    assert invariant_factors([[2, 0], [0, 3]]) == (1, 6)
    assert invariant_factors([[1, 1], [0, 2]]) == (1, 2)
    assert invariant_factors([[2, 0], [0, 2]]) == (2, 2)
    assert invariant_factors([[4, 2], [0, 3]]) == (1, 12)
    assert invariant_factors([[2, 0, 0], [0, 6, 0], [0, 0, 12]]) == (2, 6, 12)
    assert invariant_factors([[6, 0], [0, 4]]) == (2, 12)
    # determinant sign must not matter
    assert invariant_factors([[0, 1], [1, 0]]) == (1, 1)
    assert invariant_factors([[5]]) == (5,)


def test_invariant_factors_singular():
    with pytest.raises(ValueError, match="singular"):
        invariant_factors([[1, 1], [1, 1]])
    with pytest.raises(ValueError, match="singular"):
        invariant_factors_via_minors([[2, 4], [1, 2]])


def test_non_square_matrices_rejected():
    for rows in ([[1, 2]], [[1, 0], [0]]):
        with pytest.raises(ValueError, match="square"):
            integer_det(rows)
        with pytest.raises(ValueError, match="nonempty square"):
            invariant_factors(rows)
        with pytest.raises(ValueError, match="nonempty square"):
            invariant_factors_via_minors(rows)


def test_invariant_factors_exact_on_numpy_int64_entries():
    # elimination multiplies entries of this size past 2**63: NumPy entries
    # are made plain ints first, so the chain is the one of the plain rows
    np = pytest.importorskip("numpy")
    for rows in ([[2**40, 3**25], [0, 2**41]], [[2**41, 0], [3**25, 2**40]],
                 [[1, 2**40], [2**40, 2**41]],
                 [[2**40, 3**25, 5**17], [0, 2**41, 7**14], [0, 0, 2**42]]):
        want = invariant_factors(rows)
        assert want == invariant_factors_via_minors(rows)
        array = np.array(rows, dtype=np.int64)
        for entries in (array, list(array), [[np.int64(v) for v in r] for r in rows]):
            got = invariant_factors(entries)
            assert got == want and set(map(type, got)) == {int}, rows
        # one NumPy entry among plain ints
        mixed = [list(r) for r in rows]
        mixed[0][1] = np.int64(mixed[0][1])
        assert invariant_factors(mixed) == want, rows


def test_xgcd_contract():
    # x*a + y*b == g == gcd(a, b) >= 0 over both signs, a = 0, b = 0,
    # b/g = +-1 and entries near 10**12
    rng = random.Random(2026)
    big = 10**12
    values = [0, 1, -1, 2, -2, 3, 6, -6, 12, -35, 35, 2**40, -(3**25)]
    values += [big, -big, big + 39, -(big - 11), 2 * big, big // 4]
    values += [rng.randrange(-big - 10**6, big + 10**6) for _ in range(20)]
    for a in values:
        for b in values + [a, -a, 2 * a, -3 * a]:
            g, x, y = _xgcd(a, b)
            assert x * a + y * b == g == gcd(a, b) >= 0, (a, b)


def test_invariant_factors_chain_property():
    rng = random.Random(40127)
    count = 0
    while count < 400:
        n = rng.randrange(1, 5)
        a = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        if integer_det(a) == 0:
            continue
        count += 1
        chain = invariant_factors(a)
        assert all(d > 0 for d in chain)
        assert all(b % d == 0 for d, b in zip(chain, chain[1:]))
        prodc = 1
        for d in chain:
            prodc *= d
        assert prodc == abs(integer_det(a))


def test_two_invariant_factor_routes_agree_on_streams():
    # every Hermite form, two independent algorithms; the depth per dimension
    # keeps the sweep near half a million matrices
    for n, top in ((1, 256), (2, 256), (3, 64), (4, 16)):
        for m in range(1, top + 1):
            for h in hnf_stream(n, m):
                assert invariant_factors(h.rows) == invariant_factors_via_minors(h.rows), h.rows


def test_two_invariant_factor_routes_agree_on_random_matrices():
    rng = random.Random(777)
    count = 0
    while count < 2000:
        n = rng.randrange(1, 5)
        a = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        if integer_det(a) == 0:
            continue
        count += 1
        assert invariant_factors(a) == invariant_factors_via_minors(a)


def test_two_invariant_factor_routes_agree_on_random_triangular():
    rng = random.Random(64064)
    for _ in range(10_000):
        n = rng.randrange(1, 5)
        a = [
            [
                rng.randrange(1, 64) if i == j else (rng.randrange(0, 64) if j > i else 0)
                for j in range(n)
            ]
            for i in range(n)
        ]
        assert invariant_factors(a) == invariant_factors_via_minors(a), a


def _unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """A random product of elementary row operations: determinant +-1."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        k = rng.randrange(-3, 4)
        u[i] = [a + k * b for a, b in zip(u[i], u[j])]
    i = rng.randrange(n)
    u[i] = [-a for a in u[i]]
    rng.shuffle(u)
    return u


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_two_invariant_factor_routes_agree_on_random_5x5():
    rng = random.Random(5055)
    count = 0
    while count < 120:
        if count % 2:
            a = [[rng.randrange(-9, 10) for _ in range(5)] for _ in range(5)]
        else:
            # U * diag * V hides a chain with nontrivial small factors
            d = [[rng.choice((1, 2, 3, 4, 6, 12)) if i == j else 0 for j in range(5)] for i in range(5)]
            a = _matmul(_matmul(_unimodular(rng, 5), d), _unimodular(rng, 5))
        if integer_det(a) == 0:
            continue
        count += 1
        assert invariant_factors(a) == invariant_factors_via_minors(a), a


def test_two_invariant_factor_routes_agree_on_large_entries():
    # pivots rarely divide entries this large, so nearly every step is an xgcd step
    rng = random.Random(1_000_003)
    count = 0
    while count < 400:
        n = rng.randrange(2, 5)
        scale = [rng.choice((1, 2, 6, 1000)) for _ in range(n)]
        a = [[k * rng.randrange(-(10**6), 10**6 + 1) for _ in range(n)] for k in scale]
        if integer_det(a) == 0:
            continue
        count += 1
        assert invariant_factors(a) == invariant_factors_via_minors(a), a


def test_two_invariant_factor_routes_agree_on_signed_permutations():
    # any permutation but the identity leaves a 0 on the diagonal, which
    # sends the reduction down its swap path
    for n in range(1, 5):
        for perm in permutations(range(n)):
            for signs in product((1, -1), repeat=n):
                a = [[signs[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)]
                assert invariant_factors(a) == invariant_factors_via_minors(a) == (1,) * n, a
                b = [[v * (i + 2) for v in row] for i, row in enumerate(a)]
                assert invariant_factors(b) == invariant_factors_via_minors(b), b


def test_row_and_column_permutations_keep_each_forms_chain():
    # P * H * Q has H's chain.  A Hermite form's zeros sit below its
    # diagonal, so permuting them onto it drives the 3 x 3 kernel's zero-pivot
    # swaps, directly at n = 3, under a unit diagonal at n = 2 and after the
    # list loop's pivot at n = 4.  Every pair (P, Q) at n = 2, 3; at n = 4,
    # where the 576 pairs would take seconds, every P alone and every Q alone
    def permuted(rows, p, q):
        return [[rows[i][j] for j in q] for i in p]

    for n, top in ((2, 64), (3, 24), (4, 8)):
        perms = list(permutations(range(n)))
        same = perms[0]
        if n == 4:
            pairs = [(p, same) for p in perms] + [(same, q) for q in perms[1:]]
        else:
            pairs = list(product(perms, repeat=2))
        for m in range(1, top + 1):
            for h in hnf_stream(n, m):
                want = invariant_factors_via_minors(h.rows)
                for p, q in pairs:
                    assert invariant_factors(permuted(h.rows, p, q)) == want, (h.rows, p, q)
    # by construction, each swap branch runs on one of these permutation
    # matrices (m = 1, so inside the sweep above).  A zero pivot takes the
    # first nonzero column of its row; a pivot whose row and column are
    # otherwise clear takes no step, so the pivot after it reads the input
    def clear(a, t):
        return not any(a[t][t + 1 :]) and not any(r[t] for r in a[t + 1 :])

    def trailing(a):
        return [r[-3:] for r in a[-3:]]

    kernel_00_from_1 = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    kernel_00_from_2 = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    kernel_11_from_2 = [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    loop_00 = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    kernel_after_loop = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    assert kernel_00_from_1[0][0] == 0 != kernel_00_from_1[0][1]
    assert kernel_00_from_2[0] == [0, 0, 1]
    assert clear(kernel_11_from_2, 0) and kernel_11_from_2[1][1] == 0 != kernel_11_from_2[1][2]
    assert loop_00[0][0] == 0
    assert clear(kernel_after_loop, 0) and trailing(kernel_after_loop)[0][:2] == [0, 1]
    for a in (kernel_00_from_1, kernel_00_from_2, kernel_11_from_2, loop_00, kernel_after_loop):
        assert invariant_factors(a) == (1,) * len(a), a


def test_singular_matrices_rejected_by_both_routes():
    cases = [
        [[0]],
        [[0, 0], [0, 0]],
        [[0, 0, 0], [1, 2, 3], [4, 5, 6]],  # zero row
        [[1, 0, 3], [4, 0, 6], [7, 0, 9]],  # zero column
        [[1, 2, 3], [4, 5, 6], [5, 7, 9]],  # rank 2: third row is the sum
        [[0, 6, 4], [0, 3, 2], [5, 1, 1]],  # rank 2, zero leading pivot
    ]
    rng = random.Random(404)
    for n in range(2, 6):
        for _ in range(20):
            top = [[rng.randrange(-50, 51) for _ in range(n)] for _ in range(n - 1)]
            k = [rng.randrange(-4, 5) for _ in range(n - 1)]
            last = [sum(c * row[j] for c, row in zip(k, top)) for j in range(n)]
            a = top + [last]
            rng.shuffle(a)
            cases.append(a)
    for a in cases:
        for route in BOTH_ROUTES:
            with pytest.raises(ValueError, match="singular"):
                route(a)


def test_diagonal_needs_gcd_lcm_pass():
    # a diagonal that is not yet a divisor chain: diag(a, b) ~ diag(gcd, lcm)
    for route in BOTH_ROUTES:
        assert route([[6, 0, 0], [0, 10, 0], [0, 0, 15]]) == (1, 30, 30)
        assert route([[4, 0], [0, 6]]) == (2, 12)


def test_hnf2_smith_exponent_known():
    assert hnf2_smith_exponent(validate_hnf([[2, 0], [0, 2]])) == 1
    assert hnf2_smith_exponent(validate_hnf([[2, 1], [0, 2]])) == 0
    assert hnf2_smith_exponent(validate_hnf([[1, 0], [0, 4]])) == 0
    assert hnf2_smith_exponent(validate_hnf([[4, 2], [0, 4]])) == 1
    assert hnf2_smith_exponent(validate_hnf([[1, 0], [0, 1]])) == 0
    with pytest.raises(ValueError):
        hnf2_smith_exponent(validate_hnf([[1, 0, 0], [0, 1, 0], [0, 0, 2]]))
    with pytest.raises(ValueError):
        hnf2_smith_exponent(validate_hnf([[2, 0], [0, 3]]))


def test_hnf2_smith_exponent_exhaustive():
    for p in (2, 3, 5):
        for r in range(0, 7):
            for h in hnf_stream(2, p**r):
                t = hnf2_smith_exponent(h)
                assert invariant_factors(h.rows) == (p**t, p ** (r - t)), h.rows


def test_hnf3_smith_exponents_known():
    # zero corner entries push two pairwise valuations to infinity, so the
    # interaction term h12*h23 - p^r2*h13 alone pins t
    h = validate_hnf([[2, 0, 1], [0, 2, 0], [0, 0, 2]])
    s, t = hnf3_smith_exponents(h)
    assert (s, t) == (0, 1)
    assert invariant_factors(h.rows) == (1, 2, 4)
    h = validate_hnf([[2, 1, 1], [0, 2, 1], [0, 0, 2]])
    assert hnf3_smith_exponents(h) == (0, 0)
    assert invariant_factors(h.rows) == (1, 1, 8)
    assert hnf3_smith_exponents(validate_hnf([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == (0, 0)
    with pytest.raises(ValueError):
        hnf3_smith_exponents(validate_hnf([[2, 0], [0, 2]]))


def test_hnf3_smith_exponents_exhaustive():
    for p in (2, 3):
        for r in range(0, 5):
            for h in hnf_stream(3, p**r):
                s, t = hnf3_smith_exponents(h)
                assert invariant_factors(h.rows) == (p**s, p ** (t - s), p ** (r - t)), h.rows


def test_mixed_prime_diag_rejected():
    with pytest.raises(ValueError, match="single common prime"):
        hnf2_smith_exponent(validate_hnf([[6, 0], [0, 6]]))
    with pytest.raises(ValueError, match="single common prime"):
        hnf3_smith_exponents(validate_hnf([[2, 0, 0], [0, 1, 0], [0, 0, 3]]))


def test_diagonal_memo_is_bounded():
    _prime_power_diag.cache_clear()
    exps = [(a, b) for a in range(75) for b in range(75)]
    for a, b in exps:
        assert hnf2_smith_exponent(validate_hnf([[2**a, 0], [0, 2**b]])) == min(a, b)
    info = _prime_power_diag.cache_info()
    assert info.misses == len(exps) > 5000
    assert info.maxsize == _DIAG_MEMO
    assert info.currsize <= _DIAG_MEMO
    # an entry still raises once the memo is full
    with pytest.raises(ValueError, match="single common prime"):
        hnf2_smith_exponent(validate_hnf([[6, 0], [0, 6]]))
    # one entry per diagonal of one prime, with the exponents, p**r, the log
    # table and the closed form's diagonal-only terms; none for a diagonal of ones
    assert _prime_power_diag((4, 2)) == ((2, 1), 8, {1: 0, 2: 1, 4: 2, 8: 3}, (1,))
    assert _prime_power_diag((9, 3, 1)) == ((2, 1, 0), 27, {1: 0, 3: 1, 9: 2, 27: 3}, (0, 1))
    assert _prime_power_diag((1, 1, 1)) is None


def test_minor_gcd_versus_gcd_of_entries():
    # order-1 minors are just the entries
    rng = random.Random(5)
    for _ in range(50):
        a = [[rng.randrange(-20, 21) for _ in range(3)] for _ in range(3)]
        g = 0
        for row in a:
            for v in row:
                g = gcd(g, v)
        assert minor_gcd(a, 1) == g
