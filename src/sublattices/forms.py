"""Hermite-form matrices and Smith invariant factors, by several independent routes.

Three routes to the invariant factors; at n = 2, 3 none calls another:

- invariant_factors: extended-gcd elimination to a diagonal, then a pairwise
  gcd/lcm pass over it (Kannan & Bachem 1979; Cohen, *A Course in
  Computational Algebraic Number Theory*, 2.4.4).  Reads neither minors nor
  valuations.  Every order ends in one straight-line kernel, _eliminate3,
  on the nine entries of the trailing 3 x 3 held in locals: a 3 x 3 matrix
  is unpacked straight into it, orders 1 and 2 sit under a unit diagonal,
  and order 4 and above first runs a list loop over pivots 0 ... n - 4.
  Each step rewrites only the entries it changes and sets an entry it
  clears to 0, and a row (column) whose entry in the pivot's column (row)
  is already 0 is skipped, so a triangular form costs few multiplications.
  xgcd is math.gcd plus a modular inverse by pow, with no Python loop.
  enumerate --with-snf takes every chain from it, at every n.
- invariant_factors_via_minors: successive quotients of the gcds of k x k
  minors; the tests' check on the other two.
- hnf2_smith_exponent / hnf3_smith_exponents: at n = 2, 3 and a prime-power
  determinant p**r, closed forms in the p-adic valuations of the entries,
  written once in _smith_closed_form.  The exponents, p**r and a table of
  the powers of p of each diagonal come from a memo of at most _DIAG_MEMO
  diagonals, so a stream is factored once per diagonal, and a valuation at
  p capped at r is one gcd with p**r.  The same memo holds the closed form's
  terms in the diagonal exponents alone (_diag_terms), so a form pays only
  for the terms that read its entries.  The closed form takes ints or
  arrays: verify evaluates it on whole boxes of forms, once per prime of
  any index, with the diagonal terms built from member columns by
  _diag_terms, and checks it against the minor gcds.

Matrix entries go through operator.index: a NumPy integer scalar is exact and
a float raises TypeError.  The module imports neither NumPy nor dataclasses:
every enumerate process loads it, and count and poly never do.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations
from math import gcd, prod
from operator import index, mod
from typing import NamedTuple, Sequence

from .arith import _valuation, factorize


class HnfError(ValueError):
    """A matrix failed Hermite normal form validation."""


class HnfMatrix(NamedTuple):
    """Upper-triangular integer matrix, positive diagonal, 0 <= h[i][j] < h[j][j] above it."""

    rows: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def diag(self) -> tuple[int, ...]:
        return tuple(self.rows[i][i] for i in range(len(self.rows)))

    def det(self) -> int:
        return prod(self.diag)


def validate_hnf(rows: Sequence[Sequence[int]]) -> HnfMatrix:
    """Check the Hermite shape constraints and wrap the matrix, or raise HnfError."""
    mat = tuple(tuple(map(index, r)) for r in rows)
    n = len(mat)
    if n == 0 or any(len(r) != n for r in mat):
        raise HnfError(f"need a nonempty square matrix, got shape {[len(r) for r in mat]}")
    for i in range(n):
        if mat[i][i] <= 0:
            raise HnfError(f"diagonal entry at ({i},{i}) must be positive, got {mat[i][i]}")
    for i in range(n):
        for j in range(n):
            if i > j and mat[i][j] != 0:
                raise HnfError(f"entry at ({i},{j}) is below the diagonal and must be 0, got {mat[i][j]}")
            if i < j and not 0 <= mat[i][j] < mat[j][j]:
                raise HnfError(
                    f"entry at ({i},{j}) must lie in [0, {mat[j][j]}), got {mat[i][j]}"
                )
    return HnfMatrix(mat)


def integer_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (fraction-free elimination)."""
    a = [list(map(index, r)) for r in rows]
    if any(len(r) != len(a) for r in a):
        raise ValueError("determinant needs a square matrix")
    return _det(a)


def _det(a: list[list[int]]) -> int:
    """Determinant of a square list of int rows, by Bareiss elimination on a itself."""
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def minor_gcd(rows: Sequence[Sequence[int]], k: int) -> int:
    """Gcd of all k x k minors of a rectangular matrix; 1 for k = 0, 0 if all minors vanish.

    The rows are made ints once, and the minors are read off that copy: a
    2 x 2 minor as its cross product, a larger one by _det on a copy of its
    entries, so integer_det's copy and checks run on none of them.
    """
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    if any(len(r) != nc for r in rows):
        raise ValueError("matrix rows have unequal lengths")
    if k == 0:
        return 1
    if not 1 <= k <= min(nr, nc):
        raise ValueError(f"minor order {k} out of range for a {nr} x {nc} matrix")
    a = [list(map(index, r)) for r in rows]
    if k == 1:
        # the 1 x 1 minors are the entries themselves
        return gcd(*chain.from_iterable(a))
    picks = list(combinations(range(nc), k))
    if k == 2:
        minors = (r[i] * s[j] - r[j] * s[i] for r, s in combinations(a, 2) for i, j in picks)
    else:
        minors = (
            _det([[r[j] for j in cols] for r in picked])
            for picked in combinations(a, k)
            for cols in picks
        )
    g = 0
    for minor in minors:
        g = gcd(g, minor)
        if g == 1:
            return 1
    return g


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b == g == gcd(a, b) >= 0.

    x is the inverse of a/g modulo |b/g|, which pow takes as 0 when b/g = +-1.
    """
    g = gcd(a, b)
    if not b:
        return g, (a > 0) - (a < 0), 0
    x = pow(a // g, -1, abs(b // g))
    return g, x, (g - x * a) // b


def _eliminate3(a00, a01, a02, a10, a11, a12, a20, a21, a22):
    """The three pivots, as absolute values, that invariant_factors' steps leave on a 3 x 3 matrix.

    Pivot (0, 0): row steps clear a10 and a20, then column steps clear a01
    and a02, repeated while a column xgcd step refills column 0; then pivot
    (1, 1) the same way on the trailing 2 x 2, and a22 is the last pivot.
    A zero pivot swaps in the first nonzero column of its row; a row that
    is zero from the pivot on makes the matrix singular.
    """
    if not a00:
        if a01:
            a00, a01, a10, a11, a20, a21 = a01, a00, a11, a10, a21, a20
        elif a02:
            a00, a02, a10, a12, a20, a22 = a02, a00, a12, a10, a22, a20
        else:
            raise ValueError("matrix is singular")
    while True:
        if a10:
            if a10 % a00:
                g, x, y = _xgcd(a00, a10)
                u, v = a00 // g, a10 // g
                a01, a11 = x * a01 + y * a11, u * a11 - v * a01
                a02, a12 = x * a02 + y * a12, u * a12 - v * a02
                a00 = g
            else:
                q = a10 // a00
                a11 -= q * a01
                a12 -= q * a02
            a10 = 0
        if a20:
            if a20 % a00:
                g, x, y = _xgcd(a00, a20)
                u, v = a00 // g, a20 // g
                a01, a21 = x * a01 + y * a21, u * a21 - v * a01
                a02, a22 = x * a02 + y * a22, u * a22 - v * a02
                a00 = g
            else:
                q = a20 // a00
                a21 -= q * a01
                a22 -= q * a02
            a20 = 0
        # column 0 is zero below the pivot here, so a column step that the
        # pivot divides changes nothing below it until an xgcd step refills it
        filled = False
        if a01:
            if a01 % a00:
                g, x, y = _xgcd(a00, a01)
                u = a00 // g
                a10, a11 = y * a11, u * a11
                a20, a21 = y * a21, u * a21
                a00 = g
                filled = True
            a01 = 0
        if a02:
            if a02 % a00:
                g, x, y = _xgcd(a00, a02)
                u, v = a00 // g, a02 // g
                a10, a12 = x * a10 + y * a12, u * a12 - v * a10
                a20, a22 = x * a20 + y * a22, u * a22 - v * a20
                a00 = g
                filled = True
            elif filled:
                q = a02 // a00
                a12 -= q * a10
                a22 -= q * a20
            a02 = 0
        if not filled:
            break
    if not a11:
        if not a12:
            raise ValueError("matrix is singular")
        a11, a12, a21, a22 = a12, a11, a22, a21
    while True:
        if a21:
            if a21 % a11:
                g, x, y = _xgcd(a11, a21)
                u, v = a11 // g, a21 // g
                a12, a22 = x * a12 + y * a22, u * a22 - v * a12
                a11 = g
            else:
                a22 -= a21 // a11 * a12
            a21 = 0
        if not a12 % a11:
            break
        g, x, y = _xgcd(a11, a12)
        u = a11 // g
        a21, a22 = y * a22, u * a22
        a11 = g
        a12 = 0
    if not a22:
        raise ValueError("matrix is singular")
    return abs(a00), abs(a11), abs(a22)


def _divisor_chain(d: Sequence[int]) -> tuple[int, ...]:
    """Nonzero pivots put in divisor order pairwise: diag(a, b) ~ diag(gcd(a, b), lcm(a, b))."""
    if not any(map(mod, d[1:], d)):
        return tuple(d)  # already a divisor chain
    d = list(d)
    for i, j in combinations(range(len(d)), 2):
        if d[j] % d[i]:
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return tuple(d)


def invariant_factors(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Invariant factor chain d1 | d2 | ... | dn of a nonsingular square integer matrix.

    Extended-gcd elimination to a diagonal (Kannan & Bachem 1979): at step t
    a nonzero pivot sits at (t, t); column steps clear row t right of it and
    row steps clear column t below it, each an exact subtraction when the
    pivot divides the entry and otherwise the 2x2 unimodular step built from
    xgcd(pivot, entry), which makes the pivot the gcd.  Row steps run first;
    only a column step of that second kind refills column t, and then both
    sweeps repeat; the pivot shrinks each time.  A zero pivot swaps in the
    first nonzero column of its row; if there is none, the trailing block
    has a zero row and the matrix is singular.  Every order ends in one
    straight-line kernel on the trailing 3 x 3, _eliminate3: a 3 x 3 matrix
    goes to it directly, orders 1 and 2 under a unit diagonal, and order 4 and
    above after a list loop over pivots 0 ... n - 4.  The pivots are then put
    in divisor order pairwise, diag(a, b) ~ diag(gcd, lcm).  Reads no minors
    and no valuations.  Entries that are not plain ints (NumPy scalars, say)
    go through operator.index first, so the answer is exact whatever their
    width.
    """
    n = len(rows)
    if 1 <= n <= 3:
        # orders 1 and 2 sit under a unit diagonal: it takes no step and adds only leading ones
        try:
            if n == 3:
                (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = rows
            elif n == 2:
                a00, a01, a02, a10, a20 = 1, 0, 0, 0, 0
                (a11, a12), (a21, a22) = rows
            else:
                a00, a01, a02, a10, a11, a12, a20, a21 = 1, 0, 0, 0, 1, 0, 0, 0
                ((a22,),) = rows
        except ValueError:
            raise ValueError("need a nonempty square matrix") from None
        if not (
            type(a00) is int
            and type(a01) is int
            and type(a02) is int
            and type(a10) is int
            and type(a11) is int
            and type(a12) is int
            and type(a20) is int
            and type(a21) is int
            and type(a22) is int
        ):
            a00, a01, a02, a10, a11, a12, a20, a21, a22 = map(
                index, (a00, a01, a02, a10, a11, a12, a20, a21, a22)
            )
        d = _eliminate3(a00, a01, a02, a10, a11, a12, a20, a21, a22)
        if d[1] % d[0] or d[2] % d[1]:
            d = _divisor_chain(d)
        return d if n == 3 else d[3 - n :]
    a = list(map(list, rows))
    if n == 0:
        raise ValueError("need a nonempty square matrix")
    # one pass per row: its length, then, from its first entry that is not a
    # plain int on, every entry of it through operator.index
    for r in a:
        if len(r) != n:
            raise ValueError("need a nonempty square matrix")
        for x in r:
            if type(x) is not int:
                r[:] = map(index, r)
                break
    d = []
    for t in range(n - 3):
        rt = a[t]
        if not rt[t]:
            j = next((j for j in range(t + 1, n) if rt[j]), None)
            if j is None:
                raise ValueError("matrix is singular")
            for r in a:
                r[t], r[j] = r[j], r[t]
        p = rt[t]
        below = a[t + 1 :]
        cols = range(t + 1, n)
        while True:
            for r in below:
                b = r[t]
                if not b:
                    continue
                if b % p:
                    g, x, y = _xgcd(p, b)
                    u, v = p // g, b // g
                    for j in cols:
                        c, e = rt[j], r[j]
                        rt[j], r[j] = x * c + y * e, u * e - v * c
                    p = g
                else:
                    q = b // p
                    for j in cols:
                        r[j] -= q * rt[j]
                r[t] = 0
            filled = False
            for j in cols:
                b = rt[j]
                if not b:
                    continue
                if b % p:
                    g, x, y = _xgcd(p, b)
                    u, v = p // g, b // g
                    for r in below:
                        c, e = r[t], r[j]
                        r[t], r[j] = x * c + y * e, u * e - v * c
                    p = g
                    filled = True
                elif filled:
                    q = b // p
                    for r in below:
                        r[j] -= q * r[t]
                rt[j] = 0
            if not filled:
                break
        d.append(abs(p))
    d += _eliminate3(*a[-3][-3:], *a[-2][-3:], *a[-1][-3:])
    return _divisor_chain(d)


def invariant_factors_via_minors(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Invariant factors as successive quotients of minor gcds; independent of reduction."""
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("need a nonempty square matrix")
    out = []
    prev = 1
    for k in range(1, n + 1):
        dk = minor_gcd(rows, k)
        if dk == 0:
            raise ValueError("matrix is singular")
        if dk % prev:
            raise ArithmeticError(f"minor gcds violate divisibility: {dk} not divisible by {prev}")
        out.append(dk // prev)
        prev = dk
    return tuple(out)


# most diagonals whose exponents, powers and diagonal terms the prime-power views keep
_DIAG_MEMO = 4096


@lru_cache(maxsize=_DIAG_MEMO)
def _prime_power_diag(diag: tuple[int, ...]) -> tuple[tuple, int, dict, tuple] | None:
    """(exponents, p**r, logs, terms) of a diagonal of powers of one prime p; None for ones.

    logs maps p**k to k up to r, so an entry's valuation at p, capped at r,
    is logs[gcd(x, p**r)]; terms are the closed form's diagonal-only terms,
    _diag_terms(min, exponents), for a diagonal of length 2 or 3.  A diagonal
    with two primes raises ValueError.
    """
    primes = {p for d in diag for p, _ in factorize(d)}
    if len(primes) > 1:
        raise ValueError(f"diagonal {diag} is not a power of a single common prime")
    if not primes:
        return None
    (p,) = primes
    exps = tuple(_valuation(p, d) for d in diag)
    r = sum(exps)
    return exps, p**r, {p**k: k for k in range(r + 1)}, _diag_terms(min, exps)


def _diag_terms(least, r):
    """The closed form's terms in the diagonal exponents alone, for _smith_closed_form.

    (min(r1, r2),) at n = 2; (min(r1, r2, r3), min(r1+r2, r2+r3, r1+r3)) at
    n = 3, with least as in _smith_closed_form.
    """
    if len(r) == 2:
        return (least(r[0], r[1]),)
    r1, r2, r3 = r
    return least(r1, r2, r3), least(r1 + r2, r2 + r3, r1 + r3)


def _smith_closed_form(least, r, terms, o):
    """Smith exponents of a prime-power Hermite form from its diagonal exponents and valuations.

    n = 2: r = (r1, r2), terms = _diag_terms(least, r) and o = (o12,); the
    result t gives the invariant factors (p**t, p**(r1+r2-t)).  n = 3: r =
    (r1, r2, r3), terms = _diag_terms(least, r) and o = (o12, o13, o23, u),
    with u the valuation of h12*h23 - d2*h13, which carries the one
    interaction the pairwise valuations miss; the result (s, t) gives (p**s,
    p**(t-s), p**(r1+r2+r3-t)), where s = min(r1, r2, r3, o12, o13, o23) and
    t = min(r1+r2, r2+r3, r1+r3, r1+o23, r3+o12, u).  least is min for ints,
    or an elementwise minimum of its arguments for arrays.  Both minima stay
    at or below r1+r2+r3 less its largest term, so valuations capped there
    give the same result.  At any index they give the p-parts of the
    factors: scaling a row or column by a p-adic unit moves no valuation at p.
    """
    if len(r) == 2:
        return least(terms[0], o[0])
    o12, o13, o23, u = o
    return least(terms[0], o12, o13, o23), least(terms[1], r[0] + o23, r[2] + o12, u)


def hnf2_smith_exponent(h: HnfMatrix) -> int:
    """Exponent t with invariant factors (p**t, p**(r-t)) for a 2 x 2 prime-power HNF matrix."""
    try:
        (d1, h12), (_, d2) = h.rows
    except ValueError:
        raise ValueError(f"need a 2 x 2 matrix, got n={h.n}") from None
    diag = _prime_power_diag((d1, d2))
    if diag is None:
        return 0  # a diagonal of ones
    exps, q, logs, terms = diag
    return _smith_closed_form(min, exps, terms, (logs[gcd(h12, q)],))


def hnf3_smith_exponents(h: HnfMatrix) -> tuple[int, int]:
    """Exponents (s, t) with invariant factors (p**s, p**(t-s), p**(r-t)) for n = 3."""
    try:
        (d1, h12, h13), (_, d2, h23), (_, _, d3) = h.rows
    except ValueError:
        raise ValueError(f"need a 3 x 3 matrix, got n={h.n}") from None
    diag = _prime_power_diag((d1, d2, d3))
    if diag is None:
        return 0, 0  # a diagonal of ones
    exps, q, logs, terms = diag
    u = h12 * h23 - d2 * h13
    o = (logs[gcd(h12, q)], logs[gcd(h13, q)], logs[gcd(h23, q)], logs[gcd(u, q)])
    return _smith_closed_form(min, exps, terms, o)
