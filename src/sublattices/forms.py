"""Hermite-form matrices and Smith invariant factors, by several independent routes.

Three routes to the invariant factors; at n = 2, 3 none calls another:

- invariant_factors: extended-gcd elimination to a diagonal, then a pairwise
  gcd/lcm pass over it (Kannan & Bachem 1979; Cohen, *A Course in
  Computational Algebraic Number Theory*, 2.4.4).  Reads neither minors nor
  valuations.  It steps in place on one copy of the rows, as plain ints:
  each step rewrites only the entries it changes and sets an entry it
  clears to 0, and a row (column) whose entry in the pivot's column (row)
  is already 0 is skipped, so a triangular form costs few multiplications.
  xgcd is math.gcd plus a modular inverse by pow, with no Python loop.
- invariant_factors_via_minors: successive quotients of the gcds of k x k
  minors.
- _hnf_chain: at n = 2, 3, closed forms in the p-adic valuations of the
  entries, once per prime p of the determinant p**r * ...  The primes,
  exponents and powers of each diagonal come from a memo of at most
  _DIAG_MEMO diagonals, so a stream is factored once per diagonal, and a
  valuation at p capped at r is one gcd with p**r.  enumerate --with-snf
  takes every chain from it; hnf2_smith_exponent / hnf3_smith_exponents
  are its prime-power views.  The closed form, _smith_closed_form, takes
  ints or arrays: verify evaluates it on whole boxes of forms, per prime.

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


def invariant_factors(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Invariant factor chain d1 | d2 | ... | dn of a nonsingular square integer matrix.

    Extended-gcd elimination to a diagonal (Kannan & Bachem 1979): at step t
    a nonzero pivot sits at (t, t); column steps clear row t right of it and
    row steps clear column t below it, each an exact subtraction when the
    pivot divides the entry and otherwise the 2x2 unimodular step built from
    xgcd(pivot, entry), which makes the pivot the gcd.  Row steps run first;
    only a column step of that second kind refills column t, and then both
    sweeps repeat; the pivot shrinks each time.  The pivots are then put in
    divisor order pairwise, diag(a, b) ~ diag(gcd, lcm).  Reads no minors and
    no valuations.  Entries that are not plain ints (NumPy scalars, say) go
    through operator.index first, so the answer is exact whatever their width.
    """
    a = list(map(list, rows))
    n = len(a)
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
    for t in range(n - 1):
        if not a[t][t]:
            nonzero = next(((i, j) for i in range(t, n) for j in range(t, n) if a[i][j]), None)
            if nonzero is None:
                raise ValueError("matrix is singular")
            i, j = nonzero
            a[t], a[i] = a[i], a[t]
            for r in a:
                r[t], r[j] = r[j], r[t]
        rt = a[t]
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
    p = a[n - 1][n - 1]
    if not p:
        raise ValueError("matrix is singular")
    d.append(abs(p))
    if not any(map(mod, d[1:], d)):
        return tuple(d)  # already a divisor chain
    for i, j in combinations(range(n), 2):
        if d[j] % d[i]:
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return tuple(d)


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


_DIAG_MEMO = 4096  # most diagonals whose primes, exponents and powers the shortcuts keep


@lru_cache(maxsize=_DIAG_MEMO)
def _diag_primes(diag: tuple[int, ...]) -> tuple[tuple[int, tuple[int, ...], int, dict], ...]:
    """(p, exponents, p**r, logs) per prime p of the diagonal, increasing; none for ones.

    logs maps p**k to k up to r, so an entry's valuation at p, capped at r,
    is logs[gcd(x, p**r)].
    """
    out = []
    for p in sorted({p for d in diag for p, _ in factorize(d)}):
        exps = tuple(_valuation(p, d) for d in diag)
        out.append((p, exps, p ** sum(exps), {p**k: k for k in range(sum(exps) + 1)}))
    return tuple(out)


def _smith_closed_form(least, r, o):
    """Smith exponents of a prime-power Hermite form from its diagonal exponents and valuations.

    n = 2: r = (r1, r2) and o = (o12,); the result t gives the invariant
    factors (p**t, p**(r1+r2-t)).  n = 3: r = (r1, r2, r3) and o = (o12, o13,
    o23, u), with u the valuation of h12*h23 - d2*h13, which carries the one
    interaction the pairwise valuations miss; the result (s, t) gives
    (p**s, p**(t-s), p**(r1+r2+r3-t)).  least is min for ints, or an
    elementwise minimum of its arguments for arrays.  Both minima stay at or
    below r1+r2+r3 less its largest term, so valuations capped there give the
    same result.  At any index they give the p-parts of the factors: scaling
    a row or column by a p-adic unit moves no valuation at p.
    """
    if len(r) == 2:
        return least(r[0], r[1], o[0])
    r1, r2, r3 = r
    o12, o13, o23, u = o
    s = least(r1, r2, r3, o12, o13, o23)
    t = least(r1 + r2, r2 + r3, r1 + r3, r1 + o23, r3 + o12, u)
    return s, t


def _valuation_args(rows):
    """(diagonal, entries whose valuations the closed form reads) of a 2 x 2 or 3 x 3 Hermite form."""
    if len(rows) == 2:
        (d1, h12), (_, d2) = rows
        return (d1, d2), (h12,)
    (d1, h12, h13), (_, d2, h23), (_, _, d3) = rows
    return (d1, d2, d3), (h12, h13, h23, h12 * h23 - d2 * h13)


def _hnf_chain(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Invariant factor chain of a Hermite form; at n = 2, 3 from the closed form per prime.

    The p-parts p**t of D1 (n = 2), or p**s of D1 and p**t of D2 (n = 3), D_k
    the gcd of the k x k minors, give the chain as successive quotients.
    """
    n = len(rows)
    if n not in (2, 3):
        return invariant_factors(rows)
    diag, entries = _valuation_args(rows)
    d1 = d2 = det = 1
    for p, exps, q, logs in _diag_primes(diag):
        got = _smith_closed_form(min, exps, [logs[gcd(x, q)] for x in entries])
        det *= q
        if n == 2:
            d1 *= p**got
        else:
            d1 *= p ** got[0]
            d2 *= p ** got[1]
    return (d1, det // d1) if n == 2 else (d1, d2 // d1, det // d2)


def _single_prime(h: HnfMatrix, n: int):
    """The closed form of an n x n Hermite form whose diagonal holds one prime at most."""
    if h.n != n:
        raise ValueError(f"need a {n} x {n} matrix, got n={h.n}")
    diag, entries = _valuation_args(h.rows)
    primes = _diag_primes(diag)
    if len(primes) > 1:
        raise ValueError(f"diagonal {diag} is not a power of a single common prime")
    # a diagonal of ones reads every valuation as 0
    _, exps, q, logs = primes[0] if primes else (1, (0,) * n, 1, {1: 0})
    return _smith_closed_form(min, exps, [logs[gcd(x, q)] for x in entries])


def hnf2_smith_exponent(h: HnfMatrix) -> int:
    """Exponent t with invariant factors (p**t, p**(r-t)) for a 2 x 2 prime-power HNF matrix."""
    return _single_prime(h, 2)


def hnf3_smith_exponents(h: HnfMatrix) -> tuple[int, int]:
    """Exponents (s, t) with invariant factors (p**s, p**(t-s), p**(r-t)) for n = 3."""
    return _single_prime(h, 3)
