"""Hermite-form matrices and Smith invariant factors, by several independent routes.

Three routes to the invariant factors, none calling another:

- invariant_factors: extended-gcd elimination to a diagonal, then a pairwise
  gcd/lcm pass over it (Kannan & Bachem 1979; Cohen, *A Course in
  Computational Algebraic Number Theory*, 2.4.4).  Reads neither minors nor
  valuations.
- invariant_factors_via_minors: successive quotients of the gcds of k x k
  minors.
- hnf2_smith_exponent / hnf3_smith_exponents: closed forms in the p-adic
  valuations of the entries of a prime-power Hermite form.  The prime,
  exponents and powers of each diagonal come from a memo of at most
  _DIAG_MEMO diagonals, so the index is factored once per diagonal, not once
  per form, and a valuation capped at the index's exponent is one gcd with
  the index.  enumerate --with-snf takes its chains from them at n = 2, 3
  and a prime-power index.  The closed form itself, _smith_closed_form,
  takes ints or arrays: the oracle's verify evaluates it on whole boxes of
  forms, against minor gcds.

The module imports neither NumPy nor dataclasses: every enumerate process
loads it, and count and poly never do.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import gcd, prod
from typing import NamedTuple, Sequence

from .arith import factorize


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
    mat = tuple(tuple(int(v) for v in r) for r in rows)
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
    a = [list(map(int, r)) for r in rows]
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("determinant needs a square matrix")
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
    """Gcd of all k x k minors of a rectangular matrix; 1 for k = 0, 0 if all minors vanish."""
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    if any(len(r) != nc for r in rows):
        raise ValueError("matrix rows have unequal lengths")
    if k == 0:
        return 1
    if not 1 <= k <= min(nr, nc):
        raise ValueError(f"minor order {k} out of range for a {nr} x {nc} matrix")
    g = 0
    for rsel in combinations(range(nr), k):
        for csel in combinations(range(nc), k):
            sub = [[rows[i][j] for j in csel] for i in rsel]
            g = gcd(g, integer_det(sub))
            if g == 1:
                return 1
    return g


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b == g == gcd(a, b) >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def invariant_factors(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Invariant factor chain d1 | d2 | ... | dn of a nonsingular square integer matrix.

    Extended-gcd elimination to a diagonal (Kannan & Bachem 1979): at step t
    a nonzero pivot sits at (t, t); column steps clear row t right of it and
    row steps clear column t below it, each an exact subtraction when the
    pivot divides the entry and otherwise the 2x2 unimodular step built from
    xgcd(pivot, entry), which makes the pivot the gcd.  Row steps of that
    second kind refill row t, so the two sweeps repeat until both are clear;
    the pivot shrinks each time.  The diagonal is then put in divisor order
    pairwise, diag(a, b) ~ diag(gcd, lcm).  Reads no minors and no valuations.
    """
    a = [list(map(int, r)) for r in rows]
    n = len(a)
    if n == 0 or set(map(len, a)) != {n}:
        raise ValueError("need a nonempty square matrix")
    for t in range(n - 1):
        if a[t][t] == 0:
            nonzero = next(((i, j) for i in range(t, n) for j in range(t, n) if a[i][j]), None)
            if nonzero is None:
                raise ValueError("matrix is singular")
            i, j = nonzero
            a[t], a[i] = a[i], a[t]
            for r in a:
                r[t], r[j] = r[j], r[t]
        while True:
            rt = a[t]
            p = rt[t]
            for j in range(t + 1, n):
                b = rt[j]
                if not b:
                    continue
                if b % p == 0:
                    q = b // p
                    for r in a[t:]:
                        r[j] -= q * r[t]
                    continue
                g, x, y = _xgcd(p, b)
                u, v = p // g, b // g
                for r in a[t:]:
                    c, d = r[t], r[j]
                    r[t], r[j] = x * c + y * d, u * d - v * c
                p = g
            for i in range(t + 1, n):
                ri = a[i]
                b = ri[t]
                if not b:
                    continue
                if b % p == 0:
                    q = b // p
                    a[i] = [d - q * c for c, d in zip(rt, ri)]
                    continue
                g, x, y = _xgcd(p, b)
                u, v = p // g, b // g
                a[t] = [x * c + y * d for c, d in zip(rt, ri)]
                a[i] = [u * d - v * c for c, d in zip(rt, ri)]
                rt = a[t]
                p = g
            if not any(rt[t + 1 :]):
                break
    if not a[n - 1][n - 1]:
        raise ValueError("matrix is singular")
    d = [abs(a[t][t]) for t in range(n)]
    for i in range(n - 1):
        for j in range(i + 1, n):
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


_DIAG_MEMO = 4096  # most diagonals whose exponents and powers the shortcuts keep


@lru_cache(maxsize=_DIAG_MEMO)
def _prime_power_diag(diag: tuple[int, ...]) -> tuple[tuple[int, ...], int, dict[int, int]]:
    """(exponents, index, logs) for a diagonal of powers of one prime p.

    logs maps p**k to k for k up to the exponent r of the index, so the
    valuation of an entry x, capped at r, is logs[gcd(x, index)].  A diagonal
    of ones has index 1 and logs {1: 0}.
    """
    p = 1
    exps = []
    for v in diag:
        if v == 1:
            exps.append(0)
            continue
        if p == 1:
            p = factorize(v)[0][0]
        e = 0
        w = v
        while w % p == 0:
            w //= p
            e += 1
        if w != 1:
            raise ValueError(f"diagonal entry {v} is not a power of a single common prime")
        exps.append(e)
    r = sum(exps)
    return tuple(exps), p**r, {p**k: k for k in range(r + 1)}


def _smith_closed_form(least, r, o):
    """Smith exponents of a prime-power Hermite form from its diagonal exponents and valuations.

    n = 2: r = (r1, r2) and o = (o12,); the result t gives the invariant
    factors (p**t, p**(r1+r2-t)).  n = 3: r = (r1, r2, r3) and o = (o12, o13,
    o23, u), with u the valuation of h12*h23 - d2*h13, which carries the one
    interaction the pairwise valuations miss; the result (s, t) gives
    (p**s, p**(t-s), p**(r1+r2+r3-t)).  least is min for ints, or an
    elementwise minimum of its arguments for arrays.  Both minima stay at or
    below r1+r2+r3, so valuations capped there give the same result.
    """
    if len(r) == 2:
        return least(r[0], r[1], o[0])
    r1, r2, r3 = r
    o12, o13, o23, u = o
    s = least(r1, r2, r3, o12, o13, o23)
    t = least(r1 + r2, r2 + r3, r1 + r3, r1 + o23, r3 + o12, u)
    return s, t


def hnf2_smith_exponent(h: HnfMatrix) -> int:
    """Exponent t with invariant factors (p**t, p**(r-t)) for a 2 x 2 prime-power HNF matrix."""
    rows = h.rows
    if len(rows) != 2:
        raise ValueError(f"need a 2 x 2 matrix, got n={h.n}")
    (d1, h12), (_, d2) = rows
    exps, m, logs = _prime_power_diag((d1, d2))
    return _smith_closed_form(min, exps, (logs[gcd(h12, m)],))


def hnf3_smith_exponents(h: HnfMatrix) -> tuple[int, int]:
    """Exponents (s, t) with invariant factors (p**s, p**(t-s), p**(r-t)) for n = 3."""
    rows = h.rows
    if len(rows) != 3:
        raise ValueError(f"need a 3 x 3 matrix, got n={h.n}")
    (d1, h12, h13), (_, d2, h23), (_, _, d3) = rows
    exps, m, logs = _prime_power_diag((d1, d2, d3))
    u = h12 * h23 - d2 * h13
    return _smith_closed_form(
        min, exps, (logs[gcd(h12, m)], logs[gcd(h13, m)], logs[gcd(h23, m)], logs[gcd(u, m)])
    )
