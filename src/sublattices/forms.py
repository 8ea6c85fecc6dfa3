"""Hermite-form matrices and Smith invariant factors, by several independent routes."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd, prod
from typing import Sequence

from .arith import factorize, ord_p


class HnfError(ValueError):
    """A matrix failed Hermite normal form validation."""


@dataclass(frozen=True)
class HnfMatrix:
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


def invariant_factors(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Invariant factor chain d1 | d2 | ... | dn of a nonsingular square integer matrix.

    Elementary row and column reduction with smallest-magnitude pivoting.
    """
    a = [list(map(int, r)) for r in rows]
    n = len(a)
    if n == 0 or any(len(r) != n for r in a):
        raise ValueError("need a nonempty square matrix")
    out = []
    for t in range(n):
        while True:
            pivot = None
            best = None
            for i in range(t, n):
                for j in range(t, n):
                    v = abs(a[i][j])
                    if v and (best is None or v < best):
                        best, pivot = v, (i, j)
            if pivot is None:
                raise ValueError("matrix is singular")
            pi, pj = pivot
            if pi != t:
                a[t], a[pi] = a[pi], a[t]
            if pj != t:
                for r in a:
                    r[t], r[pj] = r[pj], r[t]
            if a[t][t] < 0:
                a[t] = [-v for v in a[t]]
            p = a[t][t]
            dirty = False
            for i in range(t + 1, n):
                q = a[i][t] // p
                if q:
                    for j in range(t, n):
                        a[i][j] -= q * a[t][j]
                if a[i][t]:
                    dirty = True
            for j in range(t + 1, n):
                q = a[t][j] // p
                if q:
                    for i in range(t, n):
                        a[i][j] -= q * a[i][t]
                if a[t][j]:
                    dirty = True
            if dirty:
                continue
            bad = next(
                ((i, j) for i in range(t + 1, n) for j in range(t + 1, n) if a[i][j] % p),
                None,
            )
            if bad is None:
                break
            # pivot must divide the trailing block; pull the offending row up and retry
            bi = bad[0]
            for j in range(t, n):
                a[t][j] += a[bi][j]
        out.append(a[t][t])
    return tuple(out)


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


def _prime_power_diag(h: HnfMatrix) -> tuple[int | None, tuple[int, ...]]:
    """(p, exponents) for a diagonal of powers of one prime; p is None when all ones."""
    p = None
    exps = []
    for v in h.diag:
        if v == 1:
            exps.append(0)
            continue
        if p is None:
            p = factorize(v)[0][0]
        e = 0
        w = v
        while w % p == 0:
            w //= p
            e += 1
        if w != 1:
            raise ValueError(f"diagonal entry {v} is not a power of a single common prime")
        exps.append(e)
    return p, tuple(exps)


def hnf2_smith_exponent(h: HnfMatrix) -> int:
    """Exponent t with invariant factors (p**t, p**(r-t)) for a 2 x 2 prime-power HNF matrix."""
    if h.n != 2:
        raise ValueError(f"need a 2 x 2 matrix, got n={h.n}")
    p, (r1, r2) = _prime_power_diag(h)
    if p is None:
        return 0
    t = min(r1, r2, ord_p(p, h.rows[0][1]))
    return int(t)


def hnf3_smith_exponents(h: HnfMatrix) -> tuple[int, int]:
    """Exponents (s, t) with invariant factors (p**s, p**(t-s), p**(r-t)) for n = 3.

    Closed form from the entry valuations; the combination h12*h23 - p**r2 * h13
    carries the one interaction the pairwise valuations miss.
    """
    if h.n != 3:
        raise ValueError(f"need a 3 x 3 matrix, got n={h.n}")
    p, (r1, r2, r3) = _prime_power_diag(h)
    if p is None:
        return 0, 0
    h12, h13 = h.rows[0][1], h.rows[0][2]
    h23 = h.rows[1][2]
    o12, o13, o23 = ord_p(p, h12), ord_p(p, h13), ord_p(p, h23)
    s = min(r1, r2, r3, o12, o13, o23)
    u = ord_p(p, h12 * h23 - p**r2 * h13)
    t = min(r1 + r2, r2 + r3, r1 + r3, r1 + o23, r3 + o12, u)
    return int(s), int(t)
