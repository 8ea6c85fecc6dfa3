"""Dense integer polynomials in one formal variable T, and the class-size polynomials.

A polynomial is a plain list of int coefficients, constant term first, with no
trailing zeros; the zero polynomial is the empty list.  Class sizes at a fixed
exponent tuple are polynomials in the prime.

Production expands the closed forms of arith, which census evaluates at the
prime in integers, by multiplications and exact divisions by T^i - 1: the class
of quotient group G is |Surj(Z^n, G)| / |Aut G| (Hillar & Rhea, Amer. Math.
Monthly 114 (2007)), one exponent tuple at a time, and the count at index T^r
is the Gaussian binomial [n-1+r; n-1]_T (Lubotzky & Segal, "Subgroup Growth",
ch. 15), which verify suite checks against the sum of its level's class sizes.

The paper's glue recursion stays as the independent route that verifies it,
behind class_size_poly_glue, which recurses only into itself.  It runs
push-style, one level at a time.  Each (pivot, inner) glue box of the level is
scanned once, its cells are bucketed by merged exponent tuple (fixed by the
cell's valuation levels and cutoff, from _profile), and every bucket's glue
weight times the inner class polynomial goes to its target, so one pass builds
every class of the level.  Glue weights are tallied as integer counts per
(c, s), standing for T^s (T - 1)^c, with no polynomial arithmetic per cell and
no division anywhere."""

from __future__ import annotations

from collections import Counter
from itertools import product as iter_product
from math import comb
from typing import MutableMapping, Sequence

from .arith import INFINITY, _class_size_form, partitions


def poly_normalize(coeffs: Sequence[int]) -> list[int]:
    out = [int(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_add(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return poly_normalize(out)


def poly_sub(a: Sequence[int], b: Sequence[int]) -> list[int]:
    return poly_add(a, [-c for c in b])


def poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return poly_normalize(out)


def poly_eval(coeffs: Sequence[int], x: int) -> int:
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def poly_render(coeffs: Sequence[int]) -> str:
    """Human form, highest degree first: [0, 1, 1] -> 'T^2 + T'."""
    coeffs = poly_normalize(coeffs)
    if not coeffs:
        return "0"
    parts = []
    for deg in range(len(coeffs) - 1, -1, -1):
        c = coeffs[deg]
        if c == 0:
            continue
        if deg == 0:
            body = str(abs(c))
        else:
            power = "T" if deg == 1 else f"T^{deg}"
            body = power if abs(c) == 1 else f"{abs(c)}{power}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def _profile(pivot: int, inner: tuple[int, ...], glue: tuple[int, ...]) -> tuple[tuple, int]:
    """(levels, cutoff) of the class glued from a pivot vector onto an inner class.

    inner is the nondecreasing exponent tuple of the inner class and glue the
    componentwise valuations of the glue vector, with 0 <= glue[i] <= inner[i].
    Level k (1-based) is
        min(inner[k-1] - inner[i] + glue[i] for i < k-1,  glue[j] for j >= k-1)
    over 0-based positions of the inner tuple, and a last level INFINITY makes
    the cutoff, the first 1-based k whose level exceeds pivot, always exist.
    One pass with running minima: head is min(glue[i] - inner[i]) over the
    positions before q and tail[q] is min(glue[q:]), so position q gets level
    min(inner[q] + head, tail[q]).
    """
    tail = list(glue)
    for q in range(len(tail) - 2, -1, -1):
        if tail[q + 1] < tail[q]:
            tail[q] = tail[q + 1]
    levels: list = []
    head = INFINITY
    for q, b in enumerate(inner):
        levels.append(min(b + head, tail[q]))
        head = min(head, glue[q] - b)
    levels.append(INFINITY)
    for a, b in zip(levels, levels[1:]):
        if a > b:
            raise ArithmeticError(f"valuation levels must be nondecreasing, got {levels}")
    cutoff = next(k for k, lv in enumerate(levels, start=1) if pivot < lv)
    return tuple(levels), cutoff


def _merged_exponents(pivot: int, inner: tuple[int, ...], prof: tuple[tuple, int]) -> tuple[int, ...]:
    """Exponent tuple of the class glued from (pivot, inner) with the profile (levels, cutoff)."""
    n = len(inner) + 1
    levels, k0 = prof
    lv = (0,) + levels  # 1-based access with level_0 = 0
    b = (0,) + inner  # 1-based access with inner_0 = 0
    out = []
    for k in range(1, n + 1):
        if k < k0:
            out.append(lv[k] if k == 1 else b[k - 1] + lv[k] - lv[k - 1])
        elif k == k0:
            out.append(b[k - 1] + pivot - lv[k - 1])
        else:
            out.append(b[k - 1])
    return tuple(out)


def _glue_buckets(pivot: int, inner: tuple[int, ...]) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """Every cell of the glue box prod [0, inner[i]], grouped by merged exponent tuple.

    The one scan of a (pivot, inner) box; arguments are trusted, since callers
    check them once per box.  Each bucket keeps its glue tuples in scan order.
    """
    buckets: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for glue in iter_product(*(range(b + 1) for b in inner)):
        target = _merged_exponents(pivot, inner, _profile(pivot, inner, glue))
        buckets.setdefault(target, []).append(glue)
    return buckets


def admissible_glue(pivot: int, target: Sequence[int], inner: Sequence[int]) -> list[tuple[int, ...]]:
    """Glue valuation tuples through which (pivot, inner) merges into target.

    The bucket of target in the scan of the box prod [0, inner[i]], in scan
    order.  Empty when the exponent budget sum(target) = pivot + sum(inner)
    fails.  The result does not depend on any prime, which is what makes the
    class sizes polynomial in the prime.  The recursion never calls this
    per-target view; the benchmark's glue-cell probe wraps it.
    """
    target = tuple(int(a) for a in target)
    inner = tuple(int(b) for b in inner)
    if pivot < 0:
        raise ValueError(f"pivot exponent must be nonnegative, got {pivot}")
    if len(target) != len(inner) + 1:
        raise ValueError("target must have one more part than the inner class")
    if sum(target) != pivot + sum(inner):
        return []
    if any(b < 0 for b in inner) or any(inner[i] > inner[i + 1] for i in range(len(inner) - 1)):
        raise ValueError(f"inner class must be nondecreasing and nonnegative, got {inner}")
    return _glue_buckets(pivot, inner).get(target, [])


def _glue_weight(inner: Sequence[int], glues: Sequence[Sequence[int]]) -> list[int]:
    """Sum over the glue tuples of the glue vector count, as a polynomial in the prime.

    A glue tuple counts prod (T^e - T^(e-1)) vectors over the coordinates with
    e = inner[i] - glue[i] > 0, which is T^s (T - 1)^c for c such coordinates
    and s the sum of e - 1 over them.  The tuples are tallied by (c, s) and
    each tally is expanded once.
    """
    depth = sum(inner)
    tally: Counter[tuple[int, int]] = Counter()
    for glue in glues:
        c = sum(b > d for b, d in zip(inner, glue))
        tally[c, depth - sum(glue) - c] += 1
    out = [0] * (depth + 1)  # degree s + c = depth - sum(glue)
    for (c, s), count in tally.items():
        for j in range(c + 1):
            out[s + j] += (-1) ** (c - j) * comb(c, j) * count
    return poly_normalize(out)


def _times_cyclic(a: Sequence[int], i: int) -> list[int]:
    """a * (T^i - 1), for i >= 1."""
    out = [0] * i + list(a)
    for j, c in enumerate(a):
        out[j] -= c
    return poly_normalize(out)


def _over_cyclic(a: Sequence[int], i: int) -> list[int]:
    """The exact quotient a / (T^i - 1), for i >= 1; ArithmeticError on a remainder.

    Synthetic division from the constant term up: a[j] = q[j-i] - q[j].
    """
    q = [0] * max(len(a) - i, 0)
    for j in range(len(q)):
        q[j] = (q[j - i] if j >= i else 0) - a[j]
    if any(a[j] != (q[j - i] if j >= i else 0) for j in range(len(q), len(a))):
        raise ArithmeticError(f"T^{i} - 1 does not divide {poly_render(a)}")
    return q


def _form_poly(a: int, pairs: Sequence[tuple[int, int]]) -> list[int]:
    """T^a * prod [top; bottom]_T, a closed form of arith, as a polynomial.

    Multiplying and dividing in turn keeps every division exact.
    """
    out = [1]
    for top, bottom in pairs:
        for i in range(1, bottom + 1):
            out = _over_cyclic(_times_cyclic(out, top - bottom + i), i)
    return [0] * a + out


def class_size_poly_glue(exponents: tuple[int, ...], memo: MutableMapping) -> list[int]:
    """Class size at a nondecreasing exponent tuple by the paper's glue recursion.

    The independent route that verifies the closed form of class_size_poly:
    split off the first basis direction (the pivot), classify the remaining
    directions as an inner class one dimension down, and weight each inner
    class by the number of glue vectors through which the two merge into the
    requested class.  A miss fills the whole level of the tuple in memo, and
    the levels below it that the level reads; there is no default memo.
    """
    got = memo.get(exponents)
    if got is None:
        _fill_level(len(exponents), sum(exponents), memo)
        got = memo[exponents]
    return got


def _fill_level(n: int, k: int, memo: MutableMapping) -> None:
    """Add to memo every class of dimension n and exponent sum k that it lacks.

    One pass over the level's glue boxes: each (pivot, inner) box with inner in
    partitions(n-1, k-pivot) is scanned once, and each bucket's glue weight
    times the inner class polynomial is added to its target.  Entries already
    in memo are left as they are.
    """
    todo: dict[tuple[int, ...], list[int]] = {t: [] for t in partitions(n, k) if t not in memo}
    if n == 1:
        todo = {t: [1] for t in todo}
    else:
        for pivot in range(k + 1):
            for inner in partitions(n - 1, k - pivot):
                inner_poly = None
                for target, glues in _glue_buckets(pivot, inner).items():
                    if target not in todo:
                        continue
                    if inner_poly is None:
                        inner_poly = class_size_poly_glue(inner, memo)
                    term = poly_mul(inner_poly, _glue_weight(inner, glues))
                    todo[target] = poly_add(todo[target], term)
    memo.update(todo)


def class_size_poly(exponents: Sequence[int]) -> list[int]:
    """Class size at the given exponent tuple as a polynomial in the prime.

    The closed form arith._class_size_form, built for this tuple alone; its
    value at a prime p is class_size_prime(exponents, p).
    """
    return _form_poly(*_class_size_form(exponents))


def sublattice_count_poly(n: int, r: int, memo: MutableMapping | None = None) -> list[int]:
    """Number of index-p**r sublattices of Z^n as a polynomial in the prime p.

    The Gaussian binomial [n-1+r; n-1]_T.  memo is accepted and never read.
    """
    if n < 1 or r < 0:
        raise ValueError(f"need n >= 1 and r >= 0, got n={n} r={r}")
    return _form_poly(0, [(n - 1 + r, min(n - 1, r))])


def cocyclic_count_poly(n: int, r: int) -> list[int]:
    """Co-cyclic count at index p**r as a polynomial: T^((n-1)(r-1)) * (1 + T + ... + T^(n-1))."""
    if n < 1 or r < 1:
        raise ValueError(f"need n >= 1 and r >= 1, got n={n} r={r}")
    return [0] * ((n - 1) * (r - 1)) + [1] * n


def leading_terms_check(n: int, r: int) -> tuple[bool, dict]:
    """Whether the full count and the co-cyclic count share their two top terms.

    Both polynomials must have degree (n-1)r with coefficient 1 there and in the
    next degree down, i.e. the co-cyclic classes dominate the census.  Returns
    the verdict plus a small report, where difference_degree is None for the
    zero polynomial.
    """
    if n < 2 or r < 1:
        raise ValueError(f"need n >= 2 and r >= 1, got n={n} r={r}")
    full = sublattice_count_poly(n, r)
    coc = cocyclic_count_poly(n, r)
    top = (n - 1) * r
    full_top, coc_top = ([c[d] if d < len(c) else 0 for d in (top, top - 1)] for c in (full, coc))
    ok = len(full) == len(coc) == top + 1 and full_top == coc_top == [1, 1]
    diff = poly_sub(full, coc)
    report = {
        "degree": top,
        "full_top": full_top,
        "cocyclic_top": coc_top,
        "difference_degree": len(diff) - 1 if diff else None,
        "match": ok,
    }
    return ok, report
