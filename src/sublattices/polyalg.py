"""Dense integer polynomials in one formal variable, and the class-size recursion.

A polynomial is a plain list of int coefficients, constant term first, with no
trailing zeros; the zero polynomial is the empty list.  Class sizes at a fixed
exponent tuple are polynomials in the prime.  The paper's glue recursion lives
here, once: the admissible-glue scan does not depend on the prime, and the
recursion builds the class sizes with no division anywhere, so integrality
holds by construction.  Numeric class sizes are these polynomials evaluated at
the prime.
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import MutableMapping, NamedTuple, Sequence

from .arith import INFINITY, partitions


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


def poly_render(coeffs: Sequence[int], var: str = "T") -> str:
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
            power = var if deg == 1 else f"{var}^{deg}"
            body = power if abs(c) == 1 else f"{abs(c)}{power}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


class ValuationProfile(NamedTuple):
    """Valuation levels of an inner class extended by one glue vector.

    levels has one entry per dimension of the merged lattice; the entries are
    nondecreasing and the last one is INFINITY so that a cutoff always exists.
    cutoff is the first 1-based index whose level strictly exceeds the pivot
    exponent.
    """

    levels: tuple
    cutoff: int


def valuation_profile(pivot: int, inner: Sequence[int], glue: Sequence[int]) -> ValuationProfile:
    """Profile of the class obtained by gluing a pivot vector onto an inner class.

    inner is the nondecreasing exponent tuple of the inner class and glue the
    componentwise valuations of the glue vector, with 0 <= glue[i] <= inner[i].
    Level k (1-based, below the sentinel) is
        min(inner[k-1] - inner[i] + glue[i] for i < k-1,  glue[j] for j >= k-1)
    over 0-based positions of the inner tuple.
    """
    inner = tuple(int(b) for b in inner)
    glue = tuple(int(d) for d in glue)
    if pivot < 0:
        raise ValueError(f"pivot exponent must be nonnegative, got {pivot}")
    if len(glue) != len(inner):
        raise ValueError("glue vector and inner class must have equal length")
    if any(b < 0 for b in inner) or any(inner[i] > inner[i + 1] for i in range(len(inner) - 1)):
        raise ValueError(f"inner class must be nondecreasing and nonnegative, got {inner}")
    for b, d in zip(inner, glue):
        if not 0 <= d <= b:
            raise ValueError(f"glue valuation {d} outside [0, {b}]")
    levels: list = []
    for k in range(1, len(inner) + 1):
        candidates = [inner[k - 1] - inner[i] + glue[i] for i in range(k - 1)]
        candidates += [glue[j] for j in range(k - 1, len(inner))]
        levels.append(min(candidates))
    levels.append(INFINITY)
    for a, b in zip(levels, levels[1:]):
        if a > b:
            raise ArithmeticError(f"valuation levels must be nondecreasing, got {levels}")
    cutoff = next(k for k, lv in enumerate(levels, start=1) if pivot < lv)
    return ValuationProfile(tuple(levels), cutoff)


def _merged_exponents(pivot: int, inner: tuple[int, ...], prof: ValuationProfile) -> tuple[int, ...]:
    """Exponent tuple of the class glued from (pivot, inner) with the given profile."""
    n = len(inner) + 1
    lv = (0,) + prof.levels  # 1-based access with level_0 = 0
    b = (0,) + inner  # 1-based access with inner_0 = 0
    k0 = prof.cutoff
    out = []
    for k in range(1, n + 1):
        if k < k0:
            out.append(lv[k] if k == 1 else b[k - 1] + lv[k] - lv[k - 1])
        elif k == k0:
            out.append(b[k - 1] + pivot - lv[k - 1])
        else:
            out.append(b[k - 1])
    return tuple(out)


def admissible_glue(pivot: int, target: Sequence[int], inner: Sequence[int]) -> list[tuple[int, ...]]:
    """Glue valuation tuples through which (pivot, inner) merges into target.

    Scans the box prod [0, inner[i]] and keeps the glue vectors whose merged
    exponent tuple equals target.  Empty when the exponent budget
    sum(target) = pivot + sum(inner) fails.  The result does not depend on any
    prime, which is what makes the class sizes polynomial in the prime.
    """
    target = tuple(int(a) for a in target)
    inner = tuple(int(b) for b in inner)
    if pivot < 0:
        raise ValueError(f"pivot exponent must be nonnegative, got {pivot}")
    if len(target) != len(inner) + 1:
        raise ValueError("target must have one more part than the inner class")
    if sum(target) != pivot + sum(inner):
        return []
    out = []
    for glue in iter_product(*(range(b + 1) for b in inner)):
        prof = valuation_profile(pivot, inner, glue)
        if _merged_exponents(pivot, inner, prof) == target:
            out.append(glue)
    return out


def glue_vector_poly(inner: Sequence[int], glue: Sequence[int]) -> list[int]:
    """Glue vector count as a polynomial in the prime: product of (T^e - T^(e-1))."""
    out = [1]
    for b, d in zip(inner, glue):
        if not 0 <= d <= b:
            raise ValueError(f"glue valuation {d} outside [0, {b}]")
        if d < b:
            e = b - d
            factor = [0] * (e - 1) + [-1, 1]
            out = poly_mul(out, factor)
    return out


_DEFAULT_MEMO: dict[tuple[int, ...], list[int]] = {}


def _class_size_poly(exponents: tuple[int, ...], memo: MutableMapping) -> list[int]:
    got = memo.get(exponents)
    if got is not None:
        return got
    n = len(exponents)
    if n == 1:
        out = [1]
    else:
        k = sum(exponents)
        out = []
        for pivot in range(k + 1):
            for inner in partitions(n - 1, k - pivot):
                hits = admissible_glue(pivot, exponents, inner)
                if not hits:
                    continue
                weight: list[int] = []
                for g in hits:
                    weight = poly_add(weight, glue_vector_poly(inner, g))
                out = poly_add(out, poly_mul(_class_size_poly(inner, memo), weight))
    memo[exponents] = out
    return out


def class_size_poly(exponents: Sequence[int], memo: MutableMapping | None = None) -> list[int]:
    """Class size at the given exponent tuple as a polynomial in the prime.

    The paper's recursion on dimension: split off the first basis direction
    (the pivot), classify the remaining directions as an inner class one
    dimension down, and weight each inner class by the number of glue vectors
    through which the two merge into the requested class.  Evaluating the
    result at a prime p gives class_size_prime(exponents, p).  An explicit memo
    mapping exponent tuples to coefficient lists can be supplied to reuse work
    across calls (the CLI backs it with a JSON cache file).
    """
    exps = tuple(int(e) for e in exponents)
    if not exps:
        raise ValueError("exponent tuple must be nonempty")
    if any(e < 0 for e in exps) or any(exps[i] > exps[i + 1] for i in range(len(exps) - 1)):
        raise ValueError(f"exponents must be nondecreasing and nonnegative, got {exps}")
    if memo is None:
        memo = _DEFAULT_MEMO
    return list(_class_size_poly(exps, memo))


def sublattice_count_poly(n: int, r: int, memo: MutableMapping | None = None) -> list[int]:
    """Number of index-p**r sublattices of Z^n as a polynomial in the prime p."""
    if n < 1 or r < 0:
        raise ValueError(f"need n >= 1 and r >= 0, got n={n} r={r}")
    out: list[int] = []
    for exps in partitions(n, r):
        out = poly_add(out, class_size_poly(exps, memo))
    return out


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

    def coeff(c: list[int], d: int) -> int:
        return c[d] if 0 <= d < len(c) else 0

    ok = (
        len(full) - 1 == top
        and len(coc) - 1 == top
        and coeff(full, top) == coeff(coc, top) == 1
        and coeff(full, top - 1) == coeff(coc, top - 1) == 1
    )
    diff = poly_sub(full, coc)
    report = {
        "degree": top,
        "full_top": [coeff(full, top), coeff(full, top - 1)],
        "cocyclic_top": [coeff(coc, top), coeff(coc, top - 1)],
        "difference_degree": len(diff) - 1 if diff else None,
        "match": ok,
    }
    return ok, report
