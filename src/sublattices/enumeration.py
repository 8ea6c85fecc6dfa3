"""Streaming enumeration of all Hermite-form matrices with a given determinant."""

from __future__ import annotations

from itertools import chain, product, repeat
from math import prod
from typing import TYPE_CHECKING, Iterator

from .arith import divisor_compositions

if TYPE_CHECKING:
    from .forms import HnfMatrix

DEFAULT_BUDGET = 10_000_000
_LISTED = 1 << 12  # most values of one Hermite row that block_rows lists


class BudgetExceededError(RuntimeError):
    """The predicted work exceeds the budget; raised before any work starts."""

    def __init__(self, predicted: int, budget: int, scope: str, unit: str = "matrices"):
        super().__init__(f"{scope}: predicted {predicted} {unit} exceeds the budget of {budget}")
        self.predicted = predicted
        self.budget = budget
        self.scope = scope


def _odometer(prefix: tuple[int, ...], sizes: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """prefix + v for every v in range(sizes[0]) x range(sizes[1]) x ..., last fastest.

    Unlike itertools.product, no range is listed: each level holds one
    position, and the last level runs in C.
    """
    if not sizes:
        return iter((prefix,))
    if len(sizes) == 1:
        return map(prefix.__add__, zip(range(sizes[0])))
    rest = sizes[1:]
    return chain.from_iterable(_odometer(prefix + (v,), rest) for v in range(sizes[0]))


def block_rows(diag: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Row tuples of every Hermite form with diagonal diag, in hnf_stream order.

    Row i is an odometer over its entries h[i][j] in range(diag[j]), j > i,
    with prod(diag[i+1:]) values.  The trailing rows with at most _LISTED
    values each are listed once and run through itertools.product; every
    earlier row is iterated lazily, so at most n * _LISTED rows are held
    whatever the block size.
    """
    n = len(diag)
    rows = [((0,) * i + (diag[i],), diag[i + 1 :]) for i in range(n)]
    k = next(i for i in range(n) if prod(diag[i + 1 :]) <= _LISTED)
    tails = [tuple(_odometer(*row)) for row in rows[k:]]

    def forms(i: int, head: tuple) -> Iterator[tuple[tuple[int, ...], ...]]:
        if i == k:
            return map(head.__add__, product(*tails))
        values = _odometer(*rows[i])
        if i == k - 1 and len(tails[0]) == 1:
            # diag[k+1:] is all ones, so the listed rows form one tail: pair it
            # with each value in C, with no Python step per form
            return map(tuple.__add__, map(head.__add__, zip(values)), repeat(sum(tails, ())))
        return chain.from_iterable(forms(i + 1, head + (row,)) for row in values)

    return forms(0, ())


def hnf_stream(n: int, m: int) -> Iterator[HnfMatrix]:
    """Yield every n x n Hermite-form matrix with determinant m exactly once.

    The order is part of the contract: diagonals follow divisor_compositions(m, n)
    lexicographically, and for each diagonal the above-diagonal entries
    (h12, h13, ..., h1n, h23, ...) run through a row-major odometer with the last
    position moving fastest, each h[i][j] ranging over [0, h[j][j]).

    Memory is bounded whatever m: a row with more than _LISTED values is
    iterated lazily instead of listed.
    """
    # imported here, so that the CLI's count and poly commands never load forms
    from .forms import HnfMatrix

    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got n={n} m={m}")
    for diag in divisor_compositions(m, n):
        yield from map(HnfMatrix, block_rows(diag))


def hnf_stream_count(n: int, m: int) -> int:
    """Cardinality of hnf_stream(n, m), measured by consuming the stream."""
    return sum(1 for _ in hnf_stream(n, m))
