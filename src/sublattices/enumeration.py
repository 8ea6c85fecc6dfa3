"""Streaming enumeration of all Hermite-form matrices with a given determinant."""

from __future__ import annotations

from itertools import product
from typing import Iterator

from .arith import divisor_compositions
from .forms import HnfMatrix

DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """The predicted work exceeds the budget; raised before any work starts."""

    def __init__(self, predicted: int, budget: int, scope: str, unit: str = "matrices"):
        super().__init__(f"{scope}: predicted {predicted} {unit} exceeds the budget of {budget}")
        self.predicted = predicted
        self.budget = budget
        self.scope = scope


def _row(diag: tuple[int, ...], i: int) -> Iterator[tuple[int, ...]]:
    # row i of a Hermite form: zeros, the diagonal entry, then h[i][j] in [0, diag[j])
    return product(*([(0,)] * i), (diag[i],), *(range(d) for d in diag[i + 1 :]))


def block_rows(diag: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Row tuples of every Hermite form with diagonal diag, in hnf_stream order.

    Rows 1..n-1 are listed once; row i has prod(diag[i+1:]) options, at most
    the square root of the block's size.  Row 0 is streamed: its entry in
    column 1 counts through range(diag[1]), which may be as long as the
    block, and its later entries repeat those of the listed row 1.
    """
    if len(diag) == 1:
        yield (tuple(diag),)
        return
    tails = [tuple(_row(diag, i)) for i in range(1, len(diag))]
    for h in range(diag[1]):
        for row1 in tails[0]:
            row0 = (diag[0], h) + row1[2:]
            for tail in product(*tails):
                yield (row0,) + tail


def hnf_stream(n: int, m: int) -> Iterator[HnfMatrix]:
    """Yield every n x n Hermite-form matrix with determinant m exactly once.

    The order is part of the contract: diagonals follow divisor_compositions(m, n)
    lexicographically, and for each diagonal the above-diagonal entries
    (h12, h13, ..., h1n, h23, ...) run through a row-major odometer with the last
    position moving fastest, each h[i][j] ranging over [0, h[j][j]).

    Memory is bounded per diagonal: the first row is produced on the fly, and
    every later row is listed once, at most sqrt(block size) tuples each,
    where the block size is the number of forms with that diagonal.
    """
    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got n={n} m={m}")
    for diag in divisor_compositions(m, n):
        for rows in block_rows(diag):
            yield HnfMatrix(rows)


def hnf_stream_count(n: int, m: int) -> int:
    """Cardinality of hnf_stream(n, m), measured by consuming the stream."""
    return sum(1 for _ in hnf_stream(n, m))
