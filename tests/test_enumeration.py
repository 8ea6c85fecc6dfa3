import tracemalloc
from itertools import islice, product, zip_longest

import pytest

from sublattices import enumeration
from sublattices.arith import divisor_compositions
from sublattices.census import sublattice_count
from sublattices.enumeration import hnf_stream, hnf_stream_count
from sublattices.forms import validate_hnf


def slot_odometer(n, m):
    """Reference order: one odometer over the slots (0,1), (0,2), ..., (n-2,n-1)."""
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for diag in divisor_compositions(m, n):
        for offs in product(*(range(diag[j]) for _, j in slots)):
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = diag[i]
            for (i, j), v in zip(slots, offs):
                rows[i][j] = v
            yield tuple(tuple(r) for r in rows)


def test_stream_2_2_exact_order():
    got = [h.rows for h in hnf_stream(2, 2)]
    assert got == [
        ((1, 0), (0, 2)),
        ((1, 1), (0, 2)),
        ((2, 0), (0, 1)),
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_stream_order_matches_slot_odometer(n):
    for m in (1, 7, 12, 32, 49):
        if n == 5 and m > 12:
            continue  # millions of forms
        pairs = zip_longest((h.rows for h in hnf_stream(n, m)), slot_odometer(n, m))
        for k, (got, want) in enumerate(pairs):
            assert got == want, (n, m, k)


@pytest.mark.parametrize("listed", [1, 3])
def test_stream_order_with_lazy_rows(monkeypatch, listed):
    # rows with more than _LISTED values are iterated lazily: the order holds
    # across the switch from lazy rows to listed ones
    monkeypatch.setattr(enumeration, "_LISTED", listed)
    for n, m in ((1, 6), (2, 12), (3, 12), (4, 8), (5, 4)):
        assert [h.rows for h in hnf_stream(n, m)] == list(slot_odometer(n, m)), (n, m)


def test_stream_does_not_list_the_first_row():
    # the diagonal (1, ..., 1, p) gives p values to every row but the last;
    # such rows are iterated lazily, so the peak does not grow with p
    p = 1_000_003
    for n in (2, 3, 4):
        tracemalloc.start()
        try:
            first = [h.rows for h in islice(hnf_stream(n, p), 3)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = []
        for v in range(3):
            rows = [[int(i == j) for j in range(n)] for i in range(n)]
            rows[n - 1][n - 1], rows[n - 2][n - 1] = p, v
            want.append(tuple(map(tuple, rows)))
        assert first == want, n
        assert peak < 1 << 20, (n, peak)


def test_stream_1_m():
    assert [h.rows for h in hnf_stream(1, 7)] == [((7,),)]


def test_stream_yields_valid_matrices():
    for h in hnf_stream(3, 12):
        validate_hnf(h.rows)
        assert h.det() == 12


def test_stream_no_duplicates():
    seen = [h.rows for h in hnf_stream(3, 12)]
    assert len(seen) == len(set(seen))


def test_stream_diagonal_order_follows_compositions():
    diags = []
    for h in hnf_stream(3, 8):
        if not diags or diags[-1] != h.diag:
            diags.append(h.diag)
    assert diags == list(divisor_compositions(8, 3))


def test_stream_counts_match_closed_form():
    for n in (1, 2, 3):
        for m in range(1, 41):
            assert hnf_stream_count(n, m) == sublattice_count(n, m), (n, m)
    for m in (2, 4, 8, 16):
        assert hnf_stream_count(4, m) == sublattice_count(4, m), m


def test_stream_cardinality_splits_over_coprime_parts():
    from math import gcd

    for n in (1, 2, 3):
        counted = [0] + [hnf_stream_count(n, m) for m in range(1, 201)]
        for a in range(2, 15):
            for b in range(a, 201):
                if a * b > 200:
                    break
                if gcd(a, b) == 1:
                    assert counted[a * b] == counted[a] * counted[b], (n, a, b)


def test_stream_known_cardinalities():
    assert hnf_stream_count(2, 2) == 3
    assert hnf_stream_count(2, 4) == 7
    assert hnf_stream_count(3, 2) == 7
    assert hnf_stream_count(3, 4) == 35
    assert hnf_stream_count(4, 2) == 15
    assert hnf_stream_count(4, 4) == 155


def test_stream_errors():
    with pytest.raises(ValueError):
        next(hnf_stream(0, 4))
    with pytest.raises(ValueError):
        next(hnf_stream(2, 0))
