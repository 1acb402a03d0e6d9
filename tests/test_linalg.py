import tracemalloc

import numpy as np
import pytest

from cycledual import Poly, field_create
from cycledual.gf import times
from cycledual.linalg import shifted_rows

from conftest import GF2, GF4
from reference import (
    dense_shifted_rows,
    elementwise_mul,
    frobenius_array,
    in_rowspace,
    mat_mul,
    rank,
    reduce_row,
    rref,
    span_packed,
    spans_equal,
)


def test_elementwise_mul_matches_field():
    a = np.array([[0, 1, 2, 3]], dtype=np.uint8)
    b = np.array([[2, 2, 2, 2]], dtype=np.uint8)
    out = elementwise_mul(GF4, a, b)
    assert out.tolist() == [[GF4.mul(x, 2) for x in (0, 1, 2, 3)]]


def test_scalar_mul():
    row = np.array([0, 1, 2, 3], dtype=np.uint8)
    assert times(GF4, row, 0).tolist() == [0, 0, 0, 0]
    assert times(GF4, row, 1).tolist() == [0, 1, 2, 3]
    assert times(GF4, row, 3).tolist() == [GF4.mul(3, x) for x in (0, 1, 2, 3)]
    assert times(GF4, row, 3).dtype == np.uint8


def test_shifted_rows():
    g = Poly(GF4, (2, 0, 1))
    assert shifted_rows(g, 4).tolist() == [[2, 0, 1, 0], [0, 2, 0, 1]]
    assert shifted_rows(g, 4).dtype == np.uint8
    assert shifted_rows(Poly(GF2, (1, 1)), 1).shape == (0, 1)
    with pytest.raises(ValueError, match="negative dimensions"):
        shifted_rows(g, 1)


@pytest.mark.parametrize("field", [GF2, GF4, field_create(4)])
def test_shifted_rows_matches_per_row_conversion(field):
    rng = np.random.default_rng(field.order)
    for rows in range(71):  # length - deg g
        low = rng.integers(0, field.order, size=rng.integers(0, 12)).tolist()
        g = Poly(field, low + [int(rng.integers(1, field.order))])
        length = g.degree + rows
        expected = dense_shifted_rows(g, length)
        got = shifted_rows(g, length)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)
        if rows:
            assert not got.flags.writeable


def test_shifted_rows_takes_memory_linear_in_k_plus_n():
    # a dense 5700 x 6000 matrix would take 34 MB; the view takes one padded row
    g = Poly(GF4, [1, 2, 3] * 100 + [1])
    n = 6000
    k = n - g.degree
    tracemalloc.start()
    try:
        rows = shifted_rows(g, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (k, n)
    assert peak < 4 * (k + n) + 16384, peak


def test_frobenius_array():
    arr = np.arange(4, dtype=np.uint8)
    assert frobenius_array(GF4, arr, 1).tolist() == [0, 1, 3, 2]  # w^2 = w + 1
    assert frobenius_array(GF4, arr, 2).tolist() == [0, 1, 2, 3]


def test_mat_mul_small():
    a = np.array([[1, 2], [0, 1]], dtype=np.uint8)
    b = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    expected = [
        [1 ^ GF4.mul(2, 1), GF4.mul(2, 1)],
        [1, 1],
    ]
    assert mat_mul(GF4, a, b).tolist() == expected
    with pytest.raises(ValueError, match="shape"):
        mat_mul(GF4, a, np.zeros((3, 2), dtype=np.uint8))


def test_rref_rank_membership():
    m = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8)  # rank 2
    reduced, pivots = rref(GF2, m)
    assert rank(GF2, m) == len(pivots) == 2
    assert in_rowspace(GF2, reduced, pivots, [1, 0, 1])
    assert not in_rowspace(GF2, reduced, pivots, [1, 0, 0])
    assert reduce_row(GF2, reduced, pivots, [1, 1, 0]).tolist() == [0, 0, 0]


def test_span_packed_gf4():
    rows = [[1, 0, 1], [0, 2, 0]]
    words = span_packed(GF4, rows)
    assert len(words) == 16  # 4^2 distinct codewords
    # duplicated rows collapse
    dup = span_packed(GF4, rows + [rows[0]])
    assert spans_equal(words, dup)


def test_span_packed_wide_words_fallback():
    # 40 symbols over GF(4) packs to 80 bits, beyond the int64 fast path
    row1 = [1, 0] * 20
    row2 = [0, 2] * 20
    wide = span_packed(GF4, [row1, row2])
    assert isinstance(wide, list) and len(wide) == 16
    narrow = span_packed(GF4, [[1, 0], [0, 2]])
    assert isinstance(narrow, np.ndarray) and len(narrow) == 16
    # same span content regardless of representation
    assert [w & 0b1111 for w in wide][:4] == [int(w) & 0b1111 for w in narrow[:4]]


def test_span_packed_limit():
    with pytest.raises(ValueError, match="limit"):
        span_packed(GF2, [[1]] * 25, limit=1 << 20)
