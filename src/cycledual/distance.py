"""Minimum-distance computation for linear codes over GF(2^s).

Codewords are packed: a word of length n over GF(2^s) is s bit planes of
W = max(1, ceil(n/64)) uint64 words, plane b holding bit b of every symbol,
with the padding bits past n zero.  Adding two words is an xor of their
planes, and a word's weight is the popcount of the OR of its planes.

One weight loop serves both methods; it takes blocks of m words word-major,
as (s, W, m), ORs the planes and sums the W rows of popcounts.  Exhaustive
enumeration weighs exactly one message per line of the code: as wt(c x) =
wt(x) for every nonzero scalar c, the (q^k - 1)/(q - 1) messages whose
leading nonzero digit is 1 reach the weight of every nonzero codeword, each
standing for q - 1 of them.  One recursive walk yields them in increasing
order: a table, laid out (s, W, q^L), holds the sums of every combination of
the last L rows, L the most whose table fits the cache-sized
``_WALK_BYTES``.  Its entries with leading digit 1 come first, then the
whole table xored with each word that the same walk yields for the rows
above.  So d is exact, and neither d, the walked words nor the reported
count, all q^k - 1 nonzero codewords, depends on L.  The sampled method
feeds the loop seeded messages for a reproducible upper bound; it
tabulates the rows' q^g combinations in runs of g, row-major as (q^g, s, W),
and sums one gathered entry per run.  Each draw shifts its digits into one
reused buffer of whole runs, the last run padded with zero digits, and holds
at most ``_DRAW_BYTES`` of raw units and digits.  Every run index is then
below q^g, so the gathers clip, which lets numpy write them in place
unbuffered.  A zero message weighs 0, so only a block whose least weight is
0 is scanned for zero messages.  The exhaustive budget counts q^k - 1
codewords and depends on q and k alone.

The sampled messages are the nonzero ones among consecutive k-digit rows of
the raw stream of ``PCG64(seed)``: each digit is the top s bits of one u-bit
unit of the raw 64-bit words, low unit first, u the width of ``dtype_for``.
NEP 19 keeps a bit generator's raw stream the same across numpy versions;
``Generator.integers`` has no such promise, though for q = 2^s it draws
these same digits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import Field, dtype_for, times

__all__ = [
    "DEFAULT_BUDGET",
    "DistanceReport",
    "exact_min_distance",
    "sampled_weight_upper_bound",
]

DEFAULT_BUDGET = 1 << 26
_WALK_BYTES = 1 << 19  # most bytes of one exhaustive walk table, which stays in cache
_GROUP_ENTRIES = 1 << 8  # most combinations in one sampled row-run table
_TABLE_BYTES = 1 << 24  # cap on all sampled tables
_SAMPLED_BYTES = 1 << 29  # most bytes of one-row sampled tables; larger inputs are refused
_DRAW_BYTES = 1 << 20  # most bytes of one sampled draw's raw units and padded digits
_PACK_SYMBOLS = 1 << 22  # row multiples are packed about this many symbols at a time


@dataclass(frozen=True)
class DistanceReport:
    """``enumerated`` is the number of nonzero codewords whose weight the
    method determined: all q^k - 1 for ``exhaustive``, each one of the q - 1
    nonzero multiples of a walked word, and the trials, repeats included, for
    ``sampled``."""

    method: str
    value: int
    exact: bool
    enumerated: int
    seed: int | None = None


def _check_budget(q: int, k: int, budget: int) -> int:
    """q^k - 1, the message count; ValueError above the budget or 2^62."""
    total = q**k - 1
    if total > budget or total >= 1 << 62:
        need = f"needs {q}^{k} - 1 codewords, budget {budget}"
        raise ValueError(f"exhaustive enumeration infeasible: {need}")
    return total


def _check_trials(trials: int, budget: int) -> None:
    """ValueError when the trials, the codewords sampling weighs, exceed the budget."""
    if trials > budget:
        raise ValueError(f"sampled distance infeasible: {trials} trials, budget {budget}")


def _basis(field: Field, basis) -> np.ndarray:
    basis = np.asarray(basis, dtype=dtype_for(field))
    if basis.ndim != 2 or basis.shape[0] < 1:
        raise ValueError("basis must be a nonempty matrix")
    return basis


# -- packed words ----------------------------------------------------------------


def _pack(field: Field, words: np.ndarray) -> np.ndarray:
    """The symbol array ``words`` of shape (..., n) as packed words of shape
    (..., s, W), W = max(1, ceil(n/64)): bit j of uint64 i of plane b is bit b
    of symbol 64i + j.  The planes start zeroed, so the padding bits are zero."""
    n = words.shape[-1]
    planes = np.zeros(words.shape[:-1] + (field.s, max(1, -(-n // 64)) * 8), dtype=np.uint8)
    for b in range(field.s):
        planes[..., b, : -(-n // 8)] = np.packbits(words >> b & 1, axis=-1, bitorder="little")
    return planes.view(np.uint64)


def _weights(planes: np.ndarray) -> np.ndarray:
    """The weight of each of m packed words, given word-major: (s, W, m).  The
    popcounts of the (W, m) words are summed by W - 1 adds of m-rows."""
    nonzero = planes[0]
    for plane in planes[1:]:  # a loop over the planes beats bitwise_or.reduce
        nonzero = nonzero | plane
    counts = np.bitwise_count(nonzero, order="C")  # (W, m), each row contiguous
    if len(counts) == 1:
        return counts[0]
    return np.add.reduce(counts, dtype=np.min_scalar_type(64 * len(counts)))


def _packed_multiples(field: Field, rows: np.ndarray) -> np.ndarray:
    """c * row for every row and every c in GF(q), packed: shape (r, q, s, W).

    Multiplying by c is GF(2)-linear on the bit planes: plane b' of c * x is
    the xor of the planes b of x for which c * 2^b has bit b' set."""
    planes, elements, s = _pack(field, rows), np.arange(field.order), field.s
    out = np.zeros((len(rows), field.order) + planes.shape[1:], dtype=np.uint64)
    for b in range(s):
        images = times(field, elements, 1 << b)  # c * 2^b for every c
        masks = np.where(images[:, None] >> np.arange(s) & 1, ~np.uint64(0), np.uint64(0))
        out ^= planes[:, None, None, b] & masks[:, :, None]
    return out


def _combinations(multiples: np.ndarray) -> np.ndarray:
    """The sums of every combination of each run of rows: multiples of shape
    (G, g, q, s, W) give tables of shape (G, q^g, s, W), entry i of a run being
    the sum with the base-q digits of i as coefficients, first row most
    significant."""
    runs, g, q, s, words = multiples.shape
    table = np.zeros((runs, 1, s, words), dtype=np.uint64)
    for i in range(g):
        table = (table[:, :, None] ^ multiples[:, i, None]).reshape(runs, q ** (i + 1), s, words)
    return table


def _digits_per_table(q: int, k: int, entries: int, table_bytes) -> int:
    """The largest x in 1..k with q^x <= entries whose tables take at most
    _TABLE_BYTES, as given by ``table_bytes(x)``; 1 when none does."""
    x = 1
    while x < k and q ** (x + 1) <= entries:
        x += 1
    while x > 1 and table_bytes(x) > _TABLE_BYTES:
        x -= 1
    return x


# -- the weight loop and its two sources -----------------------------------------


def _least_weight(blocks) -> int:
    """The least weight over consecutive blocks of codeword weights."""
    return min(int(weights.min()) for weights in blocks)


def _line_words(multiples: np.ndarray):
    """The packed words of the messages whose leading nonzero digit is 1, in
    increasing order with the first row's coefficient most significant, in
    word-major blocks (s, W, m); ``multiples`` are the packed row multiples,
    (k, q, s, W).  Every nonzero message is c times exactly one of these,
    c != 0, so they are (q^k - 1)/(q - 1) words, one per line.

    The last L rows make a table, laid out (s, W, q^L).  Its entries [q^t,
    2 q^t), t < L, are the messages with the high digits zero; then the whole
    table, xored with each word this generator yields for the rows above, is
    one block per high value.  The words do not depend on L, which each level
    recomputes from q and the word size.  A yielded block is only valid until
    the next one is asked for."""
    k, q, s, words = multiples.shape
    entry = s * words * 8
    low = _digits_per_table(q, k, _WALK_BYTES // entry, lambda x: q**x * entry)
    table = np.ascontiguousarray(_combinations(multiples[None, k - low :])[0].transpose(1, 2, 0))
    for t in range(low):
        yield table[:, :, q**t : 2 * q**t]
    if low < k:
        codewords = np.empty_like(table)
        for high in _line_words(multiples[: k - low]):
            for i in range(high.shape[2]):
                yield np.bitwise_xor(table, high[:, :, i, None], out=codewords)


def _digits(bits: np.random.PCG64, field: Field, out: np.ndarray) -> None:
    """Write the next rows x k digits of the stream the module docstring
    defines into ``out``, a (rows, k) view of the draw buffer, by one shift
    of the raw units; rows is a multiple of 8, so that no raw word is split.
    As q divides 2^u, Lemire's method never rejects, and these are the
    digits ``default_rng(seed).integers(0, q, dtype=dtype_for(field))``
    draws."""
    rows, k = out.shape
    unit = out.dtype.newbyteorder("<")
    u = unit.itemsize * 8
    raw = bits.random_raw(rows * k * u // 64).astype("<u8", copy=False)
    np.right_shift(raw.view(unit).reshape(rows, k), u - field.s, out=out)


def _run_tables(field: Field, basis: np.ndarray, g: int) -> np.ndarray:
    """The combination tables of the rows in runs of g, the last run padded
    with zero rows: shape (ceil(k/g), q^g, s, W).  Rows are packed a few
    hundred at a time, so no k x q x n array is ever built."""
    (k, n), q = basis.shape, field.order
    step = g * max(1, _PACK_SYMBOLS // (q * max(n, 1) * g))
    tables = []
    for i in range(0, k, step):
        mult = _packed_multiples(field, basis[i : i + step])
        runs = -(-len(mult) // g)
        pad = np.zeros((runs * g - len(mult),) + mult.shape[1:], dtype=np.uint64)
        mult = np.concatenate([mult, pad]).reshape((runs, g) + mult.shape[1:])
        tables.append(_combinations(mult))
    return np.concatenate(tables)


def _run_indices(digits: np.ndarray, q: int, g: int) -> np.ndarray:
    """Each run of g digits as one base-q index into its run's table, the
    first digit most significant: shape (rows, runs) from the draw buffer,
    (rows, runs * g), whose digits past k are zero.  So every index is below
    q^g, and over GF(2) with g = 8 a row is whole bytes of bits."""
    if g == 1:
        return digits
    if q == 2 and g == 8:  # a run is one byte of bits
        return np.packbits(digits).reshape(len(digits), -1)
    index = digits[:, ::g].copy()  # q^g <= 256 fits
    for t in range(1, g):
        index *= q
        index += digits[:, t::g]
    return index


def _sampled_weights(field: Field, basis: np.ndarray, trials: int, seed: int):
    """The weights of the codewords of ``trials`` seeded nonzero messages;
    each codeword is one table lookup per run of g rows.  A draw's raw units
    and padded digits take at most _DRAW_BYTES (4,112 rows at k = 127 over
    GF(2)), and it draws never many more rows than are still needed.  The
    digit buffer and the two word buffers are allocated once."""
    (k, n), q = basis.shape, field.order
    entry = field.s * max(1, -(-n // 64)) * 8

    def table_bytes(x: int) -> int:
        return -(-k // x) * q**x * entry

    # runs of one row make the smallest tables; _TABLE_BYTES may not hold even those
    if table_bytes(1) > _SAMPLED_BYTES:
        raise ValueError(
            f"sampled distance infeasible: its row tables need {table_bytes(1)} bytes, "
            f"limit {_SAMPLED_BYTES}"
        )
    g = _digits_per_table(q, k, _GROUP_ENTRIES, table_bytes)
    tables, bits = _run_tables(field, basis, g), np.random.PCG64(seed)
    unit = np.dtype(dtype_for(field))
    per_row = (k + len(tables) * g) * unit.itemsize  # raw units and padded digits
    size = min(max(8, _DRAW_BYTES // per_row // 8 * 8), -(-trials // 8) * 8)
    # reused, so that no draw faults in fresh pages; the padding digits stay 0
    digits = np.zeros((size, len(tables) * g), dtype=unit)
    buffers = np.empty((2, size) + tables.shape[2:], dtype=np.uint64)
    while trials > 0:
        rows = min(size, -(-trials // 8) * 8)
        _digits(bits, field, digits[:rows, :k])
        index = _run_indices(digits[:rows], q, g)
        words, term = buffers[:, :rows]
        # no index reaches q^g, so "clip" changes none; unlike "raise", it
        # lets take write into ``out`` without a buffered copy
        np.take(tables[0], index[:, 0], axis=0, out=words, mode="clip")
        for j in range(1, len(tables)):
            words ^= np.take(tables[j], index[:, j], axis=0, out=term, mode="clip")
        weights = _weights(words.transpose(1, 2, 0))
        if weights[:trials].min():
            weights = weights[:trials]
        else:  # a zero message is a row of zero run indices
            weights = weights[np.flatnonzero(index.any(axis=1))[:trials]]
        if len(weights):
            trials -= len(weights)
            yield weights


def exact_min_distance(field: Field, basis, budget: int = DEFAULT_BUDGET) -> DistanceReport:
    """Exact minimum weight of all q^k - 1 nonzero codewords, which the
    report counts as enumerated.  The walk weighs exactly one message per
    line of the code, those whose leading nonzero digit is 1, since the
    q - 1 nonzero multiples of a codeword share its weight; the budget still
    counts q^k - 1."""
    basis = _basis(field, basis)
    total = _check_budget(field.order, basis.shape[0], budget)
    best = _least_weight(map(_weights, _line_words(_packed_multiples(field, basis))))
    if best == 0:
        raise ValueError("basis rows are linearly dependent")
    return DistanceReport("exhaustive", best, True, total)


def sampled_weight_upper_bound(
    field: Field, basis, trials: int, seed: int, budget: int = DEFAULT_BUDGET
) -> DistanceReport:
    """Minimum weight over ``trials`` seeded pseudo-random nonzero codewords,
    refused before any table is built when they exceed the budget.  A
    negative seed is refused first, with the message of ``PCG64``, which
    would refuse it only after the tables are built."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    basis = _basis(field, basis)
    if trials < 1:
        raise ValueError("trials must be positive")
    _check_trials(trials, budget)
    best = _least_weight(_sampled_weights(field, basis, trials, seed))
    return DistanceReport("sampled", best, False, trials, seed)
