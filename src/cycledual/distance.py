"""Minimum-distance computation for linear codes over GF(2^s).

Codewords are packed: a word of length n over GF(2^s) is s bit planes of
ceil(n/64) uint64 words, plane b holding bit b of every symbol, with the
padding bits past n zero.  Adding two words is an xor of their planes, and a
word's weight is the popcount of the OR of its planes.

One weight loop serves both methods; it reads blocks of codeword weights.
Exhaustive enumeration feeds it at least one message per line of the code.
As wt(c x) = wt(x) for every nonzero scalar c, the messages whose leading
nonzero digit is 1 reach the weight of every nonzero codeword, and there are
only (q^k - 1)/(q - 1) of them.  A table walk yields them: one table holds
the sums of every combination of the last L rows, and it is weighed whole
once with the high digits zero, then once per value of the high digits
whose leading nonzero digit is 1, each costing one xor of the table with
the high digits' word.  So d is exact, and the one walk serves every
partition count: neither d nor the reported count, all q^k - 1 nonzero
codewords, depends on it.  The sampled method feeds the loop seeded messages
for a reproducible upper bound; it splits the rows into runs of g,
tabulates each run's q^g combinations, and sums one table entry per run.
The exhaustive budget counts q^k - 1 codewords and depends on q and k alone.

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
_WALK_ENTRIES = 1 << 16  # most combinations in the exhaustive low-digit table
_GROUP_ENTRIES = 1 << 8  # most combinations in one sampled row-run table
_TABLE_BYTES = 1 << 24  # cap on the exhaustive table, and on all sampled tables
_SAMPLED_BYTES = 1 << 29  # most bytes of one-row sampled tables; larger inputs are refused
_PACK_SYMBOLS = 1 << 22  # row multiples are packed about this many symbols at a time


@dataclass(frozen=True)
class DistanceReport:
    """``enumerated`` is the number of nonzero codewords whose weight the
    method determined: all q^k - 1 for ``exhaustive``, each the multiple of a
    walked one, and the trials, repeats included, for ``sampled``."""

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


def _basis(field: Field, basis) -> np.ndarray:
    basis = np.asarray(basis, dtype=dtype_for(field))
    if basis.ndim != 2 or basis.shape[0] < 1:
        raise ValueError("basis must be a nonempty matrix")
    return basis


# -- packed words ----------------------------------------------------------------


def _pack(field: Field, words: np.ndarray) -> np.ndarray:
    """The symbol array ``words`` of shape (..., n) as packed words of shape
    (..., s, ceil(n/64)): bit j of uint64 i of plane b is bit b of symbol
    64i + j.  The planes start zeroed, so the padding bits past n are zero."""
    n = words.shape[-1]
    planes = np.zeros(words.shape[:-1] + (field.s, -(-n // 64) * 8), dtype=np.uint8)
    for b in range(field.s):
        planes[..., b, : -(-n // 8)] = np.packbits(words >> b & 1, axis=-1, bitorder="little")
    return planes.view(np.uint64)


def _weights(planes: np.ndarray) -> np.ndarray:
    """The weight of each of m packed words, given plane by plane: (s, m, W)."""
    nonzero = planes[0]
    for plane in planes[1:]:  # a loop over the planes beats bitwise_or.reduce
        nonzero = nonzero | plane
    counts = np.bitwise_count(nonzero)
    return counts[:, 0] if counts.shape[1] == 1 else counts.sum(axis=1)


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


def _table_walk(multiples: np.ndarray):
    """The weights of at least one message per line of the code, in
    lexicographic order with the first row's coefficient most significant,
    one block per value of the high digits.  ``multiples`` are the packed
    row multiples, (k, q, s, W), and the last L rows make the low-digit table.

    The first block is messages 1..q^L-1, the high digits zero.  Then, for t
    = 0 .. k-L-1, come the high values in [q^t, 2 q^t), whose leading nonzero
    digit is 1: (q^(k-L) - 1)/(q - 1) blocks of q^L messages, where all high
    values would make q^(k-L) - 1 blocks.  Every nonzero message is c times
    a walked one for some scalar c != 0, so the least weight is the code's,
    and a nonzero message of weight 0 has a walked multiple of weight 0.  For
    q = 2 the high values are 1..2^(k-L)-1: every nonzero message, once."""
    k, q, s, words = multiples.shape
    low = _digits_per_table(q, k, _WALK_ENTRIES, lambda x: q**x * s * words * 8)
    # plane by plane, so that each xor with the high word runs over whole planes
    table = _combinations(multiples[None, k - low :])[0].transpose(1, 0, 2).copy()
    yield _weights(table)[1:]
    codewords = np.empty_like(table)
    for t in range(k - low):
        for high in range(q**t, 2 * q**t):
            word, rest = np.zeros((s, 1, words), dtype=np.uint64), high
            for i in range(k - low - 1, -1, -1):
                rest, digit = divmod(rest, q)
                word[:, 0] ^= multiples[i, digit]
            yield _weights(np.bitwise_xor(table, word, out=codewords))


def _digits(bits: np.random.PCG64, field: Field, rows: int, k: int) -> np.ndarray:
    """The next ``rows`` x k digits of the stream the module docstring
    defines; ``rows`` is a multiple of 8, so that no raw word is split.  As q
    divides 2^u, Lemire's method never rejects, and these are the digits
    ``default_rng(seed).integers(0, q, dtype=dtype_for(field))`` draws."""
    unit = np.dtype(dtype_for(field)).newbyteorder("<")
    u = unit.itemsize * 8
    raw = bits.random_raw(rows * k * u // 64).astype("<u8", copy=False)
    digits = raw.view(unit).reshape(rows, k)
    digits >>= u - field.s  # in place: no second buffer
    return digits


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
    first digit most significant and the last run padded with zero digits:
    shape (trials, ceil(k/g))."""
    if g == 1:
        return digits
    if q == 2 and g == 8:  # a run is one byte of bits
        return np.packbits(digits, axis=1)
    k = digits.shape[1]
    index = np.zeros((len(digits), -(-k // g)), dtype=digits.dtype)  # q^g <= 256 fits
    for t in range(g):
        index *= q
        index[:, : len(range(t, k, g))] += digits[:, t::g]
    return index


def _sampled_indices(field: Field, k: int, g: int, trials: int, seed: int):
    """The run indices of ``trials`` seeded nonzero messages, in blocks.  The
    messages are the nonzero ones among consecutive k-digit rows of one
    stream, drawn at most 2^14 rows at a time and never many more than are
    still needed; a message is zero exactly when all its run indices are."""
    bits = np.random.PCG64(seed)
    while trials > 0:
        rows = min(1 << 14, -(-trials // 8) * 8)
        index = _run_indices(_digits(bits, field, rows, k), field.order, g)
        keep = index.any(axis=1)
        index = index[:trials] if keep.all() else index[np.flatnonzero(keep)[:trials]]
        if len(index):
            trials -= len(index)
            yield index


def _sampled_weights(field: Field, basis: np.ndarray, trials: int, seed: int):
    """The weights of the codewords of ``trials`` seeded messages, one block
    per draw; each codeword is one table lookup per run of g rows."""
    (k, n), q = basis.shape, field.order
    entry = field.s * -(-n // 64) * 8

    def table_bytes(x: int) -> int:
        return -(-k // x) * q**x * entry

    # runs of one row make the smallest tables; _TABLE_BYTES may not hold even those
    if table_bytes(1) > _SAMPLED_BYTES:
        raise ValueError(
            f"sampled distance infeasible: its row tables need {table_bytes(1)} bytes, "
            f"limit {_SAMPLED_BYTES}"
        )
    g = _digits_per_table(q, k, _GROUP_ENTRIES, table_bytes)
    tables = _run_tables(field, basis, g)
    for index in _sampled_indices(field, k, g, trials, seed):
        words = np.take(tables[0], index[:, 0], axis=0)
        term = np.empty_like(words)
        for j in range(1, len(tables)):
            words ^= np.take(tables[j], index[:, j], axis=0, out=term)
        yield _weights(words.transpose(1, 0, 2))


def exact_min_distance(field: Field, basis, budget: int = DEFAULT_BUDGET) -> DistanceReport:
    """Exact minimum weight of all q^k - 1 nonzero codewords, which the
    report counts as enumerated.  The walk weighs one message per line of
    the code, those whose leading nonzero digit is 1, since every nonzero
    scalar multiple of a codeword has its weight; the budget still counts
    q^k - 1."""
    basis = _basis(field, basis)
    total = _check_budget(field.order, basis.shape[0], budget)
    best = _least_weight(_table_walk(_packed_multiples(field, basis)))
    if best == 0:
        raise ValueError("basis rows are linearly dependent")
    return DistanceReport("exhaustive", best, True, total)


def sampled_weight_upper_bound(
    field: Field, basis, trials: int, seed: int
) -> DistanceReport:
    """Minimum weight over ``trials`` seeded pseudo-random nonzero codewords."""
    basis = _basis(field, basis)
    if trials < 1:
        raise ValueError("trials must be positive")
    best = _least_weight(_sampled_weights(field, basis, trials, seed))
    return DistanceReport("sampled", best, False, trials, seed)
