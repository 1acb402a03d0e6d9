"""Minimum-distance computation for linear codes over GF(2^s).

Codewords are packed: a word of length n over GF(2^s) is s bit planes of
ceil(n/64) uint64 words, plane b holding bit b of every symbol, with the
padding bits past n zero.  Adding two words is an xor of their planes, and a
word's weight is the popcount of the OR of its planes.

One weight loop serves both methods; it reads blocks of codeword weights.
Exhaustive enumeration feeds it every nonzero message in lexicographic order
from a table walk: one table holds the sums of every combination of the last
L rows, and each value of the high digits costs one xor of that table with
the high digits' word.  So d is exact and independent of how the messages are
partitioned.  The sampled method feeds it seeded messages for a reproducible
upper bound; it splits the rows into runs of g, tabulates each run's q^g
combinations, and sums one table entry per run.  The exhaustive budget
depends on q and k alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .gf import Field, dtype_for

__all__ = [
    "DEFAULT_BUDGET",
    "DistanceReport",
    "weight",
    "exact_min_distance",
    "sampled_weight_upper_bound",
]

DEFAULT_BUDGET = 1 << 26
_CHUNK = 1 << 13  # early-stop block length, counted from each partition's start
_WALK_ENTRIES = 1 << 16  # most combinations in the exhaustive low-digit table
_GROUP_ENTRIES = 1 << 8  # most combinations in one sampled row-run table
_TABLE_BYTES = 1 << 24  # cap on the exhaustive table, and on all sampled tables
_PACK_SYMBOLS = 1 << 22  # row multiples are packed about this many symbols at a time


@dataclass(frozen=True)
class DistanceReport:
    method: str
    value: int
    exact: bool
    enumerated: int
    seed: int | None = None


def weight(word) -> int:
    """Number of nonzero coordinates."""
    if isinstance(word, np.ndarray):
        return int(np.count_nonzero(word))
    return sum(1 for c in word if int(c) != 0)


def _check_budget(q: int, k: int, budget: int) -> int:
    """q^k - 1, the message count; ValueError above the budget or 2^62."""
    total = q**k - 1
    if total > budget or total >= 1 << 62:
        need = f"needs {q}^{k} - 1 codewords, budget {budget}"
        raise ValueError(f"exhaustive enumeration infeasible: {need}")
    return total


def _basis(field: Field, basis) -> np.ndarray:
    basis = linalg.as_array(field, basis)
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
        images = linalg.scalar_mul(field, 1 << b, elements)  # c * 2^b for every c
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


def _least_weight(blocks, stop: int | None = None, block_end=None):
    """(least weight, messages seen) over consecutive blocks of codeword
    weights.  At the first message (counted from 1) whose weight is at most
    ``stop``, the walk is cut after message ``block_end(that message)``."""
    best, seen, end = math.inf, 0, None
    for weights in blocks:
        if stop is not None and end is None:
            hits = np.flatnonzero(weights <= stop)
            if len(hits):
                end = block_end(seen + 1 + int(hits[0]))
        if end is not None:
            weights = weights[: end - seen]
        best = min(best, int(weights.min()))
        seen += len(weights)
        if seen == end:
            break
    return best, seen


def _block_end(total: int, partitions: int, first: int) -> int:
    """The last message of the block that holds message ``first``, when
    messages 1..total are split into contiguous partitions and each partition
    into blocks of _CHUNK counted from its start."""
    j = (first * partitions - 1) // total  # the partition that holds it
    start = 1 + total * j // partitions
    return min(start + ((first - start) // _CHUNK + 1) * _CHUNK - 1, total * (j + 1) // partitions)


def _table_walk(multiples: np.ndarray):
    """The weights of messages 1..q^k-1, in lexicographic order with the first
    row's coefficient most significant, one block per value of the high
    digits.  ``multiples`` are the packed row multiples, (k, q, s, W)."""
    k, q, s, words = multiples.shape
    low = _digits_per_table(q, k, _WALK_ENTRIES, lambda x: q**x * s * words * 8)
    # plane by plane, so that each xor with the high word runs over whole planes
    table = _combinations(multiples[None, k - low :])[0].transpose(1, 0, 2).copy()
    codewords = np.empty_like(table)
    for high in range(q ** (k - low)):
        word, rest = np.zeros((s, 1, words), dtype=np.uint64), high
        for i in range(k - low - 1, -1, -1):
            rest, digit = divmod(rest, q)
            word[:, 0] ^= multiples[i, digit]
        weights = _weights(np.bitwise_xor(table, word, out=codewords))
        yield weights[1:] if high == 0 else weights


def _sampled_blocks(field: Field, k: int, trials: int, seed: int):
    """``trials`` seeded nonzero messages, from draws of 2^14 with zeros dropped."""
    rng = np.random.default_rng(seed)
    while trials > 0:
        digits = rng.integers(0, field.order, size=(1 << 14, k), dtype=dtype_for(field))
        keep = np.flatnonzero(digits.any(axis=1))[:trials]
        if len(keep):
            trials -= len(keep)
            yield digits[keep]


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
    """Each run of g digits as one base-q index into its run's table, the last
    run padded with zero digits: shape (trials, ceil(k/g))."""
    if g == 1:
        return digits
    k = digits.shape[1]
    index = np.zeros((len(digits), -(-k // g)), dtype=digits.dtype)  # q^g <= 256 fits
    for t in range(g):
        index *= q
        index[:, : len(range(t, k, g))] += digits[:, t::g]
    return index


def _sampled_weights(field: Field, basis: np.ndarray, trials: int, seed: int):
    """The weights of the codewords of ``trials`` seeded messages, one block
    per draw; each codeword is one table lookup per run of g rows."""
    (k, n), q = basis.shape, field.order
    entry = field.s * -(-n // 64) * 8
    g = _digits_per_table(q, k, _GROUP_ENTRIES, lambda x: -(-k // x) * q**x * entry)
    tables = _run_tables(field, basis, g)
    for digits in _sampled_blocks(field, k, trials, seed):
        index = _run_indices(digits, q, g)
        words = np.take(tables[0], index[:, 0], axis=0)
        term = np.empty_like(words)
        for j in range(1, len(tables)):
            words ^= np.take(tables[j], index[:, j], axis=0, out=term)
        yield _weights(words.transpose(1, 0, 2))


def exact_min_distance(
    field: Field,
    basis,
    budget: int = DEFAULT_BUDGET,
    partitions: int = 1,
    known_lower_bound: int | None = None,
) -> DistanceReport:
    """Exact minimum weight by enumerating all q^k - 1 nonzero messages.

    ``partitions`` splits the message index space into contiguous ranges
    whose minima are reduced; the result is identical for any count.  When
    ``known_lower_bound`` is supplied, enumeration stops as soon as the
    running minimum reaches it (a matching lower bound proves minimality).
    """
    basis = _basis(field, basis)
    if partitions < 1:
        raise ValueError("partitions must be positive")
    k, q = basis.shape[0], field.order
    total = _check_budget(q, k, budget)
    block_end = functools.partial(_block_end, total, partitions)
    blocks = _table_walk(_packed_multiples(field, basis))
    best, seen = _least_weight(blocks, known_lower_bound, block_end)
    if best == 0:
        raise ValueError("basis rows are linearly dependent")
    return DistanceReport("exhaustive", best, True, seen)


def sampled_weight_upper_bound(
    field: Field, basis, trials: int, seed: int
) -> DistanceReport:
    """Minimum weight over ``trials`` seeded pseudo-random nonzero codewords."""
    basis = _basis(field, basis)
    if trials < 1:
        raise ValueError("trials must be positive")
    best, _ = _least_weight(_sampled_weights(field, basis, trials, seed))
    return DistanceReport("sampled", best, False, trials, seed)
