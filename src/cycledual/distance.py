"""Minimum-distance computation for linear codes over GF(2^s).

One weight loop serves both methods.  Exhaustive enumeration feeds it every
nonzero message in lexicographic order, so d is exact and independent of how
the messages are partitioned; the sampled method feeds it seeded messages for
a reproducible upper bound.  The exhaustive budget depends on q and k alone.
"""

from __future__ import annotations

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
_CHUNK = 1 << 13


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


def _row_multiples(field: Field, basis: np.ndarray) -> list[np.ndarray]:
    return [
        np.stack([linalg.scalar_mul(field, c, row) for c in range(field.order)])
        for row in basis
    ]


def _least_weight(row_mult: list[np.ndarray], blocks, stop: int | None = None):
    """(least weight, messages seen) over digit blocks of shape (chunk, k);
    stops after the block whose minimum reaches ``stop``."""
    best, seen = row_mult[0].shape[1] + 1, 0
    for digits in blocks:
        words = row_mult[0][digits[:, 0]]
        for i in range(1, len(row_mult)):
            words ^= row_mult[i][digits[:, i]]
        best = min(best, int(np.count_nonzero(words, axis=1).min()))
        seen += len(digits)
        if stop is not None and best <= stop:
            break
    return best, seen


def _lexicographic_blocks(q: int, k: int, total: int, partitions: int):
    """The base-q digits, most significant first, of messages 1..total, in
    blocks of _CHUNK counted from the start of each contiguous partition."""
    place = [q ** (k - 1 - i) for i in range(k)]
    for j in range(partitions):
        end = 1 + total * (j + 1) // partitions
        for pos in range(1 + total * j // partitions, end, _CHUNK):
            idx = np.arange(pos, min(pos + _CHUNK, end), dtype=np.int64)
            digits = np.empty((len(idx), k), dtype=np.int64)
            for i in range(k):
                digits[:, i] = (idx // place[i]) % q
            yield digits


def _sampled_blocks(field: Field, k: int, trials: int, seed: int):
    """``trials`` seeded nonzero messages, from draws of 2^14 with zeros dropped."""
    rng = np.random.default_rng(seed)
    while trials > 0:
        digits = rng.integers(0, field.order, size=(1 << 14, k), dtype=dtype_for(field))
        digits = digits[digits.any(axis=1)][:trials]
        if len(digits):
            trials -= len(digits)
            yield digits


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
    blocks = _lexicographic_blocks(q, k, total, partitions)
    best, seen = _least_weight(_row_multiples(field, basis), blocks, known_lower_bound)
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
    blocks = _sampled_blocks(field, basis.shape[0], trials, seed)
    best, _ = _least_weight(_row_multiples(field, basis), blocks)
    return DistanceReport("sampled", best, False, trials, seed)
